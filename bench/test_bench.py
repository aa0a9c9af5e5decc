"""Tests of the benchmark itself.

    python3 -m pytest -q bench

Tiny variants of every workload run end to end through the same code as
the real benchmark; the row checks, the tracer and the metric names are
checked on their own.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run_bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "risk_sweep": workloads.RiskSweep(trials=100),
    "sgd_compare": workloads.CompareSparsifiers(steps=20),
    "codec_roundtrip": workloads.CodecRoundtrip(samples=20),
}


def csv_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_end_to_end(name, trace, tmp_path):
    workload = TINY[name]
    cpus = os.sched_getaffinity(0)
    result, details = run_bench.run(workload, seed=5, seconds=0, trace=trace, out_root=tmp_path)
    assert os.sched_getaffinity(0) == cpus
    assert result["correct"], details["processes"]
    assert result["failed"] == 0
    assert result["attempted"] == workload.rows * len(details["processes"])
    expected = run_bench.PER_LAYER if trace else run_bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k in run_bench.END_TO_END)


def test_traced_run_writes_the_same_csv_bytes(tmp_path):
    _, details = run_bench.run(TINY["sgd_compare"], seed=3, seconds=0, trace=True, out_root=tmp_path)
    hashes = {p["traced"]: p["csv_sha256"] for p in details["processes"]}
    assert set(hashes) == {False, True}
    assert hashes[True] == hashes[False]


def test_failing_command_fails_every_row(tmp_path):
    too_few_trials = workloads.RiskSweep(trials=50)  # the harness requires >= 100
    result, _ = run_bench.run(too_few_trials, seed=1, seconds=0, trace=False, out_root=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_byte_change_is_a_failed_row(name):
    references = workloads.load_references()
    workload = workloads.WORKLOADS[name]
    lines = references[name][str(workloads.HELD_OUT_SEED)]
    data = csv_bytes(lines)
    assert workloads.failed_rows(workload, workloads.HELD_OUT_SEED, data, references) == []
    row = workload.rows - 1
    at = data.index(lines[row + 1].encode()) + 3
    changed = data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]
    assert workloads.failed_rows(workload, workloads.HELD_OUT_SEED, changed, references) == [row]


def test_missing_rows_and_files_fail():
    references = workloads.load_references()
    workload = workloads.WORKLOADS["codec_roundtrip"]
    lines = references[workload.name]["0"]
    assert workloads.failed_rows(workload, 0, None, references) == list(range(workload.rows))
    truncated = csv_bytes(lines[:-2])
    assert workloads.failed_rows(workload, 0, truncated, references) == [7, 8]


def test_unpinned_seed_checks_rows_independently():
    references = workloads.load_references()
    workload = workloads.WORKLOADS["codec_roundtrip"]
    lines = list(references[workload.name]["0"])
    unpinned = 1000
    assert workloads.failed_rows(workload, unpinned, csv_bytes(lines), references) == []
    lines[2] = lines[2].replace(",0,ok", ",1,failed")
    assert workloads.failed_rows(workload, unpinned, csv_bytes(lines), references) == [1]


def test_risk_rows_match_the_closed_form():
    references = workloads.load_references()
    workload = workloads.WORKLOADS["risk_sweep"]
    header, *rows = references[workload.name]["0"]
    for line in rows:
        row = dict(zip(header.split(","), line.split(",")))
        exact = workloads.flat_probe_risk(int(row["n"]), 64, 8.0, int(row["kprime"]))
        assert abs(float(row["risk"]) - exact) <= 6 * float(row["std_err"])


def test_configs_derive_every_seed_from_the_workload_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.config(4) == workload.config(4)
        assert workload.config(4) != workload.config(5)


def test_no_wrapper_left_after_a_traced_run(tmp_path):
    from sparsecomm import cli

    config = tmp_path / "w.cfg"
    config.write_text(TINY["codec_roundtrip"].config(1))
    originals = {
        (owner, attr): getattr(tracing.resolve_owner(owner), attr)
        for owner, attr, _, _ in tracing.TARGETS
    }
    with tracing.Tracer("test") as tracer:
        assert len(tracing.installed_wrappers()) == len(tracing.TARGETS)
        argv = ["codec-roundtrip", "--config", str(config), "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 0
    assert tracing.installed_wrappers() == []
    for (owner, attr), fn in originals.items():
        assert getattr(tracing.resolve_owner(owner), attr) is fn
    summary = tracer.summary()
    assert summary["calls"]["codec.encode"] == 9 * 20
    assert summary["counters"]["codec.rows_encoded"] == 9 * 20
    # self times partition the root span
    assert sum(summary["self_s"].values()) == pytest.approx(summary["total_s"]["cli.main"])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run_bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "risk_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
