"""Benchmark of the ``sparsecomm`` CLI: end-to-end and per-layer metrics.

    python3 bench/run_bench.py --workload risk_sweep --seed 0 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  For ``--seconds`` seconds the benchmark starts
fresh single-threaded processes (``bench/worker.py``), all pinned to one
CPU, each of which sets up and runs the workload's command once, and
checks every CSV row they write.  ``--trace 0`` reports the end-to-end metrics (``run_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` alternates untraced and
traced processes and reports the per-layer metrics.  The second-to-last
stdout line is a JSON ``details`` object (every sample, CSV hashes, the
machine); the last line is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the whole benchmark must end within 180 s; a stuck process is killed
HARD_LIMIT_S = 170.0
MIN_UNTRACED = 3
# run_s and setup_s are reported at the machine speed where
# worker.calibrate() takes this long
CALIBRATION_REF_S = 0.1

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RATIOS = {
    "codec.subsampled_share": ("codec.rows_subsampled", "codec.rows_encoded"),
    "codec.kept_ones_share": ("codec.ones_kept", "codec.ones_observed"),
    "sparsify.nnz_share": ("sparsify.nnz", "sparsify.entries_budget"),
}
PER_LAYER = {
    **{f"{name}.calls": "count" for name in tracing.SPAN_NAMES},
    **{f"{name}.self_pct": "%" for name in tracing.SPAN_NAMES},
    "cli.main.self_s": "s",
    "harness.self_s": "s",
    "tracing_overhead_s": "s",
    "codec.rows_encoded": "count",
    "estimator.trials": "count",
    "sgdsim.node_rounds": "count",
    **{name: "ratio" for name in RATIOS},
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    # an installed package imports from cached bytecode, so let the warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process; return its JSON result plus its set-up time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "benchmark time limit reached"}
    cmd = [sys.executable, str(WORKER), "--src", str(ROOT / "src"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    if proc.returncode != 0 or result.get("rc", 0) != 0:
        result["error"] = f"exit {proc.returncode}/{result.get('rc')}: {proc.stderr.strip()[-400:]}"
    result["wall_setup_s"] = result["t_loaded"] - spawned
    if "calibration_s" in result:
        speed = CALIBRATION_REF_S / statistics.fmean(result["calibration_s"])
        result["scaled_run_s"] = result["run_s"] * speed
        result["setup_s"] = result["wall_setup_s"] * speed
    return result


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 20:
        return None
    return {"pct": math.floor(100 * (n - 10) / n), "value": sorted(values)[n - 11]}


def summary(values: list[float]) -> dict:
    return {
        "min": min(values, default=None),
        "median": statistics.median(values) if values else None,
        "samples": len(values),
        "tail": tail_percentile(values),
    }


def git_commit():
    """HEAD's commit read from ``.git`` directly, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(numpy_version, cpus, pinned) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(cpus),
        "pinned_cpu": pinned,
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: "1" for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced processes."""
    med = statistics.median
    values = {}
    for name in tracing.SPAN_NAMES:
        values[f"{name}.calls"] = statistics.median_low(p["trace"]["calls"].get(name, 0) for p in traced)
        values[f"{name}.self_pct"] = med(
            100.0 * p["trace"]["self_s"].get(name, 0.0) / p["run_s"] for p in traced
        )
    values["cli.main.self_s"] = med(p["trace"]["self_s"]["cli.main"] for p in traced)
    values["harness.self_s"] = med(p["trace"]["self_s"]["harness.run"] for p in traced)
    values["tracing_overhead_s"] = med(p["scaled_run_s"] for p in traced) - med(
        p["scaled_run_s"] for p in untraced
    )
    for name in ("codec.rows_encoded", "estimator.trials", "sgdsim.node_rounds"):
        values[name] = statistics.median_low(p["trace"]["counters"][name] for p in traced)
    counters = traced[0]["trace"]["counters"]  # counts repeat exactly across processes
    for name, (num, den) in RATIOS.items():
        values[name] = counters[num] / counters[den] if counters[den] else 0.0
    return values


def run(workload, seed: int, seconds: float, trace: bool, out_root: Path = ROOT / ".bench_out"):
    """Measure one workload; returns ``(result, details)``."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    references = workloads.load_references()
    if workload.name not in references:
        raise BenchError(f"no pinned reference rows for {workload.name}")
    out_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
    spans_path = out_root / "spans" / f"{workload.name}-seed{seed}.npz"
    if trace:
        spans_path.parent.mkdir(exist_ok=True)
    processes: list[dict] = []
    cpus = os.sched_getaffinity(0)
    pinned = max(cpus)
    # The workers inherit the pin, so none of them migrates between CPUs
    # whose speeds differ, and the calibration loop times the CPU the
    # workload runs on.
    os.sched_setaffinity(0, {pinned})
    try:
        config = scratch / "workload.cfg"
        config.write_text(workload.config(seed), encoding="utf-8")
        common = ["--config", str(config), "--subcommand", workload.subcommand]
        # fills file caches and __pycache__
        warm = spawn([*common, "--out", str(scratch / "warm.csv"), "--setup-only"], deadline)
        if "error" in warm:
            raise BenchError(f"set-up failed: {warm['error']}")
        first_csv = None
        while True:
            untraced = [p for p in processes if not p["traced"]]
            traced_mode = trace and len(processes) % 2 == 1
            same_mode = [p for p in processes if p["traced"] == traced_mode]
            enough = len(untraced) >= MIN_UNTRACED or (trace and len(processes) >= 2)
            estimate = same_mode[-1]["wall_s"] if same_mode else 0.0
            if enough and time.monotonic() - started + estimate > seconds:
                break
            csv_path = scratch / f"run-{len(processes)}.csv"
            args = [*common, "--out", str(csv_path)]
            if traced_mode:
                args += ["--spans", str(spans_path), "--run-id", uuid.uuid4().hex]
            t0 = time.monotonic()
            proc = spawn(args, deadline)
            proc["wall_s"] = time.monotonic() - t0
            proc["traced"] = traced_mode
            data = csv_path.read_bytes() if csv_path.exists() and "error" not in proc else None
            bad = set(workloads.failed_rows(workload, seed, data, references))
            if data is not None:
                if first_csv is None:
                    first_csv = data.split(b"\n")
                # every process of one run must write the same bytes
                lines = data.split(b"\n")
                bad |= {
                    i for i in range(workload.rows)
                    if lines[i + 1 : i + 2] != first_csv[i + 1 : i + 2]
                }
                proc["csv_sha256"] = hashlib.sha256(data).hexdigest()
            if proc.get("wrappers_left"):
                proc["error"] = f"wrappers left installed: {proc['wrappers_left']}"
                bad = set(range(workload.rows))
            proc["failed_rows"] = sorted(bad)
            processes.append(proc)
            if "error" in proc and "t_loaded" not in proc:
                break  # the process never ran; more attempts would not either
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [p for p in processes if not p["traced"] and "run_s" in p]
    traced = [p for p in processes if p["traced"] and "trace" in p]
    attempted = workload.rows * len(processes)
    failed = sum(len(p["failed_rows"]) for p in processes)
    metrics = None
    if trace and traced and untraced:
        values = layer_metrics(traced, untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    elif not trace and untraced:
        values = {
            "run_s": statistics.median(p["scaled_run_s"] for p in untraced),
            "setup_s": statistics.median(p["setup_s"] for p in processes if "setup_s" in p),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    details = {
        "workload": workload.name,
        "seed": seed,
        "pinned_reference": workloads.pinned_lines(references, workload, seed) is not None,
        "seconds": seconds,
        "elapsed_s": time.monotonic() - started,
        "trace": trace,
        "failed_share": failed / attempted if attempted else None,
        "run_s": summary([p["scaled_run_s"] for p in untraced]),
        "wall_run_s": summary([p["run_s"] for p in untraced]),
        "calibration_s": summary([statistics.fmean(p["calibration_s"]) for p in untraced]),
        "setup_s": summary([p["setup_s"] for p in processes if "setup_s" in p]),
        "wall_setup_s": summary([p["wall_setup_s"] for p in processes if "setup_s" in p]),
        "peak_rss_mb": summary([p["maxrss_kb"] / 1024 for p in untraced]),
        "processes": [
            {
                key: p.get(key)
                for key in ("traced", "run_s", "scaled_run_s", "calibration_s", "setup_s",
                            "wall_setup_s", "maxrss_kb", "csv_sha256", "failed_rows", "error")
            }
            for p in processes
        ],
        "machine": machine(warm.get("numpy"), cpus, pinned),
    }
    if traced:
        details["traced_run_s"] = summary([p["run_s"] for p in traced])
        last = traced[-1]["trace"]
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
        details["spans"] = last["spans"]
        details["per_function"] = {
            name: {"calls": last["calls"][name], "self_s": last["self_s"][name],
                   "total_s": last["total_s"][name]}
            for name in last["calls"]
        }
        details["counters"] = last["counters"]
    result = {
        "correct": failed == 0 and metrics is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics or {},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparsecomm" / "__init__.py").is_file():
        print(f"error: no sparsecomm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, details = run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
