"""The benchmark's workloads: config generation and per-row output checks.

Each workload is one ``sparsecomm`` CLI command on a config generated from
the benchmark seed; every seed inside the config derives from it.  Output
rows are checked in two ways:

* for a pinned seed (``reference.json``), every CSV line must equal the
  pinned line byte for byte;
* for any other seed, the columns that do not depend on the seed must
  equal the default seed's pinned row, and the seed-dependent values
  must pass independent checks (the risk against a closed form, the
  training results for finiteness).  The runner also requires every
  process of one run to write the same bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 9
PINNED_SEEDS = tuple(range(10))


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` 63-bit seeds derived from the benchmark seed, stdlib only."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.getrandbits(63) for _ in range(count)]


def _cells(line: str) -> list[str]:
    return line.split(",")


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _same_cells(cells: list[str], pinned: list[str], columns: list[str], skip) -> bool:
    return len(cells) == len(pinned) and all(
        a == b for col, a, b in zip(columns, cells, pinned) if col not in skip
    )


def flat_probe_risk(n: int, d: int, s: float, kprime: int) -> float:
    """Exact risk of subsample-and-reweight for theta_j = s/d.

    With counts m ~ Binomial(d, s/d), E||theta_hat - theta||^2 equals
    (E[m^2/kprime if m > kprime else m] - d (s/d)^2) / n: each kept one
    carries weight m/kprime, and a node contributes m ones on average
    before subsampling.
    """
    p = s / d
    expected = 0.0
    for m in range(d + 1):
        pmf = math.comb(d, m) * p**m * (1.0 - p) ** (d - m)
        expected += pmf * (m * m / kprime if m > kprime else m)
    return (expected - d * p * p) / n


@dataclasses.dataclass(frozen=True)
class RiskSweep:
    """SweepRisk on the flat probe at d=64, s=8 over n x k (kprime 1..11)."""

    trials: int = 150
    name = "risk_sweep"
    subcommand = "sweep-risk"
    columns = [
        "n", "k", "d", "s", "trials", "risk", "std_err",
        "upper_bound", "lower_bound", "centralized",
        "upper_regime", "lower_regime", "kprime", "probe", "status",
    ]
    rows = 12

    def config(self, seed: int) -> str:
        (point_seed,) = derived_seeds(self.name, seed, 1)
        return "\n".join(
            [
                "command = SweepRisk",
                "probes = [flat]",
                "d = 64",
                "s = 8",
                "n = [16, 128]",
                "k = [14, 20, 26, 32, 40, 48]",
                f"trials = {self.trials}",
                f"seed = {point_seed}",
                "workers = 1",
                "",
            ]
        )

    def row_ok(self, cells: list[str], pinned: list[str]) -> bool:
        if not _same_cells(cells, pinned, self.columns, {"trials", "risk", "std_err"}):
            return False
        row = dict(zip(self.columns, cells))
        risk, std_err = _number(row["risk"]), _number(row["std_err"])
        if row["trials"] != str(self.trials) or not (risk > 0 and std_err > 0):
            return False
        exact = flat_probe_risk(int(row["n"]), int(row["d"]), float(row["s"]), int(row["kprime"]))
        return abs(risk - exact) <= 6.0 * std_err


@dataclasses.dataclass(frozen=True)
class CompareSparsifiers:
    """CompareSparsifiers on the shipped concentrated-quadratic shape."""

    steps: int = 200
    seeds: int = 5
    name = "sgd_compare"
    subcommand = "compare-sparsifiers"
    columns = [
        "spec", "k_entries", "seeds", "mean_final_loss", "std_final_loss",
        "mean_final_grad_sq", "std_final_grad_sq", "comm_entries_per_round",
    ]
    rows = 3

    def config(self, seed: int) -> str:
        objective_seed, *training = derived_seeds(self.name, seed, 1 + self.seeds)
        return "\n".join(
            [
                "command = CompareSparsifiers",
                "objective = concentrated_quadratic",
                "d = 500",
                "obj_heavy = 10",
                "obj_heavy_noise = 0.8",
                "obj_light_noise = 0.004",
                "obj_samples = 400",
                "n = 5",
                "batch_size = 2",
                "k = 2",
                f"steps = {self.steps}",
                "eta = 0.15",
                "specs = [rtop:10:2, top:2, random:2]",
                f"seeds = [{', '.join(map(str, training))}]",
                f"seed = {objective_seed}",
                "workers = 1",
                "",
            ]
        )

    def row_ok(self, cells: list[str], pinned: list[str]) -> bool:
        numeric = {"mean_final_loss", "std_final_loss", "mean_final_grad_sq", "std_final_grad_sq"}
        if not _same_cells(cells, pinned, self.columns, numeric | {"seeds"}):
            return False
        row = dict(zip(self.columns, cells))
        # the loss is offset to vanish at the empirical minimizer
        values = [_number(row[col]) for col in numeric]
        return row["seeds"] == str(self.seeds) and all(v >= 0 for v in values)


@dataclasses.dataclass(frozen=True)
class CodecRoundtrip:
    """CodecRoundtrip with sampled supports at d in {16, 64, 256} x k in {24, 48, 96}."""

    samples: int = 1000
    name = "codec_roundtrip"
    subcommand = "codec-roundtrip"
    columns = [
        "d", "k", "header_bits", "payload_bits", "kprime", "roundtrips", "failures", "status",
    ]
    rows = 9

    def config(self, seed: int) -> str:
        (support_seed,) = derived_seeds(self.name, seed, 1)
        return "\n".join(
            [
                "command = CodecRoundtrip",
                "d = [16, 64, 256]",
                "k = [24, 48, 96]",
                f"samples = {self.samples}",
                f"seed = {support_seed}",
                "workers = 1",
                "",
            ]
        )

    def row_ok(self, cells: list[str], pinned: list[str]) -> bool:
        if not _same_cells(cells, pinned, self.columns, {"roundtrips"}):
            return False
        return dict(zip(self.columns, cells))["roundtrips"] == str(self.samples)


WORKLOADS = {w.name: w for w in (RiskSweep(), CompareSparsifiers(), CodecRoundtrip())}


def load_references() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def pinned_lines(references: dict, workload, seed: int):
    """The pinned CSV lines (header first) for this exact workload and seed."""
    if workload != WORKLOADS[workload.name]:
        return None
    return references.get(workload.name, {}).get(str(seed))


def failed_rows(workload, seed: int, data, references: dict) -> list[int]:
    """Indices of the expected data rows that are missing or wrong.

    ``data`` is the CSV file's bytes, or None when no file was written.
    """
    expected = range(workload.rows)
    if data is None:
        return list(expected)
    lines = data.decode("utf-8", errors="replace").split("\n")
    header, body = lines[0], lines[1:]
    if body and body[-1] == "":
        body.pop()  # the trailing newline
    if header != ",".join(workload.columns) or len(body) > workload.rows:
        return list(expected)
    exact = pinned_lines(references, workload, seed)
    if exact is not None:
        ok = lambda i: body[i] == exact[i + 1]
    else:
        default = references[workload.name][str(DEFAULT_SEED)]
        ok = lambda i: workload.row_ok(_cells(body[i]), _cells(default[i + 1]))
    return [i for i in expected if i >= len(body) or not ok(i)]
