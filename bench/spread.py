"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 0-9 --save set1.json
    python3 bench/spread.py --seeds 0-9 --baseline set1.json

Workloads alternate between runs (seed 0 of every workload, then seed 1,
...).  For every end-to-end metric and workload it prints the median of
the runs, the quartile spread ``(q3 - q1) / median`` as
``statistics.quantiles(values, n=4)`` gives them, and the metric's bound
from BENCHMARK.json; with ``--baseline`` it also prints the change of
each median against an earlier saved set.  Exits 1 if any run was
incorrect, a spread (``setup_s`` aside) reaches a third of its bound, or
a median worsened by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-400:]}
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the per-run values to this JSON file")
    parser.add_argument("--baseline", help="a file written by --save to compare medians with")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    ok = True
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            result = run_once(workload, seed, args.seconds)
            ok &= bool(result["correct"])
            for name, metric in result.get("metrics", {}).items():
                values[workload][name].append(metric["value"])
            shown = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
            print(f"{workload} seed={seed} correct={result['correct']} {shown}", flush=True)
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            runs = values[workload][name]
            if len(runs) < 2:
                print(f"{workload:16s} {name:12s} too few runs ({len(runs)})")
                ok = False
                continue
            q1, median, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median
            line = f"{workload:16s} {name:12s} median={median:.5g} spread={spread:.4f} bound={bound}"
            if name != "setup_s" and spread >= bound / 3:
                line += "  SPREAD >= bound/3"
                ok = False
            if baseline is not None:
                before = statistics.median(baseline[workload][name])
                change = (median - before) / before
                if metric["better"] == "higher":
                    change = -change
                line += f" worse_by={change:+.4f}"
                if change > bound:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
