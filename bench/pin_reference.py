"""Pin each workload's CSV lines for the pinned seeds into reference.json.

    python3 bench/pin_reference.py

Only seeds missing from reference.json are run, so existing pins are
never rewritten: the pins are the outputs of the commit that defined the
benchmark, and every later commit must reproduce them byte for byte.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run_bench
import workloads


def main() -> int:
    references = workloads.load_references()
    out_root = run_bench.ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        pinned = references.setdefault(workload.name, {})
        for seed in workloads.PINNED_SEEDS:
            if str(seed) in pinned:
                continue
            with tempfile.TemporaryDirectory(dir=out_root) as tmp:
                config = Path(tmp) / "workload.cfg"
                config.write_text(workload.config(seed), encoding="utf-8")
                csv_path = Path(tmp) / "out.csv"
                result = run_bench.spawn(
                    ["--config", str(config), "--subcommand", workload.subcommand,
                     "--out", str(csv_path)],
                    deadline=time.monotonic() + 600,
                )
                if "error" in result:
                    print(f"{workload.name} seed {seed}: {result['error']}", file=sys.stderr)
                    return 1
                lines = csv_path.read_text(encoding="utf-8").split("\n")
            if lines[-1] != "" or len(lines) != workload.rows + 2:
                print(f"{workload.name} seed {seed}: unexpected CSV shape", file=sys.stderr)
                return 1
            pinned[str(seed)] = lines[:-1]
            print(f"pinned {workload.name} seed {seed} in {result['run_s']:.2f} s")
    workloads.REFERENCE_PATH.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
