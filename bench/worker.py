"""One benchmark process: set up, run one ``sparsecomm`` command, report JSON.

Run by ``run_bench.py`` in a fresh interpreter per sample.  Set-up is
``import sparsecomm`` (numpy included) plus ``harness.load_experiment`` on
the workload config; its end is reported as a ``time.monotonic()``
stamp, which on Linux reads the system-wide CLOCK_MONOTONIC, so the
parent can subtract the moment it spawned this process.  The timed run
is one ``cli.main`` call, with the command's progress lines captured
rather than printed.  A fixed calibration loop is timed just before and
just after it, so that the parent can rescale the set-up and the run to
a reference machine speed.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work the workloads do.

    Small-array numpy calls on sparse (16, 64) and (128, 64) boolean
    matrices (masking, row counts, stable row-wise argsort, gathers,
    cumulative sums), top-k selection on a length-500 vector, and a
    pure-Python loop of dict, string and integer work.  On a shared VM
    the speed of the machine changes by up to 2x over minutes; this loop
    slows down nearly as much as the workloads do, so dividing by it
    cancels most of that drift.
    """
    import numpy as np

    rng = np.random.default_rng(1)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(130):
        for rows in (16, 128):
            ones = rng.random((rows, 64)) < 0.125
            keys = np.where(ones, rng.random(ones.shape), 2.0)
            order = np.argsort(keys, axis=1, kind="stable")
            kept = np.take_along_axis(ones, order, axis=1)
            acc += float(np.cumsum(kept, axis=1)[:, -1].sum())
            acc += int(np.bincount(ones.sum(axis=1)).argmax())
        v = rng.standard_normal(500)
        top = np.argpartition(-np.abs(v), 10)[:10]
        w = np.zeros(500)
        w[top] = v[top]
        acc += float(w @ v)
    table: dict[int, int] = {}
    bits = 1
    for i in range(30000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        bits = (bits << 3) % 1000003 + sum(j * j for j in range(12)) + len(str(i))
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory that must provide sparsecomm")
    parser.add_argument("--config", required=True)
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--out", required=True, help="CSV path")
    parser.add_argument("--setup-only", action="store_true", help="warm-up: stop after set-up")
    parser.add_argument("--spans", help="write the traced run's spans here (.npz)")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    import sparsecomm
    from sparsecomm import cli, harness

    harness.load_experiment(args.config, out=args.out)
    loaded = time.monotonic()

    src = os.path.realpath(args.src)
    if os.path.commonpath([src, os.path.realpath(sparsecomm.__file__)]) != src:
        print(f"sparsecomm was imported from {sparsecomm.__file__}, not {src}", file=sys.stderr)
        return 3
    import numpy

    result = {"t_loaded": loaded, "numpy": numpy.__version__, "sparsecomm": sparsecomm.__version__}
    if not args.setup_only:
        argv = [args.subcommand, "--config", args.config, "--out", args.out]
        tracer = None
        if args.spans:
            from tracing import Tracer, installed_wrappers

            tracer = Tracer(args.run_id)
        before = calibrate()
        with contextlib.redirect_stdout(io.StringIO()), tracer or contextlib.nullcontext():
            start = time.perf_counter()
            rc = cli.main(argv)
            run_s = time.perf_counter() - start
        result.update(rc=rc, run_s=run_s, calibration_s=[before, calibrate()])
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["wrappers_left"] = installed_wrappers()
            tracer.save(args.spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
