"""Span tracing for the benchmark's traced runs, installed from outside the package.

A :class:`Tracer` replaces public ``sparsecomm`` functions with timing
wrappers at the names their callers look up (``estimator.encode_batch``,
``harness.encode``, ``SparsifierSpec.apply``, ...), so nothing under
``src/`` changes.  Each call records one span: its name, start and end in
``perf_counter_ns`` and the index of the enclosing span.  Spans live in
memory in flat arrays and are written by :meth:`Tracer.save` when the run
ends.  A few wrappers also feed counters (rows encoded, ones kept, node
rounds, ...); that bookkeeping runs inside a ``tracing.counters`` span so
it is not charged to any layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

COUNTER_SPAN = "tracing.counters"


# --- counter hooks: called as hook(counters, result, *args, **kwargs) --------


def _count_encode_batch(c, result, x, cfg, rng):
    counts, _, mask = result
    c["codec.rows_encoded"] += int(counts.shape[0])
    c["codec.rows_subsampled"] += int(np.count_nonzero(counts > cfg.kprime))
    c["codec.ones_observed"] += int(counts.sum())
    c["codec.ones_kept"] += int(np.count_nonzero(mask))


def _count_encode(c, result, obs, cfg, rng):
    c["codec.rows_encoded"] += 1
    c["codec.rows_subsampled"] += int(obs.count > cfg.kprime)


def _count_subsample(c, result, obs, cfg, rng):
    c["codec.ones_observed"] += obs.count
    c["codec.ones_kept"] += int(result.support.size)


def _count_monte_carlo(c, result, theta, n, cfg, trials, perturb=None, seed=0):
    c["estimator.trials"] += int(trials)


def _count_round(c, result, nodes, obj, w, cfg, t, trace=None):
    c["sgdsim.node_rounds"] += len(nodes)


def _count_apply(c, result, spec, w, rng):
    c["sparsify.nnz"] += result.nnz
    c["sparsify.entries_budget"] += spec.entries_budget


COUNTERS = (
    "codec.rows_encoded",
    "codec.rows_subsampled",
    "codec.ones_observed",
    "codec.ones_kept",
    "estimator.trials",
    "sgdsim.node_rounds",
    "sparsify.nnz",
    "sparsify.entries_budget",
)

# (owner, attribute the callers look up, span name, counter hook).  One
# function may appear under several owners when several modules import it.
TARGETS = (
    ("sparsecomm.cli", "main", "cli.main", None),
    ("sparsecomm.harness", "run", "harness.run", None),
    ("sparsecomm.harness", "load_experiment", "harness.load_experiment", None),
    ("sparsecomm.harness", "write_csv_atomic", "harness.write_csv_atomic", None),
    ("sparsecomm.harness", "probe_param", "harness.probe_param", None),
    ("sparsecomm.harness", "parse_spec_string", "harness.parse_spec_string", None),
    ("sparsecomm.harness", "monte_carlo_risk", "estimator.monte_carlo_risk", _count_monte_carlo),
    ("sparsecomm.harness", "bound_value", "estimator.bound_value", None),
    ("sparsecomm.harness", "hardest_param", "estimator.hardest_param", None),
    ("sparsecomm.harness", "make_config", "codec.make_config", None),
    ("sparsecomm.estimator", "encode_batch", "codec.encode_batch", _count_encode_batch),
    ("sparsecomm.estimator", "decode_batch", "codec.decode_batch", None),
    ("sparsecomm.codec", "subsample_mask", "codec.subsample_mask", None),
    ("sparsecomm.harness", "encode", "codec.encode", _count_encode),
    ("sparsecomm.codec", "subsample", "codec.subsample", _count_subsample),
    ("sparsecomm.codec", "rank_sparse", "codec.rank_sparse", None),
    ("sparsecomm.harness", "decode", "codec.decode", None),
    ("sparsecomm.codec", "unrank_sparse", "codec.unrank_sparse", None),
    ("sparsecomm.harness", "serialize", "codec.serialize", None),
    ("sparsecomm.harness", "Observation", "model.Observation", None),
    ("sparsecomm.harness", "derive_seed", "seeding.derive_seed", None),
    ("sparsecomm.harness", "substream", "seeding.substream", None),
    ("sparsecomm.estimator", "substream", "seeding.substream", None),
    ("sparsecomm.sgdsim", "substream", "seeding.substream", None),
    ("sparsecomm.objectives", "substream", "seeding.substream", None),
    ("sparsecomm.harness", "compare_sparsifiers", "sgdsim.compare_sparsifiers", None),
    ("sparsecomm.harness", "train", "sgdsim.train", None),
    ("sparsecomm.sgdsim", "train", "sgdsim.train", None),
    ("sparsecomm.sgdsim", "make_nodes", "sgdsim.make_nodes", None),
    ("sparsecomm.sgdsim", "init_weights", "sgdsim.init_weights", None),
    ("sparsecomm.sgdsim", "sgd_round", "sgdsim.sgd_round", _count_round),
    ("sparsecomm.sgdsim", "local_gradient", "sgdsim.local_gradient", None),
    ("sparsecomm.sparsify.SparsifierSpec", "apply", "sparsify.apply", _count_apply),
    ("sparsecomm.sparsify", "top_r", "sparsify.top_r", None),
    ("sparsecomm.sparsify", "random_k", "sparsify.random_k", None),
    ("sparsecomm.sparsify", "rtop_k", "sparsify.rtop_k", None),
    ("sparsecomm.sparsify.SparseUpdate", "to_dense", "sparsify.to_dense", None),
    (
        "sparsecomm.harness",
        "make_concentrated_quadratic",
        "objectives.make_concentrated_quadratic",
        None,
    ),
    ("sparsecomm.objectives", "make_quadratic", "objectives.make_quadratic", None),
    (
        "sparsecomm.objectives.QuadraticObjective",
        "grad_minibatch",
        "objectives.grad_minibatch",
        None,
    ),
    ("sparsecomm.objectives.QuadraticObjective", "loss", "objectives.loss", None),
    ("sparsecomm.objectives.QuadraticObjective", "full_grad", "objectives.full_grad", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


def resolve_owner(path: str):
    """Import ``a.b.c`` as a module, or as attribute ``c`` of module ``a.b``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def installed_wrappers() -> list[str]:
    """``owner.attribute`` of every target that currently holds a wrapper."""
    return [
        f"{owner}.{attr}"
        for owner, attr, _, _ in TARGETS
        if hasattr(getattr(resolve_owner(owner), attr), "__bench_span__")
    ]


class Tracer:
    """In-memory span recorder; use as a context manager around one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._name_id(name)
        counter_id = self._name_id(COUNTER_SPAN)
        clock = time.perf_counter_ns
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        counters = self.counters

        def open_span(span_name: int) -> int:
            index = len(starts)
            names.append(span_name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            return index

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                index = open_span(counter_id)
                try:
                    hook(counters, result, *args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
            return result

        wrapper.__bench_span__ = name
        return wrapper

    def install(self) -> None:
        """Replace every target with its wrapper; refuses to stack wrappers."""
        originals: dict[int, object] = {}
        try:
            for owner_path, attr, name, hook in TARGETS:
                owner = resolve_owner(owner_path)
                fn = getattr(owner, attr)
                if hasattr(fn, "__bench_span__"):
                    raise RuntimeError(f"{owner_path}.{attr} is already traced")
                # one wrapper per function object, shared by all its names
                if id(fn) not in originals:
                    originals[id(fn)] = self.wrap(fn, name, hook)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, originals[id(fn)])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counters.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap, since the program is
        single-threaded.
        """
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_total = np.bincount(a["name"], weights=self_ns, minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        return {
            "spans": int(dur.size),
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_s": {name: float(self_total[i]) * 1e-9 for i, name in enumerate(self.names)},
            "total_s": {name: float(total[i]) * 1e-9 for i, name in enumerate(self.names)},
            "counters": dict(self.counters),
        }
