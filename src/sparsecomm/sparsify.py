"""Sparsification operators: top-r, random-k, and their concatenation.

The concatenated operator keeps a uniformly random k-subset of the r
largest-magnitude coordinates ("rtop-k"); top-r and random-k are its k=r
and r=d extremes.  Ties in magnitude are always broken toward the lower
index, so the deterministic part of every operator is reproducible.

The expected squared residual of rtop-k has the closed form
``(1 - k/r) * sum_{j<=r} w_(j)^2 + sum_{j>r} w_(j)^2`` over the
magnitude-sorted coordinates, which is at most ``(1 - k/d) ||w||^2`` --
the compression-operator property with contraction coefficient k/d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class BadRank(ValueError):
    """A sparsifier parameter lies outside 1 <= k <= r <= d."""


@dataclass(eq=False)
class SparseUpdate:
    """Sparse vector as int64 indices and float values in selection order;
    exact zeros are not stored."""

    d: int
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.d)
        out[self.indices] = self.values
        return out


def _as_vector(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector has non-finite components")
    return w


def _top_indices(w: np.ndarray, r: int) -> np.ndarray:
    """Indices of the r largest magnitudes, ties broken toward lower index."""
    return np.argsort(-np.abs(w), kind="stable")[:r]


def _update_from(w: np.ndarray, indices: np.ndarray) -> SparseUpdate:
    kept = indices[w[indices] != 0.0]
    return SparseUpdate(d=int(w.size), indices=kept, values=w[kept])


def _sample_subset(pool: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform k-subset of ``pool`` by partial Fisher-Yates, O(k) swaps."""
    buf = pool.copy()
    m = buf.size
    for i in range(k):
        j = int(rng.integers(i, m))
        buf[i], buf[j] = buf[j], buf[i]
    return buf[:k]


def top_r(w, r: int) -> SparseUpdate:
    """Keep exactly the r components of largest magnitude."""
    w = _as_vector(w)
    if not 1 <= r <= w.size:
        raise BadRank(f"r={r} outside [1, {w.size}]")
    return _update_from(w, _top_indices(w, r))


def random_k(w, k: int, rng: np.random.Generator) -> SparseUpdate:
    """Keep a uniformly random k-subset of all coordinates."""
    w = _as_vector(w)
    if not 1 <= k <= w.size:
        raise BadRank(f"k={k} outside [1, {w.size}]")
    return _update_from(w, _sample_subset(np.arange(w.size), k, rng))


def rtop_k(w, r: int, k: int, rng: np.random.Generator) -> SparseUpdate:
    """Keep a uniformly random k-subset of the top-r magnitude coordinates."""
    w = _as_vector(w)
    if not 1 <= k <= r <= w.size:
        raise BadRank(f"need 1 <= k={k} <= r={r} <= d={w.size}")
    return _update_from(w, _sample_subset(_top_indices(w, r), k, rng))


def expected_sq_error(w, r: int, k: int) -> float:
    """Closed-form E||w - rtop_k(w)||^2 over the selection randomness."""
    w = _as_vector(w)
    if not 1 <= k <= r <= w.size:
        raise BadRank(f"need 1 <= k={k} <= r={r} <= d={w.size}")
    sq = np.sort(np.abs(w))[::-1] ** 2
    head = float(np.sum(sq[:r]))
    tail = float(np.sum(sq[r:]))
    return (1.0 - k / r) * head + tail


@dataclass(frozen=True)
class CompressionReport:
    """Outcome of checking the compression-operator property on one vector."""

    expected: float
    mc_mean: float
    mc_std_error: float
    bound: float
    trials: int
    mc_ok: bool
    bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.mc_ok and self.bound_ok


def check_compression(
    w, r: int, k: int, mc_trials: int, rng: np.random.Generator
) -> CompressionReport:
    """Verify the closed-form residual and the (1 - k/d) contraction bound.

    Runs ``mc_trials`` draws of the operator and compares the Monte Carlo
    mean of the squared residual against the closed form (within four
    standard errors, with a small absolute floor for the deterministic
    k = r case), and checks ``expected <= (1 - k/d) ||w||^2`` exactly.
    """
    expected = expected_sq_error(w, r, k)  # validates w, r and k
    w = np.asarray(w, dtype=float)
    total = float(np.sum(w * w))
    top = _top_indices(w, r)
    errors = np.empty(mc_trials)
    for t in range(mc_trials):  # rtop_k's draws and its kept mass, summed left to right
        kept = w[_sample_subset(top, k, rng)]
        errors[t] = total - sum((kept * kept).tolist())
    mc_mean = float(errors.mean())
    mc_std = float(errors.std(ddof=1)) if mc_trials > 1 else 0.0
    mc_std_error = mc_std / math.sqrt(mc_trials)
    tol = 4 * mc_std_error + 1e-10 * max(total, 1.0)
    bound = (1.0 - k / w.size) * total
    return CompressionReport(
        expected=expected,
        mc_mean=mc_mean,
        mc_std_error=mc_std_error,
        bound=bound,
        trials=mc_trials,
        mc_ok=abs(mc_mean - expected) <= tol,
        bound_ok=expected <= bound + 1e-12 * max(total, 1.0),
    )


@dataclass(frozen=True)
class SparsifierSpec:
    """Which operator a simulated node applies, with its parameters.

    ``kind`` is one of ``"top_r"``, ``"random_k"``, ``"rtop_k"``.  The
    entries budget (values communicated per node per round) is ``r`` for
    top-r and ``k`` for the other two.
    """

    kind: str
    k: int
    r: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("top_r", "random_k", "rtop_k"):
            raise ValueError(f"unknown sparsifier kind {self.kind!r}")
        if self.kind == "rtop_k":
            if self.r is None:
                raise ValueError("rtop_k needs an explicit r")
            if not 1 <= self.k <= self.r:
                raise BadRank(f"need 1 <= k={self.k} <= r={self.r}")

    @staticmethod
    def top(r: int) -> "SparsifierSpec":
        return SparsifierSpec(kind="top_r", k=r, r=r)

    @staticmethod
    def random(k: int) -> "SparsifierSpec":
        return SparsifierSpec(kind="random_k", k=k)

    @staticmethod
    def rtop(r: int, k: int) -> "SparsifierSpec":
        return SparsifierSpec(kind="rtop_k", k=k, r=r)

    @property
    def entries_budget(self) -> int:
        return self.k

    @property
    def label(self) -> str:
        if self.kind == "top_r":
            return f"top_{self.k}"
        if self.kind == "random_k":
            return f"random_{self.k}"
        return f"rtop_r{self.r}_k{self.k}"

    def unbiased_rescale(self, d: int) -> float:
        """Inverse inclusion probability of a kept coordinate.

        Multiplying the operator output by this factor makes it unbiased
        for the vector it samples from (the top-r truncation for rtop-k,
        the full vector for random-k, exact for top-r).
        """
        if self.kind == "top_r":
            return 1.0
        if self.kind == "random_k":
            return d / self.k
        return min(self.r, d) / self.k

    def apply(self, w, rng: np.random.Generator) -> SparseUpdate:
        if self.kind == "top_r":
            return top_r(w, self.k)
        if self.kind == "random_k":
            return random_k(w, self.k, rng)
        return rtop_k(w, min(self.r, np.asarray(w).size), self.k, rng)
