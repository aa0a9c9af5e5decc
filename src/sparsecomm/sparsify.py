"""Sparsification operators: top-r, random-k, and their concatenation.

The concatenated operator keeps a uniformly random k-subset of the r
largest-magnitude coordinates ("rtop-k"); top-r and random-k are its k=r
and r=d extremes.  Ties in magnitude are always broken toward the lower
index, so the deterministic part of every operator is reproducible.

Every selection goes through one row operator: ``SparsifierSpec.swap_targets``
draws the Fisher-Yates swap targets, and ``SparsifierSpec.select_rows`` takes
each row's top-r window and applies the swaps, for all of an SGD round's
nodes at once.  ``top_r``, ``random_k``, ``rtop_k`` and ``SparsifierSpec.apply``
are its one-row case; ``check_compression`` runs its steps on its trials.

The expected squared residual of rtop-k has the closed form
``(1 - k/r) * sum_{j<=r} w_(j)^2 + sum_{j>r} w_(j)^2`` over the
magnitude-sorted coordinates, which is at most ``(1 - k/d) ||w||^2`` --
the compression-operator property with contraction coefficient k/d.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple, Optional

import numpy as np

from ._frozen import Value


class BadRank(ValueError):
    """A sparsifier parameter lies outside 1 <= k <= r <= d."""


class SparseUpdate(NamedTuple):
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


def _as_rows(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError("expected a nonempty 2-d array of row vectors")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector has non-finite components")
    return w


def _top_rows(w: np.ndarray, r: int) -> np.ndarray:
    """Indices of the r largest magnitudes of every row, as an (n, r) array,
    in the order of a stable argsort of the negated magnitudes.

    Each of r ``argmax`` passes takes every row's first largest magnitude
    and overwrites it with -1.0, below every magnitude.  The passes beat a
    row partition at the small windows SGD uses and lose at wide ones
    (ROADMAP, "Measured and not taken").
    """
    mag = np.abs(w, order="C")  # a fresh C-ordered copy: ``flat`` below is a view
    n, d = mag.shape
    top = np.empty((r, n), dtype=np.intp)
    flat = mag.reshape(-1)
    offsets = np.arange(0, n * d, d)
    for col in top:
        mag.argmax(axis=1, out=col)
        flat[offsets + col] = -1.0
    return top.T


def _check_targets(targets: np.ndarray, window: int) -> None:
    """Raise ValueError, naming the first bad swap target in row-major
    order, unless every target is an integer with i <= targets[:, i] <
    window, the range ``SparsifierSpec.swap_targets`` draws from.  A
    negative target would wrap around and a target below i would undo an
    earlier swap, both silently."""
    if targets.dtype.kind not in "iu":
        raise ValueError(
            f"swap target {targets[0, 0]} (row 0, swap 0) is not an integer: "
            f"targets of dtype {targets.dtype}"
        )
    bad = (targets < np.arange(targets.shape[1])) | (targets >= window)
    if np.count_nonzero(bad):  # a fraction of ``bad.any()``'s cost on small arrays
        row, i = np.argwhere(bad)[0]
        raise ValueError(
            f"swap target {targets[row, i]} (row {row}, swap {i}) outside [{i}, {window})"
        )


def _fisher_yates(pools: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise partial Fisher-Yates: swap i exchanges position i of each
    row of ``pools`` with position ``targets[row, i]``.  Returns the first
    k = ``targets.shape[1]`` positions of every row, in selection order."""
    buf = np.array(pools)
    rows = np.arange(buf.shape[0])
    k = targets.shape[1]
    for i in range(k):
        j = targets[:, i]
        head = buf[:, i].copy()
        buf[:, i] = buf[rows, j]
        buf[rows, j] = head
    return buf[:, :k]


def top_r(w, r: int) -> SparseUpdate:
    """Keep exactly the r components of largest magnitude."""
    return SparsifierSpec.top(r).apply(w, None)


def random_k(w, k: int, rng: np.random.Generator) -> SparseUpdate:
    """Keep a uniformly random k-subset of all coordinates."""
    return SparsifierSpec.random(k).apply(w, rng)


def rtop_k(w, r: int, k: int, rng: np.random.Generator) -> SparseUpdate:
    """Keep a uniformly random k-subset of the top-r magnitude coordinates;
    ``BadRank`` unless 1 <= k <= r <= d, before anything is drawn."""
    return SparsifierSpec.rtop(r, k).apply(w, rng)


def expected_sq_error(w, r: int, k: int) -> float:
    """Closed-form E||w - rtop_k(w)||^2 over the selection randomness."""
    w = _as_vector(w)
    SparsifierSpec.rtop(r, k).window(w.size)
    sq = np.sort(np.abs(w))[::-1] ** 2
    head = float(np.sum(sq[:r]))
    tail = float(np.sum(sq[r:]))
    return (1.0 - k / r) * head + tail


class CompressionReport(NamedTuple):
    """Outcome of checking the compression-operator property on one vector."""

    expected: float
    mc_mean: float
    mc_std_error: float
    bound: float
    trials: int
    mc_ok: bool
    bound_ok: bool


def check_compression(
    w, r: int, k: int, mc_trials: int, rng: np.random.Generator
) -> CompressionReport:
    """Verify the closed-form residual and the (1 - k/d) contraction bound.

    Runs ``mc_trials`` draws of the operator and compares the Monte Carlo
    mean of the squared residual against the closed form (within four
    standard errors, with a small absolute floor for the deterministic
    k = r case), and checks ``expected <= (1 - k/d) ||w||^2`` exactly.
    """
    if mc_trials < 1:
        raise ValueError(f"mc_trials must be at least 1, got {mc_trials}")
    expected = expected_sq_error(w, r, k)  # validates w, r and k
    w = np.asarray(w, dtype=float)
    total = float(np.sum(w * w))
    targets = SparsifierSpec.rtop(r, k).swap_targets(rng, w.size, mc_trials)
    pools = np.broadcast_to(_top_rows(w[None], r), (mc_trials, r))
    kept = w[_fisher_yates(pools, targets).T]
    # each trial's kept squares summed left to right, as a Python sum would
    errors = total - np.add.accumulate(kept * kept)[-1]
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


class SparsifierSpec(Value):
    """Which operator a simulated node applies, with its parameters.

    ``kind`` is one of ``"top_r"``, ``"random_k"``, ``"rtop_k"``.  The
    entries budget (values communicated per node per round) is ``r`` for
    top-r and ``k`` for the other two.
    """

    __slots__ = ("kind", "k", "r")

    def __init__(self, kind: str, k: int, r: Optional[int] = None):
        if kind not in ("top_r", "random_k", "rtop_k"):
            raise ValueError(f"unknown sparsifier kind {kind!r}")
        for name, value in (("r", r), ("k", k)):  # top_r's k is its r
            if value is not None and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        k, r = (v if v is None else int(v) for v in (k, r))  # no numpy wrap
        if kind == "rtop_k":
            if r is None:
                raise ValueError("rtop_k needs an explicit r")
            if not 1 <= k <= r:
                raise BadRank(f"need 1 <= k={k} <= r={r}")
        elif k < 1:
            raise BadRank(f"{'r' if kind == 'top_r' else 'k'}={k} below 1")
        self._set(kind=kind, k=k, r=r)

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

    def window(self, d: int) -> int:
        """How many coordinates the kept entries are chosen among: the
        top-r window r, or all d for random-k.  Raises ``BadRank`` unless
        k <= window <= d (k >= 1, and k <= r for rtop-k, hold from
        construction): the one statement of the rule 1 <= k <= r <= d."""
        if self.kind == "top_r":
            if self.k > d:
                raise BadRank(f"r={self.k} outside [1, {d}]")
            return self.k
        if self.kind == "random_k":
            if self.k > d:
                raise BadRank(f"k={self.k} outside [1, {d}]")
            return d
        if self.r > d:
            raise BadRank(f"need 1 <= k={self.k} <= r={self.r} <= d={d}")
        return self.r

    def unbiased_rescale(self, d: int) -> float:
        """Inverse inclusion probability of a kept coordinate.

        Multiplying the operator output by this factor makes it unbiased
        for the vector it samples from (the top-r truncation for rtop-k,
        the full vector for random-k, exact for top-r).
        """
        return self.window(d) / self.k

    def apply(self, w, rng: Optional[np.random.Generator]) -> SparseUpdate:
        """The operator on one vector: the one-row case of ``select_rows``,
        exact zeros dropped.  Top-r draws nothing, so its ``rng`` may be
        None."""
        w = _as_vector(w)
        kept = self._select_rows(w[None], self.swap_targets(rng, w.size, 1))[0]
        kept = kept[w[kept] != 0.0]
        return SparseUpdate(d=int(w.size), indices=kept, values=w[kept])

    def swap_targets(
        self, rng: Optional[np.random.Generator], d: int, rounds: int
    ) -> np.ndarray:
        """The Fisher-Yates swap targets of ``rounds`` calls of ``apply`` on
        d-vectors, as a (rounds, k) array; swap i draws from [i, window).
        One broadcast ``integers`` call consumes ``rng`` exactly as
        ``rounds * k`` scalar ``integers(i, window)`` calls in row-major
        order would.  Top-r draws nothing (k = 0 columns)."""
        window = self.window(d)
        if self.kind == "top_r":
            return np.empty((rounds, 0), dtype=np.int64)
        if rng is None:
            raise ValueError(f"{self.kind} draws its swap targets: it needs a generator, not None")
        return rng.integers(np.tile(np.arange(self.k), rounds), window).reshape(rounds, self.k)

    def select_rows(self, w, targets: np.ndarray) -> np.ndarray:
        """Row-wise ``apply`` as an (n, entries) array of the indices each
        row keeps, in selection order, exact zeros included; row t uses the
        swap targets ``targets[t]`` (see ``swap_targets``), so ``targets``
        must be (n, k) integers with i <= ``targets[:, i]`` < window, or
        (n, 0) for top-r; anything else is a ValueError."""
        return self._select_rows(_as_rows(w), targets)

    def _select_rows(self, w: np.ndarray, targets: np.ndarray) -> np.ndarray:
        n, d = w.shape
        window = self.window(d)
        need = (n, 0 if self.kind == "top_r" else self.k)
        targets = np.asarray(targets)
        if targets.shape != need:  # a broadcast row of targets would tie the rows' picks
            raise ValueError(
                f"swap targets of shape {targets.shape} for rows of shape {w.shape}; need {need}"
            )
        if targets.size:
            _check_targets(targets, window)
        if self.kind == "random_k":
            return _fisher_yates(np.broadcast_to(np.arange(d), (n, d)), targets)
        top = _top_rows(w, window)
        return top if self.kind == "top_r" else _fisher_yates(top, targets)

