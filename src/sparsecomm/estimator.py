"""Decoder-side unbiased mean estimation and Monte Carlo risk evaluation.

The one estimator, :func:`reweight`, averages reweighted subsampled
supports: each node's decoded support is multiplied by count / kprime when
its count exceeded kprime, else by 1, which makes the average unbiased for
the mean parameter.  Components are not clipped into the parameter range,
since clipping would trade the unbiasedness away.

Risk is evaluated by Monte Carlo over sample-subsample-estimate rounds,
composed of the model's matrix stages, the codec's selection rule (the
kept support that :func:`~sparsecomm.codec.encode_batch` ranks, here
applied to each row's packed hit keys) and :func:`reweight`.  Past
sampling, the trials work on the flat indices of the hits, not on (rows,
d) matrices.  They skip the rank and unrank steps: the codec is exact, so
a transcript decodes to the count and kept support it was built from,
which c1, CodecRoundtrip and the codec tests check.  Reference curves for
the achievable and unavoidable risk are closed-form bounds with explicit
validity regimes.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

import numpy as np

from ._frozen import Value
from .codec import CodecConfig, _keep_largest_packed, ceil_log2
# encode_batch and decode_batch stay importable here: bench/tracing.py wraps them by these names
from .codec import decode_batch, encode_batch  # noqa: F401
from .model import (
    SCALED,
    SIGNED,
    ParamVector,
    UniformPerturbation,
    perturb_and_quantize,
    sample_rows,
)
# substream stays importable here: bench/tracing.py wraps it by this name
from .seeding import substream, trial_streams  # noqa: F401


# The fewest trials a risk estimate takes; the harness's 'trials' key reads it.
MIN_TRIALS = 100


class DegenerateCodec(ValueError):
    """The codec cannot carry any support index (kprime == 0)."""


def reweight(
    kept: np.ndarray,
    counts: np.ndarray,
    kprime: int,
    d: int,
    signs: Optional[np.ndarray] = None,
    nodes: int = 1,
) -> np.ndarray:
    """The estimator: average the reweighted decoded supports of
    ``counts.size`` rows over each run of ``nodes`` consecutive rows, giving
    (rows // nodes, d); a scaled estimand is this times its scale.

    ``kept`` holds the flat indices ``row * d + column`` of the decoded
    supports' ones, with the rows in ascending order.  Each kept one weighs
    ``count / kprime`` when its row's count exceeded ``kprime``, else 1,
    times its sign when ``signs`` (one per kept one) is given.  The
    weights are summed into each run's total in row order, from +0.0, as
    ``mean`` along the rows of the dense weighted supports would add
    them, and the totals divided by ``nodes``; with ``nodes=1`` the result
    is each row's weighted support.  kprime < 1 is a ``DegenerateCodec``.
    """
    if kprime < 1:
        raise DegenerateCodec(f"kprime={kprime}: no support survives encoding")
    if nodes < 1:
        raise ValueError(f"need at least one node per run, got nodes={nodes}")
    runs, rest = divmod(counts.size, nodes)
    if rest:
        raise ValueError(f"{counts.size} rows do not split into runs of {nodes}")
    rows, cols = np.divmod(kept, d)
    weights = np.where(counts > kprime, counts / kprime, 1.0)[rows]
    if signs is not None:
        weights *= signs
    sums = np.bincount(rows // nodes * d + cols, weights, minlength=runs * d)
    return sums.reshape(runs, d) / nodes


def hardest_param(d: int, s: float) -> ParamVector:
    """The flat vector theta_j = s/d, the default worst-case risk probe."""
    if s > d / 2:
        raise ValueError(f"s={s} must be at most d/2={d / 2}")
    return ParamVector(np.full(d, s / d), s=float(s))


class RiskEstimate(NamedTuple):
    """Monte Carlo estimate of E||theta_hat - theta||^2 with its std error."""

    mean_sq_error: float
    std_error: float


def monte_carlo_risk(
    theta: ParamVector,
    n: int,
    cfg: CodecConfig,
    trials: int,
    perturb: Optional[UniformPerturbation] = None,
    seed: int = 0,
) -> RiskEstimate:
    """Estimate the squared-error risk of the full pipeline.

    Each trial samples n observations, optionally perturbs and re-quantizes
    them, keeps each node's subsampled support by the codec's selection
    rule (what its transcript decodes to), forms the estimate, and records
    ``||theta_hat - target||^2``.  Trials draw from independent
    substreams of ``seed``, so results are reproducible and independent of
    any parallel execution order.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    target = theta.estimand()
    mean, m2, t = 0.0, 0.0, 0
    for hats in _trial_estimates(theta, n, cfg, trials, perturb, seed):
        for err in np.sum((hats - target) ** 2, axis=1).tolist():
            t += 1
            delta = err - mean
            mean += delta / t
            m2 += delta * (err - mean)
    return RiskEstimate(mean_sq_error=mean, std_error=math.sqrt(m2 / (trials - 1) / trials))


def monte_carlo_mean(
    theta: ParamVector,
    n: int,
    cfg: CodecConfig,
    trials: int,
    seed: int = 0,
    perturb: Optional[UniformPerturbation] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise Monte Carlo mean of the estimate and its std error.

    Runs the same sample-subsample-estimate trials as
    :func:`monte_carlo_risk` but aggregates the estimate vector itself;
    used to check unbiasedness (the mean must approach the estimand).
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    total = np.zeros(cfg.d)
    total_sq = np.zeros(cfg.d)
    for hats in _trial_estimates(theta, n, cfg, trials, perturb, seed):
        # row-by-row reductions: the same sums as adding trial after trial
        total = np.add.reduce(np.concatenate((total[None], hats)))
        total_sq = np.add.reduce(np.concatenate((total_sq[None], hats * hats)))
    mean = total / trials
    var = np.maximum(total_sq / trials - mean * mean, 0.0)
    return mean, np.sqrt(var / trials)


# Cap on the elements of a chunk's stacked (trials*n, d) keys and sample
# hits, which sets the kernel's working set: flat memory in the trials.
_CHUNK_ELEMENTS = 1 << 15


def _trial_estimates(theta, n, cfg, trials, perturb, seed):
    """Yield the estimates of trials 0 .. trials-1 as (chunk, d) arrays.

    Trial t draws from the stream of ``substream(seed, t)``, derived in
    blocks of trials by :func:`trial_streams`, in this order: the (n, d)
    sample uniforms, the (n, d) perturbation noise when ``perturb`` is
    set, the (n, d) subsample keys.  Each trial's uniforms are drawn into
    its rows of the chunk's keys, which its keys overwrite once they are
    sampled (and perturbed) into the chunk's hits against the (n, d) tile
    of |theta|, built once per call.  From there on the chunk works on the
    flat indices of its hits: one ``bincount`` gives the counts, the
    codec's selection rule runs on each row's hit keys packed into a
    (rows, widest count) matrix (:func:`~sparsecomm.codec._keep_largest_packed`),
    ``np.compress`` gathers the kept ones without branching on the mask,
    and :func:`reweight` sums their weights.  The tile and the hits, keys
    and per-row signs buffers are allocated once and reused by every chunk,
    so the heap is not released and faulted in again chunk after chunk.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if cfg.degenerate:
        raise DegenerateCodec("config has kprime=0; estimation is impossible")
    if theta.d != cfg.d:
        raise ValueError("theta and config disagree on dimension")
    d = cfg.d
    out_scale = theta.scale if theta.variant == SCALED else 1.0
    per_chunk = max(1, _CHUNK_ELEMENTS // (n * d))
    # one set of buffers serves every chunk, the last one as a prefix
    shape = (min(per_chunk, trials), n, d)
    tile = np.tile(theta.probabilities(), (n, 1))
    signs = theta.signs()
    all_hits = np.empty(shape, dtype=bool)
    all_keys = np.empty(shape)
    signed_noise = perturb is not None and theta.variant == SIGNED
    all_signs = np.empty(shape, dtype=np.int8) if signed_noise else None  # +-1 per entry
    streams = trial_streams(seed, 0, trials)
    for start in range(0, trials, per_chunk):
        size = min(per_chunk, trials - start)
        hits, keys = all_hits[:size], all_keys[:size]
        row_signs = None if all_signs is None else all_signs[:size]
        for j in range(size):
            rng = next(streams)
            rng.random(out=keys[j])  # the uniforms; the keys overwrite them below
            sample_rows(tile, keys[j], out=hits[j])
            if perturb is not None:
                noise = rng.uniform(-perturb.halfwidth, perturb.halfwidth, (n, d))
                hits[j], perturbed_signs = perturb_and_quantize(hits[j], signs, noise)
                if row_signs is not None:
                    row_signs[j] = perturbed_signs
            rng.random(out=keys[j])
        ones = np.flatnonzero(hits)  # row-major: each row's columns ascending
        rows = ones // d
        counts = np.bincount(rows, minlength=size * n)
        keep = _keep_largest_packed(rows, counts, cfg.kprime, keys.reshape(-1)[ones])
        kept = np.compress(keep, ones)
        kept_signs = None
        if row_signs is not None:
            kept_signs = row_signs.reshape(-1)[kept]
        elif signs is not None:
            kept_signs = signs[kept % d]
        yield reweight(kept, counts, cfg.kprime, d, kept_signs, nodes=n) * out_scale


UPPER_ACHIEVABLE = "upper_achievable"
LOWER_MINIMAX = "lower_minimax"
CENTRALIZED = "centralized"

_BOUND_KINDS = (UPPER_ACHIEVABLE, LOWER_MINIMAX, CENTRALIZED)


class BoundCurve(Value):
    """A reference risk curve with a user-supplied leading constant."""

    __slots__ = ("kind", "constant")

    def __init__(self, kind: str, constant: float = 1.0):
        if kind not in _BOUND_KINDS:
            raise ValueError(f"unknown bound kind {kind!r}")
        if not constant > 0:
            raise ValueError(f"{kind} constant must be positive, got {constant}")
        self._set(kind=kind, constant=constant)


class OutOfRegime(NamedTuple):
    """Marker result: the curve's validity hypothesis failed."""

    reason: str


def bound_value(
    curve: BoundCurve,
    n: int,
    k: int,
    d: int,
    s: float,
    theta: Optional[ParamVector] = None,
) -> Union[float, OutOfRegime]:
    """Evaluate a reference curve, or report which hypothesis fails.

    The achievable upper curve is ``constant * s^2 * log2(d) / (n k)``,
    valid when the budget covers roughly two index descriptions but not
    the whole support: ``2 * ceil(log2(d+1)) <= k <= s * ceil(log2(d+1))``
    (the count-header log convention, which also guarantees a
    non-degenerate codec at the lower edge).  The minimax lower curve is
    ``constant * max(s^2 log2(d/s) / (n k), s / n)``, valid for
    ``n k >= d log2(d/s)`` and ``s <= d/2``.  The centralized curve is
    ``sum theta_j (1 - theta_j) / n`` for a concrete theta.
    """
    if curve.kind == CENTRALIZED:
        if theta is None:
            raise ValueError("centralized curve needs a concrete theta")
        pr = theta.probabilities()
        scale_sq = theta.scale**2 if theta.variant == SCALED else 1.0
        return curve.constant * scale_sq * float(np.sum(pr * (1.0 - pr))) / n
    log_header = ceil_log2(d + 1)
    if curve.kind == UPPER_ACHIEVABLE:
        if k < 2 * log_header:
            return OutOfRegime(f"k={k} < 2*ceil(log2(d+1))={2 * log_header}")
        if k > s * log_header:
            return OutOfRegime(f"k={k} > s*ceil(log2(d+1))={s * log_header:g}")
        return curve.constant * s * s * math.log2(d) / (n * k)
    # lower minimax curve
    if s > d / 2:
        return OutOfRegime(f"s={s:g} > d/2={d / 2:g}")
    needed = d * math.log2(d / s)
    if n * k < needed:
        return OutOfRegime(f"n*k={n * k} < d*log2(d/s)={needed:g}")
    return curve.constant * max(s * s * math.log2(d / s) / (n * k), s / n)
