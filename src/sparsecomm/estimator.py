"""Decoder-side unbiased mean estimation and Monte Carlo risk evaluation.

The estimator averages reweighted subsampled supports: each node's decoded
support is multiplied by count / kprime when its count exceeded kprime,
else by 1, which makes the average unbiased for the mean parameter.
Components are not clipped into the parameter range by default, since
clipping would trade the unbiasedness away.

Risk is evaluated by Monte Carlo over sample-subsample-estimate rounds,
composed of the model's matrix stages, the codec's selection rule (the
kept support that :func:`~sparsecomm.codec.encode_batch` ranks) and the
:func:`reweight` that scalar :func:`estimate` also uses.  The trials skip
the rank and unrank steps: the codec is exact, so a transcript decodes to
the count and kept support it was built from, which c1, CodecRoundtrip
and the codec tests check.  Reference curves for the achievable and
unavoidable risk are closed-form bounds with explicit validity regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .codec import CodecConfig, SubsampledObservation, _keep_largest_keys, ceil_log2
# encode_batch and decode_batch stay importable here: bench/tracing.py wraps them by these names
from .codec import decode_batch, encode_batch  # noqa: F401
from .model import (
    PLAIN,
    SCALED,
    SIGNED,
    ParamVector,
    UniformPerturbation,
    perturb_and_quantize,
    sample_rows,
)
# substream stays importable here: bench/tracing.py wraps it by this name
from .seeding import substream, trial_streams  # noqa: F401


class DegenerateCodec(ValueError):
    """The codec cannot carry any support index (kprime == 0)."""


class EmptyInput(ValueError):
    """No decoded observations were supplied."""


def reweight(
    mask: np.ndarray, counts: np.ndarray, kprime: int, signs=None, nodes: int = 1
) -> np.ndarray:
    """Average the reweighted decoded (rows, d) support ``mask`` over each
    run of ``nodes`` consecutive rows, giving (rows // nodes, d).

    Each kept one weighs ``count / kprime`` when its row's count exceeded
    ``kprime``, else 1, times its sign when ``signs`` (a per-coordinate
    vector or a (rows, d) matrix) is given.  The weights are summed into
    each run's total in row order, from +0.0, as ``mean`` along the rows
    would add them, and the totals divided by ``nodes``; with ``nodes=1``
    the result is each row's weighted support.
    """
    runs, rest = divmod(mask.shape[0], nodes)
    if rest:
        raise ValueError(f"{mask.shape[0]} rows do not split into runs of {nodes}")
    d = mask.shape[1]
    rows, cols = np.divmod(np.flatnonzero(mask), d)
    weights = np.where(counts > kprime, counts / kprime, 1.0)[rows]
    if signs is not None:
        weights *= signs[cols] if signs.ndim == 1 else signs[rows, cols]
    sums = np.bincount(rows // nodes * d + cols, weights, minlength=runs * d)
    return sums.reshape(runs, d) / nodes


def estimate(
    decoded: Sequence[SubsampledObservation],
    cfg: CodecConfig,
    variant: str = PLAIN,
    scale: float = 1.0,
    clip: bool = False,
) -> np.ndarray:
    """Average the reweighted decoded supports into a mean estimate.

    For the signed variant each decoded observation must carry signs; for
    the scaled variant the result is multiplied by ``scale``.  With
    ``clip=True`` the estimate is clamped into the parameter range after
    averaging (off by default; it biases the estimator).
    """
    if cfg.degenerate:
        raise DegenerateCodec("config has kprime=0; no support survives encoding")
    if len(decoded) == 0:
        raise EmptyInput("need at least one decoded observation")
    d = cfg.d
    mask = np.zeros((len(decoded), d), dtype=bool)
    counts = np.empty(len(decoded), dtype=np.int64)
    signs = np.zeros(mask.shape) if variant == SIGNED else None
    for row, sub in enumerate(decoded):
        sup = sub.support
        if sub.d != d or sub.original_count < 0:
            raise ValueError(f"need dimension {d} and a nonnegative count")
        if sup.size and (sup.min() < 0 or sup.max() >= d):
            raise ValueError(f"support index outside [0, {d})")
        mask[row, sup] = True
        counts[row] = sub.original_count
        if signs is not None and sup.size:
            if sub.signs is None:
                raise ValueError("signed estimation requires per-support signs")
            signs[row, sup] = sub.signs
    theta_hat = reweight(mask, counts, cfg.kprime, signs, nodes=len(decoded))[0]
    if variant == SCALED:
        theta_hat *= scale
    if clip:
        lo = -1.0 if variant == SIGNED else 0.0
        hi = scale if variant == SCALED else 1.0
        theta_hat = np.clip(theta_hat, lo, hi)
    return theta_hat


def hardest_param(d: int, s: float) -> ParamVector:
    """The flat vector theta_j = s/d, the default worst-case risk probe."""
    if s > d / 2:
        raise ValueError(f"s={s} must be at most d/2={d / 2}")
    return ParamVector(np.full(d, s / d), s=float(s))


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo estimate of E||theta_hat - theta||^2 with its std error."""

    mean_sq_error: float
    std_error: float
    trials: int
    n: int
    d: int
    s: float
    k: int


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
    if trials < 100:
        raise ValueError("need at least 100 trials")
    target = theta.estimand()
    mean, m2, t = 0.0, 0.0, 0
    for hats in _trial_estimates(theta, n, cfg, trials, perturb, seed):
        for err in np.sum((hats - target) ** 2, axis=1).tolist():
            t += 1
            delta = err - mean
            mean += delta / t
            m2 += delta * (err - mean)
    return RiskEstimate(
        mean_sq_error=mean,
        std_error=math.sqrt(m2 / (trials - 1) / trials),
        trials=trials,
        n=n,
        d=cfg.d,
        s=float(theta.s),
        k=cfg.k,
    )


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
    set, the (n, d) subsample keys.  Each trial's uniforms go into one
    reused (n, d) buffer and are sampled (and perturbed) at once into the
    chunk's hits; the chunk's stacked hits and keys then go through the
    codec's selection rule and :func:`reweight` as one matrix.  The hits,
    keys and per-row signs buffers are allocated once and reused by every
    chunk, so the heap is not released and faulted in again chunk after
    chunk.
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
    draws = np.empty((n, d))
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
            rng.random(out=draws)
            _, signs = sample_rows(theta, draws, out=hits[j])
            if perturb is not None:
                noise = rng.uniform(-perturb.halfwidth, perturb.halfwidth, (n, d))
                hits[j], perturbed_signs = perturb_and_quantize(hits[j], signs, noise)
                if row_signs is not None:
                    row_signs[j] = perturbed_signs
            rng.random(out=keys[j])
        if row_signs is not None:
            signs = row_signs.reshape(-1, d)
        x = hits.reshape(-1, d)
        counts = np.count_nonzero(x, axis=1)
        mask = _keep_largest_keys(x, counts, cfg.kprime, keys.reshape(-1, d))
        yield reweight(mask, counts, cfg.kprime, signs, nodes=n) * out_scale


UPPER_ACHIEVABLE = "upper_achievable"
LOWER_MINIMAX = "lower_minimax"
CENTRALIZED = "centralized"

_BOUND_KINDS = (UPPER_ACHIEVABLE, LOWER_MINIMAX, CENTRALIZED)


@dataclass(frozen=True)
class BoundCurve:
    """A reference risk curve with a user-supplied leading constant."""

    kind: str
    constant: float = 1.0

    def __post_init__(self):
        if self.kind not in _BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if not self.constant > 0:
            raise ValueError("constant must be positive")


@dataclass(frozen=True)
class OutOfRegime:
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
