"""Sparse Bernoulli observation model.

A mean-parameter vector theta with an L1 budget s defines a product of d
independent Bernoulli coordinates.  Three variants are supported: plain
(theta in [0,1]^d), signed (theta in [-1,1]^d, observations carry the sign
of the mean), and scaled (the estimand is ``scale * theta`` for a known
positive scale).  Observations may additionally be perturbed by bounded
zero-mean continuous noise; a half-unit threshold quantizer maps perturbed
observations back to binary ones.  Sampling and perturbation plus
quantization are matrix stages on caller-drawn uniforms and noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

PLAIN = "plain"
SIGNED = "signed"
SCALED = "scaled"

VARIANTS = (PLAIN, SIGNED, SCALED)


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Mean-parameter vector with sparsity budget ``s``.

    Invariants (checked by :func:`validate_param`, not the constructor):
    plain/scaled components lie in [0, 1] with ``sum(values) <= s``; signed
    components lie in [-1, 1] with ``sum(|values|) <= s``; ``s >= 1``.
    Components exactly 0 or 1 are allowed (degenerate coordinates).
    """

    values: np.ndarray
    s: float
    variant: str = PLAIN
    scale: float = 1.0

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d vector")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def d(self) -> int:
        return int(self.values.shape[0])

    def probabilities(self) -> np.ndarray:
        """Per-coordinate success probabilities |theta_j|."""
        return np.abs(self.values)

    def estimand(self) -> np.ndarray:
        """The vector the decoder is asked to estimate."""
        if self.variant == SCALED:
            return self.scale * self.values
        return np.asarray(self.values)


@dataclass(frozen=True)
class UniformPerturbation:
    """Additive iid Uniform(-halfwidth, +halfwidth) noise, halfwidth <= 1/2."""

    halfwidth: float = 0.49

    def __post_init__(self):
        if not 0.0 < self.halfwidth <= 0.5:
            raise ValueError("halfwidth must lie in (0, 0.5]")


def as_support(values) -> np.ndarray:
    """A fresh read-only 1-d int64 copy of ``values``; ValueError unless
    they are integers (an empty support may have any dtype)."""
    sup = np.array(values, copy=True)
    if sup.ndim != 1:
        raise ValueError("support must be 1-d")
    if sup.size and sup.dtype.kind not in "iu":
        raise ValueError(f"support must hold integers, got dtype {sup.dtype}")
    sup = sup.astype(np.int64, copy=False)
    sup.setflags(write=False)
    return sup


@dataclass(frozen=True, eq=False)
class Observation:
    """One node's sample: a sorted support set plus optional signs.

    ``signs`` is present exactly when the generating parameter is signed
    and holds one entry in {-1, +1} per support index.
    """

    d: int
    support: np.ndarray
    signs: Optional[np.ndarray] = None

    def __post_init__(self):
        sup = as_support(self.support)
        if sup.size and (sup[0] < 0 or sup[-1] >= self.d or (sup[1:] <= sup[:-1]).any()):
            raise ValueError("support must be strictly increasing indices in [0, d)")
        object.__setattr__(self, "support", sup)
        if self.signs is not None:
            sg = np.array(self.signs, dtype=np.int64, copy=True)
            if sg.shape != sup.shape or not np.all(np.abs(sg) == 1):
                raise ValueError("signs must be +/-1, one per support index")
            sg.setflags(write=False)
            object.__setattr__(self, "signs", sg)

    @property
    def count(self) -> int:
        return int(self.support.size)

    def indicator(self) -> np.ndarray:
        """Dense vector of the binary (or signed binary) sample."""
        x = np.zeros(self.d)
        if self.support.size:
            x[self.support] = 1.0 if self.signs is None else self.signs
        return x


@dataclass
class ValidityReport:
    ok: bool
    violations: list[str]


def validate_param(theta: ParamVector) -> ValidityReport:
    """Check all ParamVector invariants, listing each violation found."""
    violations = []
    v = theta.values
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        violations.append(f"component {bad} is not finite")
    else:
        lo = -1.0 if theta.variant == SIGNED else 0.0
        for j in np.flatnonzero((v < lo) | (v > 1.0)):
            violations.append(f"component {int(j)}={v[j]:g} outside [{lo:g}, 1]")
        total = float(np.sum(np.abs(v)))
        if total > theta.s + 1e-12:
            label = "sum|theta|" if theta.variant == SIGNED else "sum(theta)"
            violations.append(f"{label}={total:g} > s={theta.s:g}")
    if theta.s < 1.0:
        violations.append(f"s={theta.s:g} < 1")
    if theta.variant == SCALED and not theta.scale > 0:
        violations.append(f"scale={theta.scale:g} must be positive")
    return ValidityReport(ok=not violations, violations=violations)


def sample_rows(
    theta: ParamVector, uniforms: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Sample one row per row of the (rows, d) ``uniforms`` in [0, 1).

    Returns ``(hits, signs)``: the boolean matrix ``uniforms < |theta|``
    (exact for probabilities 0 and 1) and, for signed parameters, the
    per-coordinate vector Sign(theta_j) in {-1.0, +1.0}, else ``None``.
    """
    hits = uniforms < theta.probabilities()
    signs = np.where(theta.values < 0, -1.0, 1.0) if theta.variant == SIGNED else None
    return hits, signs


def perturb_and_quantize(
    hits: np.ndarray, signs: Optional[np.ndarray], noise: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Add ``noise`` to the (signed) binary rows and threshold them back:
    with ``y = hits * signs + noise``, j is a hit iff |y_j| > 1/2 (the
    boundary maps to 0), and signs, when present, are re-read from ``y``."""
    y = (hits if signs is None else hits * signs) + noise
    if signs is not None:
        signs = np.where(y < 0, -1.0, 1.0)
    return np.abs(y) > 0.5, signs


def poisson_binomial_moments(theta: ParamVector) -> tuple[float, float]:
    """First and second moments of the support size ``||X||_1``.

    With p_j = |theta_j|, the count is a sum of independent Bernoulli(p_j)
    variables, so mean = sum p_j and E[count^2] = mean^2 + sum p_j (1 - p_j).
    """
    p = theta.probabilities()
    mean = float(np.sum(p))
    second = mean * mean + float(np.sum(p * (1.0 - p)))
    return mean, second
