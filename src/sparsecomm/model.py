"""Sparse Bernoulli observation model.

A mean-parameter vector theta with an L1 budget s defines a product of d
independent Bernoulli coordinates.  Three variants are supported: plain
(theta in [0,1]^d), signed (theta in [-1,1]^d, observations carry the sign
of the mean), and scaled (the estimand is ``scale * theta`` for a known
positive scale).  Observations may additionally be perturbed by bounded
zero-mean continuous noise; a half-unit threshold quantizer maps perturbed
observations back to binary ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

PLAIN = "plain"
SIGNED = "signed"
SCALED = "scaled"

VARIANTS = (PLAIN, SIGNED, SCALED)


class MissingPerturbation(ValueError):
    """Quantization was requested for an observation with no noise payload."""


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


@dataclass(frozen=True, eq=False)
class Observation:
    """One node's sample: a sorted support set plus optional payloads.

    ``signs`` is present exactly when the generating parameter is signed
    and holds one entry in {-1, +1} per support index.  ``perturbed_values``
    is the full noisy vector when continuous perturbations were applied;
    the support then still refers to the underlying binary sample.
    """

    d: int
    support: np.ndarray
    signs: Optional[np.ndarray] = None
    perturbed_values: Optional[np.ndarray] = None

    def __post_init__(self):
        sup = np.array(self.support, copy=True)
        if sup.ndim != 1:
            raise ValueError("support must be 1-d")
        if sup.size and sup.dtype.kind not in "iu":
            raise ValueError(f"support must hold integers, got dtype {sup.dtype}")
        sup = sup.astype(np.int64, copy=False)
        if sup.size and (sup[0] < 0 or sup[-1] >= self.d or (sup[1:] <= sup[:-1]).any()):
            raise ValueError("support must be strictly increasing indices in [0, d)")
        sup.setflags(write=False)
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
        if theta.variant == SIGNED:
            lo, hi = -1.0, 1.0
        else:
            lo, hi = 0.0, 1.0
        out = np.flatnonzero((v < lo) | (v > hi))
        for j in out:
            violations.append(
                f"component {int(j)}={v[j]:g} outside [{lo:g}, {hi:g}]"
            )
        total = float(np.sum(np.abs(v)))
        if total > theta.s + 1e-12:
            label = "sum|theta|" if theta.variant == SIGNED else "sum(theta)"
            violations.append(f"{label}={total:g} > s={theta.s:g}")
    if theta.s < 1.0:
        violations.append(f"s={theta.s:g} < 1")
    if theta.variant == SCALED and not theta.scale > 0:
        violations.append(f"scale={theta.scale:g} must be positive")
    return ValidityReport(ok=not violations, violations=violations)


def sample_binary_matrix(
    theta: ParamVector, rng: np.random.Generator, rows: int
) -> np.ndarray:
    """Draw ``rows`` independent samples as a (rows, d) matrix.

    Entries are 0/1 for plain and scaled parameters and 0/+-1 for signed
    ones.  Uses one uniform per cell, so degenerate probabilities 0 and 1
    are exact.
    """
    p = theta.probabilities()
    hits = rng.random((rows, theta.d)) < p
    x = hits.astype(np.int8)
    if theta.variant == SIGNED:
        x *= np.where(theta.values < 0, -1, 1).astype(np.int8)
    return x


def sample_observation(
    theta: ParamVector,
    perturb: Optional[UniformPerturbation],
    rng: np.random.Generator,
) -> Observation:
    """Draw one sample from the model.

    Coordinate j is nonzero with probability |theta_j|; signed parameters
    attach Sign(theta_j) to each hit.  With a perturbation spec, iid
    uniform noise is added to the (signed) binary vector and kept in
    ``perturbed_values``; noise is drawn for every coordinate.
    """
    x = sample_binary_matrix(theta, rng, 1)[0]
    support = np.flatnonzero(x)
    signs = x[support].astype(np.int64) if theta.variant == SIGNED else None
    perturbed = None
    if perturb is not None:
        noise = rng.uniform(-perturb.halfwidth, perturb.halfwidth, theta.d)
        perturbed = x.astype(float) + noise
    return Observation(theta.d, support, signs, perturbed)


def quantize_perturbed(obs: Observation) -> Observation:
    """Threshold a perturbed observation back to a binary one.

    Coordinate j maps to 1 iff |y_j| > 1/2; the boundary |y_j| = 1/2 maps
    to 0.  Signs are recovered from the noisy values when the source
    observation carried signs.
    """
    if obs.perturbed_values is None:
        raise MissingPerturbation("observation has no perturbed values")
    y = obs.perturbed_values
    support = np.flatnonzero(np.abs(y) > 0.5)
    signs = None
    if obs.signs is not None:
        signs = np.where(y[support] < 0, -1, 1).astype(np.int64)
    return Observation(obs.d, support, signs, None)


def poisson_binomial_moments(theta: ParamVector) -> tuple[float, float]:
    """First and second moments of the support size ``||X||_1``.

    With p_j = |theta_j|, the count is a sum of independent Bernoulli(p_j)
    variables, so mean = sum p_j and E[count^2] = mean^2 + sum p_j (1 - p_j).
    """
    p = theta.probabilities()
    mean = float(np.sum(p))
    second = mean * mean + float(np.sum(p * (1.0 - p)))
    return mean, second
