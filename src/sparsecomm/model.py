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

from typing import Optional

import numpy as np

from ._frozen import Frozen, Value

PLAIN = "plain"
SIGNED = "signed"
SCALED = "scaled"

VARIANTS = (PLAIN, SIGNED, SCALED)


class ParamVector(Frozen):
    """Mean-parameter vector with sparsity budget ``s``.

    The constructor checks the invariants and raises ``ValueError`` naming
    the first one broken: ``s >= 1``; finite components in [0, 1], or in
    [-1, 1] when signed; ``sum(|values|) <= s`` up to the rounding of a
    d-term sum; and, for the scaled variant, ``scale > 0``.  Components
    exactly 0 or 1 are allowed (degenerate coordinates).
    """

    __slots__ = ("values", "s", "variant", "scale")

    def __init__(self, values: np.ndarray, s: float, variant: str = PLAIN, scale: float = 1.0):
        v = np.array(values, dtype=float, copy=True)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-d vector")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if not s >= 1:
            raise ValueError(f"s={s} must be at least 1")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"component {int(np.flatnonzero(~np.isfinite(v))[0])} is not finite")
        lo = -1.0 if variant == SIGNED else 0.0
        outside = np.flatnonzero((v < lo) | (v > 1.0))
        if outside.size:
            j = int(outside[0])
            raise ValueError(f"component {j}={v[j]:g} outside [{lo:g}, 1]")
        total = float(np.sum(np.abs(v)))
        if total > s * (1 + v.size * np.finfo(float).eps):
            raise ValueError(f"sum|theta|={total:g} exceeds s={s}")
        if variant == SCALED and not scale > 0:
            raise ValueError(f"scale={scale} must be positive")
        v.setflags(write=False)
        self._set(values=v, s=s, variant=variant, scale=scale)

    @property
    def d(self) -> int:
        return int(self.values.shape[0])

    def probabilities(self) -> np.ndarray:
        """Per-coordinate success probabilities |theta_j|."""
        return np.abs(self.values)

    def signs(self) -> Optional[np.ndarray]:
        """Sign(theta_j) in {-1.0, +1.0} per coordinate when signed, else None."""
        return np.where(self.values < 0, -1.0, 1.0) if self.variant == SIGNED else None

    def estimand(self) -> np.ndarray:
        """The vector the decoder is asked to estimate."""
        if self.variant == SCALED:
            return self.scale * self.values
        return np.asarray(self.values)


class UniformPerturbation(Value):
    """Additive iid Uniform(-halfwidth, +halfwidth) noise, halfwidth <= 1/2."""

    __slots__ = ("halfwidth",)

    def __init__(self, halfwidth: float = 0.49):
        if not 0.0 < halfwidth <= 0.5:
            raise ValueError(f"halfwidth must lie in (0, 0.5], got {halfwidth}")
        self._set(halfwidth=halfwidth)


def as_support(values) -> np.ndarray:
    """A fresh read-only 1-d int64 copy of ``values``; ValueError unless
    they are integers (an empty support may have any dtype).  Bools are
    not integers, also where numpy would cast them among ints."""
    sup = np.array(values, copy=True)
    if sup.ndim != 1:
        raise ValueError("support must be 1-d")
    if sup.size and sup.dtype.kind not in "iu":
        raise ValueError(f"support must hold integers, got dtype {sup.dtype}")
    if not isinstance(values, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in values):
        raise ValueError("support must hold integers, got a bool")
    sup = sup.astype(np.int64, copy=False)
    sup.setflags(write=False)
    return sup


class Observation(Frozen):
    """One node's sample: a sorted support set, without signs (the k-bit
    transcript carries none; the Monte Carlo kernel keeps them per row)."""

    __slots__ = ("d", "support")

    def __init__(self, d: int, support: np.ndarray):
        sup = as_support(support)
        if sup.size and (sup[0] < 0 or sup[-1] >= d or np.count_nonzero(sup[1:] <= sup[:-1])):
            raise ValueError("support must be strictly increasing indices in [0, d)")
        self._set(d=d, support=sup)

    @property
    def count(self) -> int:
        return int(self.support.size)


def sample_rows(
    probabilities: np.ndarray, uniforms: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sample one row per row of the (rows, d) ``uniforms`` in [0, 1): the
    boolean matrix ``uniforms < probabilities`` (exact for probabilities 0
    and 1), written into ``out`` when given.  ``probabilities`` is
    :meth:`ParamVector.probabilities` as a (d,) row, or tiled to the
    uniforms' shape, which numpy compares about twice as fast."""
    return np.less(uniforms, probabilities, out=out)


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

