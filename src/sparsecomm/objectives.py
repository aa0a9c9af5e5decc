"""Toy objectives for the distributed SGD simulator.

Each objective exposes the empirical risk over a finite synthetic dataset,
its full gradient, and unbiased minibatch gradients over sample indices.
All three families keep per-sample gradients cheap and exact so simulator
properties can be checked against closed forms or finite differences.

The simulator trains S seeds in lockstep and evaluates them through the
row methods (``grad_rows``, ``loss_rows``, ``full_grad_rows``), which must
give every seed the bits of its single-vector call.  The defaults loop
over the seeds; the quadratic stacks them, with dot products as stacked
``np.matmul`` (BLAS ddot, as ``np.dot``) and never as ``W @ b`` (a gemv,
which sums in another order).
"""

from __future__ import annotations

import numpy as np

from .seeding import substream


class _RowsByLoop:
    """Row methods that call the single-vector methods once per row."""

    def grad_rows(self, weights, picks) -> np.ndarray:
        """``grad_minibatch`` of every node's picks at its seed's weights:
        (S, d) weights and (S, n, B) picks give (S, n, d) gradients."""
        return np.array(
            [[self.grad_minibatch(w, row) for row in rows] for w, rows in zip(weights, picks)]
        )

    def loss_rows(self, weights) -> np.ndarray:
        """``loss`` of every row of (S, d) weights, as (S,)."""
        return np.array([self.loss(w) for w in weights])

    def full_grad_rows(self, weights) -> np.ndarray:
        """``full_grad`` of every row of (S, d) weights, as (S, d)."""
        return np.array([self.full_grad(w) for w in weights])


class QuadraticObjective:
    """Mean of per-sample quadratics ``1/2 w'Aw - b_i'w`` with diagonal A.

    The per-sample linear terms b_i share a common mean, so minibatch
    gradients are unbiased with additive noise independent of w.  The loss
    is offset to vanish at the minimizer of the empirical risk.
    """

    def __init__(self, diag, b_samples):
        self.diag = np.asarray(diag, dtype=float)
        self.b_samples = np.asarray(b_samples, dtype=float)
        if self.b_samples.ndim != 2 or self.b_samples.shape[1] != self.diag.size:
            raise ValueError("b_samples must be (n_samples, d)")
        if np.any(self.diag <= 0):
            raise ValueError("diagonal must be positive definite")
        self.d = int(self.diag.size)
        self.n_samples = int(self.b_samples.shape[0])
        self.b_mean = self.b_samples.mean(axis=0)
        self.minimizer = self.b_mean / self.diag
        self._offset = 0.5 * float(np.dot(self.b_mean, self.minimizer))
        self.smoothness = float(self.diag.max())

    def loss(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return 0.5 * float(np.dot(w, self.diag * w)) - float(np.dot(self.b_mean, w)) + self._offset

    def full_grad(self, w) -> np.ndarray:
        return self.diag * w - self.b_mean

    def grad_minibatch(self, w, indices) -> np.ndarray:
        return self.diag * w - self.b_samples[indices].mean(axis=0)

    def grad_rows(self, weights, picks) -> np.ndarray:
        """``grad_minibatch`` of every node's picks at its seed's weights:
        (S, d) weights and (S, n, B) picks give (S, n, d) gradients.

        The samples are gathered minibatch axis first, as (B, S*n, d), so
        the reduce over that leading axis adds each column as
        ``mean(axis=0)`` over a (B, d) gather does, pairwise at d = 1 too."""
        seeds, n, batch = picks.shape
        grads = np.add.reduce(self.b_samples[picks.reshape(seeds * n, batch).T], axis=0)
        grads /= batch
        grads = grads.reshape(seeds, n, self.d)
        return np.subtract((self.diag * weights)[:, None, :], grads, out=grads)

    def loss_rows(self, weights) -> np.ndarray:
        """``loss`` of every row of (S, d) weights, as (S,): each dot
        product is a stacked 1 x d by d x 1 matmul, the ddot of ``np.dot``."""
        w = np.asarray(weights, dtype=float)
        quadratic = np.matmul(w[:, None, :], (self.diag * w)[:, :, None])[:, 0, 0]
        linear = np.matmul(self.b_mean[None, :], w[:, :, None])[:, 0, 0]
        return 0.5 * quadratic - linear + self._offset

    def full_grad_rows(self, weights) -> np.ndarray:
        """``full_grad`` of every row of (S, d) weights, as (S, d)."""
        return self.diag * weights - self.b_mean


def make_quadratic(
    d: int,
    n_samples: int = 1000,
    eig_range: tuple[float, float] = (0.5, 2.0),
    noise_std=0.5,
    seed: int = 0,
    diag=None,
    b_mean=None,
) -> QuadraticObjective:
    """Synthetic quadratic: linearly spaced spectrum, Gaussian b_i noise.

    Without ``diag`` the spectrum runs from ``eig_range[0]`` up to
    ``eig_range[1]``, so the range must not descend.  ``noise_std`` may be
    a scalar or a per-coordinate vector of d numbers, which allows
    concentrating the stochastic-gradient mass on a few coordinates.
    """
    noise_std = np.asarray(noise_std, dtype=float)
    if noise_std.shape not in ((), (d,)):
        raise ValueError(f"noise_std must be a number or d={d} numbers, got {noise_std.tolist()}")
    rng = substream(seed, 90)
    if diag is None:
        if eig_range[0] > eig_range[1]:
            raise ValueError(f"eig_range must not descend, got {tuple(eig_range)}")
        diag = np.linspace(eig_range[0], eig_range[1], d)
    diag = np.asarray(diag, dtype=float)
    if b_mean is None:
        b_mean = rng.normal(0.0, 1.0, d)
    b_mean = np.asarray(b_mean, dtype=float)
    noise = rng.normal(0.0, 1.0, (n_samples, d)) * noise_std
    return QuadraticObjective(diag, b_mean + noise)


def make_concentrated_quadratic(
    d: int,
    heavy: int = 10,
    n_samples: int = 400,
    heavy_noise: float = 0.8,
    light_noise: float = 0.004,
    seed: int = 0,
) -> QuadraticObjective:
    """Quadratic whose gradient mass concentrates on a few coordinates.

    The first ``heavy`` coordinates carry unit curvature, unit mean linear
    term, and per-sample noise of scale ``heavy_noise`` (selection churn);
    the remaining coordinates are two orders of magnitude quieter.  This
    is the skewed-gradient analogue used to compare sparsifiers at small
    entry budgets.
    """
    if not 1 <= heavy <= d:
        raise ValueError(f"need 1 <= heavy={heavy} <= d={d}")
    diag = np.full(d, 0.05)
    diag[:heavy] = 1.0
    b_mean = np.full(d, 0.01)
    b_mean[:heavy] = 1.0
    noise = np.full(d, light_noise)
    noise[:heavy] = heavy_noise
    return make_quadratic(
        d, n_samples=n_samples, diag=diag, b_mean=b_mean, noise_std=noise, seed=seed
    )


class LogisticObjective(_RowsByLoop):
    """L2-regularized logistic regression over a finite dataset."""

    def __init__(self, features, labels, lam: float = 0.0):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        if set(np.unique(self.labels)) - {0.0, 1.0}:
            raise ValueError("labels must be 0/1")
        if lam < 0:
            raise ValueError("regularization must be nonnegative")
        self.lam = float(lam)
        self.n_samples, self.d = self.features.shape

    def _margins(self, w, x):
        return x @ np.asarray(w, dtype=float)

    def loss(self, w) -> float:
        z = self._margins(w, self.features)
        # log(1 + exp(z)) - y z, computed stably
        nll = np.logaddexp(0.0, z) - self.labels * z
        reg = 0.5 * self.lam * float(np.dot(w, w))
        return float(nll.mean()) + reg

    def _grad(self, w, x, y) -> np.ndarray:
        z = self._margins(w, x)
        p = 1.0 / (1.0 + np.exp(-z))
        return (p - y) @ x / x.shape[0] + self.lam * np.asarray(w, dtype=float)

    def full_grad(self, w) -> np.ndarray:
        return self._grad(w, self.features, self.labels)

    def grad_minibatch(self, w, indices) -> np.ndarray:
        return self._grad(w, self.features[indices], self.labels[indices])


def make_logistic(
    d: int, n_samples: int = 512, lam: float = 1e-3, seed: int = 0
) -> LogisticObjective:
    """Separable-ish synthetic classification data with Bernoulli labels."""
    rng = substream(seed, 91)
    x = rng.normal(0.0, 1.0, (n_samples, d)) / np.sqrt(d)
    w_true = rng.normal(0.0, 2.0, d)
    p = 1.0 / (1.0 + np.exp(-(x @ w_true)))
    y = (rng.random(n_samples) < p).astype(float)
    return LogisticObjective(x, y, lam)


class TinyMLPObjective(_RowsByLoop):
    """One-hidden-layer tanh network under squared loss, manual backprop.

    Parameters are a flat vector packing (W1, b1, W2, b2).  Gradients are
    exact means over the requested sample indices.
    """

    def __init__(self, inputs, targets, hidden: int):
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        self.n_samples, self.n_in = self.inputs.shape
        self.n_out = self.targets.shape[1]
        self.hidden = int(hidden)
        self.d = self.hidden * (self.n_in + 1) + self.n_out * (self.hidden + 1)

    def _unpack(self, w):
        w = np.asarray(w, dtype=float)
        h, i, o = self.hidden, self.n_in, self.n_out
        cuts = np.cumsum([h * i, h, o * h, o])
        w1 = w[: cuts[0]].reshape(h, i)
        b1 = w[cuts[0] : cuts[1]]
        w2 = w[cuts[1] : cuts[2]].reshape(o, h)
        b2 = w[cuts[2] : cuts[3]]
        return w1, b1, w2, b2

    def _forward(self, w, x):
        w1, b1, w2, b2 = self._unpack(w)
        a1 = np.tanh(x @ w1.T + b1)
        out = a1 @ w2.T + b2
        return a1, out

    def loss(self, w) -> float:
        _, out = self._forward(w, self.inputs)
        return 0.5 * float(np.sum((out - self.targets) ** 2)) / self.inputs.shape[0]

    def _grad(self, w, x, y) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(w)
        a1 = np.tanh(x @ w1.T + b1)
        out = a1 @ w2.T + b2
        dout = (out - y) / x.shape[0]
        dw2 = dout.T @ a1
        db2 = dout.sum(axis=0)
        da1 = dout @ w2
        dz1 = da1 * (1.0 - a1 * a1)
        dw1 = dz1.T @ x
        db1 = dz1.sum(axis=0)
        return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])

    def full_grad(self, w) -> np.ndarray:
        return self._grad(w, self.inputs, self.targets)

    def grad_minibatch(self, w, indices) -> np.ndarray:
        return self._grad(w, self.inputs[indices], self.targets[indices])


def make_tiny_mlp(
    n_in: int = 4,
    hidden: int = 8,
    n_out: int = 1,
    n_samples: int = 256,
    noise_std: float = 0.1,
    seed: int = 0,
) -> TinyMLPObjective:
    """Regression data from a random teacher network plus Gaussian noise."""
    rng = substream(seed, 92)
    x = rng.normal(0.0, 1.0, (n_samples, n_in))
    w1 = rng.normal(0.0, 1.0, (hidden, n_in))
    w2 = rng.normal(0.0, 1.0, (n_out, hidden)) / np.sqrt(hidden)
    y = np.tanh(x @ w1.T) @ w2.T + rng.normal(0.0, noise_std, (n_samples, n_out))
    return TinyMLPObjective(x, y, hidden)
