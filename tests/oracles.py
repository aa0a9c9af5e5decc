"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (exhaustive enumeration, direct
probability sums) and never calls the code paths under test.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def poisson_binomial_pmf(p) -> np.ndarray:
    """pmf of the number of successes among independent Bernoulli(p_j),
    by direct convolution."""
    pmf = np.array([1.0])
    for pj in p:
        nxt = np.zeros(pmf.size + 1)
        nxt[:-1] = pmf * (1.0 - pj)
        nxt[1:] += pmf * pj
        pmf = nxt
    return pmf


def colex_codebook(d: int, kprime: int) -> list[tuple[int, ...]]:
    """All supports with at most kprime ones, ordered by popcount ascending
    and colexicographically within each popcount class."""
    out: list[tuple[int, ...]] = []
    for m in range(kprime + 1):
        subsets = list(itertools.combinations(range(d), m))
        subsets.sort(key=lambda s: tuple(reversed(s)))
        out.extend(subsets)
    return out


@functools.lru_cache(maxsize=None)
def _class_starts(d: int, kprime: int) -> tuple[int, ...]:
    """starts[m] = number of supports of length d with fewer than m ones,
    for 0 <= m <= kprime + 1."""
    return tuple(itertools.accumulate((math.comb(d, j) for j in range(kprime + 1)), initial=0))


def comb_walk_rank(support, d: int, kprime: int) -> int:
    """Codebook rank of a sorted support (popcount class, then colex):
    the class start plus sum_i C(s_i, i+1), every binomial from math.comb."""
    assert len(support) <= kprime
    return _class_starts(d, kprime)[len(support)] + sum(
        math.comb(idx, i + 1) for i, idx in enumerate(support)
    )


def comb_walk_unrank(rank: int, d: int, kprime: int) -> list[int]:
    """Inverse of :func:`comb_walk_rank`: find the popcount class by walking
    the class starts up, then each index by stepping down from the previous
    one until C(c, i+1) fits the remainder."""
    starts = _class_starts(d, kprime)
    assert 0 <= rank < starts[-1]
    m = 0
    while starts[m + 1] <= rank:
        m += 1
    rem = rank - starts[m]
    support = []
    c = d
    for i in range(m - 1, -1, -1):
        c -= 1
        while math.comb(c, i + 1) > rem:
            c -= 1
        support.append(c)
        rem -= math.comb(c, i + 1)
    return support[::-1]


def exact_pipeline_risk(probabilities, n: int, kprime: int, scale: float = 1.0) -> float:
    """Closed-form E||theta_hat - target||^2 of the subsample-and-reweight
    pipeline with an exact codec.

    Derivation: conditionally on the sample X and its subsampling fraction
    S, the kept indicator has E[kept_j | X] = X_j * S, so across nodes
    E[theta_hat_j] = theta_j and the per-component variance contribution is
    (E[X_j / S] - theta_j^2) / n.  Summing components gives
    (E[||X||_1 / S] - ||theta||^2) / n with ||X||/S = m^2/kprime for counts
    m > kprime and m otherwise; the count m follows the Poisson binomial
    law of the success probabilities.  A scaled estimand multiplies the
    risk by scale^2.
    """
    p = np.asarray(probabilities, dtype=float)
    pmf = poisson_binomial_pmf(p)
    m = np.arange(pmf.size)
    per_count = np.where(m > kprime, m * m / kprime, m)
    expected = float(np.sum(pmf * per_count))
    return scale * scale * (expected - float(np.sum(p * p))) / n


def mean_sq_error_enumeration(w, r: int, k: int) -> float:
    """Average squared residual of keep-a-random-k-subset-of-the-top-r,
    enumerated over all C(r, k) subsets.

    Ties in magnitude are broken toward the lower index, matching the
    operator's fixed tie rule.
    """
    w = np.asarray(w, dtype=float)
    order = np.argsort(-np.abs(w), kind="stable")
    top = order[:r]
    total = float(np.sum(w * w))
    errors = []
    for subset in itertools.combinations(range(r), k):
        kept = top[list(subset)]
        errors.append(total - float(np.sum(w[kept] ** 2)))
    return float(np.mean(errors))


def naive_rtop_k(w, r: int, k: int, rng) -> list[int]:
    """The indices rtop-k keeps, in selection order: the top r by a stable
    argsort of the magnitudes (ties to the lower index), then k scalar
    Fisher-Yates swaps over a Python list, swap i drawing
    ``rng.integers(i, r)``."""
    pool = np.argsort(-np.abs(np.asarray(w, dtype=float)), kind="stable")[:r].tolist()
    for i in range(k):
        j = int(rng.integers(i, r))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def naive_rtop_k_residuals(w, r: int, k: int, trials: int, rng) -> tuple[float, float]:
    """Mean and standard error of ``||w - rtop_k(w)||^2`` over ``trials``
    selections by :func:`naive_rtop_k`; each residual is the total squared
    norm minus a Python sum of the kept squares in selection order."""
    values = [float(v) for v in w]
    total = float(np.sum(np.asarray(values) ** 2))
    errors = []
    for _ in range(trials):
        kept = naive_rtop_k(values, r, k, rng)
        errors.append(total - sum(values[i] * values[i] for i in kept))
    errors = np.array(errors)
    std = float(errors.std(ddof=1)) if trials > 1 else 0.0
    return float(errors.mean()), std / math.sqrt(trials)


def naive_train(obj, cfg):
    """Distributed sparsified SGD, one node and one scalar swap at a time.

    Streams come straight from ``SeedSequence([seed, *path])`` (64-bit
    words): the initial weights from path (0,), node i's minibatch picks
    from (1, i) and its swap targets from (2, i).  Each round, node i draws
    ``integers(0, shard, size=batch_size)``, takes ``obj.grad_minibatch``,
    adds its memory under error feedback, and keeps either the top r by a
    stable Python sort of the magnitudes (top-r, no draws) or k entries of
    a Python-list pool (the top r, or all d for random-k) chosen by k
    Fisher-Yates swaps, swap s drawing ``integers(s, len(pool))``.  Kept
    entries that are not exact zeros are written into a zero vector; the
    remainder is the next memory.  Updates are added in node order,
    averaged, rescaled by window/k in the unbiased mode, and stepped with
    the schedule's rate.  Returns the final weights and, per round,
    ``(t, loss, grad_sq_norm, memory_sq_norm, comm_entries)``.
    """
    word = (1 << 64) - 1

    def stream(*path):
        return np.random.default_rng(np.random.SeedSequence([cfg.seed & word, *path]))

    n, d, batch = cfg.n, obj.d, cfg.batch_size
    kind, k, r = cfg.sparsifier.kind, cfg.sparsifier.k, cfg.sparsifier.r
    if kind == "top_r":
        window = k
    elif kind == "random_k":
        window = d
    else:
        window = r
    if cfg.partition == "contiguous":
        shards = [
            list(range(i * obj.n_samples // n, (i + 1) * obj.n_samples // n)) for i in range(n)
        ]
    else:
        shards = [list(range(i, obj.n_samples, n)) for i in range(n)]
    data = [stream(1, i) for i in range(n)]
    selection = [stream(2, i) for i in range(n)]
    memories = [np.zeros(d) for _ in range(n)]
    error_feedback = cfg.aggregation == "error_feedback_mean"
    schedule = [(0, cfg.eta)] if isinstance(cfg.eta, (int, float)) else list(cfg.eta)
    w = stream(0).normal(0.0, cfg.init_scale, d)
    records = []
    for t in range(cfg.steps):
        agg = np.zeros(d)
        for i in range(n):
            picks = [shards[i][j] for j in data[i].integers(0, len(shards[i]), size=batch)]
            carried = obj.grad_minibatch(w, picks)
            if error_feedback:
                carried = carried + memories[i]
            values = carried.tolist()
            by_size = sorted(range(d), key=lambda j: -abs(values[j]))
            if kind == "top_r":
                kept = by_size[:k]
            else:
                pool = list(range(d)) if kind == "random_k" else by_size[:window]
                for s in range(k):
                    j = int(selection[i].integers(s, len(pool)))
                    pool[s], pool[j] = pool[j], pool[s]
                kept = pool[:k]
            update = np.zeros(d)
            for j in kept:
                if values[j] != 0.0:
                    update[j] = values[j]
            if error_feedback:
                memories[i] = carried - update
            agg += update
        agg /= n
        if not error_feedback:
            agg *= window / k
        rate = [value for start, value in schedule if t >= start][-1]
        w = w - float(rate) * agg
        records.append(
            (
                t,
                float(obj.loss(w)),
                float(np.sum(obj.full_grad(w) ** 2)),
                float(sum(np.sum(m**2) for m in memories)),
                n * k,
            )
        )
    return w, records


def ols_loglog_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log(y) on log(x) and its standard error."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = lx.size
    dx = lx - lx.mean()
    slope = float(np.sum(dx * (ly - ly.mean())) / np.sum(dx * dx))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    if n > 2:
        se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / float(np.sum(dx * dx)))
    else:
        se = 0.0
    return slope, se


def double_argsort_mask(x, kprime: int, keys) -> np.ndarray:
    """Row-wise subsample mask by full ranking: every nonzero position gets
    its key, every zero position -1; a row keeps its min(count, kprime)
    highest-ranked positions, keys descending, ties to the lower index."""
    nonzero = np.asarray(x) != 0
    kept = np.minimum(nonzero.sum(axis=1), kprime)
    filled = np.where(nonzero, keys, -1.0)
    order = np.argsort(np.argsort(-filled, axis=1, kind="stable"), axis=1)
    return nonzero & (order < kept[:, None])


def per_trial_monte_carlo(theta, n: int, kprime: int, trials: int, perturb, seed: int):
    """Trial-by-trial Monte Carlo of the subsample-and-reweight estimate.

    Trial t draws from the generator seeded with ``SeedSequence([seed, t])``
    (64-bit words): (n, d) sample uniforms, then (n, d) noise on
    ``[-perturb, perturb]`` when ``perturb`` is not None, then (n, d)
    subsample keys.  The kept support is :func:`double_argsort_mask`, used
    directly (an exact codec returns it unchanged), weighted by count/kprime
    on subsampled rows.  Returns ``(mean_sq_error, std_error, mean,
    mean_std_error)``: the Welford mean and standard error of the squared
    error, and the componentwise mean of the estimate with its standard
    error from running sums.
    """
    word = (1 << 64) - 1
    p = theta.probabilities()
    target = theta.estimand()
    signed = theta.variant == "signed"
    scale = theta.scale if theta.variant == "scaled" else 1.0
    mean = m2 = 0.0
    total = np.zeros(theta.d)
    total_sq = np.zeros(theta.d)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed & word, t]))
        x = (rng.random((n, theta.d)) < p).astype(np.int8)
        signs = np.where(theta.values < 0, -1.0, 1.0) if signed else None
        if perturb is not None:
            noise = rng.uniform(-perturb, perturb, x.shape)
            y = (x * signs if signed else x) + noise
            if signed:
                signs = np.where(y < 0, -1.0, 1.0)
            x = (np.abs(y) > 0.5).astype(np.int8)
        mask = double_argsort_mask(x, kprime, rng.random(x.shape))
        counts = (x != 0).sum(axis=1)
        contrib = mask * np.where(counts > kprime, counts / kprime, 1.0)[:, None]
        if signed:
            contrib = contrib * signs
        theta_hat = contrib.mean(axis=0) * scale
        err = float(np.sum((theta_hat - target) ** 2))
        delta = err - mean
        mean += delta / (t + 1)
        m2 += delta * (err - mean)
        total += theta_hat
        total_sq += theta_hat * theta_hat
    avg = total / trials
    var = np.maximum(total_sq / trials - avg * avg, 0.0)
    return mean, math.sqrt(m2 / (trials - 1) / trials), avg, np.sqrt(var / trials)
