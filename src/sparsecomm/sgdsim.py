"""Distributed SGD simulator with sparsified updates and error compensation.

Each round, every node computes a minibatch gradient on its shard, adds its
carry-over memory, sparsifies the result, and ships the sparse update; the
un-shipped remainder becomes next round's memory.  The aggregator averages
the updates (optionally rescaling by r/k in the memory-free unbiased mode)
and takes a gradient step shared by all nodes.  ``TrainConfig.sparsifier``
names the one operator a run applies (rtop-k, top-k or random-k) and its
window; nothing else in the config selects entries.

The simulator is bitwise deterministic for a fixed seed: data draws and
selection randomness live on separate per-node streams, nodes are reduced
in a fixed order, and with k = r = d the trajectory coincides exactly with
plain minibatch SGD on the same draws.

Neither stream depends on the weights, so training draws each node's
minibatch picks and Fisher-Yates swap targets ahead, one call per node and
stream for a block of rounds.  Each stream is consumed exactly as one
round at a time would consume it, so ``train`` and repeated ``sgd_round``
calls give the same bits.

Seeds run in lockstep: ``train_seeds`` advances S seeds of one config
together, as (S, d) weights and (S, n, d) memories, with the gradient rows
from the objective's ``grad_rows`` and one ``SparsifierSpec.select_rows``
call per round on the (S*n, d) carried rows.  The round then works on the
sent entries alone: their values, an in-place update of the memories and
one node-ordered ``bincount`` for the aggregate (``_exchange``); no dense
update matrix is built.  ``train`` is its S = 1 case and
``compare_sparsifiers`` calls it once per spec.  Every seed keeps its own
streams, initial weights, node-ordered aggregation and records, so each
seed's bits are those of a lone run.  The round metrics keep those bits
too: the objectives' ``loss_rows`` and ``full_grad_rows`` reduce each
seed's row as the single-vector call does (a stacked ``np.matmul`` for a
dot product is BLAS ddot like ``np.dot``; ``W @ b`` is a gemv and gives
other bits), and sums of squares reduce along the contiguous last axis.

``train`` keeps a record for every round.  ``compare_sparsifiers`` reads
only the final one, so it asks ``train_seeds`` for that record alone
(``final_only``) and skips the metrics of the other rounds.  The
finiteness check runs every round either way, so a diverging run fails at
the same step with the same message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from numbers import Integral
from typing import Optional, Sequence, Union

import numpy as np

from .seeding import substream
from .sparsify import SparsifierSpec

ERROR_FEEDBACK_MEAN = "error_feedback_mean"
UNBIASED_RESCALE = "unbiased_rescale"

_AGGREGATIONS = (ERROR_FEEDBACK_MEAN, UNBIASED_RESCALE)

# Learning-rate schedules are either a constant or a piecewise-constant
# list of (start_step, rate) breakpoints; TrainConfig requires finite positive
# rates and steps that start at 0 and strictly increase.
Schedule = Union[float, Sequence[tuple[int, float]]]


# Cap on the elements of a block of pre-drawn (rounds, n, batch_size) picks
# or (rounds, n, k) swap targets: memory stays flat however long a run is.
_DRAW_ELEMENTS = 1 << 16


class NonFiniteState(RuntimeError):
    """Weights or gradients left the finite range; the run is aborted."""


@dataclass
class NodeState:
    """One simulated node: its shard, carry-over memory, and rng streams."""

    node_id: int
    indices: np.ndarray
    memory: np.ndarray
    data_rng: np.random.Generator
    selection_rng: np.random.Generator


@dataclass(frozen=True)
class TrainConfig:
    """Simulator parameters; ``sparsifier`` is the operator every node
    applies each round, and its entries budget is the k of a run."""

    n: int
    steps: int
    sparsifier: SparsifierSpec
    batch_size: int = 8
    eta: Schedule = 0.1
    aggregation: str = ERROR_FEEDBACK_MEAN
    seed: int = 0
    partition: str = "contiguous"
    init_scale: float = 1.0

    def __post_init__(self):
        if self.aggregation not in _AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.partition not in ("contiguous", "interleaved"):
            raise ValueError(f"unknown partition {self.partition!r}")
        if self.n < 1 or self.steps < 1 or self.batch_size < 1:
            raise ValueError("n, steps and batch_size must be positive")
        breakpoints = [(0, self.eta)] if isinstance(self.eta, (int, float)) else list(self.eta)
        starts = [start for start, _ in breakpoints]
        if any(isinstance(start, bool) or not isinstance(start, Integral) for start in starts):
            raise ValueError(f"eta steps must be integers, got {starts}")
        if not starts or starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError(f"eta steps must start at 0 and strictly increase, got {starts}")
        if not all(rate > 0 for _, rate in breakpoints):
            raise ValueError(f"learning rates must be positive, got {self.eta}")
        if any(isinstance(rate, bool) or not math.isfinite(rate) for _, rate in breakpoints):
            raise ValueError(f"learning rates must be finite numbers, got {self.eta}")
        if not self.init_scale >= 0:
            raise ValueError(f"init_scale must be nonnegative, got {self.init_scale}")


def learning_rate(eta: Schedule, t: int) -> float:
    """Rate in effect at step t for a constant or piecewise schedule."""
    if isinstance(eta, (int, float)):
        rate = float(eta)
    else:
        rate = None
        for start, value in eta:
            if t >= start:
                rate = float(value)
        if rate is None:
            raise ValueError(f"schedule has no rate for step {t}")
    if rate <= 0:
        raise ValueError("learning rate must be positive")
    return rate


def sqrt_horizon_schedule(chat: float, steps: int) -> float:
    """The fixed-horizon preset eta = chat / sqrt(T)."""
    return chat / math.sqrt(steps)


def make_nodes(obj, cfg: TrainConfig) -> list[NodeState]:
    """Equal shards (contiguous or interleaved) plus per-node streams."""
    if obj.n_samples < cfg.n:
        raise ValueError("need at least one sample per node")
    all_idx = np.arange(obj.n_samples)
    nodes = []
    for i in range(cfg.n):
        if cfg.partition == "contiguous":
            lo = i * obj.n_samples // cfg.n
            hi = (i + 1) * obj.n_samples // cfg.n
            shard = all_idx[lo:hi]
        else:
            shard = all_idx[i :: cfg.n]
        nodes.append(
            NodeState(
                node_id=i,
                indices=shard,
                memory=np.zeros(obj.d),
                data_rng=substream(cfg.seed, 1, i),
                selection_rng=substream(cfg.seed, 2, i),
            )
        )
    return nodes


def init_weights(obj, seed: int, scale: float = 1.0) -> np.ndarray:
    """Deterministic shared initialization (the broadcast step)."""
    return substream(seed, 0).normal(0.0, scale, obj.d)


def local_gradient(
    obj, node: NodeState, w: np.ndarray, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Mean gradient over a uniform with-replacement minibatch of the shard."""
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    if node.indices.size == 0:
        raise ValueError(f"node {node.node_id} has an empty shard")
    picks = node.indices[rng.integers(0, node.indices.size, size=batch_size)]
    return obj.grad_minibatch(w, picks)


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round record, evaluated at the post-step weights."""

    t: int
    loss: float
    grad_sq_norm: float
    memory_sq_norm: float
    comm_entries: int


def _draw_rounds(
    nodes: list[NodeState], spec: SparsifierSpec, batch_size: int, d: int, rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every node's minibatch picks and swap targets for the next ``rounds``
    rounds: (rounds, nodes, batch_size) sample indices and (rounds, nodes, k)
    targets, from one call per node and stream.  Each stream is consumed
    exactly as ``rounds`` single rounds would consume it."""
    picks = [
        node.indices[node.data_rng.integers(0, node.indices.size, size=(rounds, batch_size))]
        for node in nodes
    ]
    targets = [spec.swap_targets(node.selection_rng, d, rounds) for node in nodes]
    return np.stack(picks, axis=1), np.stack(targets, axis=1)


@lru_cache(maxsize=16)
def _row_offsets(seeds: int, n: int, d: int) -> np.ndarray:
    """Read-only (2, seeds*n, 1) offsets of the (seeds*n, d) carried rows:
    row*d, the row's flat start, and seed*d, its seed's first bin.  Cached
    because a run asks for one shape every round."""
    rows = np.arange(seeds * n)[:, None]
    offsets = np.stack([rows * d, rows // n * d])
    offsets.setflags(write=False)
    return offsets


def _exchange(obj, spec, cfg, t, weights, memories, picks, targets):
    """One synchronous round of S seeds on (S, n, d) node arrays, before
    any check; ``weights`` is (S, d), ``picks`` (S, n, B) and ``targets``
    (S, n, k).

    Returns the gradients, the flat positions in an (S, n, d) array of the
    entries the nodes send, as (S*n, k), their values, the new memories
    and the new weights.

    Only the sent entries are touched: in error-feedback mode the carried
    array becomes the memories by subtracting each sent value in place,
    and the aggregate is one ``bincount`` over the bins seed*d + column.
    These are the bits of the dense round (zero-filled updates, memories
    ``carried - updates``, node sums ``agg += updates[:, i]`` in node
    order):

    - ``bincount`` adds each bin's weights in input order, starting from
      +0.0.  The sent positions come row by row, node-major, so each bin
      adds its nodes in node order.
    - The dense loop also added +0.0 for every entry a node did not send.
      Adding +0.0 leaves every partial sum unchanged, because no sent value
      is -0.0 (each is ``x + 0.0``), so no partial sum is -0.0.
    - An unsent memory entry ``x - 0.0`` is ``x``; a sent one is the
      dense subtraction itself, once, as a row keeps distinct indices.
    """
    seeds, n, d = memories.shape
    grads = obj.grad_rows(weights, picks)
    use_memory = cfg.aggregation == ERROR_FEEDBACK_MEAN
    carried = grads + memories if use_memory else grads
    kept = spec.select_rows(carried.reshape(seeds * n, d), targets.reshape(seeds * n, -1))
    sent, bins = kept + _row_offsets(seeds, n, d)  # bins seed*d + column, node-major
    values = carried.flat[sent] + 0.0
    if use_memory:
        carried.flat[sent] -= values
        memories = carried
    agg = np.bincount(bins.ravel(), weights=values.ravel(), minlength=seeds * d).reshape(seeds, d)
    agg /= n
    if cfg.aggregation == UNBIASED_RESCALE:
        agg *= spec.unbiased_rescale(d)
    return grads, sent, values, memories, weights - learning_rate(cfg.eta, t) * agg


def _check_finite(t, weights, new_weights) -> None:
    """Raise NonFiniteState when step ``t`` left the finite range; the
    message gives the largest pre-step |w| of the first seed that left it."""
    if np.isfinite(new_weights).all():
        return
    w = weights[np.argmin(np.isfinite(new_weights).all(axis=1))]
    raise NonFiniteState(f"non-finite weights at step {t}; max |w| was {np.max(np.abs(w)):.3e}")


def _round_metrics(obj, spec, t, new_weights, memories) -> list[RoundMetrics]:
    """Each seed's record at its finite post-step weights."""
    losses = obj.loss_rows(new_weights)
    grad_sq = np.sum(obj.full_grad_rows(new_weights) ** 2, axis=1)
    # the nodes' row sums added left to right; a reduce over nodes sums pairwise
    memory_sq = np.add.accumulate(np.sum(memories**2, axis=2), axis=1)[:, -1]
    comm = memories.shape[1] * spec.entries_budget
    return [
        RoundMetrics(t=t, loss=loss, grad_sq_norm=grad, memory_sq_norm=memory, comm_entries=comm)
        for loss, grad, memory in zip(losses.tolist(), grad_sq.tolist(), memory_sq.tolist())
    ]


def sgd_round(
    nodes: list[NodeState],
    obj,
    w: np.ndarray,
    cfg: TrainConfig,
    t: int,
    trace: Optional[dict] = None,
) -> tuple[np.ndarray, RoundMetrics]:
    """One synchronous round; node memories are updated in place.

    Error-feedback mode follows gradient-accumulation semantics: sparsify
    gradient-plus-memory, remember the remainder, plain-average the sparse
    updates.  The unbiased-rescale mode sparsifies the raw gradient and
    multiplies the average by r/k, leaving memories at zero.

    When ``trace`` is a dict it receives the per-node "gradients",
    "memories_before" and "updates" arrays of the round (for diagnostics
    and conservation checks).
    """
    spec = cfg.sparsifier
    picks, targets = _draw_rounds(nodes, spec, cfg.batch_size, obj.d, 1)
    weights = np.asarray(w, dtype=float)[None]
    before = np.array([[node.memory for node in nodes]])
    grads, sent, values, memories, new_weights = _exchange(
        obj, spec, cfg, t, weights, before, picks, targets
    )
    for node, memory in zip(nodes, memories[0]):
        node.memory = memory
    if trace is not None:
        updates = np.zeros(before.shape)
        updates.flat[sent] = values
        trace["gradients"], trace["memories_before"], trace["updates"] = (
            list(grads[0]), list(before[0]), list(updates[0])
        )
    _check_finite(t, weights, new_weights)
    (metrics,) = _round_metrics(obj, spec, t, new_weights, memories)
    return new_weights[0], metrics


@dataclass
class TrainResult:
    records: list[RoundMetrics]
    weights: np.ndarray

    @property
    def final(self) -> RoundMetrics:
        return self.records[-1]


def _train_lockstep(obj, cfg: TrainConfig, seeds: list[int], final_only: bool) -> list[TrainResult]:
    """The rounds of every seed in ``seeds``, advanced together; with
    ``final_only`` only the last round's record is computed and kept."""
    weights = np.array([init_weights(obj, seed, cfg.init_scale) for seed in seeds])
    nodes = [node for seed in seeds for node in make_nodes(obj, replace(cfg, seed=seed))]
    spec = cfg.sparsifier
    shape = (len(seeds), cfg.n)
    memories = np.zeros((*shape, obj.d))
    per_draw = max(1, _DRAW_ELEMENTS // (len(nodes) * max(cfg.batch_size, spec.k)))
    records = [[] for _ in seeds]
    with np.errstate(over="ignore", invalid="ignore"):  # NonFiniteState reports divergence
        for start in range(0, cfg.steps, per_draw):
            rounds = min(per_draw, cfg.steps - start)
            picks, targets = _draw_rounds(nodes, spec, cfg.batch_size, obj.d, rounds)
            picks = picks.reshape(rounds, *shape, -1)
            targets = targets.reshape(rounds, *shape, -1)
            for t in range(start, start + rounds):
                _, _, _, memories, new_weights = _exchange(
                    obj, spec, cfg, t, weights, memories, picks[t - start], targets[t - start]
                )
                _check_finite(t, weights, new_weights)
                if not final_only or t == cfg.steps - 1:
                    metrics = _round_metrics(obj, spec, t, new_weights, memories)
                    for seed_records, record in zip(records, metrics):
                        seed_records.append(record)
                weights = new_weights
    return [TrainResult(records=rec, weights=w) for rec, w in zip(records, weights)]


def train_seeds(
    obj, cfg: TrainConfig, seeds: Sequence[int], final_only: bool = False
) -> list[TrainResult]:
    """Run the full simulation once per seed (``cfg.seed`` is not read),
    all seeds in lockstep; each result is bitwise that of a lone run.

    With ``final_only`` each result's ``records`` holds only the last
    round's record, the same bits as the last of the full list; the
    finiteness check still runs every round.

    If the lockstep run fails, the seeds are rerun one at a time, so the
    error raised is the one the first failing seed raises on its own.
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    try:
        return _train_lockstep(obj, cfg, seeds, final_only)
    except (ValueError, ArithmeticError, RuntimeError):
        if len(seeds) == 1:
            raise
        for seed in seeds:
            _train_lockstep(obj, cfg, [seed], final_only)
        raise


def train(obj, cfg: TrainConfig) -> TrainResult:
    """Run the full simulation; bitwise deterministic for a fixed seed.

    The S = 1 case of ``train_seeds``: the same rounds as repeated
    ``sgd_round`` calls, with each node's picks and swap targets drawn
    ahead in blocks of rounds.
    """
    (result,) = train_seeds(obj, cfg, [cfg.seed])
    return result


def reference_sgd(obj, cfg: TrainConfig) -> TrainResult:
    """Plain synchronous minibatch SGD on the identical sample draws.

    Used as the uncompressed baseline: with k = r = d the simulator must
    reproduce this trajectory exactly.
    """
    w = init_weights(obj, cfg.seed, cfg.init_scale)
    nodes = make_nodes(obj, cfg)
    records = []
    for t in range(cfg.steps):
        agg = np.zeros(obj.d)
        for node in nodes:
            agg += local_gradient(obj, node, w, cfg.batch_size, node.data_rng)
        agg /= len(nodes)
        w = w - learning_rate(cfg.eta, t) * agg
        records.append(
            RoundMetrics(
                t=t,
                loss=float(obj.loss(w)),
                grad_sq_norm=float(np.sum(obj.full_grad(w) ** 2)),
                memory_sq_norm=0.0,
                comm_entries=len(nodes) * obj.d,
            )
        )
    return TrainResult(records=records, weights=w)


class HypothesisViolated(ValueError):
    """The step-size constant violates chat / sqrt(T) <= 1 / (2L)."""


@dataclass(frozen=True)
class ConvergenceBoundInputs:
    """Inputs to the fixed-horizon convergence bound."""

    smoothness: float  # L
    grad_bound: float  # G, second-moment bound on per-sample gradients
    batch_size: int
    n: int
    steps: int
    k: int
    d: int
    f0_gap: float  # E[f(w_0)] - f*
    chat: float  # step constant: eta = chat / sqrt(T)

    def __post_init__(self):
        if any(getattr(self, f.name) <= 0 for f in fields(self)):
            raise ValueError("all bound inputs must be positive")
        if self.k > self.d:
            raise ValueError("k cannot exceed d")


def convergence_bound(inp: ConvergenceBoundInputs) -> float:
    """Fixed-horizon bound on E||grad f(z_T)||^2 for the simulator.

    First term: ``(f0_gap / chat + chat L G^2 / (B n)) * 4 / sqrt(T)``.
    Second term: ``8 (4 (1 - (k/d)^2) / (k/d)^2 + 1) chat^2 L^2 G^2 / T``;
    the bracket collapses to 1 with no compression (k = d).
    """
    if inp.chat / math.sqrt(inp.steps) > 1.0 / (2.0 * inp.smoothness):
        raise HypothesisViolated(
            f"chat/sqrt(T)={inp.chat / math.sqrt(inp.steps):g} exceeds "
            f"1/(2L)={1.0 / (2.0 * inp.smoothness):g}"
        )
    gamma_sq = (inp.k / inp.d) ** 2
    first = (
        inp.f0_gap / inp.chat
        + inp.chat * inp.smoothness * inp.grad_bound**2 / (inp.batch_size * inp.n)
    ) * 4.0 / math.sqrt(inp.steps)
    bracket = 4.0 * (1.0 - gamma_sq) / gamma_sq + 1.0
    second = 8.0 * bracket * inp.chat**2 * inp.smoothness**2 * inp.grad_bound**2 / inp.steps
    return first + second


def convergence_order_terms(
    j: float, g: float, batch_size: int, n: int, d: int, k: int, steps: int
) -> tuple[float, float]:
    """Order terms of the rate under tuned constants, for curve plotting.

    Returns ``(J G / sqrt(B n T), J^2 B n d^2 / (k^2 T))``; the first term
    is compression-free, the second carries the (d/k)^2 penalty.
    """
    if min(j, g, batch_size, n, d, k, steps) <= 0:
        raise ValueError("all inputs must be positive")
    term1 = j * g / math.sqrt(batch_size * n * steps)
    term2 = j * j * batch_size * n * d * d / (k * k * steps)
    return term1, term2


def compare_sparsifiers(
    obj,
    base_cfg: TrainConfig,
    specs: Sequence[SparsifierSpec],
    seeds: Sequence[int],
) -> list[dict]:
    """Train every seed of each spec, in lockstep, at a shared entries budget.

    Returns one row per spec with mean and std of the final loss and final
    squared gradient norm across seeds.  Only the final round's record is
    computed (``train_seeds(..., final_only=True)``); the finiteness check
    runs every round, so a diverging seed fails at the step a lone
    ``train`` names.
    """
    if not specs:
        raise ValueError("need at least one spec")
    budgets = {spec.entries_budget for spec in specs}
    if len(budgets) != 1:
        raise ValueError(f"specs disagree on the entries budget: {sorted(budgets)}")
    rows = []
    for spec in specs:
        results = train_seeds(obj, replace(base_cfg, sparsifier=spec), seeds, final_only=True)
        losses = np.asarray([result.final.loss for result in results])
        grads = np.asarray([result.final.grad_sq_norm for result in results])
        rows.append(
            {
                "spec": spec.label,
                "k_entries": spec.entries_budget,
                "seeds": len(seeds),
                "mean_final_loss": float(losses.mean()),
                "std_final_loss": float(losses.std(ddof=1)) if len(seeds) > 1 else 0.0,
                "mean_final_grad_sq": float(grads.mean()),
                "std_final_grad_sq": float(grads.std(ddof=1)) if len(seeds) > 1 else 0.0,
                "comm_entries_per_round": base_cfg.n * spec.entries_budget,
            }
        )
    return rows
