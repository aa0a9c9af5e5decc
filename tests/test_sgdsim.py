"""Tests for the distributed SGD simulator and convergence-bound evaluators."""

import itertools
import re

import numpy as np
import pytest

from sparsecomm import sgdsim
from sparsecomm.harness import parse_spec_string
from sparsecomm.objectives import (
    LogisticObjective,
    QuadraticObjective,
    make_concentrated_quadratic,
    make_logistic,
    make_quadratic,
    make_tiny_mlp,
)
from sparsecomm.seeding import substream
from sparsecomm.sgdsim import (
    ERROR_FEEDBACK_MEAN,
    UNBIASED_RESCALE,
    ConvergenceBoundInputs,
    HypothesisViolated,
    NodeState,
    NonFiniteState,
    RoundMetrics,
    TrainConfig,
    compare_sparsifiers,
    convergence_bound,
    convergence_order_terms,
    init_weights,
    local_gradient,
    make_nodes,
    reference_sgd,
    sgd_round,
    sqrt_horizon_schedule,
    train,
    train_seeds,
)
from sparsecomm.sparsify import SparseUpdate, SparsifierSpec, top_r

from oracles import naive_train

OFFSET_TOO_LARGE = "the loss offset of the samples is {}: noise_std or b_mean is too large"


def noiseless_quadratic(d, diag=None, b_mean=None, n_samples=64):
    return make_quadratic(
        d,
        n_samples=n_samples,
        diag=np.ones(d) if diag is None else diag,
        b_mean=np.zeros(d) if b_mean is None else b_mean,
        noise_std=0.0,
    )


def single_node(obj, seed=0):
    return NodeState(
        node_id=0,
        indices=np.arange(obj.n_samples),
        memory=np.zeros(obj.d),
        data_rng=substream(seed, 1, 0),
        selection_rng=substream(seed, 2, 0),
    )


class TestObjectives:
    def test_identity_quadratic_gradient_is_w(self):
        obj = noiseless_quadratic(4)
        node = single_node(obj)
        w = np.array([1.5, -2.0, 0.25, 3.0])
        for batch in (1, 4, 16):
            g = local_gradient(obj, node, w, batch, node.data_rng)
            assert np.array_equal(g, w)

    def test_quadratic_loss_vanishes_at_minimizer(self):
        obj = make_quadratic(6, noise_std=0.3, seed=3)
        assert obj.loss(obj.minimizer) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(obj.full_grad(obj.minimizer), 0.0)

    @pytest.mark.parametrize(
        "given,message",
        [({"eig_range": (3.0, 1.0)}, "eig_range must not descend, got (3.0, 1.0)"),
         ({"noise_std": [0.5, 0.5]}, "noise_std must be a number or d=4 numbers, got [0.5, 0.5]"),
         ({"noise_std": 1e200}, OFFSET_TOO_LARGE.format("inf")),
         ({"b_mean": [1e200, 0, 0, 0]}, OFFSET_TOO_LARGE.format("inf"))],
    )
    def test_quadratic_builder_judges_its_spectrum_and_noise(self, given, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_quadratic(4, n_samples=5, **given)

    def test_logistic_single_sample_matches_analytic(self):
        x = np.array([[0.5, -1.0, 2.0]])
        y = np.array([1.0])
        lam = 0.01
        obj = LogisticObjective(x, y, lam)
        w = np.array([0.3, 0.2, -0.1])
        z = float(x[0] @ w)
        analytic = (1.0 / (1.0 + np.exp(-z)) - 1.0) * x[0] + lam * w
        got = obj.grad_minibatch(w, [0])
        assert np.allclose(got, analytic, atol=1e-12)

    @pytest.mark.parametrize(
        "factory",
        [lambda: make_logistic(6, n_samples=64, seed=5), lambda: make_tiny_mlp(seed=5)],
        ids=["logistic", "tiny_mlp"],
    )
    def test_gradient_matches_finite_differences(self, factory):
        obj = factory()
        rng = substream(6)
        w = rng.normal(0.0, 0.5, obj.d)
        g = obj.full_grad(w)
        h = 1e-6
        for j in rng.choice(obj.d, size=min(10, obj.d), replace=False):
            e = np.zeros(obj.d)
            e[j] = h
            numeric = (obj.loss(w + e) - obj.loss(w - e)) / (2 * h)
            assert g[j] == pytest.approx(numeric, abs=5e-5)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 64, 500])
    def test_quadratic_grad_rows_is_grad_minibatch_per_row(self, d):
        # d = 1 with B >= 8 is where numpy's mean sums the batch pairwise
        obj = make_quadratic(d, n_samples=40, noise_std=1.0, seed=d)
        rng = substream(70, d)
        for seeds, n in ((1, 1), (1, 5), (5, 5), (3, 8)):
            weights = rng.normal(size=(seeds, d))
            for batch in (1, 2, 3, 8, 9, 16, 17, 33):
                picks = rng.integers(0, obj.n_samples, size=(seeds, n, batch))
                rows = obj.grad_rows(weights, picks)
                assert rows.shape == (seeds, n, d)
                for s, i in itertools.product(range(seeds), range(n)):
                    lone = obj.grad_minibatch(weights[s], picks[s, i])
                    assert rows[s, i].tobytes() == lone.tobytes(), (seeds, n, batch, s, i)

    @pytest.mark.parametrize("d", [1, 7])
    @pytest.mark.parametrize("batch", [1, 2, 4, 8, 16, 3, 5, 9])
    def test_quadratic_grad_rows_scaling_keeps_the_mean_bits_at_the_edges(self, batch, d):
        # a power-of-two B scales the batch sums by 1/B, any other B divides:
        # subnormal sums, -0.0 and +-1e300 must give the bits of the mean
        rng = substream(71, batch, d)
        edges = np.array([5e-324, -5e-324, 3e-320, -7.5e-310, 2.2250738585072014e-308,
                          -0.0, 0.0, 1e300, -1e300, 1.0])
        samples = rng.choice(edges, size=(24, d)) * rng.choice([1.0, 3.0, 5.0], size=(24, d))
        samples[rng.random((24, d)) < 0.5] = -0.0
        with np.errstate(over="ignore"):  # the loss offset overflows; no gradient reads it
            obj = QuadraticObjective(np.full(d, 0.5), samples)
        for seeds, n in ((1, 1), (2, 3), (1, 6)):
            # weights of -0.0 and 0.0 let a gradient's signed zero through
            weights = rng.choice([-0.0, 0.0, 1e-310, -1.0], size=(seeds, d))
            picks = rng.integers(0, obj.n_samples, size=(seeds, n, batch))
            rows = obj.grad_rows(weights, picks)
            for s, i in itertools.product(range(seeds), range(n)):
                lone = obj.grad_minibatch(weights[s], picks[s, i])
                assert rows[s, i].tobytes() == lone.tobytes(), (seeds, n, s, i)

    def test_minibatch_gradient_is_unbiased(self):
        obj = make_quadratic(6, n_samples=128, noise_std=1.0, seed=7)
        node = single_node(obj)
        w = substream(8).normal(size=6)
        full = obj.grad_minibatch(w, node.indices)
        draws = 10_000
        batch = 4
        samples = np.array(
            [local_gradient(obj, node, w, batch, node.data_rng) for _ in range(draws)]
        )
        std_err = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(samples.mean(axis=0) - full) < 4 * std_err + 1e-12)


class TestSgdRound:
    def test_no_compression_is_exact_sgd_step(self):
        obj = make_quadratic(5, noise_std=0.5, seed=9)
        cfg = TrainConfig(n=3, sparsifier=SparsifierSpec.rtop(5, 5), steps=1, eta=0.05, seed=1)
        nodes = make_nodes(obj, cfg)
        ref_nodes = make_nodes(obj, cfg)
        w0 = substream(1, 0).normal(size=5)
        w1, metrics = sgd_round(nodes, obj, w0, cfg, 0)
        grads = [
            local_gradient(obj, node, w0, cfg.batch_size, node.data_rng)
            for node in ref_nodes
        ]
        agg = np.zeros(5)
        for g in grads:
            agg += g
        expected = w0 - 0.05 * (agg / 3)
        assert np.array_equal(w1, expected)
        assert all(np.all(node.memory == 0.0) for node in nodes)
        assert metrics.comm_entries == 3 * 5

    def test_error_feedback_conservation_is_exact(self):
        obj = make_quadratic(12, noise_std=0.8, seed=10)
        cfg = TrainConfig(n=4, sparsifier=SparsifierSpec.rtop(6, 2), steps=1, eta=0.1, seed=2)
        nodes = make_nodes(obj, cfg)
        w = substream(2, 0).normal(size=12)
        for t in range(30):
            before = [node.memory.copy() for node in nodes]
            trace = {}
            w, _ = sgd_round(nodes, obj, w, cfg, t, trace=trace)
            for i, node in enumerate(nodes):
                lhs = node.memory + trace["updates"][i]
                rhs = trace["gradients"][i] + before[i]
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_two_coordinate_branch_enumeration(self):
        # g = (3, 1), k=1, r=2: the update keeps one coordinate with equal
        # probability and the memory becomes exactly the complement.
        obj = noiseless_quadratic(2)
        cfg = TrainConfig(n=1, sparsifier=SparsifierSpec.rtop(2, 1), steps=1, eta=0.1, batch_size=1)
        w = np.array([3.0, 1.0])
        kept_first = 0
        draws = 2000
        for seed in range(draws):
            nodes = make_nodes(
                obj,
                TrainConfig(n=1, sparsifier=SparsifierSpec.rtop(2, 1), steps=1, eta=0.1, seed=seed),
            )
            trace = {}
            w1, _ = sgd_round(nodes, obj, w, cfg, 0, trace=trace)
            update = trace["updates"][0]
            memory = nodes[0].memory
            if update[0] == 3.0:
                kept_first += 1
                assert update.tolist() == [3.0, 0.0]
                assert memory.tolist() == [0.0, 1.0]
            else:
                assert update.tolist() == [0.0, 1.0]
                assert memory.tolist() == [3.0, 0.0]
        assert abs(kept_first / draws - 0.5) < 4 * 0.5 / np.sqrt(draws)

    def test_unbiased_rescale_recovers_plain_average(self):
        # r = d: inclusion probability k/d cancels the d/k factor.
        obj = noiseless_quadratic(4)
        w = np.array([2.0, -1.0, 0.5, 4.0])
        cfg = TrainConfig(
            n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=1, eta=1.0, batch_size=1,
            aggregation=UNBIASED_RESCALE,
        )
        draws = 4000
        total = np.zeros(4)
        for seed in range(draws):
            nodes = make_nodes(
                obj,
                TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=1, eta=1.0, seed=seed),
            )
            w1, _ = sgd_round(nodes, obj, w, cfg, 0)
            total += (w - w1)  # eta=1: the step equals the aggregate
            assert all(np.all(node.memory == 0.0) for node in nodes)
        mean = total / draws
        assert np.all(np.abs(mean - w) < 0.1)

    def test_non_finite_state_aborts(self):
        obj = make_quadratic(4, noise_std=0.0, seed=11)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 4), steps=200, eta=1e6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                train(obj, cfg)


class TestRescaleEnumeration:
    def test_expected_rescaled_update_is_top_r_truncation(self):
        # Exhaustive over all C(r, k) subsets, r <= 6: the mean of
        # (r/k) * masked(g) equals top_r(g) exactly.
        rng = substream(12)
        for r in range(1, 7):
            g = rng.normal(size=9)
            top = top_r(g, r).to_dense()
            top_idx = np.argsort(-np.abs(g), kind="stable")[:r]
            for k in range(1, r + 1):
                acc = np.zeros(9)
                subsets = list(itertools.combinations(range(r), k))
                for subset in subsets:
                    masked = np.zeros(9)
                    masked[top_idx[list(subset)]] = g[top_idx[list(subset)]]
                    acc += (r / k) * masked
                assert np.allclose(acc / len(subsets), top, atol=1e-12)


class TestTrain:
    def test_geometric_contraction_without_noise(self):
        obj = make_quadratic(
            6, diag=np.linspace(0.5, 2.0, 6), b_mean=np.zeros(6), noise_std=0.0
        )
        eta = 0.4
        cfg = TrainConfig(n=3, sparsifier=SparsifierSpec.rtop(6, 6), steps=40, eta=eta, seed=3)
        result = train(obj, cfg)
        w0 = substream(3, 0).normal(size=6)  # same init as the run
        factors = np.abs(1 - eta * obj.diag)
        expected = w0 * factors**40
        assert np.allclose(result.weights, expected, rtol=1e-9, atol=1e-12)

    def test_fixed_seed_is_bitwise_reproducible(self):
        obj = make_quadratic(8, noise_std=0.5, seed=13)
        cfg = TrainConfig(n=4, sparsifier=SparsifierSpec.rtop(6, 2), steps=25, eta=0.1, seed=4)
        a = train(obj, cfg)
        b = train(obj, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.records == b.records

    def test_no_compression_matches_reference_bitwise(self):
        obj = make_quadratic(7, noise_std=0.7, seed=14)
        cfg = TrainConfig(n=3, sparsifier=SparsifierSpec.rtop(7, 7), steps=50, eta=0.05, seed=5)
        compressed = train(obj, cfg)
        reference = reference_sgd(obj, cfg)
        assert np.array_equal(compressed.weights, reference.weights)
        for a, b in zip(compressed.records, reference.records):
            assert (a.loss, a.grad_sq_norm) == (b.loss, b.grad_sq_norm)
            assert a.memory_sq_norm == 0.0

    def test_memory_stays_bounded_with_tuned_rate(self):
        # The carry-over mass spikes in the first rounds (aggressive 3-of-30
        # sparsity) and must decay, not diverge.
        obj = make_quadratic(30, noise_std=0.5, seed=15)
        cfg = TrainConfig(n=4, sparsifier=SparsifierSpec.rtop(12, 3), steps=400, eta=0.05, seed=6)
        result = train(obj, cfg)
        series = [rec.memory_sq_norm for rec in result.records]
        assert np.all(np.isfinite(series))
        assert max(series) < 10_000.0
        tail = np.mean(series[-50:])
        assert tail < 0.05 * max(series)

    def test_interleaved_partition_covers_all_samples(self):
        obj = make_quadratic(4, n_samples=10, seed=16)
        for partition in ("contiguous", "interleaved"):
            cfg = TrainConfig(
                n=3, sparsifier=SparsifierSpec.rtop(4, 4), steps=1, partition=partition
            )
            nodes = make_nodes(obj, cfg)
            union = np.concatenate([n.indices for n in nodes])
            assert sorted(union.tolist()) == list(range(10))


SMALL_OBJECTIVES = {
    "quadratic": lambda: make_quadratic(12, n_samples=60, noise_std=0.7, seed=31),
    "logistic": lambda: make_logistic(10, n_samples=60, seed=32),
    "tiny_mlp": lambda: make_tiny_mlp(n_in=3, hidden=3, n_samples=60, seed=33),
}

SPECS = {
    "rtop": lambda d: SparsifierSpec.rtop(6, 2),
    "top": lambda d: SparsifierSpec.top(3),
    "random": lambda d: SparsifierSpec.random(3),
    "rtop_r=d": lambda d: SparsifierSpec.rtop(d, 4),
    "full": lambda d: SparsifierSpec.rtop(d, d),
}

# The objective rotates against the batch size, so every (objective, batch)
# pair appears with every spec.
ORACLE_CASES = [
    (spec, aggregation, partition, batch, list(SMALL_OBJECTIVES)[(i + i // 3) % 3])
    for i, (spec, aggregation, partition, batch) in enumerate(
        itertools.product(
            SPECS, (ERROR_FEEDBACK_MEAN, UNBIASED_RESCALE), ("contiguous", "interleaved"), (1, 2, 17)
        )
    )
]


def signature(weights, records) -> tuple:
    """Weights and per-round metrics as exact bytes and float hex strings;
    ``records`` holds RoundMetrics or (t, loss, grad, memory, comm) rows."""
    rows = [
        (r.t, r.loss, r.grad_sq_norm, r.memory_sq_norm, r.comm_entries)
        if isinstance(r, RoundMetrics) else r
        for r in records
    ]
    return weights.tobytes(), [(t, a.hex(), b.hex(), c.hex(), comm) for t, a, b, c, comm in rows]


class TestTrainOracle:
    @pytest.mark.parametrize("spec,aggregation,partition,batch,objective", ORACLE_CASES)
    def test_train_matches_naive_oracle_bitwise(self, spec, aggregation, partition, batch, objective):
        obj = SMALL_OBJECTIVES[objective]()
        cfg = TrainConfig(
            n=3, steps=25, batch_size=batch, eta=[(0, 0.05), (10, 0.02)],
            aggregation=aggregation, partition=partition, seed=41,
            sparsifier=SPECS[spec](obj.d),
        )
        result = train(obj, cfg)
        assert signature(result.weights, result.records) == signature(*naive_train(obj, cfg))

    def test_default_window_matches_naive_oracle(self):
        obj = SMALL_OBJECTIVES["quadratic"]()
        cfg = TrainConfig(
            n=3, sparsifier=SparsifierSpec.rtop(6, 2), steps=30, batch_size=4, eta=0.05, seed=42
        )
        result = train(obj, cfg)
        assert signature(result.weights, result.records) == signature(*naive_train(obj, cfg))


class TestStreams:
    @pytest.mark.parametrize("draw_elements", [sgdsim._DRAW_ELEMENTS, 7])
    @pytest.mark.parametrize("spec", ["rtop", "top", "random"])
    def test_train_equals_repeated_rounds(self, monkeypatch, spec, draw_elements):
        # train draws its streams ahead, in blocks of rounds; T public
        # rounds on fresh nodes draw one round at a time.  Same bits, same
        # stream positions afterwards.
        obj = make_quadratic(15, n_samples=90, noise_std=0.6, seed=21)
        cfg = TrainConfig(
            n=3, steps=40, batch_size=3, eta=0.05, seed=7, sparsifier=SPECS[spec](15)
        )
        made = []

        def recording_make_nodes(o, c):
            made.append(make_nodes(o, c))
            return made[-1]

        monkeypatch.setattr(sgdsim, "_DRAW_ELEMENTS", draw_elements)
        monkeypatch.setattr(sgdsim, "make_nodes", recording_make_nodes)
        result = train(obj, cfg)
        nodes = make_nodes(obj, cfg)
        w = init_weights(obj, cfg.seed, cfg.init_scale)
        records = []
        for t in range(cfg.steps):
            w, metrics = sgd_round(nodes, obj, w, cfg, t)
            records.append(metrics)
        assert signature(result.weights, result.records) == signature(w, records)
        for ours, theirs in zip(made[0], nodes):
            assert ours.data_rng.random() == theirs.data_rng.random()
            assert ours.selection_rng.random() == theirs.selection_rng.random()

    def test_non_finite_weights_message(self):
        obj = make_quadratic(4, noise_std=0.0, seed=11)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 4), steps=200, eta=1e6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState) as caught:
                train(obj, cfg)
        assert str(caught.value) == "non-finite weights at step 49; max |w| was 6.664e+307"

    def test_non_finite_gradient_message(self):
        # finite weights whose gradient overflows: the sparsifier rejects
        # the carried row before any step is taken
        obj = make_quadratic(4, diag=np.full(4, 1e200), noise_std=1.0, seed=11)
        cfg = TrainConfig(
            n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=20, eta=1e-200, init_scale=1e150
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as caught:
                train(obj, cfg)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "vector has non-finite components"


LOCKSTEP_OBJECTIVES = {
    **SMALL_OBJECTIVES,
    "concentrated": lambda: make_concentrated_quadratic(12, heavy=3, n_samples=60, seed=34),
}


class TestLockstep:
    """``train_seeds`` runs seeds together; each seed must keep the bits of
    a lone ``train`` call and of the naive oracle."""

    @pytest.mark.parametrize("spec", ["rtop", "top", "random"])
    @pytest.mark.parametrize("partition", ["contiguous", "interleaved"])
    @pytest.mark.parametrize("aggregation", [ERROR_FEEDBACK_MEAN, UNBIASED_RESCALE])
    @pytest.mark.parametrize("objective", list(LOCKSTEP_OBJECTIVES))
    def test_each_seed_matches_lone_run_and_oracle(self, objective, aggregation, partition, spec):
        obj = LOCKSTEP_OBJECTIVES[objective]()
        cfg = TrainConfig(
            n=3, steps=12, batch_size=2, eta=[(0, 0.05), (6, 0.02)],
            aggregation=aggregation, partition=partition, sparsifier=SPECS[spec](obj.d),
        )
        seeds = [3, 1, 1]  # a repeated seed must give repeated results
        results = train_seeds(obj, cfg, seeds)
        finals = train_seeds(obj, cfg, seeds, final_only=True)
        assert len(results) == len(finals) == len(seeds)
        for seed, result, final in zip(seeds, results, finals):
            lone = train(obj, cfg.replace(seed=seed))
            expected = signature(lone.weights, lone.records)
            assert signature(result.weights, result.records) == expected
            assert signature(*naive_train(obj, cfg.replace(seed=seed))) == expected
            # the final-only path keeps the last record alone, same bits
            assert signature(final.weights, final.records) == signature(
                lone.weights, lone.records[-1:]
            )

    @pytest.mark.parametrize("spec", ["rtop", "top", "random"])
    def test_blocks_of_rounds_do_not_change_bits(self, monkeypatch, spec):
        obj = make_quadratic(15, n_samples=90, noise_std=0.6, seed=21)
        cfg = TrainConfig(n=3, steps=30, batch_size=3, eta=0.05, sparsifier=SPECS[spec](15))
        seeds = [5, 6, 7, 8]
        lone = [train(obj, cfg.replace(seed=seed)) for seed in seeds]
        monkeypatch.setattr(sgdsim, "_DRAW_ELEMENTS", 7)
        for ours, theirs in zip(train_seeds(obj, cfg, seeds), lone):
            assert signature(ours.weights, ours.records) == signature(theirs.weights, theirs.records)

    @pytest.mark.parametrize("aggregation", [ERROR_FEEDBACK_MEAN, UNBIASED_RESCALE])
    @pytest.mark.parametrize("seeds,n", [([5], 1), ([5, 6, 7], 2)])
    def test_memory_buffers_swap_across_draw_blocks(self, monkeypatch, seeds, n, aggregation):
        # blocks of 3 rounds (one node) and of 1 round (six nodes): the two
        # memory buffers swap inside and across blocks, on either parity
        obj = make_quadratic(15, n_samples=90, noise_std=0.6, seed=22)
        cfg = TrainConfig(
            n=n, steps=11, batch_size=2, eta=0.05, aggregation=aggregation,
            sparsifier=SparsifierSpec.rtop(6, 2),
        )
        monkeypatch.setattr(sgdsim, "_DRAW_ELEMENTS", 7)
        for seed, ours in zip(seeds, train_seeds(obj, cfg, seeds)):
            expected = signature(*naive_train(obj, cfg.replace(seed=seed)))
            assert signature(ours.weights, ours.records) == expected

    def test_divergence_raises_first_sequential_error(self):
        # Plain gradient descent that grows the first coordinate by 1.5x a
        # step: when the weights overflow depends only on each seed's
        # initial draw.  Seed 4 (third) diverges at step 45, seed 3
        # (fourth) already at step 42, seeds 0 and 1 not at all.
        obj = make_quadratic(2, n_samples=8, diag=[2.0, 0.5], b_mean=[0.0, 0.0], noise_std=0.0)
        cfg = TrainConfig(
            n=2, sparsifier=SparsifierSpec.rtop(2, 2), steps=47, eta=1.25, init_scale=1e300
        )
        seeds = [0, 1, 4, 3]
        lone_errors = []
        for seed in seeds:
            try:
                train(obj, cfg.replace(seed=seed))
            except NonFiniteState as exc:
                lone_errors.append(str(exc))
        assert [e.split(";")[0] for e in lone_errors] == [
            "non-finite weights at step 45", "non-finite weights at step 42"
        ]
        with pytest.raises(NonFiniteState) as caught:
            train_seeds(obj, cfg, seeds)
        assert type(caught.value) is NonFiniteState
        assert str(caught.value) == lone_errors[0]
        # CompareSparsifiers keeps only the final record (step 46), but its
        # finiteness check still runs every round and stops at step 45
        with pytest.raises(NonFiniteState) as caught:
            compare_sparsifiers(obj, cfg, [cfg.sparsifier], seeds)
        assert str(caught.value) == lone_errors[0]


class PlantedGradients(QuadraticObjective):
    """A quadratic (unit diagonal, zero samples) whose ``grad_rows``
    returns a fresh copy of planted (S, n, d) gradients."""

    def __init__(self, grads):
        super().__init__(np.ones(grads.shape[2]), np.zeros((4 * grads.shape[1], grads.shape[2])))
        self.planted = grads

    def grad_rows(self, weights, picks):
        return self.planted.copy()


def dense_exchange(spec, cfg, t, weights, memories, grads, targets):
    """The dense round the sparse exchange replaces: the entries
    ``select_rows`` keeps scattered into zero updates, ``carried - updates``
    for the memories and ``agg += updates[:, i]`` in node order.  Returns
    updates, memories, weights."""
    seeds, n, d = memories.shape
    use_memory = cfg.aggregation == ERROR_FEEDBACK_MEAN
    carried = grads + memories if use_memory else grads
    rows = carried.reshape(seeds * n, d)
    kept = spec.select_rows(rows, targets.reshape(seeds * n, -1))
    at = np.arange(seeds * n)[:, None]
    updates = np.zeros(rows.shape)
    updates[at, kept] = rows[at, kept] + 0.0  # -0.0 + 0.0 is +0.0: zeros stay unset
    updates = updates.reshape(seeds, n, d)
    if use_memory:
        memories = carried - updates
    agg = np.zeros((seeds, d))
    for i in range(n):
        agg += updates[:, i]
    agg /= n
    if cfg.aggregation == UNBIASED_RESCALE:
        agg *= spec.unbiased_rescale(d)
    return updates, memories, weights - cfg.rate(t) * agg


def assert_same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape
    assert np.array_equal(ours, theirs)
    assert np.array_equal(np.signbit(ours), np.signbit(theirs))  # signed zeros too


def planted_state(rng, seeds, n, d):
    """Gradients and memories over 16 orders of magnitude, so the order of
    a sum shows in its bits, with signed zeros planted at the same entries
    of both: a carried entry there is -0.0 exactly when both zeros are."""
    grads = rng.normal(size=(seeds, n, d)) * 10.0 ** rng.integers(-8, 9, size=(seeds, n, d))
    memories = rng.normal(size=(seeds, n, d)) * 10.0 ** rng.integers(-8, 9, size=(seeds, n, d))
    zeros = rng.random((seeds, n, d)) < 0.4
    grads[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    memories[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    return grads, memories


EXCHANGE_CASES = [
    # d = 1: n >= 8 nodes, where a pairwise node sum would give other bits;
    # every spec there has r = d or k = d
    *[(1, n, spec) for n in (8, 9) for spec in ("top:1", "random:1", "rtop:1:1")],
    # d = 6: top-r and rtop-k windows holding signed zeros, r = d, k = d
    *[(6, 3, spec) for spec in ("top:4", "top:6", "rtop:4:2", "rtop:6:3", "random:2", "random:6")],
]


class TestExchange:
    """``_exchange`` works on the sent entries only; it must give the bits
    of the dense round it replaced."""

    @pytest.mark.parametrize("out", [None, "spare"])
    @pytest.mark.parametrize("seeds", [1, 3])
    @pytest.mark.parametrize("aggregation", [ERROR_FEEDBACK_MEAN, UNBIASED_RESCALE])
    @pytest.mark.parametrize("d,n,spec", EXCHANGE_CASES)
    def test_matches_dense_round(self, d, n, spec, aggregation, seeds, out):
        spec = parse_spec_string(spec, d, n)
        rng = substream(50, d, n, seeds)
        cfg = TrainConfig(n=n, steps=1, sparsifier=spec, eta=0.3, aggregation=aggregation)
        for t in range(5):
            grads, memories = planted_state(rng, seeds, n, d)
            weights = rng.normal(size=(seeds, d))
            targets = spec.swap_targets(rng, d, seeds * n).reshape(seeds, n, -1)
            obj = PlantedGradients(grads)
            before = memories.copy()
            # a spare buffer holds stale values, as in training: all are overwritten
            spare = None if out is None else np.full(memories.shape, np.nan)
            got_grads, sent, values, new_memories, new_weights = sgdsim._exchange(
                obj, spec, cfg, t, weights, memories, None, targets, out=spare
            )
            if spare is not None and aggregation == ERROR_FEEDBACK_MEAN:
                assert new_memories is spare
            updates, want_memories, want_weights = dense_exchange(
                spec, cfg, t, weights, before, grads, targets
            )
            assert_same_bits(got_grads, grads)
            assert_same_bits(memories, before)  # the caller's memories are not written
            assert_same_bits(new_memories, want_memories)
            assert_same_bits(new_weights, want_weights)
            rebuilt = np.zeros(updates.shape)
            rebuilt.flat[sent] = values
            assert_same_bits(rebuilt, updates)

    @pytest.mark.parametrize("aggregation", [ERROR_FEEDBACK_MEAN, UNBIASED_RESCALE])
    @pytest.mark.parametrize("d,n,spec", EXCHANGE_CASES)
    def test_sgd_round_trace_matches_dense_round(self, d, n, spec, aggregation):
        spec = parse_spec_string(spec, d, n)
        rng = substream(51, d, n)
        grads, memories = planted_state(rng, 1, n, d)
        obj = PlantedGradients(grads)
        cfg = TrainConfig(n=n, steps=1, sparsifier=spec, eta=0.3, aggregation=aggregation, seed=8)
        nodes, twins = make_nodes(obj, cfg), make_nodes(obj, cfg)
        for node, memory in zip(nodes, memories[0]):
            node.memory = memory.copy()
        targets = np.stack([spec.swap_targets(twin.selection_rng, d, 1) for twin in twins], axis=1)
        w = rng.normal(size=d)
        trace = {}
        new_w, _ = sgd_round(nodes, obj, w, cfg, 0, trace=trace)
        updates, want_memories, want_weights = dense_exchange(
            spec, cfg, 0, w[None], memories, grads, targets
        )
        assert_same_bits(trace["gradients"], grads[0])
        assert_same_bits(trace["memories_before"], memories[0])
        assert_same_bits(trace["updates"], updates[0])
        assert_same_bits([node.memory for node in nodes], want_memories[0])
        assert_same_bits(new_w, want_weights[0])

    def test_training_builds_no_dense_updates(self, monkeypatch):
        # the one-vector operator and its dense scatter are off the training path
        def refuse(*args, **kwargs):
            raise AssertionError("a per-vector or dense update was built")

        monkeypatch.setattr(SparsifierSpec, "apply", refuse)
        monkeypatch.setattr(SparseUpdate, "to_dense", refuse)
        obj = make_quadratic(12, n_samples=60, noise_std=0.7, seed=31)
        for aggregation in (ERROR_FEEDBACK_MEAN, UNBIASED_RESCALE):
            for make in SPECS.values():
                cfg = TrainConfig(
                    n=3, steps=5, batch_size=2, eta=0.05, aggregation=aggregation,
                    sparsifier=make(obj.d),
                )
                train_seeds(obj, cfg, [1, 2])


class TestSchedules:
    def test_constant(self):
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3, eta=0.25)
        assert cfg.rate(0) == cfg.rate(999) == 0.25

    def test_piecewise_lookup(self):
        eta = [(0, 0.1), (100, 0.05), (400, 0.01)]
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3, eta=eta)
        assert cfg.rate(0) == 0.1
        assert cfg.rate(99) == 0.1
        assert cfg.rate(100) == 0.05
        assert cfg.rate(5000) == 0.01

    @pytest.mark.parametrize(
        "eta", [True, [(0, 0.1), (5, True)], float("inf"), [(0, float("inf"))], [(0, float("nan"))]]
    )
    def test_config_rejects_bool_and_non_finite_rates(self, eta):
        # as the config table's schedule kind does
        with pytest.raises(ValueError, match="learning rates must be"):
            TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3, eta=eta)

    @pytest.mark.parametrize("eta", [[(False, 0.1)], [(0, 0.1), (True, 0.05)], [(0.0, 0.1)],
                                     [(0, 0.1), (5.0, 0.05)]])
    def test_config_rejects_bool_and_non_integer_steps(self, eta):
        # as the config table's schedule kind does
        with pytest.raises(ValueError, match="eta steps must be integers"):
            TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3, eta=eta)

    def test_config_takes_numpy_integer_steps(self):
        eta = [(np.int64(0), 0.1), (np.int32(2), 0.05)]
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3, eta=eta)
        assert cfg.rate(2) == 0.05

    @pytest.mark.parametrize(
        "field,value",
        [("n", 2.5), ("n", True), ("n", 0), ("batch_size", 2.0), ("batch_size", 0),
         ("steps", 3.5), ("steps", -1), ("steps", np.float64(3))],
    )
    def test_config_rejects_non_integer_and_nonpositive_sizes(self, field, value):
        # a float or bool size used to construct and fail later inside train
        sizes = {"n": 2, "steps": 3, "batch_size": 2, field: value}
        message = re.escape(f"{field} must be a positive integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(sparsifier=SparsifierSpec.rtop(4, 2), **sizes)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_config_rejects_a_seed_outside_the_seeding_range(self, seed):
        # -1 and 2^64 would train the runs of 2^64 - 1 and 0
        message = re.escape(f"seed must be an integer in [0, 2^64), got {seed!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_config_takes_a_seed_on_the_range_ends(self, seed):
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3, seed=seed)
        assert cfg.seed == seed

    def test_config_takes_numpy_integer_sizes(self):
        obj = make_quadratic(6, n_samples=20, seed=1)
        sizes = {"n": np.int64(2), "steps": np.int32(3), "batch_size": np.int64(2)}
        cfg = TrainConfig(sparsifier=SparsifierSpec.rtop(4, 2), **sizes)
        plain = TrainConfig(sparsifier=SparsifierSpec.rtop(4, 2), n=2, steps=3, batch_size=2)
        assert np.array_equal(train(obj, cfg).weights, train(obj, plain).weights)

    @pytest.mark.parametrize("field", ["n", "batch_size", "k"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16])
    def test_narrow_numpy_integer_sizes_and_budget(self, dtype, field):
        # the config and the spec keep Python ints: in a narrow dtype the node
        # split (260 samples // n), the rounds drawn per block (2**16 // (n *
        # max(batch_size, k))) and the entries sent per round (n * k) overflowed
        obj = make_quadratic(6, n_samples=260, seed=1)

        def run(n, batch_size, k):
            cfg = TrainConfig(n, 3, SparsifierSpec.rtop(4, k), batch_size=batch_size)
            result = train(obj, cfg)
            return signature(result.weights, result.records)

        sizes = {"n": 130, "batch_size": 4 if field == "batch_size" else 2, "k": 3}
        expected = run(**sizes)
        sizes[field] = dtype(sizes[field])
        assert run(**sizes) == expected

    def test_fixed_horizon_preset(self):
        assert sqrt_horizon_schedule(2.0, 400) == pytest.approx(0.1)
        # satisfies the bound evaluator's step hypothesis when chat is small
        inp = ConvergenceBoundInputs(
            smoothness=1.0, grad_bound=1.0, batch_size=1, n=1,
            steps=400, k=2, d=4, f0_gap=1.0,
            chat=2.0,
        )
        assert sqrt_horizon_schedule(inp.chat, inp.steps) <= 1 / (2 * inp.smoothness)
        assert convergence_bound(inp) > 0


class TestConvergenceBounds:
    def test_plugin_value(self):
        inp = ConvergenceBoundInputs(
            smoothness=1.0, grad_bound=1.0, batch_size=1, n=1,
            steps=10_000, k=5, d=5, f0_gap=1.0, chat=1.0,
        )
        assert convergence_bound(inp) == pytest.approx(0.0808, abs=1e-12)

    def test_no_compression_second_term(self):
        # k = d collapses the bracket to 1: second term is 8 chat^2 L^2 G^2 / T
        inp = ConvergenceBoundInputs(
            smoothness=2.0, grad_bound=3.0, batch_size=4, n=2,
            steps=40_000, k=7, d=7, f0_gap=5.0, chat=10.0,
        )
        first = (5.0 / 10.0 + 10.0 * 2.0 * 9.0 / 8.0) * 4.0 / 200.0
        second = 8.0 * 100.0 * 4.0 * 9.0 / 40_000.0
        assert convergence_bound(inp) == pytest.approx(first + second, rel=1e-12)

    def test_halving_compression_multiplies_bracket_by_13(self):
        def second_term(k, d):
            inp = ConvergenceBoundInputs(
                smoothness=1.0, grad_bound=1.0, batch_size=1, n=1,
                steps=10_000, k=k, d=d, f0_gap=1.0, chat=1.0,
            )
            return convergence_bound(inp) - convergence_bound(
                ConvergenceBoundInputs(
                    smoothness=1.0, grad_bound=1.0, batch_size=1, n=1,
                    steps=10_000, k=d, d=d, f0_gap=1.0, chat=1.0,
                )
            )

        # bracket(1/2) = 4 * (1 - 1/4)/(1/4) + 1 = 13, bracket(1) = 1
        extra = second_term(5, 10)
        base = 8.0 * 1.0 / 10_000.0
        assert (extra + base) / base == pytest.approx(13.0, rel=1e-9)

    def test_monotone_in_k_and_d(self):
        def bound(k, d):
            return convergence_bound(
                ConvergenceBoundInputs(
                    smoothness=1.0, grad_bound=1.0, batch_size=2, n=3,
                    steps=10_000, k=k, d=d, f0_gap=1.0, chat=1.0,
                )
            )

        values_k = [bound(k, 64) for k in (1, 2, 8, 32, 64)]
        assert all(a > b for a, b in zip(values_k, values_k[1:]))
        values_d = [bound(8, d) for d in (8, 16, 64, 256)]
        assert all(a < b for a, b in zip(values_d, values_d[1:]))

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolated):
            convergence_bound(
                ConvergenceBoundInputs(
                    smoothness=1.0, grad_bound=1.0, batch_size=1, n=1,
                    steps=4, k=1, d=1, f0_gap=1.0, chat=2.0,
                )
            )

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            ConvergenceBoundInputs(
                smoothness=1.0, grad_bound=1.0, batch_size=1, n=1,
                steps=100, k=0, d=4, f0_gap=1.0, chat=0.1,
            )

    def test_order_terms_plugin(self):
        assert convergence_order_terms(1, 1, 1, 1, 4, 4, 100) == (
            pytest.approx(0.1),
            pytest.approx(0.01),
        )

    def test_order_terms_exponents(self):
        t1a, t2a = convergence_order_terms(2.0, 3.0, 4, 2, 50, 5, 1000)
        t1b, t2b = convergence_order_terms(2.0, 3.0, 4, 2, 50, 5, 2000)
        assert t1b == pytest.approx(t1a / np.sqrt(2))
        assert t2b == pytest.approx(t2a / 2)
        # term2/term1 grows as (d/k)^2 at fixed other inputs
        _, t2c = convergence_order_terms(2.0, 3.0, 4, 2, 100, 5, 1000)
        assert t2c == pytest.approx(4 * t2a)


class TestCompareSparsifiers:
    def test_equal_budget_required(self):
        obj = make_quadratic(6, seed=17)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3)
        with pytest.raises(ValueError):
            compare_sparsifiers(
                obj, cfg, [SparsifierSpec.top(2), SparsifierSpec.random(3)], [0]
            )

    def test_specs_required(self):
        obj = make_quadratic(6, seed=17)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3)
        with pytest.raises(ValueError, match="need at least one spec"):
            compare_sparsifiers(obj, cfg, [], [0])

    def test_seeds_required(self):
        obj = make_quadratic(6, seed=17)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3)
        with pytest.raises(ValueError, match="at least one seed"):
            compare_sparsifiers(obj, cfg, [SparsifierSpec.top(2)], [])

    @pytest.mark.parametrize("seeds", [[1.5], [True], "12"])
    def test_seeds_outside_the_seeding_range_are_refused(self, seeds):
        # int() once trained 1.5 and True as seed 1, and "12" as seeds 1 and 2
        obj = make_quadratic(6, seed=17)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3)
        message = re.escape(f"seed must be an integer in [0, 2^64), got {seeds[0]!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_seeds(obj, cfg, seeds)
        with pytest.raises(ValueError, match=f"^{message}$"):
            compare_sparsifiers(obj, cfg, [cfg.sparsifier], seeds)

    def test_numpy_integer_seeds_are_taken(self):
        obj = make_quadratic(6, seed=17)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=3)
        (ours,), (plain,) = train_seeds(obj, cfg, [np.uint64(1)]), train_seeds(obj, cfg, [1])
        assert signature(ours.weights, ours.records) == signature(plain.weights, plain.records)

    def test_full_budget_specs_coincide(self):
        obj = make_quadratic(5, noise_std=0.4, seed=18)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(5, 5), steps=10, eta=0.05)
        rows = compare_sparsifiers(
            obj,
            cfg,
            [SparsifierSpec.top(5), SparsifierSpec.random(5), SparsifierSpec.rtop(5, 5)],
            seeds=[1, 2],
        )
        assert len(rows) == 3
        losses = {row["spec"]: row["mean_final_loss"] for row in rows}
        assert len(set(losses.values())) == 1  # all reduce to exact SGD

    def test_row_shape(self):
        obj = make_quadratic(6, seed=19)
        cfg = TrainConfig(n=2, sparsifier=SparsifierSpec.rtop(4, 2), steps=5)
        rows = compare_sparsifiers(
            obj, cfg, [SparsifierSpec.rtop(4, 2), SparsifierSpec.random(2)], [0, 1, 2]
        )
        for row in rows:
            assert set(row) == {
                "spec", "k_entries", "seeds", "mean_final_loss", "std_final_loss",
                "mean_final_grad_sq", "std_final_grad_sq", "comm_entries_per_round",
            }
            assert row["seeds"] == 3
            assert row["comm_entries_per_round"] == 2 * 2
