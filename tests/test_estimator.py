"""Tests for the unbiased estimator and the Monte Carlo risk harness."""

import tracemalloc

import numpy as np
import pytest

from sparsecomm.codec import (
    SubsampledObservation,
    decode,
    decode_batch,
    encode,
    encode_batch,
    make_config,
)
from sparsecomm.estimator import (
    _CHUNK_ELEMENTS,
    CENTRALIZED,
    LOWER_MINIMAX,
    UPPER_ACHIEVABLE,
    BoundCurve,
    DegenerateCodec,
    EmptyInput,
    OutOfRegime,
    _trial_estimates,
    bound_value,
    estimate,
    hardest_param,
    monte_carlo_mean,
    monte_carlo_risk,
    reweight,
)
from sparsecomm.model import (
    PLAIN,
    SCALED,
    SIGNED,
    Observation,
    ParamVector,
    UniformPerturbation,
    perturb_and_quantize,
    sample_rows,
    validate_param,
)
from sparsecomm.seeding import substream

from oracles import exact_pipeline_risk, per_trial_monte_carlo


class TestReweight:
    def test_subsampled_rows_scale_by_count_over_kprime(self):
        mask = np.array([[True, False, True], [False, True, False], [False] * 3])
        out = reweight(mask, np.array([5, 1, 0]), kprime=2)
        assert out.tolist() == [[2.5, 0.0, 2.5], [0.0, 1.0, 0.0], [0.0] * 3]

    def test_signs_vector_or_matrix(self):
        mask = np.array([[True, True], [True, False]])
        counts = np.array([4, 1])
        by_coordinate = reweight(mask, counts, 2, signs=np.array([-1.0, 1.0]))
        assert by_coordinate.tolist() == [[-2.0, 2.0], [-1.0, 0.0]]
        by_row = reweight(mask, counts, 2, signs=np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert by_row.tolist() == [[2.0, -2.0], [-1.0, 0.0]]

    @pytest.mark.parametrize("signed", ["none", "vector", "matrix"])
    def test_runs_give_the_dense_mean_bit_for_bit(self, signed):
        # the dense mean over each run of n rows, -0.0 entries included
        rng = substream(21)
        rows, d, n, kprime = 60, 9, 5, 2
        mask = rng.random((rows, d)) < 0.3
        mask[:n] = False  # an empty run
        counts = rng.integers(0, d + 1, rows)
        signs = {
            "none": None,
            "vector": np.where(rng.random(d) < 0.5, -1.0, 1.0),
            "matrix": np.where(rng.random((rows, d)) < 0.5, -1.0, 1.0),
        }[signed]
        dense = mask * np.where(counts > kprime, counts / kprime, 1.0)[:, None]
        if signs is not None:
            dense = dense * signs
        expected = dense.reshape(-1, n, d).mean(axis=1)
        assert reweight(mask, counts, kprime, signs, nodes=n).tobytes() == expected.tobytes()

    def test_rows_must_split_into_runs(self):
        with pytest.raises(ValueError, match="runs of 2"):
            reweight(np.ones((3, 4), dtype=bool), np.ones(3, dtype=np.int64), 1, nodes=2)


class TestEstimate:
    def test_single_node_inverse_weighting(self):
        cfg = make_config(8, 10)  # kprime=2
        decoded = [SubsampledObservation(8, [1, 3], original_count=5)]
        hat = estimate(decoded, cfg)
        expected = np.zeros(8)
        expected[[1, 3]] = 2.5  # 1 / (2/5)
        assert np.allclose(hat, expected)

    def test_empty_message_halves_the_estimate(self):
        cfg = make_config(8, 10)
        decoded = [
            SubsampledObservation(8, [], original_count=0),
            SubsampledObservation(8, [1, 3], original_count=5),
        ]
        hat = estimate(decoded, cfg)
        expected = np.zeros(8)
        expected[[1, 3]] = 1.25
        assert np.allclose(hat, expected)

    def test_degenerate_config_rejected(self):
        cfg = make_config(1024, 20)
        with pytest.raises(DegenerateCodec):
            estimate([SubsampledObservation(1024, [], original_count=3)], cfg)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            estimate([], make_config(8, 10))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            estimate([SubsampledObservation(8, [1], original_count=-1)], make_config(8, 10))

    def test_support_outside_dimension_rejected(self):
        cfg = make_config(8, 10)
        for support in ([-1], [8], [2, 9]):
            with pytest.raises(ValueError, match="outside"):
                estimate([SubsampledObservation(8, support, original_count=5)], cfg)

    def test_signed_requires_signs(self):
        cfg = make_config(8, 10)
        decoded = [SubsampledObservation(8, [1], original_count=1)]
        with pytest.raises(ValueError):
            estimate(decoded, cfg, variant=SIGNED)

    def test_signed_and_scaled_weighting(self):
        cfg = make_config(8, 10)
        signed = [SubsampledObservation(8, [1, 3], original_count=5, signs=[-1, 1])]
        hat = estimate(signed, cfg, variant=SIGNED)
        assert hat[1] == pytest.approx(-2.5) and hat[3] == pytest.approx(2.5)
        plain = [SubsampledObservation(8, [2], original_count=1)]
        hat = estimate(plain, cfg, variant=SCALED, scale=4.0)
        assert hat[2] == pytest.approx(4.0)

    def test_components_may_exceed_one_without_clip(self):
        cfg = make_config(8, 10)
        decoded = [SubsampledObservation(8, [0, 1], original_count=8)]
        hat = estimate(decoded, cfg)
        assert hat[0] == pytest.approx(4.0)
        clipped = estimate(decoded, cfg, clip=True)
        assert clipped[0] == 1.0

    def test_centralized_limit_is_exact_sample_mean(self):
        # kprime >= d: nothing is ever dropped, the estimate is the mean.
        d = 6
        cfg = make_config(d, cfg_k := (3 + d))  # header=3, payload=6 -> kprime=6
        assert cfg.kprime == d
        theta = ParamVector([0.3, 0.8, 0.1, 0.5, 0.0, 1.0], s=3)
        rng = substream(11)
        hits, _ = sample_rows(theta, rng.random((40, d)))
        observations = [Observation(d, np.flatnonzero(row)) for row in hits]
        decoded = [decode(encode(o, cfg, rng), cfg) for o in observations]
        hat = estimate(decoded, cfg)
        mean = np.mean([o.indicator() for o in observations], axis=0)
        assert np.array_equal(hat, mean)


class TestHardestParam:
    def test_flat_values(self):
        theta = hardest_param(8, 2)
        assert np.allclose(theta.values, 0.25)

    def test_budget_met_exactly(self):
        theta = hardest_param(4, 2)
        assert np.allclose(theta.values, 0.5)
        assert float(np.sum(theta.values)) == pytest.approx(theta.s)

    def test_always_valid(self):
        for d in range(2, 40, 3):
            s = max(1, d // 3)
            assert validate_param(hardest_param(d, s)).ok

    def test_rejects_oversized_budget(self):
        with pytest.raises(ValueError):
            hardest_param(4, 3)


def unbiasedness_probe(theta, cfg, n, trials, seed):
    """Componentwise Monte Carlo mean of the estimate via the scalar API:
    rows from ``sample_rows``, then scalar encode, decode and estimate."""
    rng = substream(seed)
    total = np.zeros(cfg.d)
    total_sq = np.zeros(cfg.d)
    for _ in range(trials):
        hits, signs = sample_rows(theta, rng.random((n, cfg.d)))
        decoded = []
        for row in hits:
            obs = Observation(cfg.d, np.flatnonzero(row))
            sub = decode(encode(obs, cfg, rng), cfg)
            if signs is not None:
                sub = SubsampledObservation(
                    sub.d, sub.support, sub.original_count, signs[sub.support]
                )
            decoded.append(sub)
        hat = estimate(decoded, cfg, variant=theta.variant, scale=theta.scale)
        total += hat
        total_sq += hat * hat
    mean = total / trials
    var = np.maximum(total_sq / trials - mean**2, 0.0)
    std_err = np.sqrt(var / trials)
    return mean, std_err


class TestMonteCarloRisk:
    def test_zero_parameter_has_exactly_zero_risk(self):
        cfg = make_config(8, 10)
        theta = ParamVector(np.zeros(8), s=1)
        est = monte_carlo_risk(theta, n=4, cfg=cfg, trials=200, seed=1)
        assert est.mean_sq_error == 0.0
        assert est.std_error == 0.0

    def test_risk_matches_closed_form(self):
        # Independent oracle: Poisson-binomial count law + exact
        # conditional-expectation algebra for the reweighted estimate.
        cfg = make_config(8, 10)  # kprime=2
        theta = hardest_param(8, 2)
        est = monte_carlo_risk(theta, n=4, cfg=cfg, trials=4000, seed=2)
        expected = exact_pipeline_risk(theta.probabilities(), 4, cfg.kprime)
        assert abs(est.mean_sq_error - expected) < 4 * est.std_error

    def test_risk_scales_inversely_with_nodes(self):
        cfg = make_config(8, 10)
        theta = hardest_param(8, 2)
        for n in (2, 8, 32):
            est = monte_carlo_risk(theta, n=n, cfg=cfg, trials=3000, seed=3)
            expected = exact_pipeline_risk(theta.probabilities(), n, cfg.kprime)
            assert abs(est.mean_sq_error - expected) < 4 * est.std_error

    def test_unbiased_componentwise(self):
        # kprime=1 forces aggressive subsampling; the Monte Carlo mean of
        # every component must stay within 5 standard errors of theta.
        cfg = make_config(4, 6)
        assert cfg.kprime == 1
        theta = ParamVector([0.5, 0.25, 0.25, 0.0], s=1)
        mean, std_err = unbiasedness_probe(theta, cfg, n=5, trials=12_000, seed=4)
        dev = np.abs(mean - theta.values)
        assert np.all(dev <= 5 * np.maximum(std_err, 1e-12))

    def test_signed_risk_matches_closed_form(self):
        cfg = make_config(8, 10)
        theta = ParamVector([0.25, -0.25, 0.5, -0.5, 0.25, 0.25, 0.0, 0.0],
                            s=2, variant=SIGNED)
        est = monte_carlo_risk(theta, n=4, cfg=cfg, trials=4000, seed=5)
        expected = exact_pipeline_risk(theta.probabilities(), 4, cfg.kprime)
        assert abs(est.mean_sq_error - expected) < 4 * est.std_error

    def test_scaled_risk_matches_closed_form(self):
        cfg = make_config(8, 10)
        theta = ParamVector(np.full(8, 0.25), s=2, variant=SCALED, scale=3.0)
        est = monte_carlo_risk(theta, n=4, cfg=cfg, trials=4000, seed=6)
        expected = exact_pipeline_risk(theta.probabilities(), 4, cfg.kprime, scale=3.0)
        assert abs(est.mean_sq_error - expected) < 4 * est.std_error

    def test_small_noise_quantizes_away(self):
        cfg = make_config(8, 10)
        theta = hardest_param(8, 2)
        perturb = UniformPerturbation(halfwidth=0.49)
        est = monte_carlo_risk(theta, n=4, cfg=cfg, trials=4000, perturb=perturb, seed=7)
        expected = exact_pipeline_risk(theta.probabilities(), 4, cfg.kprime)
        assert abs(est.mean_sq_error - expected) < 4 * est.std_error

    def test_risk_never_beats_centralized(self):
        cfg = make_config(32, 12)
        theta = hardest_param(32, 4)
        est = monte_carlo_risk(theta, n=16, cfg=cfg, trials=2000, seed=8)
        centralized = bound_value(
            BoundCurve(CENTRALIZED), n=16, k=12, d=32, s=4, theta=theta
        )
        assert est.mean_sq_error >= centralized - 4 * est.std_error

    def test_determinism(self):
        cfg = make_config(8, 10)
        theta = hardest_param(8, 2)
        a = monte_carlo_risk(theta, n=4, cfg=cfg, trials=500, seed=9)
        b = monte_carlo_risk(theta, n=4, cfg=cfg, trials=500, seed=9)
        assert a == b

    def test_degenerate_codec_rejected(self):
        theta = hardest_param(1024, 8)
        with pytest.raises(DegenerateCodec):
            monte_carlo_risk(theta, n=4, cfg=make_config(1024, 20), trials=200)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_risk(hardest_param(8, 2), 4, make_config(8, 10), trials=50)


def ramp_probe(variant, d, s):
    """theta_j rising linearly from 0 to 2s/d (sum s); signed flips every third."""
    values = np.linspace(0.0, 2.0 * s / d, d)
    if variant == SIGNED:
        values = values * np.where(np.arange(d) % 3 == 1, -1.0, 1.0)
    return ParamVector(values, s=s, variant=variant, scale=3.0 if variant == SCALED else 1.0)


class TestTrialKernel:
    """Chunked trials give exactly the numbers of a trial-by-trial loop."""

    @pytest.mark.parametrize(
        "variant,d,k,n,trials,halfwidth",
        [
            (PLAIN, 8, 10, 4, 1100, None),
            (PLAIN, 64, 26, 16, 101, 0.4),
            (SIGNED, 16, 14, 5, 450, None),
            (SIGNED, 32, 12, 7, 150, 0.3),
            (SCALED, 64, 48, 128, 101, None),
            (SCALED, 20, 12, 3, 600, 0.45),
            (SIGNED, 64, 26, 16, 100, 0.45),  # per-row signs at the risk_sweep shape
            (PLAIN, 256, 96, 8, 100, 0.4),  # codebook beyond int64: Python-int ranks
            (PLAIN, 4, 8, 64, 300, None),  # kprime = d: every row keeps its whole support
            (SIGNED, 4, 8, 64, 300, 0.3),
        ],
    )
    def test_matches_per_trial_reference_bit_for_bit(self, variant, d, k, n, trials, halfwidth):
        per_chunk = _CHUNK_ELEMENTS // (n * d)
        assert per_chunk < trials and trials % per_chunk != 0  # straddles chunk ends
        cfg = make_config(d, k)
        theta = ramp_probe(variant, d, max(1, d // 8))
        perturb = UniformPerturbation(halfwidth) if halfwidth else None
        seed = 2**64 - 3 + trials
        est = monte_carlo_risk(theta, n, cfg, trials, perturb=perturb, seed=seed)
        mean, std_err = monte_carlo_mean(theta, n, cfg, trials, seed=seed, perturb=perturb)
        ref = per_trial_monte_carlo(theta, n, cfg.kprime, trials, halfwidth, seed)
        assert (est.mean_sq_error, est.std_error) == ref[:2]
        assert np.array_equal(mean, ref[2]) and np.array_equal(std_err, ref[3])


class TestKernelWorkingSet:
    """One chunk of the trial kernel allocates about 20 bytes per capped
    element at its peak: the stacked keys (8) and hits (1) plus the codec's
    selection buffers.  Stacking the sample uniforms per chunk, as the
    kernel once did, would add 8 more."""

    @pytest.mark.parametrize("n", [16, 128])
    def test_one_warm_chunk_peak(self, n):
        d = 64
        cfg = make_config(d, 26)
        theta = hardest_param(d, 8)
        per_chunk = _CHUNK_ELEMENTS // (n * d)
        list(_trial_estimates(theta, n, cfg, per_chunk, None, 0))  # tables cached
        tracemalloc.start()
        try:
            list(_trial_estimates(theta, n, cfg, per_chunk, None, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * _CHUNK_ELEMENTS
        assert peak <= 768 * 1024


def as_observations(mask, counts, signs):
    """A decoded batch as SubsampledObservations, with the signs (a
    per-coordinate vector or a per-row matrix) read at each support."""
    signs = None if signs is None else np.broadcast_to(signs, mask.shape)
    return [
        SubsampledObservation(
            mask.shape[1],
            np.flatnonzero(kept),
            int(count),
            None if signs is None else signs[r, kept],
        )
        for r, (kept, count) in enumerate(zip(mask, counts))
    ]


class TestScalarEstimateMatchesKernel:
    """Scalar ``estimate`` on trial 0's decoded rows gives the kernel's bits.

    The kernel takes each row's kept support from the codec's selection rule
    without ranking it; here the rows go through ``encode_batch`` and
    ``decode_batch`` first, which ties the kernel to the codec's transcripts."""

    @pytest.mark.parametrize("halfwidth", [None, 0.4])
    @pytest.mark.parametrize("variant", [PLAIN, SIGNED, SCALED])
    @pytest.mark.parametrize(
        "d,k,n", [(8, 10, 4), (64, 26, 16), (32, 12, 7), (256, 96, 8), (64, 48, 128)]
    )
    def test_same_draws_same_estimate(self, d, k, n, variant, halfwidth):
        cfg = make_config(d, k)
        theta = ramp_probe(variant, d, max(1, d // 8))
        perturb = UniformPerturbation(halfwidth) if halfwidth else None
        for seed in range(20):
            (kernel,) = _trial_estimates(theta, n, cfg, 1, perturb, seed)
            rng = substream(seed, 0)
            hits, signs = sample_rows(theta, rng.random((n, d)))
            if perturb:
                noise = rng.uniform(-halfwidth, halfwidth, (n, d))
                hits, signs = perturb_and_quantize(hits, signs, noise)
            counts, payloads, _ = encode_batch(hits, cfg, rng.random((n, d)))
            decoded = as_observations(decode_batch(counts, payloads, cfg), counts, signs)
            hat = estimate(decoded, cfg, variant=variant, scale=theta.scale)
            assert hat.tobytes() == kernel[0].tobytes(), seed


class TestBoundCurves:
    def test_achievable_plugin_value(self):
        # log2(16)=4 -> 4^2 * 4 / (10*20) = 0.32; the budget sits inside
        # [2*ceil(log2 17), 4*ceil(log2 17)] = [10, 20].
        val = bound_value(BoundCurve(UPPER_ACHIEVABLE), n=10, k=20, d=16, s=4)
        assert val == pytest.approx(0.32)

    def test_achievable_below_regime(self):
        val = bound_value(BoundCurve(UPPER_ACHIEVABLE), n=10, k=7, d=16, s=4)
        assert isinstance(val, OutOfRegime)

    def test_achievable_above_regime(self):
        val = bound_value(BoundCurve(UPPER_ACHIEVABLE), n=10, k=21, d=16, s=4)
        assert isinstance(val, OutOfRegime)

    def test_minimax_plugin_value(self):
        # max{16*2/200, 4/10} = 0.4 with nk=200 >= 16*log2(4)=32 and s<=d/2.
        val = bound_value(BoundCurve(LOWER_MINIMAX), n=10, k=20, d=16, s=4)
        assert val == pytest.approx(0.4)

    def test_minimax_out_of_regime(self):
        assert isinstance(
            bound_value(BoundCurve(LOWER_MINIMAX), n=1, k=8, d=64, s=4), OutOfRegime
        )
        assert isinstance(
            bound_value(BoundCurve(LOWER_MINIMAX), n=10, k=20, d=16, s=10), OutOfRegime
        )

    def test_constant_scales_linearly(self):
        one = bound_value(BoundCurve(UPPER_ACHIEVABLE, 1.0), n=10, k=20, d=16, s=4)
        two = bound_value(BoundCurve(UPPER_ACHIEVABLE, 2.0), n=10, k=20, d=16, s=4)
        assert two == pytest.approx(2 * one)

    def test_centralized_needs_theta(self):
        with pytest.raises(ValueError):
            bound_value(BoundCurve(CENTRALIZED), n=10, k=20, d=16, s=4)

    def test_centralized_value(self):
        theta = ParamVector([0.5, 0.5, 0.5, 0.5], s=2)
        val = bound_value(BoundCurve(CENTRALIZED), n=10, k=20, d=4, s=2, theta=theta)
        assert val == pytest.approx(1.0 / 10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundCurve("sideways")
