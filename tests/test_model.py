"""Tests for the sparse Bernoulli observation model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecomm.model import (
    PLAIN,
    SCALED,
    SIGNED,
    MissingPerturbation,
    Observation,
    ParamVector,
    UniformPerturbation,
    poisson_binomial_moments,
    quantize_perturbed,
    sample_binary_matrix,
    sample_observation,
    validate_param,
)
from sparsecomm.seeding import substream

from oracles import enumerate_count_moments


class TestValidateParam:
    def test_plain_at_budget(self):
        theta = ParamVector([0.9, 0.9, 0.1, 0.1], s=2)
        assert validate_param(theta).ok

    def test_plain_over_budget_names_the_sum(self):
        report = validate_param(ParamVector([0.9, 0.9, 0.0, 0.0], s=1))
        assert not report.ok
        assert any("1.8" in v and "s=1" in v for v in report.violations)

    def test_signed_uses_absolute_budget(self):
        assert validate_param(ParamVector([-0.5, 0.4], s=1, variant=SIGNED)).ok

    def test_component_out_of_range_reports_index(self):
        report = validate_param(ParamVector([0.5, 1.2], s=2))
        assert not report.ok
        assert any("component 1" in v for v in report.violations)

    def test_signed_range_is_symmetric(self):
        assert not validate_param(ParamVector([-1.2, 0.0], s=1, variant=SIGNED)).ok
        assert validate_param(ParamVector([-1.0, 0.0], s=1, variant=SIGNED)).ok

    def test_budget_below_one_rejected(self):
        report = validate_param(ParamVector([0.1, 0.1], s=0.5))
        assert not report.ok

    def test_scaled_needs_positive_scale(self):
        bad = ParamVector([0.5, 0.5], s=1, variant=SCALED, scale=0.0)
        assert not validate_param(bad).ok
        good = ParamVector([0.5, 0.5], s=1, variant=SCALED, scale=3.0)
        assert validate_param(good).ok


class TestSampling:
    def test_degenerate_probabilities_are_exact(self):
        theta = ParamVector([1.0, 1.0, 0.0, 0.0], s=2)
        rng = substream(1)
        for _ in range(200):
            obs = sample_observation(theta, None, rng)
            assert obs.support.tolist() == [0, 1]

    def test_zero_parameter_gives_empty_support(self):
        theta = ParamVector([0.0, 0.0, 0.0], s=1)
        rng = substream(2)
        for _ in range(100):
            assert sample_observation(theta, None, rng).count == 0

    def test_empirical_frequencies_match_means(self):
        # 1e5 draws; each component within 4 * sqrt(p(1-p)/N) of its mean.
        theta = ParamVector([0.5, 0.5], s=1)
        draws = 100_000
        x = sample_binary_matrix(theta, substream(3), draws)
        freq = np.abs(x).mean(axis=0)
        tol = 4 * np.sqrt(0.25 / draws)
        assert np.all(np.abs(freq - 0.5) < tol)

    def test_mixed_vector_component_deviations(self):
        values = [0.0, 0.05, 0.3, 0.7, 1.0]
        theta = ParamVector(values, s=3)
        draws = 100_000
        x = sample_binary_matrix(theta, substream(4), draws)
        freq = np.abs(x).mean(axis=0)
        p = np.array(values)
        tol = 5 * np.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(freq - p) <= tol)  # exact for the degenerate 0/1

    def test_signed_sampling_signs_follow_theta(self):
        theta = ParamVector([0.8, -0.6, 0.0, -1.0], s=3, variant=SIGNED)
        rng = substream(5)
        for _ in range(300):
            obs = sample_observation(theta, None, rng)
            assert obs.signs is not None
            for idx, sg in zip(obs.support, obs.signs):
                assert sg == (1 if theta.values[idx] > 0 else -1)

    def test_plain_sampling_has_no_signs(self):
        obs = sample_observation(ParamVector([0.5, 0.5], s=1), None, substream(6))
        assert obs.signs is None

    def test_perturbed_values_stay_within_halfwidth(self):
        theta = ParamVector([0.4, 0.9, 0.1], s=2)
        perturb = UniformPerturbation(halfwidth=0.3)
        rng = substream(7)
        for _ in range(200):
            obs = sample_observation(theta, perturb, rng)
            binary = np.zeros(3)
            binary[obs.support] = 1.0
            assert np.all(np.abs(obs.perturbed_values - binary) <= 0.3)


class TestQuantize:
    def test_threshold_keeps_strictly_above_half(self):
        obs = Observation(3, [1], perturbed_values=np.array([0.3, 0.9, -0.2]))
        assert quantize_perturbed(obs).support.tolist() == [1]

    def test_boundary_value_maps_to_zero(self):
        obs = Observation(1, [0], perturbed_values=np.array([0.5]))
        assert quantize_perturbed(obs).support.size == 0

    def test_requires_perturbation(self):
        with pytest.raises(MissingPerturbation):
            quantize_perturbed(Observation(3, [0, 2]))

    def test_noise_below_half_roundtrips_exactly(self):
        theta = ParamVector([0.5, 0.2, 0.9, 0.0], s=2)
        perturb = UniformPerturbation(halfwidth=0.49)
        rng = substream(8)
        for _ in range(500):
            obs = sample_observation(theta, perturb, rng)
            recovered = quantize_perturbed(obs)
            assert recovered.support.tolist() == obs.support.tolist()
            assert recovered.perturbed_values is None

    def test_signed_roundtrip_recovers_signs(self):
        theta = ParamVector([0.7, -0.7, 0.3], s=2, variant=SIGNED)
        perturb = UniformPerturbation(halfwidth=0.49)
        rng = substream(9)
        for _ in range(500):
            obs = sample_observation(theta, perturb, rng)
            recovered = quantize_perturbed(obs)
            assert recovered.support.tolist() == obs.support.tolist()
            assert np.array_equal(recovered.signs, obs.signs)

    def test_halfwidth_capped_at_half(self):
        with pytest.raises(ValueError):
            UniformPerturbation(halfwidth=0.51)


class TestCountMoments:
    def test_deterministic_count(self):
        assert poisson_binomial_moments(ParamVector([1.0, 1.0, 1.0], s=3)) == (3.0, 9.0)

    def test_two_fair_coins(self):
        # brute force over the 4 outcomes: E[S^2] = 0/4 + 1/2 + 4/4 = 1.5
        mean, second = poisson_binomial_moments(ParamVector([0.5, 0.5], s=1))
        assert mean == pytest.approx(1.0, abs=1e-15)
        assert second == pytest.approx(1.5, abs=1e-15)

    def test_three_coin_example(self):
        mean, second = poisson_binomial_moments(ParamVector([0.2, 0.3, 0.5], s=1))
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert second == pytest.approx(1.62, abs=1e-12)

    def test_signed_uses_magnitudes(self):
        mean, second = poisson_binomial_moments(
            ParamVector([-0.2, 0.3, -0.5], s=1, variant=SIGNED)
        )
        assert (mean, second) == (pytest.approx(1.0), pytest.approx(1.62))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)
    )
    def test_matches_exhaustive_enumeration(self, probs):
        theta = ParamVector(probs, s=max(1.0, sum(probs)))
        mean, second = poisson_binomial_moments(theta)
        ref_mean, ref_second = enumerate_count_moments(probs)
        assert mean == pytest.approx(ref_mean, abs=1e-12)
        assert second == pytest.approx(ref_second, abs=1e-12)


class TestObservationInvariants:
    def test_support_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            Observation(4, [2, 1])
        with pytest.raises(ValueError):
            Observation(4, [1, 1])
        with pytest.raises(ValueError):
            Observation(4, [1, 4])
        with pytest.raises(ValueError):
            Observation(4, [-1, 2])

    def test_support_must_hold_integers(self):
        for support in ([1.5, 2.7], [1.0, 2.0], [False, True], np.array([0.0])):
            with pytest.raises(ValueError):
                Observation(8, support)
        assert Observation(8, np.array([1, 3], dtype=np.uint8)).support.tolist() == [1, 3]

    def test_empty_support_of_any_dtype(self):
        for support in ([], np.array([]), np.array([], dtype=bool), np.array([], dtype=np.int32)):
            obs = Observation(8, support)
            assert obs.count == 0 and obs.support.dtype == np.int64

    def test_indicator_dense_roundtrip(self):
        obs = Observation(5, [1, 3], signs=[-1, 1])
        assert obs.indicator().tolist() == [0.0, -1.0, 0.0, 1.0, 0.0]
