"""Tests for the sparse Bernoulli observation model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsecomm.model import (
    PLAIN,
    SCALED,
    SIGNED,
    Observation,
    ParamVector,
    UniformPerturbation,
    perturb_and_quantize,
    sample_rows,
)
from sparsecomm.seeding import substream


class TestParamVectorInvariants:
    def test_values_on_each_edge_build(self):
        assert ParamVector([0.9, 0.9, 0.1, 0.1], s=2).d == 4
        assert ParamVector([-0.5, 0.5], s=1, variant=SIGNED).d == 2
        assert ParamVector([-1.0, 0.0], s=1, variant=SIGNED).values.tolist() == [-1.0, 0.0]
        assert ParamVector([0.5, 0.5], s=1, variant=SCALED, scale=3.0).estimand()[0] == 1.5
        assert ParamVector([0.5, 0.5], s=1, scale=0.0).d == 2  # scale is read only when scaled

    @pytest.mark.parametrize(
        "values,s,variant,scale,message",
        [
            ([0.9, 0.9, 0.0, 0.0], 1, PLAIN, 1.0, "sum|theta|=1.8 exceeds s=1"),
            ([-0.5, 0.6], 1, SIGNED, 1.0, "sum|theta|=1.1 exceeds s=1"),
            ([0.5, 1.2], 2, PLAIN, 1.0, "component 1=1.2 outside [0, 1]"),
            ([0.5, -0.1], 2, SCALED, 3.0, "component 1=-0.1 outside [0, 1]"),
            ([-1.2, 0.0], 1, SIGNED, 1.0, "component 0=-1.2 outside [-1, 1]"),
            ([0.1, float("nan")], 1, PLAIN, 1.0, "component 1 is not finite"),
            ([0.1, 0.1], 0.5, PLAIN, 1.0, "s=0.5 must be at least 1"),
            # s is judged first: a negative budget is named, not its components
            ([-0.25, -0.25], -2.0, PLAIN, 1.0, "s=-2.0 must be at least 1"),
            ([0.1, 0.1], float("nan"), PLAIN, 1.0, "s=nan must be at least 1"),
            ([0.5, 0.5], 1, SCALED, 0.0, "scale=0.0 must be positive"),
            ([0.5, 0.5], 1, SCALED, -3.0, "scale=-3.0 must be positive"),
        ],
    )
    def test_constructor_names_the_broken_invariant(self, values, s, variant, scale, message):
        with pytest.raises(ValueError) as raised:
            ParamVector(values, s=s, variant=variant, scale=scale)
        assert str(raised.value) == message

    def test_flat_probe_sum_rounding_is_within_budget(self):
        # the d-term sum of s/d rounds above s (by about 7e-12 here)
        d = 100_000
        values = np.full(d, (d / 3) / d)
        assert float(np.sum(values)) > d / 3
        assert ParamVector(values, s=d / 3).d == d


def draw_rows(theta, rng, rows):
    """(hits, signs) of ``rows`` rows sampled from ``theta``."""
    return sample_rows(theta.probabilities(), rng.random((rows, theta.d))), theta.signs()


class TestSampling:
    def test_degenerate_probabilities_are_exact(self):
        theta = ParamVector([1.0, 1.0, 0.0, 0.0], s=2)
        hits, _ = draw_rows(theta, substream(1), 200)
        assert (hits == [True, True, False, False]).all()

    def test_zero_parameter_gives_empty_support(self):
        hits, _ = draw_rows(ParamVector([0.0, 0.0, 0.0], s=1), substream(2), 100)
        assert not hits.any()

    def test_boundary_uniform_is_a_miss(self):
        # a hit needs u < |theta_j| strictly, so u = p is a miss
        theta = ParamVector([0.25, 0.5], s=1)
        hits = sample_rows(theta.probabilities(), np.array([[0.25, 0.4999], [0.0, 0.5]]))
        assert hits.tolist() == [[False, True], [True, False]]

    @pytest.mark.parametrize("rows", [1, 16, 128])
    def test_row_and_tile_give_the_elementwise_bits(self, rows):
        # p in {0, s/d, 1}; row 0's uniforms equal p wherever p < 1, each a miss
        d, s = 64, 8
        p = np.full(d, s / d)
        p[::8], p[1::16] = 0.0, 1.0
        theta = ParamVector(p, s=float(np.sum(p)))
        uniforms = substream(10, rows).random((rows, d))
        uniforms[0] = np.where(p < 1, p, uniforms[0])
        expected = np.array([[float(u) < float(q) for u, q in zip(row, p)] for row in uniforms])
        assert not expected[0, p < 1].any()
        assert expected[:, p == 1].all() and not expected[:, p == 0].any()
        tile = np.tile(theta.probabilities(), (rows, 1))
        for probabilities in (theta.probabilities(), tile):
            assert np.array_equal(sample_rows(probabilities, uniforms), expected)
        out = np.empty((rows, d), dtype=bool)
        assert sample_rows(tile, uniforms, out=out) is out
        assert np.array_equal(out, expected)

    def test_empirical_frequencies_match_means(self):
        # 1e5 draws; each component within 4 * sqrt(p(1-p)/N) of its mean.
        theta = ParamVector([0.5, 0.5], s=1)
        draws = 100_000
        hits, _ = draw_rows(theta, substream(3), draws)
        freq = hits.mean(axis=0)
        tol = 4 * np.sqrt(0.25 / draws)
        assert np.all(np.abs(freq - 0.5) < tol)

    def test_mixed_vector_component_deviations(self):
        values = [0.0, 0.05, 0.3, 0.7, 1.0]
        theta = ParamVector(values, s=3)
        draws = 100_000
        hits, _ = draw_rows(theta, substream(4), draws)
        freq = hits.mean(axis=0)
        p = np.array(values)
        tol = 5 * np.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(freq - p) <= tol)  # exact for the degenerate 0/1

    def test_signed_sampling_signs_follow_theta(self):
        theta = ParamVector([0.8, -0.6, 0.0, -1.0], s=3, variant=SIGNED)
        hits, signs = draw_rows(theta, substream(5), 300)
        assert signs.tolist() == [1.0, -1.0, 1.0, -1.0]
        assert hits[:, 3].all() and not hits[:, 2].any()
        # signed probabilities are |theta_j|: same hits as the plain magnitudes
        plain, _ = draw_rows(ParamVector(np.abs(theta.values), s=3), substream(5), 300)
        assert np.array_equal(hits, plain)

    def test_plain_and_scaled_sampling_have_no_signs(self):
        for variant in (PLAIN, SCALED):
            theta = ParamVector([0.5, 0.5], s=1, variant=variant, scale=2.0)
            assert draw_rows(theta, substream(6), 3)[1] is None


class TestQuantize:
    def test_threshold_keeps_strictly_above_half(self):
        hits = np.array([[False, True, False]])
        noise = np.array([[0.3, -0.1, -0.2]])
        assert perturb_and_quantize(hits, None, noise)[0].tolist() == [[False, True, False]]

    def test_boundary_value_maps_to_zero(self):
        hits = np.array([[True, False]])
        out, _ = perturb_and_quantize(hits, None, np.array([[-0.5, 0.5]]))
        assert not out.any()

    def test_signs_are_read_from_the_noisy_values(self):
        hits = np.array([[True, True, False]])
        out, signs = perturb_and_quantize(hits, np.array([1.0, -1.0, -1.0]), np.full((1, 3), 0.2))
        assert out.tolist() == [[True, True, False]]
        assert signs.tolist() == [[1.0, -1.0, 1.0]]

    def test_noise_below_half_roundtrips_exactly(self):
        theta = ParamVector([0.5, 0.2, 0.9, 0.0], s=2)
        rng = substream(8)
        hits, _ = draw_rows(theta, rng, 500)
        noise = rng.uniform(-0.49, 0.49, hits.shape)
        recovered, signs = perturb_and_quantize(hits, None, noise)
        assert np.array_equal(recovered, hits) and signs is None

    def test_signed_roundtrip_recovers_signs(self):
        theta = ParamVector([0.7, -0.7, 0.3], s=2, variant=SIGNED)
        rng = substream(9)
        hits, signs = draw_rows(theta, rng, 500)
        noise = rng.uniform(-0.49, 0.49, hits.shape)
        recovered, noisy_signs = perturb_and_quantize(hits, signs, noise)
        assert np.array_equal(recovered, hits)
        assert np.array_equal(noisy_signs[hits], np.broadcast_to(signs, hits.shape)[hits])

    def test_halfwidth_capped_at_half(self):
        with pytest.raises(ValueError):
            UniformPerturbation(halfwidth=0.51)


@st.composite
def integer_supports(draw):
    """(d, support): an integer array of any dtype, either a sorted subset of
    range(d) with at most one entry moved, or arbitrary values near [0, d)
    or anywhere in the dtype's range."""
    d = draw(st.integers(1, 300))
    dtype = draw(hnp.integer_dtypes(endianness="=") | hnp.unsigned_integer_dtypes(endianness="="))
    low, high = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    if draw(st.booleans()):
        values = sorted(draw(st.sets(st.integers(0, min(d - 1, high)), max_size=12)))
        if values and draw(st.booleans()):
            values[draw(st.integers(0, len(values) - 1))] = draw(st.integers(low, high))
    else:
        near = st.integers(max(low, -2), min(high, d + 1))
        values = draw(st.lists(near | st.integers(low, high), max_size=12))
    return d, np.array(values, dtype=dtype)


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
        for support in ([1.5, 2.7], [1.0, 2.0], [False, True], np.array([0.0]), [0, True],
                        [np.True_, 2]):
            with pytest.raises(ValueError):
                Observation(8, support)
        assert Observation(8, np.array([1, 3], dtype=np.uint8)).support.tolist() == [1, 3]

    @settings(max_examples=300, deadline=None)
    @given(integer_supports())
    @example((8, np.array([1, 2**63 + 5], dtype=np.uint64)))  # wraps negative in int64
    @example((8, np.array([2**64 - 1], dtype=np.uint64)))
    @example((300, np.array([0, 255], dtype=np.uint8)))
    @example((1, np.array([], dtype=np.int8)))
    def test_support_order_check_matches_plain_python(self, case):
        """Observation accepts exactly the strictly increasing integers in
        [0, d), of any integer dtype, and rejects the rest with one message."""
        d, support = case
        values = [int(v) for v in support]
        valid = all(0 <= v < d for v in values) and all(a < b for a, b in zip(values, values[1:]))
        if valid:
            assert Observation(d, support).support.tolist() == values
        else:
            with pytest.raises(ValueError) as raised:
                Observation(d, support)
            assert str(raised.value) == "support must be strictly increasing indices in [0, d)"

    def test_empty_support_of_any_dtype(self):
        for support in ([], np.array([]), np.array([], dtype=bool), np.array([], dtype=np.int32)):
            obs = Observation(8, support)
            assert obs.count == 0 and obs.support.dtype == np.int64
