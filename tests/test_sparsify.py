"""Tests for the top-r / random-k / rtop-k operator family."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecomm.seeding import substream
from sparsecomm.sparsify import (
    BadRank,
    SparsifierSpec,
    check_compression,
    expected_sq_error,
    random_k,
    rtop_k,
    top_r,
)

from oracles import mean_sq_error_enumeration, naive_rtop_k, naive_rtop_k_residuals


def entries(update) -> dict:
    """The update as an index -> value map."""
    return dict(zip(update.indices.tolist(), update.values.tolist()))


def assert_rows_match_naive(w, r, k, seeds):
    """Each row of ``select_rows`` and ``apply_rows`` equals one naive
    single-vector selection on a generator with the same seed, draws
    included, for rtop-k, random-k and top-r."""
    d = w.shape[1]
    for spec in (SparsifierSpec.rtop(r, k), SparsifierSpec.random(k), SparsifierSpec.top(r)):
        ours = [substream(seed) for seed in seeds]
        theirs = [substream(seed) for seed in seeds]
        targets = np.concatenate([spec.swap_targets(rng, d, 1) for rng in ours])
        kept = spec.select_rows(w, targets)
        dense = spec.apply_rows(w, targets)
        for i, values in enumerate(w):
            if spec.kind == "rtop_k":
                picked = naive_rtop_k(values, r, k, theirs[i])
            elif spec.kind == "random_k":
                picked = naive_rtop_k(np.ones(d), d, k, theirs[i])
            else:
                picked = np.argsort(-np.abs(values), kind="stable")[:r].tolist()
            assert kept[i].tolist() == picked
            expected = np.zeros(d)
            for j in picked:
                if values[j] != 0.0:
                    expected[j] = values[j]
            assert dense[i].tobytes() == expected.tobytes()  # no -0.0 enters
            assert ours[i].random() == theirs[i].random()


class TestSparseUpdate:
    def test_array_contract(self):
        rng = substream(17)
        for _ in range(300):
            d = int(rng.integers(1, 30))
            w = np.round(rng.normal(size=d))  # exact zeros and tied magnitudes
            r = int(rng.integers(1, d + 1))
            k = int(rng.integers(1, r + 1))
            seed = int(rng.integers(2**32))
            ours, theirs = substream(seed), substream(seed)
            cases = [
                (rtop_k(w, r, k, ours), naive_rtop_k(w, r, k, theirs)),
                # random-k is rtop-k with r = d over equal magnitudes
                (random_k(w, k, ours), naive_rtop_k(np.ones(d), d, k, theirs)),
                (top_r(w, r), np.argsort(-np.abs(w), kind="stable")[:r].tolist()),
            ]
            for upd, picked in cases:
                kept = [i for i in picked if w[i] != 0.0]
                assert upd.indices.dtype == np.int64
                assert upd.indices.tolist() == kept
                assert upd.values.tolist() == [w[i] for i in kept]
                assert upd.nnz == upd.indices.size == len(kept)
                dense = upd.to_dense()
                assert dense.shape == (d,)
                assert np.flatnonzero(dense).tolist() == sorted(kept)
                assert dense[upd.indices].tolist() == upd.values.tolist()
            # k scalar draws per random_k / rtop_k call, none for top_r
            assert ours.random() == theirs.random()

    def test_all_zero_selection(self):
        upd = top_r([0.0, 3.0, 0.0], 1)
        assert upd.nnz == 1
        upd = top_r([0.0, 0.0, 0.0], 2)
        assert upd.nnz == 0 and upd.indices.dtype == np.int64
        assert upd.to_dense().tolist() == [0.0, 0.0, 0.0]


class TestTopR:
    def test_magnitude_selection(self):
        upd = top_r([0.1, -3.0, 2.0, 0.5], 2)
        assert entries(upd) == {1: -3.0, 2: 2.0}

    def test_full_rank_is_identity_support(self):
        w = [0.5, -1.0, 2.0]
        upd = top_r(w, 3)
        assert entries(upd) == {0: 0.5, 1: -1.0, 2: 2.0}

    def test_ties_break_toward_lower_index(self):
        upd = top_r([1.0, -1.0, 1.0], 2)
        assert entries(upd) == {0: 1.0, 1: -1.0}

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            top_r([1.0, 2.0], 0)
        with pytest.raises(BadRank):
            top_r([1.0, 2.0], 3)

    def test_exact_zeros_are_not_stored(self):
        upd = top_r([1.0, 0.0, 0.0], 3)
        assert entries(upd) == {0: 1.0}
        assert upd.to_dense().tolist() == [1.0, 0.0, 0.0]

    def test_deterministic(self):
        w = substream(0).normal(size=50)
        assert entries(top_r(w, 7)) == entries(top_r(w, 7))


class TestRandomK:
    def test_full_k_keeps_everything(self):
        w = [1.0, -2.0, 3.0]
        assert entries(random_k(w, 3, substream(1))) == {0: 1.0, 1: -2.0, 2: 3.0}

    def test_uniform_inclusion(self):
        # one row per random_k([1, 1, 1], 1, rng) call, same draws
        draws = 100_000
        spec = SparsifierSpec.random(1)
        kept = spec.select_rows(np.ones((draws, 3)), spec.swap_targets(substream(2), 3, draws))
        hits = np.bincount(kept.ravel(), minlength=3)
        assert np.all(np.abs(hits / draws - 1 / 3) < 0.01)

    def test_bad_rank(self):
        for k in (0, 4):
            rng = substream(8)
            with pytest.raises(BadRank):
                random_k([1.0, 2.0, 3.0], k, rng)
            assert rng.random() == substream(8).random()  # nothing drawn

    def test_unbiased_after_rescale(self):
        # one row per random_k(w, 2, rng).to_dense() call, same draws
        w = np.array([2.0, -1.0, 0.5, 3.0])
        draws = 40_000
        spec = SparsifierSpec.random(2)
        dense = spec.apply_rows(np.tile(w, (draws, 1)), spec.swap_targets(substream(3), 4, draws))
        mean = dense.mean(axis=0)
        tol = 4 * np.abs(w) * 0.5 / np.sqrt(draws) + 1e-3
        assert np.all(np.abs(mean - 0.5 * w) < tol)


class TestRTopK:
    def test_collapses_to_top_r_when_k_equals_r(self):
        w = [5.0, -4.0, 3.0, 2.0, 1.0]
        upd = rtop_k(w, 4, 4, substream(4))
        assert entries(upd) == entries(top_r(w, 4))

    def test_inclusion_probability_on_top_window(self):
        # one row per rtop_k(w, 4, 2, rng) call, same draws
        w = np.broadcast_to([5.0, -4.0, 3.0, 2.0, 1.0], (100_000, 5))
        draws = w.shape[0]
        spec = SparsifierSpec.rtop(4, 2)
        kept = spec.select_rows(w, spec.swap_targets(substream(5), 5, draws))
        hits = np.bincount(kept.ravel(), minlength=5)
        assert np.all(np.abs(hits[:4] / draws - 0.5) < 0.01)
        assert hits[4] == 0

    def test_matches_random_k_when_r_is_d(self):
        # rows 0::2 and 1::2 are the interleaved rtop_k(w, 3, 1, rng) and
        # random_k(w, 1, rng) calls: both draw one integers(0, 3) each
        draws = 60_000
        w = np.broadcast_to([1.0, 2.0, 3.0], (draws, 3))
        targets = SparsifierSpec.random(1).swap_targets(substream(6), 3, 2 * draws)
        rtop = SparsifierSpec.rtop(3, 1).select_rows(w, targets[0::2])
        rand = SparsifierSpec.random(1).select_rows(w, targets[1::2])
        hits_rtop = np.bincount(rtop.ravel(), minlength=3)
        hits_rand = np.bincount(rand.ravel(), minlength=3)
        # both uniform over singletons: frequencies within joint noise
        assert np.all(np.abs(hits_rtop - hits_rand) / draws < 0.012)

    def test_support_is_subset_of_top_window(self):
        rng = substream(7)
        for _ in range(100):
            w = rng.normal(size=12)
            upd = rtop_k(w, 5, 3, rng)
            top = set(entries(top_r(w, 5)))
            assert set(entries(upd)) <= top
            assert upd.nnz == 3  # no exact zeros in a continuous draw

    def test_bad_rank(self):
        # r > d is refused here, although SparsifierSpec caps r at d
        for r, k in ((2, 3), (4, 2), (3, 0)):
            rng = substream(8)
            with pytest.raises(BadRank):
                rtop_k([1.0, 2.0, 3.0], r, k, rng)
            assert rng.random() == substream(8).random()  # nothing drawn


class TestExpectedSqError:
    def test_worked_example(self):
        # subsets {3} and {2} equally likely: errors 4+1 and 9+1, mean 7.5
        assert expected_sq_error([3.0, 2.0, 1.0], 2, 1) == pytest.approx(7.5)

    def test_lossless_case(self):
        assert expected_sq_error([3.0, 2.0, 1.0], 3, 3) == 0.0

    def test_r_equals_d_closed_form(self):
        w = substream(9).normal(size=20)
        for k in (1, 5, 20):
            assert expected_sq_error(w, 20, k) == pytest.approx(
                (1 - k / 20) * float(np.sum(w * w))
            )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8), st.data())
    def test_matches_subset_enumeration(self, values, data):
        d = len(values)
        r = data.draw(st.integers(1, d))
        k = data.draw(st.integers(1, r))
        closed = expected_sq_error(values, r, k)
        brute = mean_sq_error_enumeration(values, r, k)
        assert closed == pytest.approx(brute, abs=1e-10 * max(1.0, brute))

    def test_monotone_in_k_and_r(self):
        # Nonincreasing in k (keeping more loses less).  In r the closed
        # form moves the other way: E(r+1) - E(r) = k/(r+1) * (H_r/r - a)
        # >= 0 since the (r+1)-th largest square a is at most the mean H_r/r
        # of the top r.  A wider window at fixed k can only hurt the
        # one-shot residual; its value lies in bias reduction.
        w = substream(10).normal(size=16)
        for r in range(1, 17):
            errs = [expected_sq_error(w, r, k) for k in range(1, r + 1)]
            assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        for k in range(1, 8):
            errs = [expected_sq_error(w, r, k) for r in range(k, 17)]
            assert all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_compression_bound_holds(self):
        rng = substream(11)
        for _ in range(300):
            d = int(rng.integers(1, 40))
            w = rng.normal(size=d) * rng.exponential(1.0)
            r = int(rng.integers(1, d + 1))
            k = int(rng.integers(1, r + 1))
            bound = (1 - k / d) * float(np.sum(w * w))
            assert expected_sq_error(w, r, k) <= bound + 1e-12


class TestCheckCompression:
    def test_worked_example_passes(self):
        report = check_compression([3.0, 2.0, 1.0], 2, 1, 2000, substream(12))
        assert report.ok
        assert report.bound == pytest.approx((1 - 1 / 3) * 14.0)

    def test_zero_vector_passes(self):
        report = check_compression([0.0, 0.0], 1, 1, 200, substream(13))
        assert report.ok
        assert report.expected == 0.0 and report.bound == 0.0

    def test_deterministic_case_passes(self):
        # k = r: every draw keeps the same mass; std error is zero.
        report = check_compression([3.0, 2.0, 1.0], 2, 2, 500, substream(14))
        assert report.ok and report.mc_std_error == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_naive_residual_oracle(self, data):
        d = data.draw(st.integers(1, 24))
        element = st.sampled_from([0.0, 1.0, -1.0, 2.5]) | st.floats(-10, 10)
        values = data.draw(st.lists(element, min_size=d, max_size=d))
        r = data.draw(st.integers(1, d))
        k = data.draw(st.integers(1, r))
        trials = data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 2**32))
        ours, theirs = substream(seed), substream(seed)
        report = check_compression(values, r, k, trials, ours)
        assert (report.mc_mean, report.mc_std_error) == naive_rtop_k_residuals(
            values, r, k, trials, theirs
        )
        assert ours.random() == theirs.random()

    def test_single_trial_sums_in_selection_order(self):
        # one trial still sums its kept squares left to right: a reduction
        # over a length-1 trial axis would switch to pairwise summation
        rng = substream(19)
        for _ in range(50):
            w = rng.normal(size=24) * 10.0 ** rng.integers(-4, 4, 24)
            seed = int(rng.integers(2**32))
            ours, theirs = substream(seed), substream(seed)
            report = check_compression(w, 24, 16, 1, ours)
            assert (report.mc_mean, report.mc_std_error) == naive_rtop_k_residuals(
                w, 24, 16, 1, theirs
            )

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        rng = substream(18)
        with pytest.raises(ValueError, match="mc_trials"):
            check_compression([1.0, 2.0], 2, 1, trials, rng)
        assert rng.random() == substream(18).random()  # nothing drawn

    def test_random_vector_sweep(self):
        rng = substream(15)
        for _ in range(25):
            d = int(rng.integers(2, 32))
            w = rng.normal(size=d)
            r = int(rng.integers(1, d + 1))
            k = int(rng.integers(1, r + 1))
            assert check_compression(w, r, k, 400, rng).ok


class TestRowwiseSelection:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_match_naive_rtop_k(self, data):
        # Each row of the batched selection equals one naive single-vector
        # selection on a generator with the same seed, draws included.
        n = data.draw(st.integers(1, 5))
        d = data.draw(st.integers(1, 30))  # windows narrower and wider than sgd_compare's
        element = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]) | st.floats(-4, 4)
        row = st.lists(element, min_size=d, max_size=d)
        w = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
        r = data.draw(st.integers(1, d))
        k = data.draw(st.integers(1, r))
        seeds = data.draw(st.lists(st.integers(0, 2**32), min_size=n, max_size=n))
        assert_rows_match_naive(w, r, k, seeds)

    @staticmethod
    def planted_rows(r):
        # (25, 500) rows as in the sgd_compare workload, with ties at each
        # row's r-th magnitude, one row of +-0.0 and one of a single magnitude
        w = substream(11).normal(size=(25, 500))
        for i, row in enumerate(w[2:], start=2):
            tie = np.sort(np.abs(row))[-r]
            spots = substream(12, i).choice(500, size=4, replace=False)
            row[spots] = tie * np.array([1.0, -1.0, -1.0, 1.0])
        w[0] = np.where(np.arange(500) % 2, 0.0, -0.0)
        w[1] = np.where(np.arange(500) % 3, 1.5, -1.5)
        return w

    # sgd_compare's windows, Train's r = 25, and the whole row
    @pytest.mark.parametrize("r", [2, 10, 11, 25, 500])
    def test_rows_match_naive_rtop_k_at_benchmark_shape(self, r):
        assert_rows_match_naive(self.planted_rows(r), r, 2, range(25))

    @pytest.mark.parametrize("r", [1, 10, 11, 25, 500])
    def test_one_row_and_column_major_inputs(self, r):
        # check_compression selects from one w[None] row; a column-major
        # array must give the row-major bits
        w = self.planted_rows(r)
        for i in (0, 1, 2, 3):
            assert_rows_match_naive(w[i][None], r, 1, [i])
        assert_rows_match_naive(np.asfortranarray(w[:6]), r, 1, range(6))

    def test_swap_targets_match_scalar_draws(self):
        for seed, (m, k, rounds) in enumerate([(1, 1, 5), (10, 2, 200), (64, 32, 3), (500, 2, 9)]):
            ours, theirs = substream(seed), substream(seed)
            targets = SparsifierSpec.rtop(m, k).swap_targets(ours, m, rounds)
            assert targets.shape == (rounds, k)
            assert targets.ravel().tolist() == [
                int(theirs.integers(i, m)) for _ in range(rounds) for i in range(k)
            ]
            assert ours.random() == theirs.random()
        assert SparsifierSpec.top(3).swap_targets(ours, 5, 4).shape == (4, 0)
        assert ours.random() == theirs.random()  # top-r draws nothing

    def test_rank_and_finiteness_checks(self):
        with pytest.raises(BadRank, match="k=6 outside"):
            SparsifierSpec.random(6).swap_targets(substream(1), 5, 1)
        with pytest.raises(BadRank, match="r=6 outside"):
            SparsifierSpec.top(6).apply_rows(np.ones((2, 5)), np.empty((2, 0), dtype=int))
        with pytest.raises(ValueError, match="non-finite"):
            SparsifierSpec.top(2).apply_rows([[1.0, np.inf, 0.0]], np.empty((1, 0), dtype=int))

    def test_targets_must_have_one_row_per_vector(self):
        w = np.ones((2, 4))
        cases = [
            (SparsifierSpec.rtop(3, 2), np.zeros((1, 2), dtype=int), (2, 2)),
            (SparsifierSpec.rtop(3, 2), np.zeros((2, 1), dtype=int), (2, 2)),
            (SparsifierSpec.rtop(3, 2), np.zeros(2, dtype=int), (2, 2)),
            (SparsifierSpec.random(2), np.zeros((3, 2), dtype=int), (2, 2)),
            (SparsifierSpec.top(3), np.zeros((2, 3), dtype=int), (2, 0)),
        ]
        for spec, targets, need in cases:
            shapes = re.escape(f"{targets.shape} for rows of shape (2, 4); need {need}")
            with pytest.raises(ValueError, match=shapes):
                spec.select_rows(w, targets)
            with pytest.raises(ValueError, match=shapes):
                spec.apply_rows(w, targets)

    def test_targets_must_lie_in_their_swap_range(self):
        # swap i draws from [i, window): a negative target would wrap around,
        # one below i would undo an earlier swap, and one past the window or
        # a float would fail inside numpy's indexing
        w = np.arange(1.0, 17.0).reshape(2, 8)
        random, rtop = SparsifierSpec.random(2), SparsifierSpec.rtop(4, 2)
        cases = [
            (random, [[0, 1], [-1, -1]], "swap target -1 (row 1, swap 0) outside [0, 8)"),
            (rtop, [[0, 0], [0, 1]], "swap target 0 (row 0, swap 1) outside [1, 4)"),
            (rtop, [[0, 3], [4, 1]], "swap target 4 (row 1, swap 0) outside [0, 4)"),
            (random, [[0, 8], [0, 1]], "swap target 8 (row 0, swap 1) outside [1, 8)"),
            # r caps at d: the window is 8, not 20
            (
                SparsifierSpec.rtop(20, 2), [[0, 1], [8, 1]],
                "swap target 8 (row 1, swap 0) outside [0, 8)",
            ),
            (
                random, np.array([[0.0, 1.0], [2.0, 3.0]]),
                "swap target 0.0 (row 0, swap 0) is not an integer: targets of dtype float64",
            ),
        ]
        for spec, targets, message in cases:
            for call in (spec.select_rows, spec.apply_rows):
                with pytest.raises(ValueError, match=re.escape(message)):
                    call(w, targets)

    def test_targets_at_their_range_ends_are_accepted(self):
        w = np.arange(1.0, 17.0).reshape(2, 8)
        spec = SparsifierSpec.random(2)
        for targets in ([[0, 1], [7, 7]], np.array([[0, 1], [7, 7]], dtype=np.uint8)):
            kept = spec.select_rows(w, targets)
            assert kept.tolist() == [[0, 1], [7, 0]]
            expected = np.zeros((2, 8))
            expected[0, [0, 1]] = [1.0, 2.0]
            expected[1, [7, 0]] = [16.0, 9.0]
            assert np.array_equal(spec.apply_rows(w, targets), expected)


class TestSparsifierSpec:
    def test_labels_and_budgets(self):
        assert SparsifierSpec.top(5).label == "top_5"
        assert SparsifierSpec.random(3).entries_budget == 3
        spec = SparsifierSpec.rtop(25, 5)
        assert spec.label == "rtop_r25_k5"
        assert spec.entries_budget == 5

    def test_validation(self):
        with pytest.raises(BadRank):
            SparsifierSpec.rtop(2, 5)
        for make, k, message in (
            (SparsifierSpec.top, 0, "r=0 below 1"),
            (SparsifierSpec.top, -2, "r=-2 below 1"),
            (SparsifierSpec.random, 0, "k=0 below 1"),
            (SparsifierSpec.random, -1, "k=-1 below 1"),
            (lambda k: SparsifierSpec.rtop(3, k), 0, "need 1 <= k=0 <= r=3"),
        ):
            with pytest.raises(BadRank, match=re.escape(message)):
                make(k)  # at construction, before any d is known
        with pytest.raises(ValueError):
            SparsifierSpec(kind="middle_out", k=1)
        with pytest.raises(ValueError):
            SparsifierSpec(kind="rtop_k", k=1)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: SparsifierSpec.top(2.5), "r"),
            (lambda: SparsifierSpec.top(True), "r"),
            (lambda: SparsifierSpec.random(2.0), "k"),
            (lambda: SparsifierSpec.random(True), "k"),
            (lambda: SparsifierSpec.rtop(4.0, 2), "r"),
            (lambda: SparsifierSpec.rtop(4, np.True_), "k"),
            (lambda: SparsifierSpec.rtop(4, np.float64(2)), "k"),
        ],
    )
    def test_non_integer_budgets_fail_at_construction(self, make, name):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            make()

    def test_numpy_integer_budgets_are_accepted(self):
        assert SparsifierSpec.top(np.int64(3)).window(8) == 3
        assert SparsifierSpec.random(np.int32(2)).window(8) == 8
        assert SparsifierSpec.rtop(np.int64(5), np.uint8(2)).label == "rtop_r5_k2"

    def test_apply_dispatch(self):
        w = np.array([5.0, -4.0, 3.0, 2.0, 1.0])
        rng = substream(16)
        assert entries(SparsifierSpec.top(2).apply(w, rng)) == {0: 5.0, 1: -4.0}
        assert set(entries(SparsifierSpec.rtop(3, 2).apply(w, rng))) <= {0, 1, 2}
        assert SparsifierSpec.random(5).apply(w, rng).nnz == 5

    def test_unbiased_rescale_factors(self):
        assert SparsifierSpec.top(4).unbiased_rescale(10) == 1.0
        assert SparsifierSpec.random(2).unbiased_rescale(10) == 5.0
        assert SparsifierSpec.rtop(8, 2).unbiased_rescale(10) == 4.0
        # r is capped at d before the factor is formed
        assert SparsifierSpec.rtop(20, 2).unbiased_rescale(10) == 5.0
