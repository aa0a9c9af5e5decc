import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecomm import seeding
from sparsecomm.seeding import derive_seed, substream, trial_streams


def numpy_stream(seed: int, *path: int) -> np.random.Generator:
    """The stream of ``(seed, *path)`` built by numpy alone, from a list of ints."""
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_word_array_gives_the_list_pool(seed):
    """substream and derive_seed hand SeedSequence a uint32 array; its pool
    is the one numpy makes of the list of ints."""
    for path in [(), (7,), (1, 3), (2**40,), (0, 0), (2**64 - 1,)]:
        listed = np.random.SeedSequence([seed, *path])
        assert np.array_equal(substream(seed, *path).bit_generator.seed_seq.pool, listed.pool)
        words = listed.generate_state(2, np.uint32)
        assert derive_seed(seed, *path) == int(words[1]) << 32 | int(words[0])


class TestTrialStreams:
    """Every stream of ``trial_streams`` equals numpy's own, state and draws;
    a numpy release that changed SeedSequence or PCG64 seeding fails here."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        # near 2^32 an index takes a second entropy word
        start=st.one_of(st.integers(0, 5000), st.integers(2**32 - 1100, 2**32 + 50)),
        # longer than a block of 1024 trials, or short
        length=st.one_of(st.integers(0, 40), st.integers(1020, 1100)),
    )
    @example(seed=0, start=2**32 - 1030, length=1040)
    @example(seed=2**32 - 1, start=2**32 - 1030, length=1040)
    @example(seed=2**32, start=2**32 - 1030, length=1040)
    @example(seed=2**64 - 1, start=2**32 - 1030, length=1040)
    @example(seed=5, start=2**64 - 3, length=3)  # the last index a path may take
    def test_matches_numpy_seed_sequence(self, seed, start, length):
        t = start
        for rng in trial_streams(seed, start, start + length):
            expected = numpy_stream(seed, t)
            assert rng.bit_generator.state == expected.bit_generator.state, t
            assert rng.random(8).tobytes() == expected.random(8).tobytes(), t
            t += 1
        assert t == start + length


class TestSeedRange:
    """A seed and every path component lie in [0, 2^64): seeding would
    alias any other integer to one inside (-1 to 2^64 - 1, 2^64 to 0)."""

    @pytest.mark.parametrize("value", [-1, 2**64, 2**65 - 1, 1.5, 3.0, True])
    def test_outside_raises(self, value):
        calls = [
            lambda: substream(value), lambda: substream(5, value),
            lambda: derive_seed(value, 3), lambda: derive_seed(5, value),
            lambda: next(trial_streams(value, 0, 1)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"is not an integer in \[0, 2\^64\)$"):
                call()

    @pytest.mark.parametrize("start,stop", [(-1, 1), (2**64 - 1, 2**64 + 1), (2**64, 2**64 + 1)])
    def test_trial_range_outside_raises(self, start, stop):
        with pytest.raises(ValueError, match="not an integer in"):
            next(trial_streams(0, start, stop))

    @pytest.mark.parametrize("value", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_range_ends_are_accepted(self, value):
        expected = numpy_stream(int(value), 3).random(4).tobytes()
        assert substream(value, 3).random(4).tobytes() == expected
        beside = numpy_stream(3, int(value)).random(4).tobytes()
        assert substream(3, value).random(4).tobytes() == beside
        assert derive_seed(value, 3) == derive_seed(int(value), 3)
        (rng,) = trial_streams(value, 3, 4)
        assert rng.random(4).tobytes() == expected

    def test_trial_streams_check_once_before_the_first_stream(self, monkeypatch):
        checked = []
        words = seeding._words
        monkeypatch.setattr(seeding, "_words", lambda *v: checked.append(v) or words(*v))
        streams = trial_streams(7, 0, 2100)
        next(streams)
        assert checked == [(7,), (0, 2099)]
        assert sum(1 for _ in streams) == 2099 and len(checked) == 2
