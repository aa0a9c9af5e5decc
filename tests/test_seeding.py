import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecomm.seeding import derive_seed, substream, trial_streams

MASK64 = (1 << 64) - 1


def numpy_stream(seed: int, *path: int) -> np.random.Generator:
    """The stream of ``(seed, *path)`` built by numpy alone, from a list of ints."""
    return np.random.default_rng(np.random.SeedSequence([seed & MASK64, *path]))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5])
def test_word_array_gives_the_list_pool(seed):
    """substream and derive_seed hand SeedSequence a uint32 array; its pool
    is the one numpy makes of the list of ints."""
    for path in [(), (7,), (1, 3), (2**40,), (0, 0)]:
        listed = np.random.SeedSequence([seed & MASK64, *path])
        assert np.array_equal(substream(seed, *path).bit_generator.seed_seq.pool, listed.pool)
        words = listed.generate_state(2, np.uint32)
        assert derive_seed(seed, *path) == int(words[1]) << 32 | int(words[0])


class TestTrialStreams:
    """Every stream of ``trial_streams`` equals numpy's own, state and draws;
    a numpy release that changed SeedSequence or PCG64 seeding fails here."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        # near 2^32 an index takes a second entropy word
        start=st.one_of(st.integers(0, 5000), st.integers(2**32 - 1100, 2**32 + 50)),
        # longer than a block of 1024 trials, or short
        length=st.one_of(st.integers(0, 40), st.integers(1020, 1100)),
    )
    @example(seed=0, start=2**32 - 1030, length=1040)
    @example(seed=2**32 - 1, start=2**32 - 1030, length=1040)
    @example(seed=2**32, start=2**32 - 1030, length=1040)
    @example(seed=2**64 - 1, start=2**32 - 1030, length=1040)
    @example(seed=2**64 + 5, start=2**32 - 1030, length=1040)
    def test_matches_numpy_seed_sequence(self, seed, start, length):
        t = start
        for rng in trial_streams(seed, start, start + length):
            expected = numpy_stream(seed, t)
            assert rng.bit_generator.state == expected.bit_generator.state, t
            assert rng.random(8).tobytes() == expected.random(8).tobytes(), t
            t += 1
        assert t == start + length
