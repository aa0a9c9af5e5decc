"""Deterministic derivation of independent random streams.

Every stochastic operation in this package takes an explicit
``numpy.random.Generator``.  Streams are derived from a 64-bit master seed
plus integer path components, so any run is reproducible and independent
streams can be handed to concurrent workers without coordination.

The stream of ``(seed, *path)`` is numpy's PCG64 seeded by
``SeedSequence([seed, *path])``, every value masked to 64 bits.
:func:`trial_streams` yields the streams ``substream(seed, t)`` of a range
of trial indices at a fraction of the cost: it replays ``SeedSequence``'s
hash over a block of indices at once as uint32 array arithmetic and sets
each trial's PCG64 state on one reused generator.  A test compares it
against numpy's own ``SeedSequence``, so a numpy release that changed the
seeding would fail that test rather than change the streams silently.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _words(*values: int) -> list[int]:
    """The uint32 entropy words ``SeedSequence`` makes of ``values``, each
    masked to 64 bits: its low word, then its high word if nonzero."""
    words = []
    for value in values:
        value = int(value) & _MASK64
        words.append(value & _MASK32)
        if value >> 32:
            words.append(value >> 32)
    return words


def _seed_sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    # a uint32 array is taken as is, where a list of ints is converted one
    # int at a time; both give the same pool
    return np.random.SeedSequence(np.array(_words(seed, *path), dtype=np.uint32))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator seeded from ``(seed, *path)``.

    Distinct paths give statistically independent streams; the same path
    always reproduces the same stream.
    """
    return np.random.default_rng(_seed_sequence(seed, path))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit child seed for ``(seed, *path)``.

    Used where an integer seed (rather than a generator) must cross a
    process boundary, e.g. one seed per grid point in a sweep.
    """
    state = _seed_sequence(seed, path).generate_state(2, np.uint32)
    return (int(state[1]) << 32) | int(state[0])


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a 4-word pool and
# the multipliers of its mix
_POOL = 4
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Trials whose streams are derived together: large enough that the array
# work is a small part of each trial, small enough for flat memory.
_BLOCK = 1024


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of ``calls`` hash steps, and after the
    last.  Evolved in Python ints, since numpy scalar overflow warns."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# SeedSequence's INIT_A/MULT_A hash 4 words into the pool and 12 while
# mixing it; INIT_B/MULT_B hash the 8 output words.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL + _POOL * (_POOL - 1))
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _hash(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hash of uint32 ``value`` by the hash constant
    ``before`` the step and the one ``after`` it."""
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _pcg_seeds(seed_words: list[int], t: np.ndarray) -> list[list[int]]:
    """``SeedSequence(seed_words + words(t)).generate_state(4, uint64)`` for
    every uint64 index in ``t``, as one list of 4 ints per index.

    An index takes one word below 2^32 and two above; either way the words
    fit the pool, and pool words past the entropy hash as zeros, so the
    index's high word (zero below 2^32) always sits in the pool.
    """
    pool = np.zeros((_POOL, t.size), dtype=np.uint32)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = t
    pool[len(seed_words) + 1] = t >> np.uint64(32)
    pool = _hash(pool, _HASH_A[:_POOL, None], _HASH_A[1 : _POOL + 1, None])
    step = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed = _hash(pool[src], _HASH_A[step], _HASH_A[step + 1])
                mixed = _MIX_L * pool[dst] - _MIX_R * hashed
                pool[dst] = mixed ^ (mixed >> 16)
                step += 1
    out = _hash(np.tile(pool, (2, 1)), _HASH_B[:-1, None], _HASH_B[1:, None])
    # word pairs to uint64 little-endian, as generate_state does
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").tolist()


def trial_streams(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Yield, for each t in ``range(start, stop)``, a generator in the state
    of ``substream(seed, t)``: the same draws, bit for bit.

    The same generator object is yielded every time, set to trial t's state
    only when t is reached, so a stream is valid until the next one is
    drawn.  The ``SeedSequence`` words of up to ``_BLOCK`` trials are
    derived at once as array arithmetic, then each trial's 4 words become
    the PCG64 set-seq state (``inc = initseq << 1 | 1``, two LCG steps).
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    seed_words = _words(seed)
    for lo in range(start, stop, _BLOCK):
        t = np.arange(min(_BLOCK, stop - lo), dtype=np.uint64) + np.uint64(lo & _MASK64)
        for state_hi, state_lo, seq_hi, seq_lo in _pcg_seeds(seed_words, t):
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
            pcg["inc"] = inc
            bit_generator.state = state
            yield rng
