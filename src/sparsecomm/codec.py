"""Bit-exact fixed-width codec for sparse binary observations.

Each transcript spends ``header_bits = ceil(log2(d+1))`` bits on the exact
support count and the remaining ``payload_bits`` on an enumerative index of
a subsampled support with at most ``kprime`` ones.  The codebook orders
supports by popcount ascending, then colexicographically within each
popcount class, which makes ranks deterministic and the code a bijection
onto ``0 .. sum_j C(d, j) - 1``.

``kprime`` is the largest sparsity the payload can address exactly; this
dominates the looser rule of thumb ``(k - log d) / log d`` and can be 0 for
very small budgets, in which case the config is flagged degenerate (the
payload can only name the empty set).

Scalar and batch functions run the same algorithms and read one cached
comb table (built by Pascal's rule) and one cached table of class offsets:
the batch paths index the table as an array, the scalar paths read its
rows (one per popcount class) as Python tuples, so a rank is a sum of
table entries and each unrank step is a binary search in one
nondecreasing row (Cover's enumerative code).

The message rule is stated once, in :func:`_check_message`, which
:func:`decode` and :func:`serialize` call; :func:`decode_batch` is its array form.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .model import Observation, as_support


class CodecError(Exception):
    """Base class for codec failures."""


class BudgetTooSmall(CodecError):
    """The bit budget cannot hold the count header plus one payload bit."""


class TooManyOnes(CodecError):
    """A support exceeds the codebook's sparsity limit."""


class RankOutOfRange(CodecError):
    """A rank falls outside the codebook."""


class MalformedMessage(CodecError):
    """A message violates the format for its config."""


class LengthMismatch(CodecError):
    """A serialized string does not have exactly k bits."""


def ceil_log2(x: int) -> int:
    """Smallest integer b with 2**b >= x, for x >= 1."""
    return (int(x) - 1).bit_length()


# Ranks are held in int64 when the codebook has at most this many vectors,
# and as Python ints (object arrays) otherwise.
_INT64_SAFE = 1 << 62

# Tables kept per process: more than the distinct (d, kprime) pairs of any
# shipped config or benchmark workload (at most 9), and few enough that a
# sweep over large object tables does not keep every one alive.
_TABLES_CACHED = 16


@lru_cache(maxsize=_TABLES_CACHED)
def _class_offsets(d: int, kprime: int) -> np.ndarray:
    """offsets[m] = number of codebook vectors with popcount < m, for
    0 <= m <= kprime + 1, read-only; ``offsets[-1]`` is the codebook size."""
    offsets = [0]
    for m in range(kprime + 1):
        offsets.append(offsets[-1] + math.comb(d, m))
    table = np.array(offsets, dtype=np.int64 if offsets[-1] <= _INT64_SAFE else object)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=_TABLES_CACHED)
def _comb_table(d: int, kprime: int) -> np.ndarray:
    """``table[j, c] == comb(c, j)`` for 0 <= j <= kprime, 0 <= c <= d,
    C-contiguous and read-only, in the dtype of :func:`_class_offsets` (no
    entry exceeds the codebook size); each class j is one contiguous row."""
    table = np.zeros((d + 1, kprime + 1), dtype=_class_offsets(d, kprime).dtype)
    table[:, 0] = 1
    for i in range(1, d + 1):  # Pascal's rule, one row per step
        table[i, 1:] = table[i - 1, 1:] + table[i - 1, :-1]
    table = np.ascontiguousarray(table.T)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=_TABLES_CACHED)
def _comb_columns(d: int, kprime: int) -> tuple[tuple[int, ...], ...]:
    """The rows of :func:`_comb_table` as tuples of Python ints, so
    ``cols[j][c] == comb(c, j)``; the scalar rank/unrank loops read these."""
    return tuple(map(tuple, _comb_table(d, kprime).tolist()))


@lru_cache(maxsize=_TABLES_CACHED)
def _class_offset_ints(d: int, kprime: int) -> tuple[int, ...]:
    """:func:`_class_offsets` as a tuple of Python ints, so the scalar
    paths index and bisect it without comparing numpy scalars."""
    return tuple(_class_offsets(d, kprime).tolist())


def codebook_size(d: int, kprime: int) -> int:
    """Number of binary vectors of length d with at most kprime ones."""
    return _class_offset_ints(d, kprime)[-1]


@dataclass(frozen=True)
class CodecConfig:
    """Derived field widths for a (dimension, bit budget) pair."""

    d: int
    k: int
    header_bits: int
    payload_bits: int
    kprime: int

    @property
    def degenerate(self) -> bool:
        return self.kprime == 0

    @cached_property
    def codebook(self) -> int:
        return codebook_size(self.d, self.kprime)


def make_config(d: int, k: int) -> CodecConfig:
    """Build the codec config for dimension ``d`` and bit budget ``k``.

    The intended operating regime is ``k >= 2 * ceil(log2 d)``; smaller
    budgets down to header + 1 bits are allowed but may come out degenerate
    (``kprime == 0``).
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    header = ceil_log2(d + 1)
    if k < header + 1:
        raise BudgetTooSmall(
            f"k={k} cannot hold the {header}-bit count header plus a payload bit"
        )
    payload = k - header
    capacity = 1 << payload
    kprime = 0
    total = 1
    while kprime < d:
        total += math.comb(d, kprime + 1)
        if total > capacity:
            break
        kprime += 1
    return CodecConfig(d=d, k=k, header_bits=header, payload_bits=payload, kprime=kprime)


@dataclass(frozen=True)
class Message:
    """A k-bit transcript: exact count plus enumerative payload index."""

    count: int
    payload_index: int
    bit_length: int


@dataclass(frozen=True, eq=False)
class SubsampledObservation:
    """A support capped at kprime ones, remembering the original count.

    ``signs`` rides along for signed observations; it is populated by
    :func:`subsample` (the encoder side, which sees the sample) and left
    ``None`` by :func:`decode` (a transcript carries no sign bits).
    """

    d: int
    support: np.ndarray
    original_count: int
    signs: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "support", as_support(self.support))
        if self.signs is not None:
            sg = np.array(self.signs, dtype=np.int64, copy=True)
            sg.setflags(write=False)
            object.__setattr__(self, "signs", sg)


def rank_sparse(support: Sequence[int], d: int, kprime: int) -> int:
    """Rank of a sorted support in the at-most-kprime-ones codebook.

    Vectors are ordered by popcount ascending, then colexicographically
    within each popcount class; the in-class rank of ``{s_0 < ... < s_{m-1}}``
    is ``sum_i C(s_i, i+1)`` (combinatorial number system).  Indices must
    be integers; floats and bools raise ``TypeError``.
    """
    m = len(support)
    if m > kprime:
        raise TooManyOnes(f"support has {m} ones, codebook allows {kprime}")
    cols = _comb_columns(d, kprime)
    rank = _class_offset_ints(d, kprime)[m]
    prev = -1
    for i, idx in enumerate(support, 1):
        if idx.__class__ is bool:
            raise TypeError("support indices must be integers, not bool")
        idx = operator.index(idx)
        if not prev < idx < d:
            raise ValueError("support must be strictly increasing indices in [0, d)")
        rank += cols[i][idx]
        prev = idx
    return rank


def unrank_sparse(rank: int, d: int, kprime: int) -> list[int]:
    """Inverse of :func:`rank_sparse` over the full codebook.  The rank must
    be an integer; floats and bools raise ``TypeError``."""
    if rank.__class__ is bool:
        raise TypeError("rank must be an integer, not bool")
    rank = operator.index(rank)
    offsets = _class_offset_ints(d, kprime)
    if rank < 0 or rank >= offsets[-1]:
        raise RankOutOfRange(f"rank {rank} outside codebook of size {offsets[-1]}")
    m = bisect.bisect_right(offsets, rank) - 1  # popcount class of the rank
    rem = rank - offsets[m]
    cols = _comb_columns(d, kprime)
    support: list[int] = []
    ceiling = d  # candidates are strictly below the previously chosen index
    for i in range(m - 1, -1, -1):
        # the largest c < ceiling with comb(c, i + 1) <= rem
        col = cols[i + 1]
        c = bisect.bisect_right(col, rem, 0, ceiling) - 1
        support.append(c)
        rem -= col[c]
        ceiling = c
    support.reverse()
    return support


def subsample(
    obs: Observation, cfg: CodecConfig, rng: np.random.Generator
) -> SubsampledObservation:
    """Keep a uniformly random kprime-subset of the support when it is larger.

    The uniform subset is realized by attaching an iid uniform key to each
    support index and keeping the kprime largest keys, ties to the lower
    position: the rule of :func:`subsample_mask`.  As there, the keys that
    reach the kprime-th largest key are kept; only when ties at that
    threshold would keep more is the row re-ranked exactly (a stable sort
    of the keys, descending), as ``_keep_largest_keys`` re-ranks tied rows.
    Keys are drawn only when the support exceeds kprime > 0; smaller
    supports pass through unchanged, and a degenerate budget (kprime = 0)
    keeps only the count.
    """
    if obs.d != cfg.d:
        raise ValueError(f"observation dimension {obs.d} != config dimension {cfg.d}")
    m, kprime = obs.count, cfg.kprime
    if m > kprime > 0:
        keys = rng.random(m)
        kept = keys >= np.partition(keys, m - kprime)[m - kprime]
        if np.count_nonzero(kept) > kprime:
            kept = np.sort(np.argsort(-keys, kind="stable")[:kprime])
    else:
        kept = slice(None) if kprime else slice(0)
    signs = obs.signs[kept] if obs.signs is not None else None
    return SubsampledObservation(obs.d, obs.support[kept], m, signs)


def encode(obs: Observation, cfg: CodecConfig, rng: np.random.Generator) -> Message:
    """Encode one observation into a k-bit message."""
    sub = subsample(obs, cfg, rng)
    payload = rank_sparse(sub.support.tolist(), cfg.d, cfg.kprime)
    return Message(count=sub.original_count, payload_index=payload, bit_length=cfg.k)


def _all_integers(values) -> bool:
    """Whether every value is an integer; bools are not."""
    try:
        for value in values:
            if value.__class__ is bool:
                return False
            operator.index(value)
    except TypeError:
        return False
    return True


def _check_message(msg: Message, cfg: CodecConfig) -> None:
    """MalformedMessage unless ``msg`` has integer fields, bit length k, a
    count in ``[0, d]`` and a payload that ranks a vector of e = min(count,
    kprime) ones, i.e. lies in ``[offsets[e], offsets[e + 1])``."""
    if not _all_integers((msg.count, msg.payload_index, msg.bit_length)):
        raise MalformedMessage(f"message fields must be integers: {msg}")
    if msg.bit_length != cfg.k:
        raise MalformedMessage(f"bit length {msg.bit_length} != k={cfg.k}")
    count, payload = msg.count, msg.payload_index
    offsets = _class_offset_ints(cfg.d, cfg.kprime)
    e = min(count, cfg.kprime)
    if not (0 <= count <= cfg.d and offsets[e] <= payload < offsets[e + 1]):
        raise _malformed(count, payload, cfg)


def _malformed(count: int, payload: int, cfg: CodecConfig) -> MalformedMessage:
    """The error for integer fields that break the count or payload rule of
    :func:`_check_message`, naming the first field at fault."""
    if not 0 <= count <= cfg.d:
        return MalformedMessage(f"count {count} outside [0, {cfg.d}]")
    if not 0 <= payload < cfg.codebook:
        return MalformedMessage(f"payload {payload} outside codebook")
    return MalformedMessage(
        f"payload {payload} does not have the {min(count, cfg.kprime)} ones count {count} implies"
    )


def decode(msg: Message, cfg: CodecConfig) -> SubsampledObservation:
    """Recover the subsampled support and the original count from a message."""
    _check_message(msg, cfg)
    support = unrank_sparse(msg.payload_index, cfg.d, cfg.kprime)
    return SubsampledObservation(cfg.d, support, msg.count)


def serialize(msg: Message, cfg: CodecConfig) -> str:
    """Fixed-width big-endian bit string: count header then payload index.

    Raises instead of writing a message that :func:`decode` would reject.
    """
    _check_message(msg, cfg)
    return f"{msg.count:0{cfg.header_bits}b}{msg.payload_index:0{cfg.payload_bits}b}"


def deserialize(bits: str, cfg: CodecConfig) -> Message:
    """Inverse of :func:`serialize`."""
    if len(bits) != cfg.k:
        raise LengthMismatch(f"expected exactly {cfg.k} bits, got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise MalformedMessage("bit string may contain only '0' and '1'")
    count = int(bits[: cfg.header_bits], 2)
    payload = int(bits[cfg.header_bits :], 2)
    return Message(count=count, payload_index=payload, bit_length=cfg.k)


# --- batch paths -----------------------------------------------------------
#
# The batch functions below run the same subsample / rank / unrank
# algorithms as the scalar ones on whole (rows, d) matrices at once.  The
# caller draws the subsample keys (uniforms in [0, 1), one per position), so
# each stage has one definition and draws nothing itself.  The Monte Carlo
# risk kernel calls only the selection rule, ``_keep_largest_keys``: an exact
# codec decodes each transcript to the count and kept support it came from,
# which c1, CodecRoundtrip (through ``decode_batch``) and the codec tests
# check.  Exhaustive and property tests pin the batch paths to the scalar
# functions.  Ranks take the dtype of the cached tables, int64 or Python
# ints, so one code path serves every codebook size.


def subsample_mask(x: np.ndarray, kprime: int, keys: np.ndarray) -> np.ndarray:
    """Row-wise uniform subsampling of nonzero positions down to kprime.

    Returns a boolean mask selecting, per row, all nonzero positions when
    there are at most kprime of them, else a uniformly random kprime-subset:
    the nonzero positions with the largest ``keys`` (uniforms in [0, 1),
    shaped like ``x``).
    """
    nonzero = _nonzero(x)
    return _keep_largest_keys(nonzero, np.count_nonzero(nonzero, axis=1), kprime, keys)


def _nonzero(x: np.ndarray) -> np.ndarray:
    """``x != 0``, or ``x`` itself when it is already boolean."""
    return x if x.dtype == bool else x != 0


def _keep_largest_keys(
    nonzero: np.ndarray, counts: np.ndarray, kprime: int, keys: np.ndarray
) -> np.ndarray:
    """Per row, the min(count, kprime) nonzero positions with the largest keys.

    A row keeps the nonzero positions whose keys reach its kprime-th
    largest nonzero key.  Rows where tied keys at that threshold would keep
    more than kprime positions are re-ranked exactly: keys in descending
    order, ties to the lower index.
    """
    if keys.shape != nonzero.shape:  # a broadcast row of keys would tie the rows' subsets
        raise ValueError(f"keys of shape {keys.shape} for a matrix of shape {nonzero.shape}")
    d = nonzero.shape[1]
    if kprime == 0:
        return np.zeros_like(nonzero)
    if kprime >= d:
        return nonzero.copy()  # never the caller's own boolean matrix
    filled = np.where(nonzero, keys, -1.0)
    filled.sort(axis=1)  # in place; faster than a row-wise partition
    threshold = filled[:, [d - kprime]]  # a copy, so ``filled`` is freed
    del filled
    mask = nonzero & (keys >= threshold)
    if np.count_nonzero(mask) > np.minimum(counts, kprime).sum():
        tied = np.flatnonzero(np.count_nonzero(mask, axis=1) > kprime)
        filled = np.where(nonzero[tied], keys[tied], -1.0)
        order = np.argsort(np.argsort(-filled, axis=1, kind="stable"), axis=1)
        mask[tied] = nonzero[tied] & (order < kprime)
    return mask


def encode_batch(
    x: np.ndarray, cfg: CodecConfig, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode a (rows, d) matrix of binary/signed samples.

    ``keys`` are the subsample keys of :func:`subsample_mask`.  Returns
    ``(counts, payloads, kept_mask)`` where the first two columns are the
    message fields per row and ``kept_mask`` marks the subsampled support
    (the encoder-side view, used to carry signs out of band).
    """
    d, kprime = cfg.d, cfg.kprime
    x, keys = np.asarray(x), np.asarray(keys)
    if x.shape[1] != d:
        raise ValueError(f"matrix has dimension {x.shape[1]}, config wants {d}")
    nonzero = _nonzero(x)
    counts = np.count_nonzero(nonzero, axis=1).astype(np.int64)
    mask = _keep_largest_keys(nonzero, counts, kprime, keys)
    kept = np.minimum(counts, kprime)
    payloads = _class_offsets(d, kprime)[kept]
    ones = np.flatnonzero(mask)  # row-major: each row's kept columns ascending
    if ones.size:
        rows, cols = np.divmod(ones, d)
        ends = np.cumsum(kept)
        position = np.arange(ones.size) - (ends - kept)[rows]
        np.add.at(payloads, rows, _comb_table(d, kprime)[position + 1, cols])
    return counts, payloads, mask


def decode_batch(
    counts: np.ndarray, payloads: np.ndarray, cfg: CodecConfig
) -> np.ndarray:
    """Decode message fields back to a (rows, d) boolean support mask.

    The array form of :func:`_check_message`, raising its errors for the
    first bad row: counts and payloads are 1-d and of equal length, counts
    have an integer dtype and payloads an integer dtype or hold integers
    (bools are neither), and each row's count lies in ``[0, d]`` and its
    payload in ``[offsets[e], offsets[e + 1])`` for e = min(count, kprime).
    """
    d, kprime = cfg.d, cfg.kprime
    offsets = _class_offsets(d, kprime)
    counts = _field_array(counts, np.int64)
    payloads = _field_array(payloads, offsets.dtype)
    if counts.ndim != 1 or payloads.shape != counts.shape:
        raise MalformedMessage(f"counts of shape {counts.shape} and payloads of shape "
                               f"{payloads.shape} must be 1-d arrays of equal length")
    _check_integer_array(counts, "counts", objects=False)
    _check_integer_array(payloads, "payloads", objects=True)
    # e is each row's popcount once the row passes; an out-of-range count
    # wraps or clips here, and fails its own test below
    e = np.minimum(counts.astype(np.intp, copy=False), kprime)
    low = offsets.take(e, mode="clip")
    bad = (counts < 0) | (counts > d) | (payloads < low)
    bad |= payloads >= offsets.take(e + 1, mode="clip")
    if bad.any():
        row = int(bad.argmax())
        raise _malformed(int(counts[row]), int(payloads[row]), cfg)
    # Unrank the i-th ones of all rows holding more than i ones at once;
    # with rows sorted by popcount, descending, those rows are a prefix.
    order = np.argsort(-e, kind="stable")
    rem = (np.asarray(payloads, dtype=offsets.dtype) - low)[order]
    starts = order * d
    holding = np.cumsum(np.bincount(e, minlength=kprime + 1)[::-1])[::-1]
    table = _comb_table(d, kprime)
    flat = np.zeros(counts.size * d, dtype=bool)
    for i in range(kprime - 1, 0, -1):
        active = holding[i + 1]
        col = table[i + 1, :d]
        c = np.searchsorted(col, rem[:active], side="right") - 1
        flat[starts[:active] + c] = True
        rem[:active] -= col[c]
    if kprime:  # the last one of each row is its remainder: comb(c, 1) == c
        active = holding[1]
        flat[starts[:active] + rem[:active].astype(np.intp, copy=False)] = True
    return flat.reshape(counts.size, d)


def _field_array(values, dtype) -> np.ndarray:
    """``values`` as an array of message fields; an ndarray is kept as is.
    Other sequences take ``dtype`` where numpy would infer float64 for
    integers: always for an object ``dtype`` (ints that straddle 2^63), and
    when they hold no values at all (an empty list)."""
    if isinstance(values, np.ndarray):
        return values
    if dtype == object:
        return np.array(values, dtype=object)
    values = np.asarray(values)
    return values.astype(dtype) if values.size == 0 else values


def _check_integer_array(values: np.ndarray, name: str, objects: bool) -> None:
    """MalformedMessage unless ``values`` has an integer dtype or, with
    ``objects``, is an object array of integers; bools are not integers."""
    if values.dtype.kind not in "iu" and not (
        objects and values.dtype == object and _all_integers(values.tolist())
    ):
        raise MalformedMessage(f"message fields must be integers: {name} of dtype {values.dtype}")
