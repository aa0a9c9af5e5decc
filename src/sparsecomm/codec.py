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

    @cached_property
    def payload_ranges(self) -> tuple[tuple[int, int], ...]:
        """``payload_ranges[count]`` is the ``[low, high)`` range of payloads
        a message with that count may carry, for counts 0..d: the ranks of
        the vectors with min(count, kprime) ones."""
        offsets = _class_offset_ints(self.d, self.kprime)
        classes = [min(count, self.kprime) for count in range(self.d + 1)]
        return tuple((offsets[m], offsets[m + 1]) for m in classes)


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
    """Inverse of :func:`rank_sparse` over the full codebook."""
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


def _check_integral(msg: Message) -> None:
    """MalformedMessage unless every field of ``msg`` is an integer (bools
    are not)."""
    try:
        for field in (msg.count, msg.payload_index, msg.bit_length):
            if field.__class__ is bool:
                raise TypeError("bool field")
            operator.index(field)
    except TypeError:
        raise MalformedMessage(f"message fields must be integers: {msg}") from None


def _check_popcount(ones: int, count: int, expected: int) -> None:
    if ones != expected:
        raise MalformedMessage(
            f"payload has {ones} ones, count {count} implies {expected}"
        )


def decode(msg: Message, cfg: CodecConfig) -> SubsampledObservation:
    """Recover the subsampled support and the original count from a message."""
    _check_integral(msg)
    if not 0 <= msg.count <= cfg.d:
        raise MalformedMessage(f"count {msg.count} outside [0, {cfg.d}]")
    if not 0 <= msg.payload_index < cfg.codebook:
        raise MalformedMessage(f"payload {msg.payload_index} outside codebook")
    if msg.bit_length != cfg.k:
        raise MalformedMessage(f"bit length {msg.bit_length} != k={cfg.k}")
    support = unrank_sparse(msg.payload_index, cfg.d, cfg.kprime)
    _check_popcount(len(support), msg.count, min(msg.count, cfg.kprime))
    return SubsampledObservation(cfg.d, support, msg.count)


def serialize(msg: Message, cfg: CodecConfig) -> str:
    """Fixed-width big-endian bit string: count header then payload index.

    Raises instead of writing a message that :func:`decode` would reject.
    """
    _check_integral(msg)
    if msg.bit_length != cfg.k:
        raise LengthMismatch(f"message bit length {msg.bit_length} != k={cfg.k}")
    if not 0 <= msg.count <= cfg.d:
        raise MalformedMessage(f"count {msg.count} outside [0, {cfg.d}]")
    low, high = cfg.payload_ranges[msg.count]
    if not low <= msg.payload_index < high:
        if not 0 <= msg.payload_index < cfg.codebook:
            raise MalformedMessage(f"payload {msg.payload_index} outside codebook")
        raise MalformedMessage(
            f"payload {msg.payload_index} does not have the "
            f"{min(msg.count, cfg.kprime)} ones count {msg.count} implies"
        )
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
# The Monte Carlo harness encodes and decodes millions of observations; the
# batch functions below run the same subsample / rank / unrank algorithms on
# whole (rows, d) matrices at once.  The caller draws the subsample keys
# (uniforms in [0, 1), one per position), so each stage has one definition
# and draws nothing itself.  Exhaustive and property tests pin them to the
# scalar functions.  Ranks take the dtype of the cached tables, int64 or
# Python ints, so one code path serves every codebook size.


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

    Enforces the contract of :func:`decode` on every row: counts have an
    integer dtype and payloads an integer dtype or hold integers (bools are
    neither), the count lies in ``[0, d]`` and the payload is a rank in the
    codebook that names a support of ``min(count, kprime)`` ones.
    """
    d, kprime = cfg.d, cfg.kprime
    offsets = _class_offsets(d, kprime)
    counts = np.asarray(counts)
    if offsets.dtype == object and not isinstance(payloads, np.ndarray):
        # numpy would infer float64 for ints that straddle 2^63
        payloads = np.array(payloads, dtype=object)
    else:
        payloads = np.asarray(payloads)
    _check_integer_array(counts, "counts", objects=False)
    _check_integer_array(payloads, "payloads", objects=True)
    n = counts.shape[0]
    if n and (counts.min() < 0 or counts.max() > d):
        raise MalformedMessage(f"count outside [0, {d}]")
    if n and (payloads.min() < 0 or payloads.max() >= offsets[-1]):
        raise MalformedMessage("payload outside codebook")
    payloads = np.asarray(payloads, dtype=offsets.dtype)
    expected = np.minimum(counts, kprime)
    m = np.searchsorted(offsets, payloads, side="right") - 1
    bad = np.flatnonzero(m != expected)
    if bad.size:
        _check_popcount(m[bad[0]], counts[bad[0]], expected[bad[0]])
    # Unrank the i-th ones of all rows holding more than i ones at once;
    # with rows sorted by popcount, descending, those rows are a prefix.
    order = np.argsort(-m, kind="stable")
    rem = (payloads - offsets[m])[order]
    starts = order * d
    holding = np.cumsum(np.bincount(m, minlength=kprime + 1)[::-1])[::-1]
    table = _comb_table(d, kprime)
    flat = np.zeros(n * d, dtype=bool)
    for i in range(kprime - 1, 0, -1):
        active = holding[i + 1]
        col = table[i + 1, :d]
        c = np.searchsorted(col, rem[:active], side="right") - 1
        flat[starts[:active] + c] = True
        rem[:active] -= col[c]
    if kprime:  # the last one of each row is its remainder: comb(c, 1) == c
        active = holding[1]
        flat[starts[:active] + rem[:active].astype(np.intp, copy=False)] = True
    return flat.reshape(n, d)


def _check_integer_array(values: np.ndarray, name: str, objects: bool) -> None:
    """MalformedMessage unless ``values`` has an integer dtype or, with
    ``objects``, is an object array of integers; bools are not integers."""
    if values.dtype.kind in "iu":
        return
    if objects and values.dtype == object:
        try:
            for value in values.tolist():
                if value.__class__ is bool:
                    raise TypeError("bool field")
                operator.index(value)
            return
        except TypeError:
            pass
    raise MalformedMessage(f"message {name} must be integers, got dtype {values.dtype}")
