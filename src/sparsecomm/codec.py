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

Scalar and batch functions read one cached record of tables per codebook,
``_Tables``: a comb table built by Pascal's rule and the class offsets,
so a rank is a sum of table entries and each unrank step is a binary
search in one nondecreasing row (Cover's enumerative code).  There is one
unrank loop, ``_unrank_rows``: :func:`decode_batch` runs it on all its
rows, and :func:`unrank_sparse` (so :func:`decode` too) on one.

The message rule is stated once, in :func:`_check_message`, which
:func:`decode` and :func:`serialize` call; :func:`decode_batch` is its array form.
The scalar subsample, ``_kept_positions``, runs the batch paths'
threshold and tie rule on one row of keys: :func:`subsample` wraps the
kept positions as a :class:`SubsampledObservation`, and :func:`encode`
ranks them directly.  The scalar rank is stated once, in ``_rank_sum``:
:func:`rank_sparse` runs it after checking its input, and :func:`encode`
runs it unchecked on a subset of an ``Observation``'s support, which
that class has already checked.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._frozen import Frozen
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


# The largest codebook whose ranks and tables are int64 (see ``_Tables``).
_INT64_SAFE = 1 << 62

# Table records kept per process: more than the distinct (d, kprime) pairs
# of any shipped config or benchmark workload (at most 9), and few enough
# that a sweep over large object tables does not keep every one alive.
_TABLES_CACHED = 16


class _Tables(NamedTuple):
    """The read-only tables of one (d, kprime) codebook, built together by
    :func:`_tables`.

    - ``offsets[m]`` is the number of codebook vectors with popcount < m,
      for 0 <= m <= kprime + 1; ``offsets[-1]`` is the codebook size.
    - ``comb[j, c] == comb(c, j)`` for 0 <= j <= kprime, 0 <= c <= d,
      C-contiguous, built by Pascal's rule; each class j is one row.
    - ``fits`` is the leading J rows of ``comb`` as int64: the largest
      J <= kprime + 1 with C(d, j) <= ``_INT64_SAFE`` for every j < J.
    - ``offset_ints`` and ``comb_ints`` are ``offsets`` and the rows of
      ``comb`` as tuples of Python ints, which the scalar rank and message
      checks index without comparing numpy scalars.

    ``offsets`` and ``comb`` are int64 when the codebook has at most
    ``_INT64_SAFE`` vectors, and object arrays of Python ints otherwise;
    no table entry exceeds the codebook size.  An int64 codebook's ``fits``
    is ``comb`` itself (J = kprime + 1), which the batch paths test with
    ``is``.  Past int64 the batch paths still keep in int64 every number
    the ``fits`` rows bound.  A rank's terms from a row's first J - 1 kept
    ones, sum_{i < J} C(s_{i-1}, i), are the colex rank of a (J - 1)-subset
    of [0, d), so they sum below C(d, J - 1); and the unrank remainder
    before row p's step lies below C(d, p).  Both are at most
    ``_INT64_SAFE`` for p < J, so only the class offsets, the rank terms
    and unrank steps of the rows j >= J, and the remainders before those
    steps are Python ints.
    """

    offsets: np.ndarray
    comb: np.ndarray
    fits: np.ndarray
    offset_ints: tuple[int, ...]
    comb_ints: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=_TABLES_CACHED)
def _tables(d: int, kprime: int) -> _Tables:
    """The :class:`_Tables` of the at-most-kprime-ones codebook of length d."""
    offset_ints = [0]
    for m in range(kprime + 1):
        offset_ints.append(offset_ints[-1] + math.comb(d, m))
    dtype = np.int64 if offset_ints[-1] <= _INT64_SAFE else object
    offsets = np.array(offset_ints, dtype=dtype)
    comb = np.zeros((d + 1, kprime + 1), dtype=dtype)
    comb[:, 0] = 1
    for i in range(1, d + 1):  # Pascal's rule, one row per step
        comb[i, 1:] = comb[i - 1, 1:] + comb[i - 1, :-1]
    comb = np.ascontiguousarray(comb.T)
    fits = comb
    if dtype == object:
        rows = 0
        while rows <= kprime and math.comb(d, rows) <= _INT64_SAFE:
            rows += 1
        fits = comb[:rows].astype(np.int64)
    for table in (offsets, comb, fits):
        table.setflags(write=False)
    return _Tables(offsets, comb, fits, tuple(offset_ints), tuple(map(tuple, comb.tolist())))


def codebook_size(d: int, kprime: int) -> int:
    """Number of binary vectors of length d with at most kprime ones."""
    return _tables(d, kprime).offset_ints[-1]


class CodecConfig(NamedTuple):
    """Derived field widths for a (dimension, bit budget) pair."""

    d: int
    k: int
    header_bits: int
    payload_bits: int
    kprime: int

    @property
    def degenerate(self) -> bool:
        return self.kprime == 0

    @property
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
            f"k={k} cannot hold the {header}-bit count header of d={d} plus a payload bit"
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


class Message(NamedTuple):
    """A k-bit transcript: exact count plus enumerative payload index."""

    count: int
    payload_index: int
    bit_length: int


class SubsampledObservation(Frozen):
    """A support capped at kprime ones, remembering the original count."""

    __slots__ = ("d", "support", "original_count")

    def __init__(self, d: int, support: np.ndarray, original_count: int):
        self._set(d=d, support=as_support(support), original_count=original_count)


def rank_sparse(support: Sequence[int], d: int, kprime: int) -> int:
    """Rank of a sorted support in the at-most-kprime-ones codebook.

    Vectors are ordered by popcount ascending, then colexicographically
    within each popcount class; the in-class rank of ``{s_0 < ... < s_{m-1}}``
    is ``sum_i C(s_i, i+1)`` (combinatorial number system).  Indices must
    be integers; floats and bools raise ``TypeError``.  This is the checked
    entry point: it proves the support is at most kprime strictly
    increasing integers in [0, d) and then runs the table sum of
    ``_rank_sum``, which :func:`encode` calls directly.
    """
    m = len(support)
    if m > kprime:
        raise TooManyOnes(f"support has {m} ones, codebook allows {kprime}")
    indices = []
    prev = -1
    for idx in support:
        if idx.__class__ is bool:
            raise TypeError("support indices must be integers, not bool")
        idx = operator.index(idx)
        if not prev < idx < d:
            raise ValueError("support must be strictly increasing indices in [0, d)")
        indices.append(idx)
        prev = idx
    return _rank_sum(indices, d, kprime)


def _rank_sum(support: list[int], d: int, kprime: int) -> int:
    """The rank sum of :func:`rank_sparse` with none of its checks: the
    caller guarantees at most kprime strictly increasing Python ints in
    [0, d)."""
    tables = _tables(d, kprime)
    cols = tables.comb_ints
    rank = tables.offset_ints[len(support)]
    for i, idx in enumerate(support, 1):
        rank += cols[i][idx]
    return rank


def unrank_sparse(rank: int, d: int, kprime: int) -> list[int]:
    """Inverse of :func:`rank_sparse`: one row of ``_unrank_rows``.  The rank
    must be an integer; floats and bools raise ``TypeError``."""
    if rank.__class__ is bool:
        raise TypeError("rank must be an integer, not bool")
    rank = operator.index(rank)
    offsets = _tables(d, kprime).offsets
    if rank < 0 or rank >= offsets[-1]:
        raise RankOutOfRange(f"rank {rank} outside codebook of size {offsets[-1]}")
    m = offsets.searchsorted(rank, side="right") - 1  # popcount class of the rank
    rem = np.array([rank - offsets[m]], dtype=offsets.dtype)
    return np.flatnonzero(_unrank_rows(np.array([m]), rem, d, kprime)).tolist()


def _kept_positions(
    obs: Observation, cfg: CodecConfig, rng: np.random.Generator
) -> np.ndarray | slice:
    """The positions into ``obs.support`` that a kprime-subsample keeps, as
    a boolean mask or a slice.

    The uniform subset is realized by attaching an iid uniform key to each
    support index and keeping the kprime largest keys, ties to the lower
    position: the rule of :func:`subsample_mask` (``_kth_largest``, then
    ``_rank_first`` for tied keys) on one row.  Keys are drawn only when
    the support exceeds kprime > 0; smaller supports are kept whole, and a
    degenerate budget (kprime = 0) keeps none of them.
    """
    if obs.d != cfg.d:
        raise ValueError(f"observation dimension {obs.d} != config dimension {cfg.d}")
    m, kprime = obs.count, cfg.kprime
    if m > kprime > 0:
        keys = rng.random(m)
        kept = keys >= _kth_largest(keys[None].copy(), kprime)
        if np.count_nonzero(kept) > kprime:
            kept = _rank_first(keys[None], kprime)[0]
        return kept
    return slice(None) if kprime else slice(0)


def subsample(
    obs: Observation, cfg: CodecConfig, rng: np.random.Generator
) -> SubsampledObservation:
    """Keep a uniformly random kprime-subset of the support when it is larger
    (the rule of ``_kept_positions``); the original count rides along."""
    return SubsampledObservation(obs.d, obs.support[_kept_positions(obs, cfg, rng)], obs.count)


def encode(obs: Observation, cfg: CodecConfig, rng: np.random.Generator) -> Message:
    """Encode one observation into a k-bit message: its count and the rank
    of the support :func:`subsample` would keep, drawing the same keys from
    ``rng`` but building no :class:`SubsampledObservation`.

    The rank skips :func:`rank_sparse`'s per-index checks.  ``Observation``
    has already proved its read-only support integer, strictly increasing
    and inside [0, d), and ``_kept_positions`` keeps an ordered subset of
    it with at most kprime entries, so the checks would pass again.
    """
    kept = obs.support[_kept_positions(obs, cfg, rng)]
    return Message(obs.count, _rank_sum(kept.tolist(), cfg.d, cfg.kprime), cfg.k)


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
    offsets = _tables(cfg.d, cfg.kprime).offset_ints
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
# each stage has one definition and draws nothing itself.  The selection
# rule (keep the keys that reach a row's kprime-th largest, ``_kth_largest``,
# and re-rank tied rows, ``_rank_first``) has two batch layouts, and the
# caller picks one: ``_keep_largest_keys`` on dense (rows, d) rows, which
# ``encode_batch`` and ``subsample_mask`` use, and ``_keep_largest_packed``
# on the flat indices of the nonzeros, which the Monte Carlo risk kernel
# uses, because its rows hold few ones; the scalar ``_kept_positions`` runs
# it on one row of keys.  The kernel calls nothing else here:
# an exact codec decodes each transcript to the count and kept support it
# came from, which c1, CodecRoundtrip (through ``encode_batch`` and
# ``decode_batch``) and the codec tests check.  Exhaustive and property
# tests pin the batch paths to the scalar functions and to math.comb
# oracles, the packed layout to the dense one.  Payloads take the tables'
# dtype, and one code path serves every codebook size: ``_Tables`` states
# which numbers stay int64 and why that is exact.


def subsample_mask(x: np.ndarray, kprime: int, keys: np.ndarray) -> np.ndarray:
    """Row-wise uniform subsampling of nonzero positions down to kprime.

    Returns a boolean mask selecting, per row, all nonzero positions when
    there are at most kprime of them, else a uniformly random kprime-subset:
    the nonzero positions with the largest ``keys`` (uniforms in [0, 1),
    shaped like ``x``).  Keys at zero positions are ignored, whatever their
    value (inf, NaN and -0.0 included).
    """
    nonzero = _nonzero(_sample_matrix(x))
    return _keep_largest_keys(nonzero, np.count_nonzero(nonzero, axis=1), kprime, keys)


def _sample_matrix(x, d: Optional[int] = None) -> np.ndarray:
    """``x`` as an array; ValueError naming its shape unless it is a
    (rows, d) matrix, of any width when ``d`` is None."""
    x = np.asarray(x)
    if x.ndim != 2 or (d is not None and x.shape[1] != d):
        width = "d" if d is None else d
        raise ValueError(f"samples of shape {x.shape} are not a (rows, {width}) matrix")
    return x


def _nonzero(x: np.ndarray) -> np.ndarray:
    """``x != 0``, or ``x`` itself when it is already boolean."""
    return x if x.dtype == bool else x != 0


def _kth_largest(filled: np.ndarray, kprime: int) -> np.ndarray:
    """Each row's kprime-th largest entry of ``filled``, rows of keys padded
    with -1.0 (0 < kprime <= width): the keep-largest-keys threshold.
    A row keeps the keys that reach it, and a padded row with at most
    kprime keys has threshold -1.0, so it keeps them all.  Sorts ``filled``
    in place."""
    filled.sort(axis=1)  # in place; faster than a row-wise partition
    return filled[:, filled.shape[1] - kprime].copy()  # so ``filled`` can be freed


def _rank_first(filled: np.ndarray, kprime: int) -> np.ndarray:
    """Whether each entry of ``filled`` (rows of keys padded with -1.0) is
    among its row's kprime largest, by a stable descending sort: ties to
    the lower position.  This re-ranks the rows where keys tied at the
    threshold of :func:`_kth_largest` would keep more than kprime."""
    order = np.argsort(np.argsort(-filled, axis=1, kind="stable"), axis=1)
    return order < kprime


def _keep_largest_keys(
    nonzero: np.ndarray, counts: np.ndarray, kprime: int, keys: np.ndarray
) -> np.ndarray:
    """Per row, the min(count, kprime) nonzero positions with the largest keys.

    The dense layout of the rule: each (rows, d) row of keys is padded with
    -1.0 at its zero positions, keeps the nonzero positions whose keys
    reach :func:`_kth_largest`, and is re-ranked by :func:`_rank_first`
    when tied keys at that threshold would keep more than kprime positions
    (keys in descending order, ties to the lower index).  Keys at zero
    positions are ignored, whatever their value (inf, NaN and -0.0
    included): the padding is :func:`_padded_keys`.
    :func:`_keep_largest_packed` is the same rule on packed rows.
    """
    if keys.shape != nonzero.shape:  # a broadcast row of keys would tie the rows' subsets
        raise ValueError(f"keys of shape {keys.shape} for a matrix of shape {nonzero.shape}")
    d = nonzero.shape[1]
    if kprime == 0:
        return np.zeros_like(nonzero)
    if kprime >= d:
        return nonzero.copy()  # never the caller's own boolean matrix
    threshold = _kth_largest(_padded_keys(nonzero, keys), kprime)
    mask = nonzero & (keys >= threshold[:, None])
    if np.count_nonzero(mask) > np.minimum(counts, kprime).sum():
        tied = np.flatnonzero(np.count_nonzero(mask, axis=1) > kprime)
        filled = _padded_keys(nonzero[tied], keys[tied])
        mask[tied] = nonzero[tied] & _rank_first(filled, kprime)
    return mask


_PAD_BITS = np.float64(-1.0).view(np.int64)


def _padded_keys(nonzero: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.where(nonzero, keys, -1.0)`` as float64, bit for bit, whatever
    the keys off the support hold (inf, NaN, -0.0).

    A bitwise select on the int64 views, ``((keys ^ pad) & pick) ^ pad``
    with ``pick`` all ones on the support: the same work on every entry,
    where ``np.where`` branches on a half-dense random mask.  Built in
    place, so the result and ``pick`` are the only block-sized temporaries.
    Other keys take a float64 copy, a third: exact for float32 keys, and
    the cast ``np.where`` makes itself for integer keys, so the rule keeps
    what that padding would keep.
    """
    pick = np.subtract(0, nonzero, dtype=np.int64)  # -1 (all ones) or 0
    filled = np.bitwise_xor(np.asarray(keys, dtype=np.float64).view(np.int64), _PAD_BITS)
    filled &= pick
    del pick
    filled ^= _PAD_BITS
    return filled.view(np.float64)


def _keep_largest_packed(
    rows: np.ndarray, counts: np.ndarray, kprime: int, keys: np.ndarray
) -> np.ndarray:
    """Whether each nonzero position is kept, by the rule of
    :func:`_keep_largest_keys` on packed rows.

    The nonzero positions are given in row-major order: ``rows`` holds the
    row of each, ``keys`` its key, and ``counts`` each row's number of
    them (``np.bincount(rows)``, with a length of the row count).  Each
    row's keys are packed into a (rows, widest count) matrix padded with
    -1.0, in column order, so a position's rank among its row's keys,
    ties to the lower position, is its rank in the dense row too.
    """
    width = int(counts.max(initial=0))
    if kprime == 0:
        return np.zeros(rows.shape, dtype=bool)
    if width <= kprime:
        return np.ones(rows.shape, dtype=bool)
    # flat position in the packed matrix: the row's offset plus the rank of
    # the position among its row's nonzeros (one 1-d scatter, not a 2-d one)
    row_start = np.arange(0, counts.size * width, width) - (np.cumsum(counts) - counts)
    at = np.arange(rows.size) + row_start[rows]
    filled = np.full(counts.size * width, -1.0)
    filled[at] = keys
    keep = keys >= _kth_largest(filled.reshape(-1, width), kprime)[rows]
    if np.count_nonzero(keep) > np.minimum(counts, kprime).sum():
        in_tied = (np.bincount(rows[keep], minlength=counts.size) > kprime)[rows]
        at = at[in_tied]  # the other rows stay all -1.0, and nothing reads them
        filled = np.full(counts.size * width, -1.0)
        filled[at] = keys[in_tied]
        keep[in_tied] = _rank_first(filled.reshape(-1, width), kprime).reshape(-1)[at]
    return keep


def encode_batch(
    x: np.ndarray, cfg: CodecConfig, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode a (rows, d) matrix of binary/signed samples.

    ``keys`` are the subsample keys of :func:`subsample_mask`.  Returns
    ``(counts, payloads, kept_mask)`` where the first two columns are the
    message fields per row and ``kept_mask`` marks the subsampled support
    (the encoder-side view; :func:`decode_batch` returns it from the fields).
    """
    d, kprime = cfg.d, cfg.kprime
    x, keys = _sample_matrix(x, d), np.asarray(keys)
    nonzero = _nonzero(x)
    counts = np.count_nonzero(nonzero, axis=1).astype(np.int64)
    mask = _keep_largest_keys(nonzero, counts, kprime, keys)
    kept = np.minimum(counts, kprime)
    tables = _tables(d, kprime)
    payloads = tables.offsets[kept]
    ones = np.flatnonzero(mask)  # row-major: each row's kept columns ascending
    if ones.size:
        rows, cols = np.divmod(ones, d)
        ends = np.cumsum(kept)
        j = np.arange(ones.size) - (ends - kept)[rows] + 1  # each one's table row
        fits = tables.fits
        # the int64 part of each rank lies below C(d, J - 1); an int64
        # codebook adds straight into its payloads
        ranks = payloads if fits is tables.comb else np.zeros(payloads.size, dtype=np.int64)
        if len(fits) > kprime:  # every row fits
            np.add.at(ranks, rows, fits[j, cols])
        else:
            low = j < len(fits)
            np.add.at(ranks, rows[low], fits[j[low], cols[low]])
            high = ~low
            np.add.at(payloads, rows[high], tables.comb[j[high], cols[high]])
        if ranks is not payloads:
            payloads += ranks
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
    offsets = _tables(d, kprime).offsets
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
    return _unrank_rows(e, np.asarray(payloads, dtype=offsets.dtype) - low, d, kprime)


def _unrank_rows(e: np.ndarray, rem: np.ndarray, d: int, kprime: int) -> np.ndarray:
    """(rows, d) supports of the in-class ranks ``rem`` (tables' dtype) of
    popcount classes ``e``.  Step i unranks the i-th ones of all rows holding
    more than i ones; sorted by popcount, descending, they are a prefix.

    Step i searches comb-table row i + 1, in int64 on an int64 copy of the
    remainders once that row is one of the ``fits`` rows (:class:`_Tables`)."""
    order = np.argsort(-e, kind="stable")
    rem = rem[order]
    starts = order * d
    holding = np.cumsum(np.bincount(e)[::-1])[::-1]  # up to the widest row's class
    tables = _tables(d, kprime)
    table, fits = tables.comb, tables.fits
    flat = np.zeros(e.size * d, dtype=bool)
    for i in range(holding.size - 2, 0, -1):
        if table is not fits and i + 1 < len(fits):
            table, rem = fits, rem.astype(np.int64)
        active = holding[i + 1]
        col = table[i + 1, :d]
        c = col.searchsorted(rem[:active], side="right") - 1
        flat[starts[:active] + c] = True
        rem[:active] -= col[c]
    if holding.size > 1:  # the last one of each row is its remainder: comb(c, 1) == c
        active = holding[1]
        flat[starts[:active] + rem[:active].astype(np.intp, copy=False)] = True
    return flat.reshape(e.size, d)


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
