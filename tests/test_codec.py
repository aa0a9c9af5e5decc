"""Tests for the fixed-width sparse-support codec."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecomm import codec
from sparsecomm.codec import (
    BudgetTooSmall,
    LengthMismatch,
    MalformedMessage,
    Message,
    RankOutOfRange,
    SubsampledObservation,
    TooManyOnes,
    ceil_log2,
    codebook_size,
    decode,
    decode_batch,
    deserialize,
    encode,
    encode_batch,
    make_config,
    rank_sparse,
    serialize,
    subsample,
    subsample_mask,
    unrank_sparse,
)
from sparsecomm.model import Observation
from sparsecomm.seeding import substream

from oracles import colex_codebook, comb_walk_rank, comb_walk_unrank, double_argsort_mask


def all_observations(d):
    for m in range(d + 1):
        for sup in itertools.combinations(range(d), m):
            yield Observation(d, list(sup))


class TestMakeConfig:
    def test_d8_k10(self):
        cfg = make_config(8, 10)
        assert (cfg.header_bits, cfg.payload_bits, cfg.kprime) == (4, 6, 2)
        # C(8,0)+C(8,1)+C(8,2) = 37 <= 64 but adding C(8,3) = 56 overflows
        assert cfg.codebook == 37

    def test_header_alone_needs_more(self):
        with pytest.raises(BudgetTooSmall):
            make_config(2, 2)

    def test_large_d_small_k_is_degenerate(self):
        cfg = make_config(1024, 20)
        assert cfg.header_bits == 11
        assert cfg.payload_bits == 9
        assert cfg.kprime == 0
        assert cfg.degenerate

    def test_minimal_two_header_budget_is_never_degenerate(self):
        # With k = 2 * ceil(log2(d+1)) the payload always fits one index.
        for d in [2, 3, 8, 16, 31, 32, 33, 64, 100, 1024]:
            cfg = make_config(d, 2 * ceil_log2(d + 1))
            assert cfg.kprime >= 1

    def test_kprime_floor_guarantee(self):
        # kprime >= floor(payload_bits / ceil(log2(d+1))), capped at d: an
        # index list of that length always fits in the payload.
        for d in [2, 3, 5, 8, 12, 16, 31, 32, 33, 64, 100]:
            for k in range(ceil_log2(d + 1) + 1, 4 * ceil_log2(d + 1) + 8):
                cfg = make_config(d, k)
                floor = min(cfg.payload_bits // ceil_log2(d + 1), d)
                assert cfg.kprime >= floor

    def test_kprime_is_maximal(self):
        for d in [4, 8, 16, 32]:
            for k in range(ceil_log2(d + 1) + 1, 3 * ceil_log2(d + 1)):
                cfg = make_config(d, k)
                assert codebook_size(d, cfg.kprime) <= 2**cfg.payload_bits
                if cfg.kprime < d:
                    assert codebook_size(d, cfg.kprime + 1) > 2**cfg.payload_bits


class TestRanking:
    def test_exhaustive_table_d4(self):
        # popcount-ascending, colex within class:
        # {}, {0},{1},{2},{3}, {0,1},{0,2},{1,2},{0,3},{1,3},{2,3}
        expected = colex_codebook(4, 2)
        assert expected[5] == (0, 1) and expected[8] == (0, 3)
        for rank, sup in enumerate(expected):
            assert rank_sparse(sup, 4, 2) == rank
            assert tuple(unrank_sparse(rank, 4, 2)) == sup

    def test_last_rank_of_d8_codebook(self):
        assert rank_sparse([6, 7], 8, 2) == 36
        assert codebook_size(8, 2) == 37

    def test_empty_support_ranks_first(self):
        assert rank_sparse([], 12, 3) == 0
        assert unrank_sparse(0, 12, 3) == []

    def test_roundtrip_exhaustive(self):
        for d in range(2, 17):
            for kprime in range(0, (d if d <= 12 else 4) + 1):
                for rank, sup in enumerate(colex_codebook(d, kprime)):
                    assert rank_sparse(sup, d, kprime) == rank
                    assert tuple(unrank_sparse(rank, d, kprime)) == sup

    def test_too_many_ones(self):
        with pytest.raises(TooManyOnes):
            rank_sparse([0, 1, 2], 8, 2)

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            unrank_sparse(37, 8, 2)
        with pytest.raises(RankOutOfRange):
            unrank_sparse(-1, 8, 2)

    def test_unsorted_support_rejected(self):
        with pytest.raises(ValueError):
            rank_sparse([3, 1], 8, 2)

    def test_non_integral_input_rejected(self):
        with pytest.raises(TypeError):
            unrank_sparse(3.7, 8, 2)
        with pytest.raises(TypeError):
            unrank_sparse(np.float64(3.0), 8, 2)
        with pytest.raises(TypeError):
            unrank_sparse(True, 8, 2)
        with pytest.raises(TypeError):
            rank_sparse([1.5], 8, 2)
        with pytest.raises(TypeError):
            rank_sparse(np.array([1.0, 3.0]), 8, 2)
        with pytest.raises(TypeError):
            rank_sparse([False, True], 8, 2)
        with pytest.raises(TypeError):
            rank_sparse([0, True], 8, 2)
        # numpy ints and object-table (Python) ints are accepted
        assert unrank_sparse(np.int64(13), 8, 2) == [1, 3]
        assert unrank_sparse(np.array([13], dtype=object)[0], 8, 2) == [1, 3]
        assert rank_sparse(np.array([1, 3]), 8, 2) == 13
        assert rank_sparse(np.array([1, 3], dtype=np.uint8), 8, 2) == 13

    def test_table_caches_stay_bounded(self):
        caches = (codec._comb_table, codec._class_offsets, codec._comb_columns)
        cap = codec._comb_table.cache_info().maxsize
        assert all(cache.cache_info().maxsize == cap for cache in caches)
        assert cap >= 9  # the distinct (d, kprime) pairs of any shipped config
        first = codec._comb_table(40, 0).copy()
        first_columns = codec._comb_columns(40, 3)
        for kprime in range(cap + 5):
            codec._comb_columns(40, kprime)
            assert all(cache.cache_info().currsize <= cap for cache in caches)
        # rebuilt after eviction
        assert np.array_equal(codec._comb_table(40, 0), first)
        assert codec._comb_columns(40, 3) == first_columns


class TiedKeys:
    """A stand-in generator whose ``random`` returns fixed keys."""

    def __init__(self, keys):
        self.keys = np.array(keys)
        self.calls = 0

    def random(self, size):
        assert size == self.keys.size
        self.calls += 1
        return self.keys


class TestSubsample:
    def test_small_support_passes_through(self):
        cfg = make_config(16, 24)
        assert cfg.kprime >= 4
        obs = Observation(16, [1, 3])
        sub = subsample(obs, cfg, substream(0))
        assert sub.support.tolist() == [1, 3]
        assert sub.original_count == 2

    def test_empty_support(self):
        cfg = make_config(8, 10)
        sub = subsample(Observation(8, []), cfg, substream(0))
        assert sub.support.size == 0 and sub.original_count == 0

    def test_subsampled_is_subset_with_exact_size(self):
        cfg = make_config(8, 10)  # kprime=2
        obs = Observation(8, [0, 1, 2, 3, 4])
        rng = substream(1)
        for _ in range(200):
            sub = subsample(obs, cfg, rng)
            assert sub.original_count == 5
            assert sub.support.size == 2
            assert set(sub.support.tolist()) <= {0, 1, 2, 3, 4}

    def test_retention_frequency_is_kprime_over_count(self):
        # P(keep any given index) = 2/5; 1e5 draws within 0.01.
        draws = 100_000
        x = np.zeros((draws, 8), dtype=np.int8)
        x[:, :5] = 1
        mask = subsample_mask(x, 2, substream(2).random(x.shape))
        freq = mask[:, :5].mean(axis=0)
        assert np.all(np.abs(freq - 0.4) < 0.01)
        assert not mask[:, 5:].any()

    def test_every_subset_equally_likely(self):
        # All C(5,2)=10 subsets at frequency 0.1 +- 5*sqrt(0.1/N).
        draws = 100_000
        cfg = make_config(8, 10)
        x = np.zeros((draws, 8), dtype=np.int8)
        x[:, :5] = 1
        _, payloads, _ = encode_batch(x, cfg, substream(3).random(x.shape))
        _, counts = np.unique(payloads, return_counts=True)
        assert counts.size == 10
        tol = 5 * np.sqrt(0.1 / draws)
        assert np.all(np.abs(counts / draws - 0.1) < tol)

    def test_subsampled_support_must_hold_integers(self):
        for support in ([1.5, 2.7], [1.0, 2.0], [False, True]):
            with pytest.raises(ValueError, match="integers"):
                SubsampledObservation(8, support, 3)
        for support in ([], np.array([]), np.array([1, 3], dtype=np.uint8)):
            sub = SubsampledObservation(8, support, 3)
            assert sub.support.dtype == np.int64 and not sub.support.flags.writeable

    def test_tied_keys_keep_the_lower_positions(self):
        cfg = make_config(8, 10)  # kprime 2
        obs = Observation(8, [1, 2, 4, 6, 7])
        for keys, lower in [([0.5] * 5, [0, 1]), ([0.9, 0.5, 0.5, 0.5, 0.1], [0, 1])]:
            row = np.array([keys])
            mask = subsample_mask(np.ones((1, 5)), cfg.kprime, row)[0]
            assert np.array_equal(mask, double_argsort_mask(np.ones((1, 5)), cfg.kprime, row)[0])
            sub = subsample(obs, cfg, TiedKeys(keys))
            assert sub.support.tolist() == obs.support[lower].tolist() == obs.support[mask].tolist()


class TestEncodeDecode:
    def test_below_kprime_passthrough(self):
        cfg = make_config(8, 10)
        msg = encode(Observation(8, [2]), cfg, substream(0))
        assert msg.count == 1
        assert msg.payload_index == rank_sparse([2], 8, 2)

    def test_empty_is_all_zero_message(self):
        cfg = make_config(8, 10)
        msg = encode(Observation(8, []), cfg, substream(0))
        assert (msg.count, msg.payload_index) == (0, 0)
        sub = decode(msg, cfg)
        assert sub.support.size == 0 and sub.original_count == 0

    def test_decode_recovers_subset_and_count(self):
        cfg = make_config(8, 10)
        msg = Message(count=5, payload_index=rank_sparse([1, 6], 8, 2), bit_length=10)
        sub = decode(msg, cfg)
        assert sub.support.tolist() == [1, 6]
        assert sub.original_count == 5

    @pytest.mark.parametrize("d,k", [(6, 8), (8, 10), (10, 14), (12, 11)])
    def test_roundtrip_contract_exhaustive(self, d, k):
        cfg = make_config(d, k)
        rng = substream(5)
        for obs in all_observations(d):
            sub = decode(encode(obs, cfg, rng), cfg)
            assert sub.original_count == obs.count
            assert set(sub.support.tolist()) <= set(obs.support.tolist())
            assert sub.support.size == min(obs.count, cfg.kprime)

    def test_degenerate_config_still_roundtrips_counts(self):
        # kprime=0 carries only the count; the contract still holds.
        cfg = make_config(4, 4)
        assert cfg.degenerate
        rng = substream(10)
        for obs in all_observations(4):
            msg = encode(obs, cfg, rng)
            assert (msg.count, msg.payload_index) == (obs.count, 0)
            sub = decode(msg, cfg)
            assert sub.original_count == obs.count
            assert sub.support.size == 0

    def test_malformed_messages_rejected(self):
        cfg = make_config(8, 10)
        with pytest.raises(MalformedMessage):
            decode(Message(9, 0, 10), cfg)
        with pytest.raises(MalformedMessage):
            decode(Message(1, 37, 10), cfg)
        with pytest.raises(MalformedMessage):
            # count 5 forces min(count, kprime)=2 ones, payload has 1
            decode(Message(5, rank_sparse([1], 8, 2), 10), cfg)


class TestEncodeMatchesSubsample:
    """Scalar ``encode`` sends the count and the rank of the support that
    ``subsample`` keeps, drawing the same keys from the same generator."""

    # the codec_roundtrip benchmark points, then kprime = 2, kprime = d and kprime = 0
    POINTS = [(d, k) for d in (16, 64, 256) for k in (24, 48, 96)] + [(8, 10), (4, 8), (8, 5)]

    @staticmethod
    def expected(obs, cfg, rng):
        sub = subsample(obs, cfg, rng)
        assert sub.original_count == obs.count
        return Message(obs.count, rank_sparse(sub.support.tolist(), cfg.d, cfg.kprime), cfg.k)

    def test_random_supports(self):
        assert [make_config(d, k).kprime for d, k in self.POINTS[-3:]] == [2, 4, 0]
        for i, (d, k) in enumerate(self.POINTS):
            cfg = make_config(d, k)
            draw = substream(40, i)
            rng, replay = substream(41, i), substream(41, i)
            for p in (0.0, 0.02, 0.1, 0.5, 0.9, 1.0):
                for _ in range(12):
                    obs = Observation(d, np.flatnonzero(draw.random(d) < p))
                    assert encode(obs, cfg, rng) == self.expected(obs, cfg, replay)
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_tied_keys(self):
        for d, k in self.POINTS:
            cfg = make_config(d, k)
            m = min(d, cfg.kprime + 3)
            obs = Observation(d, np.arange(d - m, d))
            half = np.where(np.arange(m) % 2, 0.25, 0.5)
            for keys in (np.full(m, 0.5), half, half[::-1]):
                ours, theirs = TiedKeys(keys), TiedKeys(keys)
                assert encode(obs, cfg, ours) == self.expected(obs, cfg, theirs)
                assert ours.calls == theirs.calls == int(m > cfg.kprime > 0)


class TestSerialization:
    def test_count_above_d_rejected(self):
        cfg = make_config(8, 10)  # a 4-bit header could hold counts up to 15
        for count in (9, 12, -1):
            with pytest.raises(MalformedMessage):
                serialize(Message(count, 0, 10), cfg)
        # count 8 > kprime = 2: the payload ranks a two-ones vector (ranks 9..36)
        assert serialize(Message(8, 9, 10), cfg) == "1000" + "001001"

    def test_payload_outside_codebook_rejected(self):
        cfg = make_config(8, 10)  # 37 codewords, a 6-bit payload field holds 64
        for payload in (cfg.codebook, 40, 63, -1):
            with pytest.raises(MalformedMessage, match="outside codebook"):
                serialize(Message(0, payload, 10), cfg)
        last = Message(2, cfg.codebook - 1, 10)
        assert deserialize(serialize(last, cfg), cfg) == last

    def test_payload_popcount_must_match_count(self):
        cfg = make_config(8, 10)  # kprime 2; ranks 0 | 1..8 | 9..36 have 0 | 1 | 2 ones
        for count, payload in [(5, 0), (5, 8), (1, 0), (1, 9), (0, 1), (2, 8)]:
            with pytest.raises(MalformedMessage, match="ones count"):
                serialize(Message(count, payload, 10), cfg)
        for count, payload in [(5, 9), (2, 36), (1, 1), (1, 8), (0, 0)]:
            msg = Message(count, payload, 10)
            sub = decode(deserialize(serialize(msg, cfg), cfg), cfg)
            assert sub.support.size == min(count, cfg.kprime)

    def test_fixed_width_example(self):
        cfg = make_config(8, 10)
        assert serialize(Message(5, 36, 10), cfg) == "0101" + "100100"

    def test_all_zero_message(self):
        cfg = make_config(8, 10)
        assert serialize(Message(0, 0, 10), cfg) == "0" * 10

    def test_every_message_is_exactly_k_bits(self):
        for d, k in [(5, 8), (8, 10), (12, 20)]:
            cfg = make_config(d, k)
            rng = substream(6)
            for obs in itertools.islice(all_observations(d), 200):
                bits = serialize(encode(obs, cfg, rng), cfg)
                assert len(bits) == k

    def test_roundtrip_fuzz(self):
        cfg = make_config(12, 17)
        offsets = codec._class_offsets(cfg.d, cfg.kprime)
        rng = substream(7)
        for _ in range(10_000):
            count = int(rng.integers(0, cfg.d + 1))
            e = min(count, cfg.kprime)  # the payload ranks a vector of e ones
            payload = int(rng.integers(offsets[e], offsets[e + 1]))
            msg = Message(count, payload, cfg.k)
            assert deserialize(serialize(msg, cfg), cfg) == msg

    def test_length_mismatch(self):
        cfg = make_config(8, 10)
        with pytest.raises(LengthMismatch):
            deserialize("0" * 9, cfg)
        with pytest.raises(LengthMismatch):
            deserialize("0" * 11, cfg)

    def test_non_bit_characters_rejected(self):
        cfg = make_config(8, 10)
        with pytest.raises(MalformedMessage):
            deserialize("01x0100100", cfg)


def _outcome(call):
    """What ``call()`` returns, or the text of the MalformedMessage it raises."""
    try:
        return True, call()
    except MalformedMessage as exc:
        return False, str(exc)


class TestMessageContract:
    """``serialize``, ``decode`` and ``decode_batch`` enforce one message rule
    with one set of error texts."""

    @pytest.mark.parametrize(
        "check,accepted",
        [(lambda msg, cfg: decode(msg, cfg).support.tolist(), [0]),
         (serialize, "0001" + "000001")],
        ids=["decode", "serialize"],
    )
    def test_non_integral_fields_rejected(self, check, accepted):
        cfg = make_config(8, 10)
        for msg in (Message(1.0, 1, 10), Message(1, 1, 10.0), Message(1, 1.0, 10),
                    Message(True, 1, 10), Message(1, True, 10), Message(1, 1, True)):
            with pytest.raises(MalformedMessage, match="^message fields must be integers: "):
                check(msg, cfg)
        assert check(Message(np.int64(1), np.int64(1), 10), cfg) == accepted

    # int64 ranks, degenerate (kprime = 0), Python-int ranks
    @pytest.mark.parametrize("d,k", [(8, 10), (4, 4), (256, 96)])
    def test_every_path_accepts_and_rejects_the_same_messages(self, d, k):
        cfg = make_config(d, k)
        kprime = cfg.kprime
        table = codec._class_offsets(d, kprime)
        offsets = table.tolist()
        counts = sorted({-1, 0, 1, kprime, kprime + 1, d, d + 1})
        edges = {-1, cfg.codebook}
        for e in range(kprime + 1):
            edges |= {offsets[e] - 1, offsets[e], offsets[e + 1] - 1, offsets[e + 1]}
        accepted = 0
        for count, payload in itertools.product(counts, sorted(edges)):
            msg = Message(count, payload, k)
            ok, bits = _outcome(lambda: serialize(msg, cfg))
            scalar = _outcome(lambda: decode(msg, cfg))
            batch = _outcome(lambda: decode_batch(
                np.array([count]), np.array([payload], dtype=table.dtype), cfg))
            assert ok == scalar[0] == batch[0], msg
            if not ok:
                assert bits == scalar[1] == batch[1], msg
                continue
            accepted += 1
            e = min(count, kprime)
            assert offsets[e] <= payload < offsets[e + 1]
            assert np.flatnonzero(batch[1][0]).tolist() == scalar[1].support.tolist()
            assert scalar[1].support.size == e and scalar[1].original_count == count
            assert deserialize(bits, cfg) == msg
        assert accepted > 0

    def test_error_texts(self):
        cfg = make_config(8, 10)  # kprime 2; ranks 0 | 1..8 | 9..36 have 0 | 1 | 2 ones
        for msg, text in [
            (Message(5, 8, 10), "payload 8 does not have the 2 ones count 5 implies"),
            (Message(1, 40, 10), "payload 40 outside codebook"),
            (Message(9, 0, 10), "count 9 outside [0, 8]"),
            (Message(-1, 40, 10), "count -1 outside [0, 8]"),
            (Message(1, 1, 11), "bit length 11 != k=10"),
            (Message(1, 40, 11), "bit length 11 != k=10"),
        ]:
            for check in (serialize, decode):
                with pytest.raises(MalformedMessage) as info:
                    check(msg, cfg)
                assert str(info.value) == text
            if msg.bit_length == cfg.k:  # the first bad row is named, not the last
                with pytest.raises(MalformedMessage) as info:
                    decode_batch([1, msg.count, 9], [1, msg.payload_index, 0], cfg)
                assert str(info.value) == text


class TestBatchEquivalence:
    """The vectorized batch paths must agree with the scalar codec."""

    @pytest.mark.parametrize("d,k", [(4, 6), (6, 8), (8, 10), (10, 12)])
    def test_batch_rank_matches_scalar(self, d, k):
        cfg = make_config(d, k)
        supports = [sup for sup in all_observations(d) if sup.count <= cfg.kprime]
        x = np.zeros((len(supports), d), dtype=np.int8)
        for i, obs in enumerate(supports):
            x[i, obs.support] = 1
        counts, payloads, mask = encode_batch(x, cfg, substream(8).random(x.shape))
        for i, obs in enumerate(supports):
            # below kprime: no subsampling, payload must equal the exact rank
            assert counts[i] == obs.count
            assert payloads[i] == rank_sparse(obs.support.tolist(), d, cfg.kprime)
            assert np.array_equal(np.flatnonzero(mask[i]), obs.support)

    def test_batch_encode_takes_one_key_per_entry(self):
        cfg = make_config(8, 8)  # kprime 1: each all-ones row keeps one random position
        x = np.ones((3, 8), dtype=np.int8)
        keys = substream(4).random(x.shape)
        for bad in (keys[:1], keys[0], keys[:, :1], keys[:2]):  # (1, 8) (8,) (3, 1) (2, 8)
            with pytest.raises(ValueError, match="keys of shape"):
                encode_batch(x, cfg, bad)
            with pytest.raises(ValueError, match="keys of shape"):
                subsample_mask(x, cfg.kprime, bad)
        _, payloads, _ = encode_batch(x, cfg, keys)
        assert payloads.tolist() == [1 + int(np.argmax(row)) for row in keys]

    def test_batch_encode_takes_lists(self):
        cfg = make_config(8, 10)
        rng = substream(6)
        x = (rng.random((5, 8)) < 0.5).astype(np.int8)
        x[0] = [1, 0, 0, 0, 0, 0, 0, 1]
        keys = rng.random(x.shape)
        expected = encode_batch(x, cfg, keys)
        for rows in (x.tolist(), x):
            got = encode_batch(rows, cfg, keys.tolist())
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        with pytest.raises(ValueError, match="keys of shape"):
            encode_batch(x.tolist(), cfg, keys[:1].tolist())

    @pytest.mark.parametrize("shape", [(8,), (2, 3, 8), (2, 8, 8)])
    def test_batch_entry_points_take_only_matrices(self, shape):
        """Anything but a (rows, d) matrix fails at the entry, naming its
        shape, even when its keys have the same shape."""
        cfg = make_config(8, 10)
        x, keys = np.ones(shape, dtype=np.int8), substream(2).random(shape)
        message = re.escape(f"samples of shape {shape} are not a (rows, ")
        with pytest.raises(ValueError, match=message + r"8\) matrix"):
            encode_batch(x, cfg, keys)
        with pytest.raises(ValueError, match=message + r"d\) matrix"):
            subsample_mask(x, cfg.kprime, keys)

    @pytest.mark.parametrize("d,k", [(8, 10), (256, 96)])  # int64 ranks, Python-int ranks
    def test_batch_decode_takes_empty_lists(self, d, k):
        cfg = make_config(d, k)
        for counts, payloads in ([], []), ((), ()), (np.array([], int), []):
            mask = decode_batch(counts, payloads, cfg)
            assert mask.shape == (0, d) and mask.dtype == bool
        for counts, payloads, name in (
            ([True], [1], "counts of dtype bool"),
            ([1.0], [1], "counts of dtype float64"),
            ([1], [1.0], "payloads of dtype"),
        ):
            with pytest.raises(MalformedMessage, match=f"must be integers: {name}"):
                decode_batch(counts, payloads, cfg)

    @pytest.mark.parametrize("d,k", [(4, 6), (8, 10), (10, 12)])
    def test_batch_decode_matches_comb_walk_unrank(self, d, k):
        cfg = make_config(d, k)
        ranks = np.arange(cfg.codebook, dtype=np.int64)
        counts = np.array([len(sup) for sup in colex_codebook(d, cfg.kprime)])
        mask = decode_batch(counts, ranks, cfg)
        for rank in ranks:
            assert np.flatnonzero(mask[rank]).tolist() == comb_walk_unrank(
                int(rank), d, cfg.kprime
            )

    @pytest.mark.parametrize("widest", [0, 1, 2])
    def test_batch_decode_below_kprime_matches_comb_walk_unrank(self, widest):
        # the unrank loop stops at the widest row's popcount class, here below kprime
        cfg = make_config(20, 18)
        assert cfg.kprime > widest + 1
        supports = colex_codebook(cfg.d, widest)
        counts = np.array([len(sup) for sup in supports])
        mask = decode_batch(counts, np.arange(len(supports), dtype=np.int64), cfg)
        assert mask.shape == (len(supports), cfg.d)
        for rank, row in enumerate(mask):
            assert np.flatnonzero(row).tolist() == comb_walk_unrank(rank, cfg.d, cfg.kprime)

    def test_batch_subsampling_obeys_kept_size(self):
        cfg = make_config(8, 10)
        rng = substream(9)
        x = (rng.random((500, 8)) < 0.5).astype(np.int8)
        counts, payloads, mask = encode_batch(x, cfg, rng.random(x.shape))
        kept = mask.sum(axis=1)
        assert np.array_equal(kept, np.minimum(counts, cfg.kprime))
        assert np.all(mask <= (x != 0))
        decoded = decode_batch(counts, payloads, cfg)
        assert np.array_equal(decoded, mask)

    def test_batch_payload_out_of_range(self):
        cfg = make_config(8, 10)
        with pytest.raises(MalformedMessage):
            decode_batch(np.array([1]), np.array([37]), cfg)

    @pytest.mark.parametrize(
        "counts,payloads",
        [
            ([1], [3.7]),
            ([1.0], [3]),
            ([1.5], [3]),
            ([True], [3]),
            ([1], [True]),
            ([1], np.array([3.0], dtype=object)),
            ([1], np.array([True], dtype=object)),
        ],
    )
    def test_batch_decode_rejects_fields_that_decode_rejects(self, counts, payloads):
        cfg = make_config(8, 10)  # kprime=2; rank 3 is the support {2}
        with pytest.raises(MalformedMessage, match="must be integers"):
            decode_batch(np.asarray(counts), np.asarray(payloads), cfg)
        with pytest.raises(MalformedMessage, match="must be integers"):
            decode(Message(counts[0], payloads[0], cfg.k), cfg)
        for count, payload in ([1], [3]), (np.array([1], np.uint8), np.array([3], object)):
            mask = decode_batch(np.asarray(count), np.asarray(payload), cfg)
            assert np.flatnonzero(mask[0]).tolist() == [2]

    def test_batch_decode_takes_python_int_payloads_past_int64(self):
        cfg = make_config(64, 96)  # saturated Python-int codebook: rank 2^64 - 1 is all ones
        assert codec._class_offsets(cfg.d, cfg.kprime).dtype == object
        payloads = [2**64 - 1, 5]  # as a list, numpy alone would infer float64
        for form in (payloads, np.array(payloads, dtype=object)):
            mask = decode_batch([64, 1], form, cfg)
            assert mask.sum(axis=1).tolist() == [64, 1]
            assert np.flatnonzero(mask[1]).tolist() == comb_walk_unrank(5, 64, cfg.kprime)
        for bad in ([2**64 - 1, 5.0], [2**64 - 1, True], [1.0, 5], [True, 5]):
            for form in (bad, np.array(bad, dtype=object)):
                with pytest.raises(MalformedMessage, match="must be integers"):
                    decode_batch([64, 1], form, cfg)

    @pytest.mark.parametrize("d,k", [(8, 10), (256, 96)])  # int64 ranks, Python-int ranks
    def test_batch_decode_enforces_the_message_contract(self, d, k):
        cfg = make_config(d, k)
        support = list(range(1, 2 * cfg.kprime, 2))  # kprime ones
        full = np.array([rank_sparse(support, d, cfg.kprime)] * 2, dtype=object)
        subsampled = cfg.kprime + 3
        mask = decode_batch(np.array([subsampled, cfg.kprime]), full, cfg)
        assert np.flatnonzero(mask[0]).tolist() == np.flatnonzero(mask[1]).tolist() == support
        for count in (-1, d + 1):
            with pytest.raises(MalformedMessage):
                decode_batch(np.array([subsampled, count]), full, cfg)
        with pytest.raises(MalformedMessage):
            # count 1 implies one decoded one; the payload names kprime >= 2
            decode_batch(np.array([subsampled, 1]), full, cfg)
        # counts and payloads must be 1-d arrays of equal length
        for counts, payloads in ([1, 1], [3]), ([1], [3, 4]), ([[1]], [[3]]), (1, 3):
            with pytest.raises(MalformedMessage, match="1-d arrays of equal length"):
                decode_batch(counts, payloads, cfg)


# Codebooks past 2^62 vectors, as (d, k, kprime, J): the batch paths keep
# Python ints only for the class offsets and the comb-table rows j >= J
# (``codec._int64_rows``).
WIDE = [
    (64, 96, 64, 65),  # the 2^64 codebook: every row fits int64
    (256, 96, 17, 11),  # 87 bits: rows 11..17 are Python ints
    (256, 72, 11, 11),  # exactly one Python-int row
    (128, 72, 15, 15),
    (66, 72, 32, 30),
]


def wide_supports(d, kprime, seed):
    """The supports of the first and last rank of every popcount class, of
    random ranks, and random supports of any size up to d (those above
    kprime get subsampled)."""
    offsets = list(itertools.accumulate((math.comb(d, m) for m in range(kprime + 1)), initial=0))
    draw = random.Random(seed)
    ranks = [r for m in range(kprime + 1) for r in (offsets[m], offsets[m + 1] - 1)]
    ranks += [draw.randrange(offsets[-1]) for _ in range(20)]
    supports = [comb_walk_unrank(r, d, kprime) for r in ranks]
    return supports + [sorted(draw.sample(range(d), draw.randint(0, d))) for _ in range(20)]


def support_matrix(d, supports):
    x = np.zeros((len(supports), d), dtype=bool)
    for row, support in zip(x, supports):
        row[support] = True
    return x


class TestWideCodebooks:
    """Past int64, rank and unrank against the math.comb walks of
    ``tests/oracles.py``, which share no table with the package."""

    @pytest.mark.parametrize("d,k,kprime,fits", WIDE)
    def test_int64_rows_are_the_rows_that_fit(self, d, k, kprime, fits):
        cfg = make_config(d, k)
        assert cfg.kprime == kprime and cfg.codebook > 2**62
        rows = codec._int64_rows(d, kprime)
        assert rows.dtype == np.int64 and len(rows) == fits
        assert all(math.comb(d, j) <= 2**62 for j in range(fits))
        assert fits == kprime + 1 or math.comb(d, fits) > 2**62
        assert rows.tolist() == codec._comb_table(d, kprime)[:fits].tolist()
        table = codec._comb_table(256, 10)  # an int64 codebook keeps its one table
        assert codec._int64_rows(256, 10) is table and table.dtype == np.int64

    @pytest.mark.parametrize("poison", [False, True])
    @pytest.mark.parametrize(
        "d,k,kprime,fits", WIDE + [(256, 71, 10, 11)]  # and the largest int64 codebook at d = 256
    )
    def test_batch_paths_match_the_comb_walk(self, d, k, kprime, fits, poison, monkeypatch):
        """With ``poison`` the object table's rows below J read -1, so a step
        that left int64 too late gives a wrong rank or support, and one that
        took it too early reads past the int64 rows."""
        cfg = make_config(d, k)
        supports = wide_supports(d, kprime, seed=d + k)
        x = support_matrix(d, supports)
        keys = substream(d, k).random(x.shape)
        if poison and cfg.codebook > 2**62:
            codec._int64_rows(d, kprime)  # cached from the true table
            poisoned = codec._comb_table(d, kprime).copy()
            poisoned[:fits] = -1
            monkeypatch.setattr(codec, "_comb_table", lambda *_: poisoned)
        counts, payloads, mask = encode_batch(x, cfg, keys)
        kept = [np.flatnonzero(row).tolist() for row in mask]
        for support, ones in zip(supports, kept):
            assert ones == support if len(support) <= kprime else len(ones) == kprime
        assert payloads.tolist() == [comb_walk_rank(ones, d, kprime) for ones in kept]
        if cfg.codebook > 2**62:
            assert payloads.dtype == object and {p.__class__ for p in payloads} == {int}
        else:
            assert payloads.dtype == np.int64
        decoded = decode_batch(counts, payloads, cfg)
        assert [np.flatnonzero(row).tolist() for row in decoded] == kept
        assert kept == [comb_walk_unrank(rank, d, kprime) for rank in payloads.tolist()]

    @pytest.mark.parametrize("d,k,kprime,fits", WIDE)
    def test_scalar_paths_agree_with_the_batch_paths(self, d, k, kprime, fits):
        cfg = make_config(d, k)
        supports = wide_supports(d, kprime, seed=d * k)
        x, keys, messages = support_matrix(d, supports), np.zeros((len(supports), d)), []
        for i, support in enumerate(supports):
            rng, replay = substream(d, k, i), substream(d, k, i)
            messages.append(encode(Observation(d, support), cfg, rng))
            if len(support) > kprime:  # the keys scalar encode drew, in support order
                keys[i, support] = replay.random(len(support))
        counts, payloads, _ = encode_batch(x, cfg, keys)
        assert [(msg.count, msg.payload_index) for msg in messages] == list(
            zip(counts.tolist(), payloads.tolist())
        )
        for msg, row in zip(messages, decode_batch(counts, payloads, cfg)):
            support = np.flatnonzero(row).tolist()
            assert msg.payload_index.__class__ is int
            assert rank_sparse(support, d, kprime) == msg.payload_index
            assert unrank_sparse(msg.payload_index, d, kprime) == support
            assert decode(msg, cfg).support.tolist() == support


@st.composite
def mask_cases(draw):
    """(x, kprime, keys): rows of up to d ones, row 0 all zero, keys drawn
    from a few values so that ties at the threshold are common."""
    d = draw(st.integers(2, 24))
    rows = draw(st.integers(1, 8))
    x = np.array(draw(st.lists(st.booleans(), min_size=rows * d, max_size=rows * d)))
    x = x.reshape(rows, d).astype(np.int8)
    x[0] = 0
    pool = st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75]) | st.floats(0.0, 1.0, exclude_max=True)
    keys = np.array(draw(st.lists(pool, min_size=rows * d, max_size=rows * d)))
    return x, draw(st.integers(0, d + 1)), keys.reshape(rows, d)


@pytest.mark.slow
class TestSubsampleMaskProperty:
    @settings(max_examples=300, deadline=None)
    @given(mask_cases())
    @example((np.array([[1, 1, 1, 1], [0, 1, 1, 0], [0, 0, 0, 0]]), 2, np.full((3, 4), 0.5)))
    @example((np.array([[1, 1, 1, 1], [0, 1, 0, 0]]), 0, np.full((2, 4), 0.25)))
    def test_threshold_mask_equals_full_ranking(self, case):
        x, kprime, keys = case
        mask = subsample_mask(x, kprime, keys)
        assert np.array_equal(mask, double_argsort_mask(x, kprime, keys))


@st.composite
def packed_cases(draw):
    """(x, kprime, keys): up to 8 rows of width d >= 2, some of them empty,
    keys from four values so that ties at the threshold are common, and
    kprime at 0, 1, the widest row's count or above, d or above, or any."""
    d = draw(st.integers(2, 20))
    rows = draw(st.integers(0, 8))
    cells = st.lists(st.booleans(), min_size=rows * d, max_size=rows * d)
    x = np.array(draw(cells), dtype=bool).reshape(rows, d)
    x[draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=rows))] = False
    pool = st.sampled_from([0.0, 0.25, 0.5, 0.75])
    keys = np.array(draw(st.lists(pool, min_size=rows * d, max_size=rows * d)))
    widest = int(x.sum(axis=1).max(initial=0))
    kprime = draw(
        st.sampled_from([0, 1])
        | st.integers(widest, widest + 2)
        | st.integers(d, d + 2)
        | st.integers(0, d)
    )
    return x, kprime, keys.reshape(rows, d)


class TestPackedSelection:
    """``_keep_largest_packed`` keeps, in the packed layout, exactly the
    positions the dense ``_keep_largest_keys`` marks.  Keys drawn with
    ``random`` almost never tie, so planted ties here are the only pin of
    the packed tie re-ranking."""

    @pytest.mark.slow
    @settings(max_examples=400, deadline=None)
    @given(packed_cases())
    @example((np.ones((2, 4), dtype=bool), 2, np.full((2, 4), 0.5)))  # every row tied
    @example((np.zeros((0, 5), dtype=bool), 2, np.zeros((0, 5))))  # no rows
    @example((np.array([[True, True], [False, False]]), 1, np.full((2, 2), 0.25)))  # d = 2
    def test_packed_keeps_the_dense_mask(self, case):
        x, kprime, keys = case
        dense = codec._keep_largest_keys(x, x.sum(axis=1), kprime, keys)
        assert np.array_equal(self.packed_kept(x, kprime, keys), np.flatnonzero(dense))
        assert np.array_equal(dense, double_argsort_mask(x, kprime, keys))

    def test_tied_rows_keep_their_lowest_positions(self):
        x = np.array([[True, True, True, True], [False, True, True, True], [True] * 4])
        keys = np.array([[0.5] * 4, [0.0, 0.25, 0.25, 0.25], [0.75, 0.25, 0.75, 0.75]])
        kept = self.packed_kept(x, 2, keys)
        assert np.divmod(kept, 4)[1].tolist() == [0, 1, 1, 2, 0, 2]

    @staticmethod
    def packed_kept(x, kprime, keys):
        """The flat indices that the packed selection keeps of ``x``'s ones."""
        ones = np.flatnonzero(x)
        rows = ones // x.shape[1]
        counts = np.bincount(rows, minlength=x.shape[0])
        return ones[codec._keep_largest_packed(rows, counts, kprime, keys.reshape(-1)[ones])]


def where_padded_selection(nonzero, kprime, keys):
    """The keep-largest-keys rule on rows padded by ``np.where(nonzero, keys,
    -1.0)``, in the dtype that promotes to: a row keeps the keys that reach
    its kprime-th largest, and where ties would keep more than kprime, the
    kprime first by a stable descending sort."""
    d = nonzero.shape[1]
    if kprime == 0 or kprime >= d:
        return nonzero & (kprime > 0)
    filled = np.where(nonzero, keys, -1.0)
    mask = nonzero & (filled >= np.sort(filled, axis=1)[:, [d - kprime]])
    ranked = np.argsort(np.argsort(-filled, axis=1, kind="stable"), axis=1) < kprime
    tied = mask.sum(axis=1) > kprime
    mask[tied] = nonzero[tied] & ranked[tied]
    return mask


# Keys off the support that a padding must ignore: non-finite, a negative
# zero, and values above and below every key on the support.
OFF_SUPPORT_KEYS = [np.inf, -np.inf, np.nan, -0.0, 5.0, -3.0]


@st.composite
def padding_cases(draw, min_d=1):
    """(x, kprime, keys): up to 6 boolean rows (0 included) of width
    ``min_d`` to 12; float64, float32 or int keys, on the support from a
    few values so that ties at the threshold are common, and off it from
    ``OFF_SUPPORT_KEYS`` (ints: values above, below and between them)."""
    d = draw(st.integers(min_d, 12))
    rows = draw(st.integers(0, 6))
    size = rows * d
    x = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    if dtype is np.int64:
        on, off = st.sampled_from([0, 1, 2, 2, 3]), st.sampled_from([5, -3, 0, 2, 2**62])
    else:
        on = st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75]) | st.floats(0.0, 1.0, exclude_max=True)
        off = st.sampled_from(OFF_SUPPORT_KEYS)
    on_keys = np.array(draw(st.lists(on, min_size=size, max_size=size)), dtype=dtype)
    off_keys = np.array(draw(st.lists(off, min_size=size, max_size=size)), dtype=dtype)
    keys = np.where(x, on_keys, off_keys).reshape(rows, d)
    kprime = draw(st.sampled_from([0, 1]) | st.integers(d, d + 2) | st.integers(0, d))
    return x.reshape(rows, d), kprime, keys


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestWherePadding:
    """The dense selection pads its rows by a bitwise select; it must select
    what ``np.where(nonzero, keys, -1.0)`` padding selects, whatever the
    keys off the support hold, and warn about none of them."""

    @settings(max_examples=300, deadline=None)
    @given(padding_cases())
    @example((np.ones((2, 4), dtype=bool), 2, np.full((2, 4), 0.5)))  # every row tied
    @example((np.zeros((0, 3), dtype=bool), 1, np.zeros((0, 3))))  # no rows
    @example((np.array([[True], [False]]), 1, np.array([[0.5], [np.inf]])))  # d = 1
    @example(
        (np.array([[True, False, True, False, True, False, True]]), 2,
         np.array([[0.5, np.inf, 0.5, np.nan, 0.25, -np.inf, -0.0]]))
    )
    def test_selection_matches_the_where_padding(self, case):
        x, kprime, keys = case
        expected = where_padded_selection(x, kprime, keys)
        assert np.array_equal(codec._keep_largest_keys(x, x.sum(axis=1), kprime, keys), expected)
        assert np.array_equal(
            codec._padded_keys(x, keys).view(np.int64),
            np.where(x, keys, -1.0).astype(np.float64).view(np.int64),
        )

    @settings(max_examples=200, deadline=None)
    @given(padding_cases(min_d=2), st.data())
    def test_encode_batch_matches_the_where_padding(self, case, data):
        x, _, keys = case
        d = x.shape[1]
        header = ceil_log2(d + 1)
        cfg = make_config(d, data.draw(st.integers(header + 1, header + d), label="k"))
        expected = where_padded_selection(x, cfg.kprime, keys)
        ranks = [rank_sparse(np.flatnonzero(row).tolist(), d, cfg.kprime) for row in expected]
        for given_keys in (keys, keys.tolist()) if len(x) else (keys,):
            counts, payloads, mask = encode_batch(x, cfg, given_keys)
            assert np.array_equal(mask, expected)
            assert counts.tolist() == x.sum(axis=1).tolist()
            assert [int(p) for p in payloads] == ranks


@st.composite
def codec_cases(draw):
    """(d, k, rows, seed): any admissible budget up to codebook saturation at
    d <= 256, so codebooks above 2^62 (Python-int ranks) come up often, and
    0 to 4 rows."""
    d = draw(st.integers(2, 256))
    header = ceil_log2(d + 1)
    k = draw(st.integers(header + 1, header + d))
    return d, k, draw(st.integers(0, 4)), draw(st.integers(0, 2**32))


class TestCodecProperty:
    @settings(max_examples=200, deadline=None)
    @given(codec_cases(), st.booleans())
    @example((256, 71, 3, 0), False)  # the largest int64 codebook at d=256
    @example((256, 72, 3, 0), True)  # the smallest Python-int codebook at d=256
    @example((4, 4, 3, 0), False)  # degenerate: kprime = 0
    @example((16, 12, 0, 0), True)  # no rows
    def test_batch_scalar_and_serialized_codec_agree(self, case, as_lists):
        d, k, rows, seed = case
        cfg = make_config(d, k)
        inputs = substream(seed)
        x = (inputs.random((rows, d)) < inputs.random((rows, 1))).astype(np.int8)
        keys = substream(seed, 1).random(x.shape)
        if as_lists and rows:  # an empty list has no row width
            x, keys = x.tolist(), keys.tolist()
        counts, payloads, mask = encode_batch(x, cfg, keys)
        kept = [np.flatnonzero(row).tolist() for row in mask]
        assert [int(p) for p in payloads] == [rank_sparse(sup, d, cfg.kprime) for sup in kept]

        ranks = [random.Random(seed + i).randrange(cfg.codebook) for i in range(rows)]
        ones = [len(comb_walk_unrank(r, d, cfg.kprime)) for r in ranks]
        fields = [*counts.tolist(), *ones], [*map(int, payloads), *ranks]
        if not as_lists:
            fields = np.array(fields[0], dtype=np.int64), np.array(fields[1], dtype=object)
        decoded = decode_batch(*fields, cfg)
        assert [np.flatnonzero(row).tolist() for row in decoded] == kept + [
            comb_walk_unrank(r, d, cfg.kprime) for r in ranks
        ]

        for i in range(rows):
            obs = Observation(d, np.flatnonzero(x[i]))
            rng, replay = substream(seed, 2 + i), substream(seed, 2 + i)
            sub = subsample(obs, cfg, rng)
            m = obs.count
            keys = replay.random((1, m)) if m > cfg.kprime > 0 else np.zeros((1, m))
            expected = obs.support[double_argsort_mask(np.ones((1, m)), cfg.kprime, keys)[0]]
            assert sub.support.tolist() == expected.tolist() and sub.original_count == m
            assert rng.random() == replay.random()  # the same number of keys drawn
            for msg in (encode(obs, cfg, rng), Message(ones[i], ranks[i], k)):
                assert deserialize(serialize(msg, cfg), cfg) == msg


class TestScalarRankingOracle:
    """Scalar rank/unrank against the math.comb walk of ``tests/oracles.py``,
    which shares no table with the package."""

    @settings(max_examples=100, deadline=None)
    @given(codec_cases())
    @example((256, 71, 3, 0))  # the largest int64 codebook at d=256
    @example((256, 72, 3, 0))  # the smallest Python-int codebook at d=256
    @example((256, 265, 3, 0))  # codebook saturation: kprime = d
    @example((4, 4, 3, 0))  # degenerate: kprime = 0
    def test_scalar_ranking_matches_the_comb_walk(self, case):
        d, k, rows, seed = case
        kprime = make_config(d, k).kprime
        offsets = list(itertools.accumulate((math.comb(d, m) for m in range(kprime + 1)), initial=0))
        draw = random.Random(seed)
        ranks = {0, offsets[-1] - 1}
        ranks.update(draw.randrange(offsets[-1]) for _ in range(8 * rows))
        ranks.update(offsets[m] for m in range(kprime + 1))  # first rank of each class
        ranks.update(offsets[m] - 1 for m in range(1, kprime + 1))  # last of the one below
        for rank in sorted(ranks):
            support = comb_walk_unrank(rank, d, kprime)
            assert unrank_sparse(rank, d, kprime) == support
            assert rank_sparse(support, d, kprime) == rank == comb_walk_rank(support, d, kprime)
