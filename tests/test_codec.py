"""Tests for the fixed-width sparse-support codec."""

import itertools
import math
import random

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
        class TiedKeys:
            def __init__(self, keys):
                self.keys = np.array(keys)

            def random(self, size):
                assert size == self.keys.size
                return self.keys

        cfg = make_config(8, 10)  # kprime 2
        obs = Observation(8, [1, 2, 4, 6, 7])
        for keys, lower in [([0.5] * 5, [0, 1]), ([0.9, 0.5, 0.5, 0.5, 0.1], [0, 1])]:
            row = np.array([keys])
            mask = subsample_mask(np.ones((1, 5)), cfg.kprime, row)[0]
            assert np.array_equal(mask, double_argsort_mask(np.ones((1, 5)), cfg.kprime, row)[0])
            sub = subsample(obs, cfg, TiedKeys(keys))
            assert sub.support.tolist() == obs.support[lower].tolist() == obs.support[mask].tolist()

    def test_signs_travel_with_kept_indices(self):
        cfg = make_config(8, 10)
        obs = Observation(8, [0, 2, 4, 6], signs=[1, -1, 1, -1])
        rng = substream(4)
        for _ in range(100):
            sub = subsample(obs, cfg, rng)
            expected = {0: 1, 2: -1, 4: 1, 6: -1}
            for idx, sg in zip(sub.support, sub.signs):
                assert expected[int(idx)] == int(sg)


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
    def test_batch_decode_matches_scalar_unrank(self, d, k):
        cfg = make_config(d, k)
        ranks = np.arange(cfg.codebook, dtype=np.int64)
        counts = np.array([len(sup) for sup in colex_codebook(d, cfg.kprime)])
        mask = decode_batch(counts, ranks, cfg)
        for rank in ranks:
            assert np.flatnonzero(mask[rank]).tolist() == unrank_sparse(
                int(rank), d, cfg.kprime
            )

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
            assert np.flatnonzero(mask[1]).tolist() == unrank_sparse(5, 64, cfg.kprime)
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
def codec_cases(draw):
    """(d, k, rows, seed): any admissible budget up to codebook saturation at
    d <= 256, so codebooks above 2^62 (Python-int ranks) come up often."""
    d = draw(st.integers(2, 256))
    header = ceil_log2(d + 1)
    k = draw(st.integers(header + 1, header + d))
    return d, k, draw(st.integers(1, 4)), draw(st.integers(0, 2**32))


class TestCodecProperty:
    @settings(max_examples=200, deadline=None)
    @given(codec_cases())
    @example((256, 71, 3, 0))  # the largest int64 codebook at d=256
    @example((256, 72, 3, 0))  # the smallest Python-int codebook at d=256
    @example((4, 4, 3, 0))  # degenerate: kprime = 0
    def test_batch_scalar_and_serialized_codec_agree(self, case):
        d, k, rows, seed = case
        cfg = make_config(d, k)
        inputs = substream(seed)
        x = (inputs.random((rows, d)) < inputs.random((rows, 1))).astype(np.int8)
        counts, payloads, mask = encode_batch(x, cfg, substream(seed, 1).random(x.shape))
        kept = [np.flatnonzero(row).tolist() for row in mask]
        assert [int(p) for p in payloads] == [rank_sparse(sup, d, cfg.kprime) for sup in kept]

        ranks = [random.Random(seed + i).randrange(cfg.codebook) for i in range(rows)]
        ones = [len(unrank_sparse(r, d, cfg.kprime)) for r in ranks]
        decoded = decode_batch(
            np.concatenate([counts, ones]), np.array([*payloads, *ranks], dtype=object), cfg
        )
        assert [np.flatnonzero(row).tolist() for row in decoded] == kept + [
            unrank_sparse(r, d, cfg.kprime) for r in ranks
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
