"""Tests for the config parser, experiment runner, CSV output, and CLI."""

import concurrent.futures
import csv
import glob
import itertools
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from sparsecomm import cli, harness, sgdsim
from sparsecomm.codec import (
    MalformedMessage,
    Message,
    _tables,
    decode,
    encode,
    make_config,
    rank_sparse,
)
from sparsecomm.model import Observation
from sparsecomm.seeding import derive_seed, substream
from sparsecomm.sparsify import SparsifierSpec
from sparsecomm.harness import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_RUNTIME,
    RISK_COLUMNS,
    ConfigParseError,
    format_cell,
    load_experiment,
    parse_config_text,
    parse_spec_string,
    parse_value,
    run,
    write_csv_atomic,
)


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SCHEMA_DOC = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "config-schema.md")


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SWEEP_CFG = """
command = SweepRisk
n = 8
k = [10, 12, 16]
d = 32
s = 4
trials = 120
seed = 5
out = {out}
workers = 1
"""


class TestParseValue:
    def test_scalars(self):
        assert parse_value("42") == 42
        assert parse_value("-3") == -3
        assert parse_value("0.5") == 0.5
        assert parse_value("1e-3") == 0.001
        assert parse_value("true") is True
        assert parse_value("false") is False
        assert parse_value("flat") == "flat"
        assert parse_value('"all"') == "all"

    def test_lists(self):
        assert parse_value("[1, 2, 3]") == [1, 2, 3]
        assert parse_value("[]") == []
        assert parse_value("[flat, corner]") == ["flat", "corner"]

    def test_nested_lists(self):
        assert parse_value("[[0, 0.2], [2000, 0.05]]") == [[0, 0.2], [2000, 0.05]]

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_value("[1, 2")
        with pytest.raises(ValueError):
            parse_value("")
        # a quote that opens or closes no whole quoted string; '#' starts a
        # comment even inside quotes, so 'out = "a#b.csv"' leaves '"a'
        for text in ('"', '"a', 'b"', '[flat, "corner]', '[flat, corner"]'):
            with pytest.raises(ValueError, match="^unterminated string$"):
                parse_value(text)
        # a string holds no '"', whether or not it is quoted
        for text in ('"a" "', '"a" "b"', '""a""', 'a"b', '[flat, "a"b"]'):
            with pytest.raises(ValueError, match="^a string may not contain '\"'$"):
                parse_value(text)


class TestParseConfigText:
    def test_comments_and_blanks(self):
        text = "# header\nn = 3   # inline\n\nk = [1, 2]\n"
        assert parse_config_text(text) == {"n": 3, "k": [1, 2]}

    def test_bad_line_reports_lineno(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config_text("n = 3\nnot a kv line\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigParseError, match="duplicate key 'n'"):
            parse_config_text("n = 3\nn = 4\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigParseError, match="key 'k'"):
            parse_config_text("k = [1, 2\n")


class TestLoadExperiment:
    def test_unknown_key_is_named(self, tmp_path):
        path = write_config(tmp_path, "command = Bounds\nn=1\nk=1\nd=4\ns=2\nbogus = 1\nout = x.csv\n")
        with pytest.raises(ConfigParseError, match="bogus"):
            load_experiment(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path, "command = SweepRisk\nn = 2\nk = 10\nd = 32\nout = x.csv\n")
        with pytest.raises(ConfigParseError, match="missing required key 's'"):
            load_experiment(path)

    def test_command_mismatch(self, tmp_path):
        path = write_config(tmp_path, "command = Bounds\nn=1\nk=1\nd=4\ns=2\nout=x.csv\n")
        with pytest.raises(ConfigParseError, match="Bounds"):
            load_experiment(path, command="Train")

    def test_overrides(self, tmp_path):
        path = write_config(
            tmp_path, "command = Bounds\nn=1\nk=12\nd=16\ns=4\nseed=1\nout=a.csv\n"
        )
        config = load_experiment(path, seed=99, out="b.csv")
        assert config.seed == 99
        assert config.out == "b.csv"

    def test_type_mismatch(self, tmp_path):
        path = write_config(tmp_path, "command = SweepRisk\nn=2\nk=10\nd=32\ns=4\ntrials=lots\nout=x.csv\n")
        with pytest.raises(ConfigParseError, match="trials"):
            load_experiment(path)

    def test_missing_file(self):
        with pytest.raises(ConfigParseError, match="cannot read"):
            load_experiment("/nonexistent/path.cfg")

    @pytest.mark.parametrize(
        "cfg",
        [
            "command = Train\nd = 10\nk = 2\nsteps = 3\nobj_eig_max = inf\n",
            "command = Train\nd = 10\nk = 2\nsteps = 3\nobj_eig_max = nan\n",
            "command = Train\nd = 10\nk = 2\nsteps = 3\ninit_scale = 1e400\n",
            "command = Train\nd = 10\nk = 2\nsteps = 3\neta = [[0, inf]]\n",
            "command = EstimateRisk\nn = 4\nk = 12\nd = 16\ns = nan\n",
            "command = SweepRisk\nn = 4\nk = 12\nd = 16\ns = [2, inf]\n",
            "command = Train\nd = 10\nk = 2\nsteps = 3\nobj_eig_max = 1" + "0" * 400 + "\n",
        ],
        ids=["eig_max_inf", "eig_max_nan", "init_scale_1e400", "eta_rate_inf", "s_nan",
             "s_list_inf", "eig_max_int_beyond_float"],
    )
    def test_non_finite_floats_are_config_errors(self, tmp_path, monkeypatch, cfg):
        for name in ("train", "_risk_point"):
            monkeypatch.setattr(harness, name, must_not_run)
        out = tmp_path / "x.csv"
        errors = []
        code = run(write_config(tmp_path, cfg + f"out = {out}\n"), errcho=errors.append)
        assert code == EXIT_CONFIG
        assert [e.split()[:3] for e in errors] == [["ERROR", "code=2", "kind=ConfigParseError"]]
        assert not out.exists()


class TestRiskCommands:
    def test_sweep_writes_expected_rows(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        path = write_config(tmp_path, SWEEP_CFG.format(out=out))
        assert run(path) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 3
        with open(out, newline="") as fh:
            header = fh.readline().strip().split(",")
        assert header == RISK_COLUMNS
        # the 10 documented columns lead, in order
        assert header[:10] == [
            "n", "k", "d", "s", "trials", "risk", "std_err",
            "upper_bound", "lower_bound", "centralized",
        ]
        summary = capsys.readouterr().out
        assert summary.count("risk=") == 2  # k=10 is degenerate at d=32

    def test_doubling_budget_sweep_shape(self, tmp_path):
        # k in {10, 20, 40, 80} at d=32, s=4, n=64: exactly four rows with
        # the documented columns; k=10 is degenerate but still present.
        cfg = (
            "command = SweepRisk\nn = 64\nk = [10, 20, 40, 80]\nd = 32\ns = 4\n"
            "trials = 100\nseed = 1\nout = {out}\n"
        )
        out = str(tmp_path / "doubling.csv")
        path = write_config(tmp_path, cfg.format(out=out))
        assert run(path) == EXIT_OK
        rows = read_rows(out)
        assert [row["k"] for row in rows] == ["10", "20", "40", "80"]
        assert rows[0]["status"] == "degenerate_codec"
        # k=40 already saturates the codebook (kprime = d): risk equals the
        # uncoded sample mean's from there on
        assert rows[2]["kprime"] == "32" and rows[3]["kprime"] == "32"

    def test_degenerate_rows_are_flagged_not_dropped(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        path = write_config(tmp_path, SWEEP_CFG.format(out=out))
        run(path)
        rows = read_rows(out)
        by_k = {row["k"]: row for row in rows}
        assert by_k["10"]["status"] == "degenerate_codec"
        assert by_k["10"]["risk"] == ""
        assert by_k["10"]["centralized"] != ""
        assert by_k["12"]["status"] == "ok"
        assert float(by_k["12"]["risk"]) > 0

    def test_byte_identical_reruns_and_worker_counts(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        base = SWEEP_CFG.format(out=out1)
        path1 = write_config(tmp_path, base, "a.cfg")
        path2 = write_config(
            tmp_path, base.replace("workers = 1", "workers = 2").format(out=out2), "b.cfg"
        )
        assert run(path1) == EXIT_OK
        assert run(path2, out=out2) == EXIT_OK
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_pool_is_capped_at_the_grid_size(self, tmp_path, monkeypatch):
        # a fork pool starts all of its workers at the first job; this
        # serial stand-in records the size asked for and starts none
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        base = SWEEP_CFG.replace("k = [10, 12, 16]", "k = [12, 16]")
        written = []
        for workers in (64, 1):
            out = tmp_path / f"w{workers}.csv"
            cfg = base.replace("workers = 1", f"workers = {workers}").format(out=out)
            assert run(write_config(tmp_path, cfg), echo=lambda _: None) == EXIT_OK
            written.append(out.read_bytes())
        assert requested == [2]
        assert written[0] == written[1]

    def test_estimate_risk_rejects_lists(self, tmp_path):
        cfg = "command = EstimateRisk\nn = [2, 4]\nk = 12\nd = 32\ns = 4\ntrials=120\nout = {o}\n"
        out = str(tmp_path / "e.csv")
        path = write_config(tmp_path, cfg.format(o=out))
        assert run(path) == EXIT_PRECONDITION

    def test_perturbed_sweep_runs(self, tmp_path):
        cfg = (
            "command = EstimateRisk\nn = 4\nk = 10\nd = 8\ns = 2\ntrials = 150\n"
            "perturb_halfwidth = 0.49\nout = {o}\n"
        )
        out = str(tmp_path / "p.csv")
        path = write_config(tmp_path, cfg.format(o=out))
        assert run(path) == EXIT_OK
        assert read_rows(out)[0]["status"] == "ok"


class TestCodecRoundtripCommand:
    def test_exhaustive_summary_line(self, tmp_path, capsys):
        cfg = "command = CodecRoundtrip\nd = 8\nk = 10\nsamples = 0\nout = {o}\n"
        out = str(tmp_path / "c.csv")
        path = write_config(tmp_path, cfg.format(o=out))
        assert run(path) == EXIT_OK
        assert "roundtrips: 256/256 ok" in capsys.readouterr().out
        rows = read_rows(out)
        assert rows[0]["failures"] == "0"

    def test_exhaustive_cap(self, tmp_path):
        cfg = "command = CodecRoundtrip\nd = 20\nk = 12\nsamples = 0\n"
        path = write_config(tmp_path, cfg)
        assert run(path) == EXIT_PRECONDITION

    def test_out_is_optional(self, tmp_path, capsys):
        cfg = "command = CodecRoundtrip\nd = 6\nk = [8, 9]\nsamples = 0\n"
        path = write_config(tmp_path, cfg)
        assert run(path) == EXIT_OK
        assert capsys.readouterr().out.count("roundtrips: 64/64 ok") == 2

    @pytest.mark.parametrize(
        "k", ["[10, x]", "10.5", "[[10]]", "true", "[]", "some"],
        ids=["list_with_word", "float", "nested_list", "bool", "empty_list", "word"],
    )
    def test_untyped_budgets_are_config_errors(self, tmp_path, capsys, k):
        out = tmp_path / "c.csv"
        path = write_config(tmp_path, f"command = CodecRoundtrip\nd = 8\nk = {k}\nout = {out}\n")
        assert cli.main(["codec-roundtrip", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("ERROR code=2 kind=ConfigParseError message=key 'k'")
        assert err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def encoded_blocks(tmp_path, monkeypatch, cfg):
        """Run a CodecRoundtrip config; the support blocks its encode_batch
        calls got, in call order."""
        blocks = []
        original = harness.encode_batch

        def recording(x, codec_cfg, keys):
            blocks.append(np.array(x))
            return original(x, codec_cfg, keys)

        monkeypatch.setattr(harness, "encode_batch", recording)
        assert run(write_config(tmp_path, cfg), echo=lambda _: None) == EXIT_OK
        return blocks

    def test_sampled_supports_cross_block_boundaries(self, tmp_path, monkeypatch):
        d = 256
        rows = harness._SUPPORT_BLOCK // d
        samples = 2 * rows + 3
        cfg = f"command = CodecRoundtrip\nd = {d}\nk = 24\nsamples = {samples}\nseed = 5\n"
        blocks = self.encoded_blocks(tmp_path, monkeypatch, cfg)
        assert [len(block) for block in blocks] == [rows, rows, 3]
        seen = [np.flatnonzero(row) for block in blocks for row in block]
        g = np.random.default_rng(derive_seed(5, 0))
        expected = [np.flatnonzero(g.random(d) < 0.5) for _ in range(samples)]
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))

    def test_exhaustive_supports_in_product_order(self, tmp_path, monkeypatch):
        cfg = "command = CodecRoundtrip\nd = 6\nk = 9\nsamples = 0\n"
        blocks = self.encoded_blocks(tmp_path, monkeypatch, cfg)
        assert [len(block) for block in blocks] == [64]  # 2^6 rows fit one block
        seen = [np.flatnonzero(row) for row in blocks[0]]
        expected = [np.flatnonzero(bits) for bits in itertools.product((0, 1), repeat=6)]
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))

    @pytest.mark.parametrize("k", [24, 48, 96])
    def test_messages_and_stream_use_match_the_scalar_codec(self, tmp_path, monkeypatch, k):
        """What reaches decode_batch is what per-support scalar encode sends
        on substream(seed, 7), and each decoded row is what decode returns.

        Every support is compared, so this pins the row-major order of the
        drawn keys in every subsampled row, not only in the first
        _CROSS_CHECK_ROWS.  Rows are subsampled (kprime < d) at d = 64 and
        256 for k = 24 and 48, and at d = 256 for k = 96, whose codebook
        there holds Python ints; d = 16 keeps every support whole."""
        dims = [16, 64, 256]
        samples = harness._SUPPORT_BLOCK // dims[0] + 3  # crosses a block boundary at every d
        seen = {d: [] for d in dims}
        original = harness.decode_batch

        def recording(counts, payloads, cfg):
            mask = original(counts, payloads, cfg)
            seen[cfg.d].append((counts, payloads, mask))
            return mask

        monkeypatch.setattr(harness, "decode_batch", recording)
        cfg = f"command = CodecRoundtrip\nd = {dims}\nk = {k}\nsamples = {samples}\nseed = 3\n"
        assert run(write_config(tmp_path, cfg), echo=lambda _: None) == EXIT_OK
        for index, d in enumerate(dims):
            codec_cfg = make_config(d, k)
            assert len(seen[d]) > 1
            assert {p.dtype for _, p, _ in seen[d]} == {_tables(d, codec_cfg.kprime).offsets.dtype}
            counts = np.concatenate([c for c, _, _ in seen[d]]).tolist()
            payloads = [int(p) for _, block, _ in seen[d] for p in block]
            masks = np.concatenate([m for _, _, m in seen[d]])
            assert masks.shape == (samples, d)
            supports = np.random.default_rng(derive_seed(3, index))
            rng = substream(derive_seed(3, index), 7)
            for i in range(samples):
                support = np.flatnonzero(supports.random(d) < 0.5)
                msg = encode(Observation(d, support), codec_cfg, rng)
                assert (counts[i], payloads[i]) == (msg.count, msg.payload_index)
                assert np.flatnonzero(masks[i]).tolist() == decode(msg, codec_cfg).support.tolist()

    def test_block_structure_and_stream_state(self, tmp_path, monkeypatch):
        """One encode_batch and one decode_batch call per block of
        _SUPPORT_BLOCK // d supports, one Observation and one encode for
        each of the first _CROSS_CHECK_ROWS supports, and substream(seed, 7)
        left where a plain per-support encode loop leaves it."""
        dims = [16, 64, 256]  # at k = 96: an int64 codebook, then Python-int ones
        # at every d: one whole block, then a whole piece and 5 rows more
        samples = (harness._SUPPORT_BLOCK + harness._SUPPORT_PIECE) // dims[0] + 5
        names = ("encode_batch", "decode_batch", "Observation", "encode")
        calls = {name: {d: 0 for d in dims} for name in names}
        streams = []

        def counting(name, fn, dim):
            def wrapper(*args):
                calls[name][dim(*args)] += 1
                return fn(*args)

            return wrapper

        for name, dim in (("encode_batch", lambda x, cfg, keys: cfg.d),
                          ("decode_batch", lambda c, p, cfg: cfg.d),
                          ("Observation", lambda d, support: d),
                          ("encode", lambda obs, cfg, rng: cfg.d)):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name), dim))

        def recording_substream(*path):
            streams.append(substream(*path))
            return streams[-1]

        monkeypatch.setattr(harness, "substream", recording_substream)
        cfg = f"command = CodecRoundtrip\nd = {dims}\nk = 96\nsamples = {samples}\nseed = 4\n"
        assert run(write_config(tmp_path, cfg), echo=lambda _: None) == EXIT_OK
        assert len(streams) == len(dims)
        for index, d in enumerate(dims):
            assert samples > harness._SUPPORT_BLOCK // d + harness._SUPPORT_PIECE // d
            blocks = math.ceil(samples / (harness._SUPPORT_BLOCK // d))
            assert calls["encode_batch"][d] == calls["decode_batch"][d] == blocks
            checked = min(samples, harness._CROSS_CHECK_ROWS)
            assert calls["Observation"][d] == calls["encode"][d] == checked
            codec_cfg, kprime = make_config(d, 96), make_config(d, 96).kprime
            supports = np.random.default_rng(derive_seed(4, index))
            rng = substream(derive_seed(4, index), 7)
            keys = substream(derive_seed(4, index), 7)  # the contract, without the codec
            for _ in range(samples):
                support = np.flatnonzero(supports.random(d) < 0.5)
                encode(Observation(d, support), codec_cfg, rng)
                if support.size > kprime > 0:
                    keys.random(support.size)
            assert streams[index].bit_generator.state == rng.bit_generator.state
            assert rng.bit_generator.state == keys.bit_generator.state

    @staticmethod
    def corrupt_one_support(monkeypatch, kind):
        """Patch the roundtrip so that exactly one support of d = 8, k = 10
        (kprime = 2) fails exactly one of its checks."""
        kprime, done = 2, []

        def first(hit):
            """True only for the first hit."""
            if hit and not done:
                done.append(True)
                return True
            return False

        if kind in ("one_outside_support", "kept_one_cleared"):
            original = harness.decode_batch

            def corrupted(counts, payloads, cfg):
                mask = original(counts, payloads, cfg).copy()
                # a row that is not subsampled decodes to its whole support
                rows = np.flatnonzero((counts > 0) & (counts <= kprime))
                if first(rows.size > 0):
                    i = rows[0]
                    ones = np.flatnonzero(mask[i])
                    mask[i, ones[0]] = False
                    if kind == "one_outside_support":  # same popcount, one outside
                        outside = np.flatnonzero(~mask[i])
                        mask[i, outside[outside != ones[0]][0]] = True
                return mask

            monkeypatch.setattr(harness, "decode_batch", corrupted)
        elif kind == "count_off_by_one":
            original = harness.encode

            def corrupted(obs, cfg, rng):
                msg = original(obs, cfg, rng)
                if first(kprime < msg.count < cfg.d):
                    # min(count, kprime) stays kprime: serialize and decode accept it
                    return Message(msg.count + 1, msg.payload_index, msg.bit_length)
                return msg

            monkeypatch.setattr(harness, "encode", corrupted)
        elif kind.startswith("batch_"):
            original = harness.encode_batch

            def corrupted(x, cfg, keys):
                counts, payloads, mask = original(x, cfg, keys)
                counts, payloads = counts.copy(), payloads.copy()
                checked = np.arange(len(counts)) < harness._CROSS_CHECK_ROWS
                if kind == "batch_count_past_cross_check":
                    # min(count, kprime) stays kprime: decode_batch accepts it
                    rows = np.flatnonzero(~checked & (counts > kprime) & (counts < cfg.d))
                    if first(rows.size > 0):
                        counts[rows[0]] += 1
                else:
                    # another kprime-subset of the same support: only the
                    # scalar cross-check tells it from the sent one
                    rows = np.flatnonzero(checked & (counts > kprime))
                    if first(rows.size > 0):
                        i = rows[0]
                        kept, dropped = np.flatnonzero(mask[i]), np.flatnonzero(x[i] & ~mask[i])
                        other = sorted([*kept[1:], dropped[0]])
                        payloads[i] = rank_sparse(other, cfg.d, cfg.kprime)
                return counts, payloads, mask

            monkeypatch.setattr(harness, "encode_batch", corrupted)
        else:
            original = harness.serialize

            def corrupted(msg, cfg):
                bits = original(msg, cfg)
                return bits[:-1] if first(True) else bits

            monkeypatch.setattr(harness, "serialize", corrupted)
        return done

    @pytest.mark.parametrize(
        "kind",
        [
            "one_outside_support", "kept_one_cleared", "count_off_by_one", "bit_short",
            "batch_count_past_cross_check", "batch_payload_in_cross_check",
        ],
    )
    def test_a_wrong_roundtrip_is_a_failure(self, tmp_path, monkeypatch, kind):
        done = self.corrupt_one_support(monkeypatch, kind)
        out = tmp_path / "c.csv"
        cfg = f"command = CodecRoundtrip\nd = 8\nk = 10\nsamples = 40\nseed = 2\nout = {out}\n"
        errors = []
        path = write_config(tmp_path, cfg)
        assert run(path, echo=lambda _: None, errcho=errors.append) == EXIT_RUNTIME
        assert len(done) == 1
        assert errors == [
            "ERROR code=4 kind=RuntimeError message=1 codec roundtrips failed for d=8, k=10"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, edges",
        [('d = 12\nk = "all"\nsamples = 0', {12}), ("d = 8\nk = [5, 13]\nsamples = 300", {0, 8})],
        ids=["exhaustive_every_budget", "sampled_kprime_0_and_d"],
    )
    def test_every_batch_message_is_the_scalar_one(self, tmp_path, monkeypatch, grid, edges):
        """Past the cross-check too, each support's encode_batch message is
        the one scalar encode sends on substream(seed, 7), and the stream
        ends where that per-support loop leaves it, at kprime = 0 and d."""
        sent, streams = {}, []
        original = harness.encode_batch

        def recording(x, cfg, keys):
            counts, payloads, mask = original(x, cfg, keys)
            sent.setdefault(cfg, []).extend(zip(counts.tolist(), payloads.tolist()))
            return counts, payloads, mask

        def recording_substream(*path):
            streams.append(substream(*path))
            return streams[-1]

        monkeypatch.setattr(harness, "encode_batch", recording)
        monkeypatch.setattr(harness, "substream", recording_substream)
        cfg = f"command = CodecRoundtrip\n{grid}\nseed = 6\n"
        assert run(write_config(tmp_path, cfg), echo=lambda _: None) == EXIT_OK
        assert len(streams) == len(sent) > 1
        d = next(iter(sent)).d
        assert edges <= {codec_cfg.kprime for codec_cfg in sent}
        if "samples = 0" in grid:
            supports = [np.flatnonzero(bits) for bits in itertools.product((0, 1), repeat=d)]
        else:
            g = np.random.default_rng(derive_seed(6, 0))
            supports = [np.flatnonzero(g.random(d) < 0.5) for _ in range(300)]
        for codec_cfg, stream in zip(sent, streams):
            rng = substream(derive_seed(6, 0), 7)
            messages = [encode(Observation(d, s), codec_cfg, rng) for s in supports]
            assert sent[codec_cfg] == [(m.count, m.payload_index) for m in messages]
            assert stream.bit_generator.state == rng.bit_generator.state


class TestTrainCommands:
    def test_train_writes_per_round_rows(self, tmp_path):
        cfg = (
            "command = Train\nobjective = quadratic\nd = 20\nn = 3\nbatch_size = 4\n"
            "k = 2\nsteps = 30\neta = 0.05\nobj_samples = 60\nout = {o}\n"
        )
        out = str(tmp_path / "t.csv")
        path = write_config(tmp_path, cfg.format(o=out))
        assert run(path) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 30
        assert [int(r["t"]) for r in rows] == list(range(30))
        assert all(float(r["loss"]) >= 0 for r in rows)
        assert rows[0]["comm_entries"] == "6"

    def test_piecewise_schedule_accepted(self, tmp_path):
        cfg = (
            "command = Train\nd = 10\nn = 2\nk = 2\nsteps = 12\n"
            "eta = [[0, 0.1], [6, 0.01]]\nobj_samples = 40\nout = {o}\n"
        )
        out = str(tmp_path / "t.csv")
        path = write_config(tmp_path, cfg.format(o=out))
        assert run(path) == EXIT_OK

    def test_default_window_is_nk_capped_at_d(self, tmp_path, monkeypatch):
        trained = []

        def recording_train(obj, cfg):
            trained.append(cfg.sparsifier)
            return sgdsim.train(obj, cfg)

        monkeypatch.setattr(harness, "train", recording_train)
        out = tmp_path / "t.csv"
        for d in (100, 20):
            cfg = f"command = Train\nd = {d}\nn = 5\nk = 5\nsteps = 1\nout = {out}\n"
            assert run(write_config(tmp_path, cfg), echo=lambda _: None) == EXIT_OK
        assert trained == [SparsifierSpec.rtop(25, 5), SparsifierSpec.rtop(20, 5)]
        cfg = f"command = Train\nd = 100\nn = 5\nk = 5\nr = 3\nsteps = 1\nout = {out}\n"
        errors = []
        assert run(write_config(tmp_path, cfg), errcho=errors.append) == EXIT_PRECONDITION
        assert errors == ["ERROR code=3 kind=PreconditionError message=need 1 <= k=5 <= r=3"]
        assert len(trained) == 2

    @pytest.mark.parametrize("r", [1, 999])
    def test_compare_takes_no_r(self, tmp_path, monkeypatch, r):
        # every window comes from the specs, so an 'r' key is unknown
        monkeypatch.setattr(harness, "compare_sparsifiers", must_not_run)
        out = tmp_path / "c.csv"
        cfg = (
            f"command = CompareSparsifiers\nd = 10\nn = 2\nk = 2\nr = {r}\nsteps = 3\n"
            f"specs = [rtop:4:2, top:2]\nseeds = [1]\nout = {out}\n"
        )
        errors = []
        assert run(write_config(tmp_path, cfg), errcho=errors.append) == EXIT_CONFIG
        assert errors == [
            "ERROR code=2 kind=ConfigParseError "
            "message=unknown key 'r' for command CompareSparsifiers"
        ]
        assert not out.exists()

    def test_compare_rows_per_spec(self, tmp_path):
        cfg = (
            "command = CompareSparsifiers\nd = 30\nn = 2\nbatch_size = 4\nk = 3\n"
            "steps = 15\neta = 0.05\nobj_samples = 50\n"
            "specs = [rtop:6:3, top:3, random:3]\nseeds = [1, 2]\nout = {o}\n"
        )
        out = str(tmp_path / "cmp.csv")
        path = write_config(tmp_path, cfg.format(o=out))
        assert run(path) == EXIT_OK
        rows = read_rows(out)
        assert [r["spec"] for r in rows] == ["rtop_r6_k3", "top_3", "random_3"]
        assert all(r["comm_entries_per_round"] == "6" for r in rows)

    def test_compare_keeps_repeated_seeds(self, tmp_path):
        """A repeated seed reruns its training, bit for bit, so the spread is
        over copies: accepted, as the library's lockstep training accepts it."""
        cfg = (
            "command = CompareSparsifiers\nd = 12\nn = 2\nk = 2\nsteps = 5\n"
            "obj_samples = 20\nspecs = [top:2]\nseeds = [{seeds}]\nout = {o}\n"
        )
        rows = {}
        for seeds in ("1, 1", "1"):
            out = str(tmp_path / f"{len(seeds)}.csv")
            assert run(write_config(tmp_path, cfg.format(seeds=seeds, o=out))) == EXIT_OK
            rows[seeds] = read_rows(out)[0]
        assert rows["1, 1"]["seeds"] == "2"
        assert rows["1, 1"]["mean_final_loss"] == rows["1"]["mean_final_loss"]
        assert float(rows["1, 1"]["std_final_loss"]) == 0.0

    def test_concentrated_objective_available(self, tmp_path):
        cfg = (
            "command = Train\nobjective = concentrated_quadratic\nd = 40\n"
            "obj_heavy = 4\nobj_samples = 60\nn = 2\nk = 2\nsteps = 10\nout = {o}\n"
        )
        out = str(tmp_path / "cq.csv")
        path = write_config(tmp_path, cfg.format(o=out))
        assert run(path) == EXIT_OK
        assert len(read_rows(out)) == 10

    @pytest.mark.parametrize("objective", ["logistic", "tiny_mlp"])
    def test_other_objectives_train(self, tmp_path, objective):
        cfg = f"command = Train\nobjective = {objective}\nd = 12\nn = 2\nk = 2\nsteps = 4\n"
        out = tmp_path / "t.csv"
        assert run(write_config(tmp_path, cfg + f"obj_samples = 40\nout = {out}\n")) == EXIT_OK
        assert [int(r["t"]) for r in read_rows(out)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("command", ["Train", "CompareSparsifiers"])
    def test_divergence_is_a_runtime_error(self, tmp_path, command):
        # eta = 1.65 on the top 4 coordinates overshoots until the weights overflow
        extra = "specs = [top:4]\nseeds = [1]\n" if command == "CompareSparsifiers" else "r = 4\n"
        cfg = f"command = {command}\nd = 10\nn = 2\nk = 4\nsteps = 3000\neta = 1.65\n{extra}"
        out = tmp_path / "x.csv"
        errors = []
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(write_config(tmp_path, cfg + f"out = {out}\n"), errcho=errors.append)
        assert code == EXIT_RUNTIME
        assert [e.split()[:2] for e in errors] == [["ERROR", "code=4"]]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["Train", "CompareSparsifiers"])
    def test_divergence_prints_one_stderr_line(self, tmp_path, capfd, command):
        # no errstate here: training itself must keep numpy's overflow
        # warnings off stderr, which holds only the ERROR line
        extra = "specs = [top:4]\nseeds = [1]\n" if command == "CompareSparsifiers" else "r = 4\n"
        cfg = f"command = {command}\nd = 10\nn = 2\nk = 4\nsteps = 3000\neta = 1.65\n{extra}"
        out = tmp_path / "x.csv"
        assert run(write_config(tmp_path, cfg + f"out = {out}\n")) == EXIT_RUNTIME
        err = capfd.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ERROR code=4 ")

    def test_spec_string_parsing(self):
        assert parse_spec_string("top:5", 100, 4).label == "top_5"
        assert parse_spec_string("random:3", 100, 4).label == "random_3"
        assert parse_spec_string("rtop:25:5", 100, 4).label == "rtop_r25_k5"
        assert parse_spec_string("rtop:5", 100, 4).label == "rtop_r20_k5"
        from sparsecomm.harness import PreconditionError

        with pytest.raises(PreconditionError):
            parse_spec_string("rtop", 100, 4)


def must_not_run(*args, **kwargs):
    raise AssertionError("a grid point or training run started")


def test_stray_codec_error_is_a_runtime_error(tmp_path, monkeypatch):
    def malformed(*args, **kwargs):
        raise MalformedMessage("corrupt transcript")

    monkeypatch.setattr(harness, "decode_batch", malformed)
    out = tmp_path / "c.csv"
    cfg = f"command = CodecRoundtrip\nd = 8\nk = 10\nsamples = 3\nout = {out}\n"
    errors = []
    path = write_config(tmp_path, cfg)
    assert run(path, echo=lambda _: None, errcho=errors.append) == EXIT_RUNTIME
    assert errors == ["ERROR code=4 kind=MalformedMessage message=corrupt transcript"]
    assert not out.exists()


class TestBoundsCommand:
    def test_grid_and_regime_flags(self, tmp_path):
        cfg = (
            "command = Bounds\nn = [16, 64]\nk = [8, 24]\nd = 64\ns = 8\nout = {o}\n"
        )
        out = str(tmp_path / "b.csv")
        path = write_config(tmp_path, cfg.format(o=out))
        assert run(path) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 4
        by = {(r["n"], r["k"]): r for r in rows}
        # k=8 < 2*ceil(log2 65) = 14: upper curve out of regime, cell empty
        assert by[("16", "8")]["upper_bound"] == ""
        assert "k=8" in by[("16", "8")]["upper_regime"]
        assert by[("16", "24")]["upper_regime"] == "ok"
        assert float(by[("16", "24")]["upper_bound"]) > 0
        assert float(by[("64", "24")]["centralized"]) == pytest.approx(7.0 / 64)

    def test_hash_in_a_quoted_out_path_is_a_config_error(self, tmp_path, monkeypatch):
        # the comment cuts the path to '"bounds', which used to be written
        monkeypatch.chdir(tmp_path)
        cfg = 'command = Bounds\nn = 16\nk = 24\nd = 64\ns = 8\nout = "bounds#1.csv"\n'
        path = write_config(tmp_path, cfg)
        errors = []
        assert run(path, errcho=errors.append) == EXIT_CONFIG
        assert errors == ["ERROR code=2 kind=ConfigParseError "
                          "message=line 6: key 'out': unterminated string"]
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_quote_inside_a_quoted_out_path_is_a_config_error(self, tmp_path, monkeypatch):
        # stripping only the outer pair would write the path 'a" "b'
        monkeypatch.chdir(tmp_path)
        cfg = 'command = Bounds\nn = 16\nk = 24\nd = 64\ns = 8\nout = "a" "b"\n'
        path = write_config(tmp_path, cfg)
        errors = []
        assert run(path, errcho=errors.append) == EXIT_CONFIG
        assert errors == ["ERROR code=2 kind=ConfigParseError "
                          "message=line 6: key 'out': a string may not contain '\"'"]
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("form", ["flag", "key"])
    def test_out_naming_the_config_leaves_it_unchanged(self, tmp_path, monkeypatch, capsys, form):
        # the run used to replace the config with its CSV, exit 0, and leave
        # a config whose next run failed on the CSV header
        monkeypatch.chdir(tmp_path)
        cfg = "command = Bounds\nn = 16\nk = 24\nd = 64\ns = 8\n"
        if form == "key":
            cfg += f"out = {tmp_path / 'c.cfg'}\n"
        path = write_config(tmp_path, cfg, name="c.cfg")
        before = open(path, "rb").read()
        flags = ["--out", "c.cfg"] if form == "flag" else []
        assert cli.main(["bounds", "--config", path, *flags]) == EXIT_CONFIG
        out = "c.cfg" if form == "flag" else str(tmp_path / "c.cfg")
        assert capsys.readouterr() == (
            "", f"ERROR code=2 kind=ConfigParseError message=key 'out': {out!r} "
            "is the config file itself\n",
        )
        assert open(path, "rb").read() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]
        assert cli.main(["bounds", "--config", path, "--out", "b.csv"]) == EXIT_OK


class TestCsvFormatting:
    def test_seventeen_significant_digits(self):
        assert format_cell(1 / 3) == "0.33333333333333331"
        assert format_cell(None) == ""
        assert format_cell(5) == "5"
        assert format_cell("ok") == "ok"

    def test_atomic_write_creates_dirs(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "out.csv"
        write_csv_atomic(str(target), ["a"], [{"a": 1}])
        assert target.read_text() == "a\n1\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "out.csv"
        write_csv_atomic(str(target), ["a"], [{"a": 1.5}])
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        target = tmp_path / "out.csv"
        old = os.umask(umask)
        try:
            write_csv_atomic(str(target), ["a", "b"], [{"a": 1, "b": 0.5}])
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert target.read_bytes() == b"a,b\n1,0.5\n"


class TestGoldenFile:
    """Pins the frozen CSV schema: header order, float formatting, and the
    seeded values themselves (byte-for-byte)."""

    def test_sweep_matches_golden_bytes(self, tmp_path):
        cfg = (
            "command = SweepRisk\nn = 8\nk = [10, 12, 16]\nd = 32\ns = 4\n"
            "trials = 150\nseed = 2024\nworkers = 1\nprobes = [flat, corner]\n"
        )
        out = str(tmp_path / "sweep.csv")
        path = write_config(tmp_path, cfg)
        assert run(path, out=out) == EXIT_OK
        golden = os.path.join(os.path.dirname(__file__), "golden", "sweep_small.csv")
        assert open(out, "rb").read() == open(golden, "rb").read()

    @pytest.mark.parametrize(
        "aggregation,name",
        [("error_feedback_mean", "compare_small.csv"),
         ("unbiased_rescale", "compare_small_unbiased.csv")],
    )
    def test_compare_matches_golden_bytes(self, tmp_path, aggregation, name):
        # the shipped concentrated-quadratic shape, cut to 40 rounds and 3 seeds
        cfg = (
            "command = CompareSparsifiers\nobjective = concentrated_quadratic\nd = 500\n"
            "obj_heavy = 10\nobj_heavy_noise = 0.8\nobj_light_noise = 0.004\n"
            "obj_samples = 400\nn = 5\nbatch_size = 2\nk = 2\nsteps = 40\neta = 0.15\n"
            f"aggregation = {aggregation}\nspecs = [rtop:10:2, top:2, random:2]\n"
            "seeds = [1, 2, 3]\nseed = 0\nworkers = 1\n"
        )
        out = str(tmp_path / "compare.csv")
        assert run(write_config(tmp_path, cfg), out=out) == EXIT_OK
        golden = os.path.join(os.path.dirname(__file__), "golden", name)
        assert open(out, "rb").read() == open(golden, "rb").read()

    @pytest.mark.parametrize(
        "keys,name",
        [("eta = [[0, 0.2], [10, 0.05], [20, 0.01]]\n", "train_piecewise.csv"),
         ("r = 8\neta = 0.05\naggregation = unbiased_rescale\n", "train_unbiased.csv")],
    )
    def test_train_matches_golden_bytes(self, tmp_path, keys, name):
        cfg = (
            "command = Train\nobjective = quadratic\nd = 20\nn = 3\nbatch_size = 4\nk = 2\n"
            f"steps = 30\nobj_samples = 60\nseed = 7\n{keys}"
        )
        out = str(tmp_path / "train.csv")
        assert run(write_config(tmp_path, cfg), out=out) == EXIT_OK
        golden = os.path.join(os.path.dirname(__file__), "golden", name)
        assert open(out, "rb").read() == open(golden, "rb").read()


def subcommand_action():
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "subcommand"]
    return action


class TestCli:
    def test_import_leaves_the_process_pool_unloaded(self):
        # only pooled SweepRisk points use concurrent.futures, which loads
        # multiprocessing; a fresh interpreter shows what the CLI imports
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys, sparsecomm.cli; print([m for m in sys.modules if 'concurrent' in m])"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_import_leaves_dataclasses_unloaded(self):
        # the value types are written out, so importing the package runs no
        # dataclass code generation; numpy does not load the module either
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys, sparsecomm.cli; print('dataclasses' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    def test_subcommand_runs_config(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        path = write_config(tmp_path, SWEEP_CFG.format(out=out))
        assert cli.main(["sweep-risk", "--config", path]) == EXIT_OK
        assert os.path.exists(out)

    def test_error_line_is_machine_readable(self, tmp_path, capsys):
        path = write_config(tmp_path, "command = SweepRisk\nwat = 1\n")
        code = cli.main(["sweep-risk", "--config", path])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("ERROR code=2 kind=ConfigParseError")
        assert "wat" in err

    def test_subcommand_must_match_config(self, tmp_path):
        path = write_config(tmp_path, "command = Bounds\nn=1\nk=12\nd=16\ns=4\nout=x.csv\n")
        assert cli.main(["train", "--config", path]) == EXIT_CONFIG

    def test_subcommands_and_help(self):
        action = subcommand_action()
        assert [(a.dest, a.help) for a in action._choices_actions] == [
            ("estimate-risk", "Monte Carlo risk of the pipeline at a single parameter point"),
            ("sweep-risk", "risk over a (probe, n, k, d, s) grid with bound-curve columns"),
            ("codec-roundtrip", "encode/decode/serialize roundtrip check over supports"),
            ("train", "distributed SGD simulation, one metrics row per round"),
            ("compare-sparsifiers", "train per sparsifier and seed at an equal entries budget"),
            ("bounds", "reference bound curves over a parameter grid"),
        ]
        assert [p.get_default("command") for p in action.choices.values()] == [
            "EstimateRisk", "SweepRisk", "CodecRoundtrip", "Train", "CompareSparsifiers", "Bounds",
        ]

    def test_shipped_configs_load(self):
        subcommands = subcommand_action().choices.values()
        served = {p.get_default("command") for p in subcommands}
        configs = [load_experiment(path) for path in glob.glob(os.path.join(CONFIGS, "*.cfg"))]
        for config in configs:  # every shipped value lies in its key's range
            harness.check_ranges(config)
            if config.command in ("Train", "CompareSparsifiers"):
                # objective, windows and budgets check out, without training
                harness._training_setup(config.params, config.seed, config.params.get("specs"))
        commands = {config.command for config in configs}
        assert commands <= served
        assert commands == set(harness.COMMANDS)  # one example per command

    def test_no_subcommand_prints_help(self, capsys):
        assert cli.main([]) == EXIT_CONFIG
        assert "sweep-risk" in capsys.readouterr().out

    def test_seed_and_out_overrides(self, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        path = write_config(tmp_path, SWEEP_CFG.format(out=out_a))
        assert cli.main(["sweep-risk", "--config", path, "--out", out_b, "--seed", "5"]) == EXIT_OK
        assert os.path.exists(out_b) and not os.path.exists(out_a)
        # same seed through either route gives identical bytes
        assert cli.main(["sweep-risk", "--config", path]) == EXIT_OK
        assert open(out_a, "rb").read() == open(out_b, "rb").read()


# The type word docs/config-schema.md uses for each kind of key.
KIND_WORDS = {
    "int": "int",
    "positive_int": "positive int",
    "float": "float",
    "str": "string",
    "int_or_list": "int / list",
    "num_or_list": "num / list",
    "str_list": "list of strings",
    "int_list": "list of ints",
    "schedule": "float / `[[step, rate], …]`",
    "budgets": 'int / list / `"all"`',
}

# The doc sections whose key tables make up each command's keys.
DOC_SECTIONS = {
    "EstimateRisk": ["EstimateRisk / SweepRisk"],
    "SweepRisk": ["EstimateRisk / SweepRisk"],
    "CodecRoundtrip": ["CodecRoundtrip"],
    "Train": ["Train", "Train window"],
    "CompareSparsifiers": ["Train", "CompareSparsifiers"],
    "Bounds": ["Bounds"],
}


def doc_key_tables():
    """{section heading: {key: (type word, default text)}} from the key
    tables of docs/config-schema.md; a row may name several keys, with one
    backquoted default each."""
    sections = {}
    with open(SCHEMA_DOC, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("## "):
                table = sections.setdefault(line[3:].strip(), {})
            elif line.startswith("| `"):
                names, word, default = [c.strip() for c in line.strip().strip("|").split("|")][:3]
                keys = re.findall(r"`(\w+)`", names)
                defaults = re.findall(r"`([^`]*)`", default) or [default] * len(keys)
                assert len(defaults) == len(keys), line
                table.update((key, (word, text)) for key, text in zip(keys, defaults))
    return sections


# Each command's numeric keys with no ``Key.check``, and the one place where
# each one's rule lives (None: the keys every command takes).
_RISK_RULES = {
    "k": "codec.make_config: k >= header + 1",
    "d": "codec.make_config: d >= 2",
    "s": "model.ParamVector: s >= 1",
    "perturb_halfwidth": "model.UniformPerturbation: in (0, 0.5]; 0 means none",
    "upper_constant": "estimator.BoundCurve: positive",
    "lower_constant": "estimator.BoundCurve: positive",
}
_TRAINING_RULES = {
    "n": "sgdsim.TrainConfig: a positive integer",
    "batch_size": "sgdsim.TrainConfig: a positive integer",
    "k": "sparsify.SparsifierSpec: k >= 1, and every spec's budget is k",
    "steps": "sgdsim.TrainConfig: a positive integer",
    "eta": "sgdsim.TrainConfig: positive rates, steps from 0 up",
    "init_scale": "sgdsim.TrainConfig: nonnegative",
    "obj_eig_min": "objectives.make_quadratic: at most obj_eig_max; every eigenvalue positive",
    "obj_eig_max": "objectives.make_quadratic: at least obj_eig_min; every eigenvalue positive",
    "obj_reg": "objectives.LogisticObjective: nonnegative",
    "obj_heavy": "objectives.make_concentrated_quadratic: in [1, d]",
}
UNCHECKED_NUMERIC_KEYS = {
    None: {},
    "EstimateRisk": _RISK_RULES,
    "SweepRisk": _RISK_RULES,
    "CodecRoundtrip": {"d": "codec.make_config: d >= 2"},
    "Train": {**_TRAINING_RULES, "r": "sparsify.SparsifierSpec: k <= r, and window(d): r <= d"},
    "CompareSparsifiers": _TRAINING_RULES,
    "Bounds": {key: _RISK_RULES[key] for key in ("s", "upper_constant", "lower_constant")},
}


class TestConfigTable:
    def test_every_kind_has_a_doc_word(self):
        assert set(KIND_WORDS) == set(harness._KINDS)

    @pytest.mark.parametrize("command", [None, *harness.COMMANDS])
    def test_numeric_keys_have_a_range(self, command):
        """A numeric key has a range in the table exactly when no library
        type judges it before work."""
        schema = harness._COMMON_SCHEMA if command is None else harness.COMMANDS[command].schema
        numeric = {"int", "float", "int_or_list", "num_or_list", "int_list", "schedule"}
        unchecked = {
            name for name, key in schema.items() if key.kind in numeric and key.check is None
        }
        assert unchecked == set(UNCHECKED_NUMERIC_KEYS[command])

    @pytest.mark.parametrize("command", [None, *harness.COMMANDS])
    def test_defaults_pass_their_own_checks(self, command):
        schema = harness._COMMON_SCHEMA if command is None else harness.COMMANDS[command].schema
        for name, key in schema.items():
            if key.default is harness._REQUIRED or key.default is None:
                continue
            assert harness._KINDS[key.kind](key.default), name
            if key.check is not None:
                assert all(map(key.check.holds, harness._as_list(key.default))), name

    @pytest.mark.parametrize("command", [None, *harness.COMMANDS])
    def test_docs_match_the_table(self, command):
        """Each key's type word and default in docs/config-schema.md match
        the table; a default the code computes (``None``) is only documented."""
        sections = doc_key_tables()
        if command is None:
            schema, documented = harness._COMMON_SCHEMA, dict(sections["Common keys"])
            assert documented.pop("command")[1] == "—"  # resolved before the table
        else:
            schema = harness.COMMANDS[command].schema
            documented = {}
            for section in DOC_SECTIONS[command]:
                documented.update(sections[section])
        assert list(documented) == list(schema)
        for name, key in schema.items():
            word, default = documented[name]
            assert word == KIND_WORDS[key.kind], name
            if key.default is harness._REQUIRED:
                assert default == "required", name
            elif key.default is not None:
                value = parse_value(default)
                assert (type(value), value) == (type(key.default), key.default), name
