"""Config fuzz: every key of every command, at a value of the wrong kind and
at values just outside and just inside its rule.

A wrong kind, and an ``out`` that names no file or names the config file
(in the config or given by ``--out``), exit 2; an out-of-range value,
``--seed`` included, exits 3.  Either prints one
ERROR line, the one its case states, before any grid point or training run
starts; a value just inside passes set-up and reaches the first unit of
work.  No case exits 1 or 4, and no case writes a file.  Every config runs
one worker, and no edge is a size that would allocate or spawn at scale.
"""

import os
from typing import NamedTuple

import pytest

from sparsecomm import cli, harness
from sparsecomm.harness import EXIT_CONFIG, EXIT_PRECONDITION, run

# The first unit of work of each command; set-up ends where one is called.
WORK = ("_risk_point", "_codec_point", "train", "compare_sparsifiers", "_bound_columns")

# A value of each kind that the kind rejects.
WRONG_KIND = {
    "int": "1.5",
    "positive_int": "0",
    "float": "word",
    "str": "5",
    "int_or_list": "[1.5]",
    "num_or_list": "word",
    "str_list": "7",
    "int_list": "[1.5]",
    "schedule": "[[0]]",
    "budgets": "2.5",
}

# The kinds with values on a scale; ``workers`` (positive_int) has no range
# beyond its kind, which the wrong-kind cases cover.
NUMERIC_KINDS = {"int", "float", "int_or_list", "num_or_list", "int_list", "schedule", "budgets"}


class Edge(NamedTuple):
    """Values just outside a key's rule, each with the message its error
    gives and any (key, value) pairs that case also sets; values just
    inside the rule; ``extra``, the other keys every case of the rule
    needs (an objective, say); and the exit code of the cases outside."""

    outside: tuple = ()
    inside: tuple = ()
    extra: tuple = ()
    code: int = EXIT_PRECONDITION


BASES = {
    "EstimateRisk": {"n": "4", "k": "12", "d": "16", "s": "1", "trials": "100"},
    "CodecRoundtrip": {"d": "8", "samples": "3"},
    "Train": {"d": "10", "n": "2", "k": "1", "steps": "3"},
    "CompareSparsifiers": {
        "d": "10", "n": "2", "k": "1", "steps": "3",
        "specs": "[top:1, random:1, rtop:1]", "seeds": "[1]",
    },
    "Bounds": {"n": "4", "k": "12", "d": "16", "s": "1"},
}
BASES["SweepRisk"] = BASES["EstimateRisk"]


def seed_range(key, value) -> str:
    return f"'{key}' must be in [0, 2^64), got {value}"


# A seed is a 64-bit word: -1 and 2^64 would alias 2^64 - 1 and 0.
SEED = Edge(
    (("-1", seed_range("seed", -1)), (str(2**64), seed_range("seed", 2**64))),
    ("0", str(2**64 - 1)),
)

# Every command's output path; "." is the directory the fuzz runs in, and
# exp.cfg the config file in it, which no run may overwrite.
OUT_OUTSIDE = ("", "sub/", ".", "exp.cfg/x.csv", "exp.cfg/sub/x.csv", "exp.cfg", "./exp.cfg")


def out_error(path: str) -> str:
    if path.endswith("exp.cfg"):
        return f"key 'out': {path!r} is the config file itself"
    return f"key 'out': expected a file path, got {path!r}"


OUT = Edge(
    tuple((path or '""', out_error(path)) for path in OUT_OUTSIDE),
    ("new/out.csv",),
    code=EXIT_CONFIG,
)


def twice(key, value) -> str:
    return f"'{key}' lists {value} twice; each value is a grid point"


OFFSET_TOO_LARGE = "the loss offset of the samples is {}: noise_std or b_mean is too large"

HEADER_16 = "cannot hold the 5-bit count header of d=16 plus a payload bit"

RISK_EDGES = {
    "seed": SEED,
    "out": OUT,
    "n": Edge(
        (("0", "'n' must be >= 1, got 0"), ("[4, 0]", "'n' must be >= 1, got 0"),
         ("[4, 4]", twice("n", 4))),
        ("1",),
    ),
    "k": Edge((("5", f"k=5 {HEADER_16}"),), ("6",)),
    "d": Edge((("1", "d must be >= 2, got 1"),), ("2",)),
    "s": Edge(
        (("0.999", "s=0.999 must be at least 1"), ("0", "s=0.0 must be at least 1"),
         ("8.5", "s=8.5 must be at most d/2=8.0"), ("[2, 2.0]", twice("s", 2.0))),
        ("1", "8"),
    ),
    "trials": Edge((("99", "'trials' must be >= 100, got 99"),), ("100",)),
    "probes": Edge(
        (("[flat, middle]", "unknown probe 'middle' (expected flat, half_flat, corner)"),
         ("[half_flat]", "probe half_flat needs s <= d, got s=17 d=16", ("s", "17")),
         ("[corner]", "probe corner needs floor(s) <= d, got s=17 d=16", ("s", "17"))),
        ("[flat, half_flat, corner]",),
    ),
    "perturb_halfwidth": Edge(
        (("-0.01", "halfwidth must lie in (0, 0.5], got -0.01"),
         ("0.51", "halfwidth must lie in (0, 0.5], got 0.51")),
        ("0.0", "1e-9", "0.5"),
    ),
    "upper_constant": Edge(
        (("0.0", "upper_achievable constant must be positive, got 0.0"),
         ("-1", "upper_achievable constant must be positive, got -1")),
        ("1e-9",),
    ),
    "lower_constant": Edge(
        (("0.0", "lower_minimax constant must be positive, got 0.0"),), ("1e-9",)
    ),
}

# A grid list of k, d or s reaches the runner, which EstimateRisk refuses.
SWEEP_EDGES = {
    **RISK_EDGES,
    "k": Edge(
        (*RISK_EDGES["k"].outside, ("[12, 5]", f"k=5 {HEADER_16}"),
         ("[12, 14, 12]", twice("k", 12))),
        ("6",),
    ),
    "d": Edge(
        (*RISK_EDGES["d"].outside, ("[16, 1]", "d must be >= 2, got 1"),
         ("[16, 16]", twice("d", 16))),
        ("2",),
    ),
    "s": Edge((*RISK_EDGES["s"].outside, ("[4, 9]", "s=9 must be at most d/2=8.0")), ("1", "8")),
}

TRAINING_EDGES = {
    "seed": SEED,
    "out": OUT,
    "objective": Edge(
        (("bogus", "unknown objective 'bogus'"),),
        ("concentrated_quadratic", "logistic", "tiny_mlp"),
    ),
    "d": Edge((("0", "'d' must be >= 1, got 0"),), ("1",)),
    "n": Edge((("0", "n must be a positive integer, got 0"),), ("1",)),
    "batch_size": Edge((("0", "batch_size must be a positive integer, got 0"),), ("1",)),
    "steps": Edge((("0", "steps must be a positive integer, got 0"),), ("1",)),
    "eta": Edge(
        (("0", "learning rates must be positive, got 0"),
         ("[[0, -0.2]]", "learning rates must be positive, got [[0, -0.2]]"),
         ("[[1, 0.1]]", "eta steps must start at 0 and strictly increase, got [1]"),
         ("[[0, 0.2], [5, 0.1], [2, 0.3]]",
          "eta steps must start at 0 and strictly increase, got [0, 5, 2]")),
        ("1e-300", "[[0, 0.1], [1, 0.2]]"),
    ),
    "init_scale": Edge((("-1e-9", "init_scale must be nonnegative, got -1e-09"),), ("0.0",)),
    "obj_samples": Edge(
        (("0", "'obj_samples' must be >= 1, got 0"), ("1", "'obj_samples' must be >= n=2, got 1")),
        ("2",),
    ),
    "obj_noise": Edge(
        (("-1e-9", "'obj_noise' must be >= 0, got -1e-09"),
         ("[0.5, -1, 0.1]", "'obj_noise' must be >= 0, got -1"),
         ("[0.5, 0.5]", "noise_std must be a number or d=10 numbers, got [0.5, 0.5]"),
         ("1e200", OFFSET_TOO_LARGE.format("inf")),  # the loss offset overflows
         ("1e308", OFFSET_TOO_LARGE.format("nan"))),  # the samples overflow too
        ("0.0", "[" + ", ".join(["0"] * 10) + "]", "1e150"),
    ),
    "obj_eig_min": Edge(
        (("0.0", "diagonal must be positive definite"),
         ("2.5", "eig_range must not descend, got (2.5, 2.0)")),
        ("1e-9", "2.0"),
    ),
    "obj_eig_max": Edge((("0.4", "eig_range must not descend, got (0.5, 0.4)"),), ("0.5",)),
    "obj_reg": Edge(
        (("-1e-9", "regularization must be nonnegative"),), ("0.0",),
        (("objective", "logistic"),),
    ),
    **{
        key: Edge((("0", f"'{key}' must be >= 1, got 0"),), ("1",), (("objective", "tiny_mlp"),))
        for key in ("obj_hidden", "obj_in", "obj_out")
    },
    "obj_heavy": Edge(
        (("0", "need 1 <= heavy=0 <= d=10"), ("11", "need 1 <= heavy=11 <= d=10")),
        ("1", "10"),
        (("objective", "concentrated_quadratic"),),
    ),
    **{
        key: Edge(
            (("-1e-9", f"'{key}' must be >= 0, got -1e-09"),), ("0.0",),
            (("objective", "concentrated_quadratic"),),
        )
        for key in ("obj_heavy_noise", "obj_light_noise")
    },
}


def budget(k, specs) -> str:
    return f"'specs' must be nonempty with every entries budget k={k}, got {specs}"


FUZZ_EDGES = {
    "EstimateRisk": RISK_EDGES,
    "SweepRisk": SWEEP_EDGES,
    "CodecRoundtrip": {
        "seed": SEED,
        "out": OUT,
        "d": Edge(
            (("1", "d must be >= 2, got 1"), ("[8, 1]", "d must be >= 2, got 1"),
             ("[8, 16, 8]", twice("d", 8))),
            ("2",),
        ),
        "k": Edge(
            (("4", "k=4 cannot hold the 4-bit count header of d=8 plus a payload bit"),
             ("[5, 5]", twice("k", 5)),
             ("[24, 6]", "k=6 cannot hold the 7-bit count header of d=64 plus a payload bit",
              ("d", "[16, 64]"))),
            ("5", "all"),
        ),
        "samples": Edge((("-1", "'samples' must be >= 0, got -1"),), ("0",)),
    },
    "Train": {
        **TRAINING_EDGES,
        "k": Edge((("0", "need 1 <= k=0 <= r=0"), ("11", "need 1 <= k=11 <= r=10")), ("1", "10")),
        "r": Edge(
            (("0", "need 1 <= k=1 <= r=0"), ("11", "need 1 <= k=1 <= r=11 <= d=10")),
            ("1", "10"),
        ),
    },
    "CompareSparsifiers": {
        **TRAINING_EDGES,
        "k": Edge((("0", budget(0, ["top:1", "random:1", "rtop:1"])),), ("1",)),
        "specs": Edge(
            (("[]", budget(1, [])),
             ("[top:2, random:2]", budget(1, ["top:2", "random:2"])),
             ("[top:0]", "bad sparsifier spec 'top:0': r=0 below 1"),
             ("[random:-1]", "bad sparsifier spec 'random:-1': k=-1 below 1"),
             ("[rtop:4:0]", "bad sparsifier spec 'rtop:4:0': need 1 <= k=0 <= r=4"),
             ("[rtop:4:6]", "bad sparsifier spec 'rtop:4:6': need 1 <= k=6 <= r=4"),
             # a window wider than d is refused, not run as the window d
             ("[top:20]", "r=20 outside [1, 10]", ("k", "20")),
             ("[random:11]", "k=11 outside [1, 10]", ("k", "11")),
             ("[rtop:50:2]", "need 1 <= k=2 <= r=50 <= d=10", ("k", "2"))),
            ("[random:1]", "[rtop:10:1]"),
        ),
        "seeds": Edge(
            (("[-1, 2]", seed_range("seeds", -1)),
             (f"[1, {2**64}]", seed_range("seeds", 2**64))),
            (f"[0, {2**64 - 1}]",),
        ),
    },
    "Bounds": {
        "seed": SEED,
        "out": OUT,
        "n": RISK_EDGES["n"],
        "k": Edge((("0", "'k' must be >= 1, got 0"), ("[1, 0]", "'k' must be >= 1, got 0")), ("1",)),
        "d": Edge((("1", "'d' must be >= 2, got 1"), ("[16, 1]", "'d' must be >= 2, got 1")), ("2",)),
        "s": Edge(
            (("0.999", "s=0.999 must be at least 1"), ("0", "s=0.0 must be at least 1"),
             ("[2, 0]", "s=0.0 must be at least 1"), ("[2, 3, 2]", twice("s", 2)),
             ("17", "Bounds needs s <= d, got s=17 d=16"),
             ("[8, 20]", "Bounds needs s <= d, got s=20 d=16", ("d", "[64, 16]"))),
            ("1", "16"),
        ),
        "upper_constant": RISK_EDGES["upper_constant"],
        "lower_constant": RISK_EDGES["lower_constant"],
    },
}


def schema(command: str) -> dict:
    return {**harness._COMMON_SCHEMA, **harness.COMMANDS[command].schema}


def set_up(tmp_path, monkeypatch, stub, command: str, values: dict) -> str:
    """Work in ``tmp_path`` with every first unit of work replaced by
    ``stub``; returns the config of ``command`` from its base with
    ``values`` set, writing to ``out.csv`` with one worker."""
    monkeypatch.chdir(tmp_path)
    for name in WORK:
        monkeypatch.setattr(harness, name, stub)
    lines = {"command": command, **BASES[command], "workers": "1", "out": "out.csv", **values}
    with open("exp.cfg", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in lines.items()))
    return "exp.cfg"


def must_not_run(*args, **kwargs):
    raise AssertionError("a grid point or training run started")


class SetUpPassed(Exception):
    """Raised by the first unit of work: set-up let the config through."""


def reach_work(*args, **kwargs):
    raise SetUpPassed


def cases(kind: str):
    for command, edges in FUZZ_EDGES.items():
        for key, edge in edges.items():
            values = edge.outside if kind == "outside" else [(v, None) for v in edge.inside]
            for value, message, *pairs in values:
                yield pytest.param(
                    command, key, value, message, {**dict(edge.extra), **dict(pairs)}, edge.code,
                    id=f"{command}-{key}={value}",
                )


def test_every_kind_has_a_wrong_value():
    assert set(WRONG_KIND) == set(harness._KINDS)


@pytest.mark.parametrize("command", harness.COMMANDS)
def test_every_numeric_key_has_edges(command):
    keys = schema(command)
    numeric = {key for key, spec in keys.items() if spec.kind in NUMERIC_KINDS}
    assert numeric | {"out"} <= set(FUZZ_EDGES[command]) <= set(keys)
    for key, edge in FUZZ_EDGES[command].items():
        assert edge.inside and edge.outside, key


@pytest.mark.parametrize(
    "command,key",
    [(command, key) for command in harness.COMMANDS for key in schema(command)],
)
def test_wrong_kind_is_a_config_error(tmp_path, monkeypatch, command, key):
    spec = schema(command)[key]
    path = set_up(tmp_path, monkeypatch, must_not_run, command, {key: WRONG_KIND[spec.kind]})
    errors = []
    assert run(path, echo=lambda _: None, errcho=errors.append) == EXIT_CONFIG
    assert len(errors) == 1
    assert errors[0].startswith(
        f"ERROR code=2 kind=ConfigParseError message=key '{key}': expected {spec.kind}, got "
    )
    assert os.listdir() == ["exp.cfg"]


@pytest.mark.parametrize("command,key,value,message,extra,code", cases("outside"))
def test_just_outside_fails_before_work(
    tmp_path, monkeypatch, command, key, value, message, extra, code
):
    path = set_up(tmp_path, monkeypatch, must_not_run, command, {**extra, key: value})
    errors = []
    assert run(path, echo=lambda _: None, errcho=errors.append) == code
    kind = "ConfigParseError" if code == EXIT_CONFIG else "PreconditionError"
    assert errors == [f"ERROR code={code} kind={kind} message={message}"]
    assert os.listdir() == ["exp.cfg"]


@pytest.mark.parametrize("command,key,value,message,extra,code", cases("inside"))
def test_just_inside_passes_set_up(
    tmp_path, monkeypatch, command, key, value, message, extra, code
):
    path = set_up(tmp_path, monkeypatch, reach_work, command, {**extra, key: value})
    errors = []
    with pytest.raises(SetUpPassed):
        run(path, echo=lambda _: None, errcho=errors.append)
    assert errors == []
    assert os.listdir() == ["exp.cfg"]


def subcommand(command: str) -> str:
    """The command line name of ``command``."""
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "subcommand"]
    (name,) = [name for name, p in action.choices.items() if p.get_default("command") == command]
    return name


# ``--out`` meets the rule of the ``out`` key: the same edges, given unquoted.
@pytest.mark.parametrize("value", OUT_OUTSIDE)
@pytest.mark.parametrize("command", harness.COMMANDS)
def test_out_flag_outside_fails_before_work(tmp_path, monkeypatch, capsys, command, value):
    path = set_up(tmp_path, monkeypatch, must_not_run, command, {})
    assert cli.main([subcommand(command), "--config", path, "--out", value]) == EXIT_CONFIG
    message = out_error(value)
    assert capsys.readouterr().err == f"ERROR code=2 kind=ConfigParseError message={message}\n"
    assert os.listdir() == ["exp.cfg"]


# ``--seed`` meets the rule of the ``seed`` key.
@pytest.mark.parametrize(
    "value,message", [pytest.param(*edge, id=edge[0]) for edge in SEED.outside]
)
@pytest.mark.parametrize("command", harness.COMMANDS)
def test_seed_flag_outside_fails_before_work(
    tmp_path, monkeypatch, capsys, command, value, message
):
    path = set_up(tmp_path, monkeypatch, must_not_run, command, {})
    assert cli.main([subcommand(command), "--config", path, "--seed", value]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == f"ERROR code=3 kind=PreconditionError message={message}\n"
    assert os.listdir() == ["exp.cfg"]


@pytest.mark.parametrize("value", SEED.inside)
@pytest.mark.parametrize("command", harness.COMMANDS)
def test_seed_flag_inside_passes_set_up(tmp_path, monkeypatch, capsys, command, value):
    path = set_up(tmp_path, monkeypatch, reach_work, command, {})
    with pytest.raises(SetUpPassed):
        cli.main([subcommand(command), "--config", path, "--seed", value])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", harness.COMMANDS)
def test_out_flag_inside_passes_set_up(tmp_path, monkeypatch, capsys, command):
    path = set_up(tmp_path, monkeypatch, reach_work, command, {})
    with pytest.raises(SetUpPassed):
        cli.main([subcommand(command), "--config", path, "--out", "new/out.csv"])
    assert capsys.readouterr().err == ""
    assert os.listdir() == ["exp.cfg"]
