"""Config fuzz: every key of every command, at a value of the wrong kind and
at values just outside and just inside its rule.

A wrong kind exits 2 and an out-of-range value exits 3, with one ERROR
line naming the rule, before any grid point or training run starts; a
value just inside passes set-up and reaches the first unit of work.  No
case exits 1 or 4, and no case writes a CSV.  Every config runs one
worker, and no edge is a size that would allocate or spawn at scale.
"""

from typing import NamedTuple

import pytest

from sparsecomm import harness
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
    """Values just outside a key's rule, each with a fragment its error
    message must contain, and values just inside it; ``extra`` sets other
    keys the rule needs (an objective, say)."""

    outside: tuple = ()
    inside: tuple = ()
    extra: tuple = ()


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

SEED = Edge(inside=("-1", str(2**64)))  # any int: seeds are taken mod 2^64

RISK_EDGES = {
    "seed": SEED,
    "n": Edge((("0", "'n' must be >= 1, got 0"),), ("1",)),
    "k": Edge(
        (("5", "k=5 cannot hold the 5-bit count header of d=16 plus a payload bit"),), ("6",)
    ),
    "d": Edge((("1", "d must be >= 2, got 1"),), ("2",)),
    "s": Edge(
        (("0", "'s' must be > 0, got 0"), ("8.5", "s=8.5 must be at most d/2=8.0")),
        ("1e-9", "8"),
    ),
    "trials": Edge((("99", "'trials' must be >= 100, got 99"),), ("100",)),
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

TRAINING_EDGES = {
    "seed": SEED,
    "d": Edge((("0", "'d' must be >= 1, got 0"),), ("1",)),
    "n": Edge((("0", "n must be a positive integer, got 0"),), ("1",)),
    "batch_size": Edge((("0", "batch_size must be a positive integer, got 0"),), ("1",)),
    "steps": Edge((("0", "steps must be a positive integer, got 0"),), ("1",)),
    "eta": Edge(
        (("0", "learning rates must be positive, got 0"),
         ("[[1, 0.1]]", "eta steps must start at 0 and strictly increase, got [1]")),
        ("1e-300", "[[0, 0.1], [1, 0.2]]"),
    ),
    "init_scale": Edge((("-1e-9", "init_scale must be nonnegative, got -1e-09"),), ("0.0",)),
    "obj_samples": Edge(
        (("0", "'obj_samples' must be >= 1, got 0"), ("1", "'obj_samples' must be >= n=2, got 1")),
        ("2",),
    ),
    "obj_noise": Edge(
        (("-1e-9", "'obj_noise' must be >= 0, got -1e-09"),
         ("[0.5, 0.5]", "'obj_noise' must be a number or a list of d=10, got [0.5, 0.5]")),
        ("0.0", "[" + ", ".join(["0"] * 10) + "]"),
    ),
    "obj_eig_min": Edge(
        (("0.0", "diagonal must be positive definite"),
         ("2.5", "'obj_eig_min' must be <= obj_eig_max=2.0, got 2.5")),
        ("1e-9", "2.0"),
    ),
    "obj_eig_max": Edge(
        (("0.4", "'obj_eig_min' must be <= obj_eig_max=0.4, got 0.5"),), ("0.5",)
    ),
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

FUZZ_EDGES = {
    "EstimateRisk": RISK_EDGES,
    "SweepRisk": RISK_EDGES,
    "CodecRoundtrip": {
        "seed": SEED,
        "d": Edge((("1", "d must be >= 2, got 1"),), ("2",)),
        "k": Edge(
            (("4", "k=4 cannot hold the 4-bit count header of d=8 plus a payload bit"),),
            ("5", "all"),
        ),
        "samples": Edge((("-1", "'samples' must be >= 0, got -1"),), ("0",)),
    },
    "Train": {
        **TRAINING_EDGES,
        "k": Edge((("0", "need 1 <= k=0 <= r=0"),), ("1", "10")),
        "r": Edge(
            (("0", "need 1 <= k=1 <= r=0"), ("11", "need 1 <= k=1 <= r=11 <= d=10")),
            ("1", "10"),
        ),
    },
    "CompareSparsifiers": {
        **TRAINING_EDGES,
        "k": Edge((("0", "every entries budget k=0"),), ("1",)),
        "seeds": Edge(inside=("[-1, 2]",)),
    },
    "Bounds": {
        "seed": SEED,
        "n": RISK_EDGES["n"],
        "k": Edge((("0", "'k' must be >= 1, got 0"),), ("1",)),
        "d": Edge((("1", "'d' must be >= 2, got 1"),), ("2",)),
        "s": Edge(
            (("0", "'s' must be > 0, got 0"), ("17", "Bounds needs s <= d, got s=17 d=16")),
            ("1e-9", "16"),
        ),
        "upper_constant": RISK_EDGES["upper_constant"],
        "lower_constant": RISK_EDGES["lower_constant"],
    },
}


def schema(command: str) -> dict:
    return {**harness._COMMON_SCHEMA, **harness.COMMANDS[command].schema}


def write(tmp_path, command: str, values: dict):
    """The config of ``command`` from its base with ``values`` set, writing
    to ``out.csv`` with one worker; returns the config path and CSV path."""
    out = tmp_path / "out.csv"
    lines = {"command": command, **BASES[command], "workers": "1", "out": str(out), **values}
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
    return str(path), out


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
            for value, fragment in values:
                yield pytest.param(
                    command, key, value, fragment, dict(edge.extra),
                    id=f"{command}-{key}={value}",
                )


def test_every_kind_has_a_wrong_value():
    assert set(WRONG_KIND) == set(harness._KINDS)


@pytest.mark.parametrize("command", harness.COMMANDS)
def test_every_numeric_key_has_edges(command):
    numeric = {key for key, spec in schema(command).items() if spec.kind in NUMERIC_KINDS}
    assert numeric == set(FUZZ_EDGES[command])
    for key, edge in FUZZ_EDGES[command].items():
        has_rule = key not in ("seed", "seeds")
        assert edge.inside and bool(edge.outside) == has_rule, key


@pytest.mark.parametrize(
    "command,key",
    [(command, key) for command in harness.COMMANDS for key in schema(command)],
)
def test_wrong_kind_is_a_config_error(tmp_path, monkeypatch, command, key):
    for name in WORK:
        monkeypatch.setattr(harness, name, must_not_run)
    spec = schema(command)[key]
    path, out = write(tmp_path, command, {key: WRONG_KIND[spec.kind]})
    errors = []
    assert run(path, echo=lambda _: None, errcho=errors.append) == EXIT_CONFIG
    assert len(errors) == 1
    assert errors[0].startswith(
        f"ERROR code=2 kind=ConfigParseError message=key '{key}': expected {spec.kind}, got "
    )
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,fragment,extra", cases("outside"))
def test_just_outside_is_a_precondition_error(
    tmp_path, monkeypatch, command, key, value, fragment, extra
):
    for name in WORK:
        monkeypatch.setattr(harness, name, must_not_run)
    path, out = write(tmp_path, command, {**extra, key: value})
    errors = []
    assert run(path, echo=lambda _: None, errcho=errors.append) == EXIT_PRECONDITION
    assert len(errors) == 1
    assert errors[0].startswith("ERROR code=3 kind=PreconditionError message=")
    assert fragment in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,fragment,extra", cases("inside"))
def test_just_inside_passes_set_up(tmp_path, monkeypatch, command, key, value, fragment, extra):
    for name in WORK:
        monkeypatch.setattr(harness, name, reach_work)
    path, out = write(tmp_path, command, {**extra, key: value})
    errors = []
    with pytest.raises(SetUpPassed):
        run(path, echo=lambda _: None, errcho=errors.append)
    assert errors == []
    assert not out.exists()
