"""Config-file driven experiment harness.

Configs are flat ``key = value`` text files with typed values and bracket
lists (see docs/config-schema.md and the annotated examples under
configs/).  Each command runs a grid of work items, prints a one-line
summary per item, and persists results as CSV written atomically (temp
file + rename).  Floats are serialized with 17 significant digits, and a
fixed master seed makes output files byte-identical across runs and
worker counts.

Exit codes: 0 success, 2 config error, 3 precondition error, 4 runtime /
numeric / IO error.  On failure one machine-readable line is printed to
stderr: ``ERROR code=<n> kind=<ExceptionName> message=<text>``.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import sys
import tempfile
from dataclasses import asdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from .codec import (
    BudgetTooSmall,
    CodecConfig,
    CodecError,
    ceil_log2,
    decode,  # noqa: F401  unused here; bench/tracing.py wraps it by this name
    decode_batch,
    encode,
    encode_batch,
    make_config,
    serialize,
)
from .estimator import (
    CENTRALIZED,
    LOWER_MINIMAX,
    UPPER_ACHIEVABLE,
    BoundCurve,
    OutOfRegime,
    bound_value,
    hardest_param,
    monte_carlo_risk,
)
from .model import Observation, ParamVector, UniformPerturbation
from .objectives import (
    make_concentrated_quadratic,
    make_logistic,
    make_quadratic,
    make_tiny_mlp,
)
from .seeding import derive_seed, substream
from .sgdsim import TrainConfig, compare_sparsifiers, train
from .sparsify import SparsifierSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_RUNTIME = 4

RISK_COLUMNS = [
    "n", "k", "d", "s", "trials", "risk", "std_err",
    "upper_bound", "lower_bound", "centralized",
    "upper_regime", "lower_regime", "kprime", "probe", "status",
]
CODEC_COLUMNS = [
    "d", "k", "header_bits", "payload_bits", "kprime",
    "roundtrips", "failures", "status",
]
TRAIN_COLUMNS = ["t", "loss", "grad_sq_norm", "memory_sq_norm", "comm_entries"]
COMPARE_COLUMNS = [
    "spec", "k_entries", "seeds", "mean_final_loss", "std_final_loss",
    "mean_final_grad_sq", "std_final_grad_sq", "comm_entries_per_round",
]
BOUNDS_COLUMNS = [
    "n", "k", "d", "s", "upper_bound", "lower_bound", "centralized",
    "upper_regime", "lower_regime",
]


class ConfigParseError(Exception):
    """Malformed config file; the message names the offending line or key."""


class PreconditionError(Exception):
    """A work item violates an operation precondition."""


# --- config parsing ---------------------------------------------------------


def _parse_scalar(token: str):
    token = token.strip()
    if not token:
        raise ValueError("empty value")
    if '"' in token[1:-1]:
        raise ValueError("a string may not contain '\"'")
    if token[0] == '"' or token[-1] == '"':
        if len(token) < 2 or token[0] != token[-1]:
            raise ValueError("unterminated string")
        return token[1:-1]
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _split_items(body: str) -> list[str]:
    items: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced brackets")
    items.append("".join(cur))
    return items


def parse_value(text: str):
    """Parse one config value: a scalar or a (possibly nested) [..] list."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError("unterminated list")
        body = text[1:-1].strip()
        if not body:
            return []
        return [parse_value(item) for item in _split_items(body)]
    return _parse_scalar(text)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if not key.isidentifier():
            raise ConfigParseError(f"line {lineno}: bad key {key!r}")
        if key in values:
            raise ConfigParseError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = parse_value(rhs)
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: key '{key}': {exc}") from exc
    return values


_REQUIRED = object()


class Range(NamedTuple):
    """The values a key accepts: ``holds(v)``, described as ``text``."""

    holds: Callable[[object], bool]
    text: str


def _at_least(low) -> Range:
    return Range(lambda v: v >= low, f">= {low}")


def _above(low) -> Range:
    return Range(lambda v: v > low, f"> {low}")


class Key(NamedTuple):
    """One config key: its kind (a predicate in ``_KINDS``, checked by
    ``load_experiment``), its default (``_REQUIRED`` if the config must set
    it, ``None`` if the runner computes it), the range every value, or
    every list element, must lie in, and whether a list of it is a grid
    axis, whose values must be distinct (both checked by ``check_ranges``)."""

    kind: str
    default: object = _REQUIRED
    check: Optional[Range] = None
    grid: bool = False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    """An int or float that converts to a finite float (not nan, inf or 10**400)."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _is_list_of(pred: Callable[[object], bool], v) -> bool:
    return isinstance(v, list) and bool(v) and all(map(pred, v))


def _is_step(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and _is_int(v[0]) and _is_num(v[1])


# Each kind's predicate.
_KINDS: dict[str, Callable[[object], bool]] = {
    "int": _is_int,
    "positive_int": lambda v: _is_int(v) and v >= 1,
    "float": _is_num,
    "str": lambda v: isinstance(v, str),
    "int_or_list": lambda v: _is_int(v) or _is_list_of(_is_int, v),
    "num_or_list": lambda v: _is_num(v) or _is_list_of(_is_num, v),
    "str_list": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "int_list": lambda v: _is_list_of(_is_int, v),
    "schedule": lambda v: _is_num(v) or _is_list_of(_is_step, v),
    "budgets": lambda v: v == "all" or _is_int(v) or _is_list_of(_is_int, v),
}

# Keys every command takes; ``command`` itself is resolved first.
_COMMON_SCHEMA = {
    "seed": Key("int", 0),
    "out": Key("str", None),
    "workers": Key("positive_int", None),  # None: the cpu count
}

_RISK_SCHEMA = {
    "n": Key("int_or_list", check=_at_least(1), grid=True),
    "k": Key("int_or_list", check=_at_least(1), grid=True),
    "d": Key("int_or_list", check=_at_least(2), grid=True),
    "s": Key("num_or_list", check=_above(0), grid=True),
    "trials": Key("int", 1000, _at_least(100)),
    "probes": Key("str_list", ["flat"]),
    "perturb_halfwidth": Key("float", 0.0, Range(lambda v: 0 <= v <= 0.5, "in [0, 0.5]")),
    "upper_constant": Key("float", 1.0, _above(0)),
    "lower_constant": Key("float", 1.0, _above(0)),
}

_CODEC_SCHEMA = {
    "d": Key("int_or_list", check=_at_least(2), grid=True),
    "k": Key("budgets", "all", grid=True),
    "samples": Key("int", 0, _at_least(0)),  # 0 = exhaustive over all 2^d supports
}

_TRAINING_SCHEMA = {
    "objective": Key("str", "quadratic"),
    "d": Key("int", 100, _at_least(1)),
    "n": Key("int", 5, _at_least(1)),
    "batch_size": Key("int", 8, _at_least(1)),
    "k": Key("int", check=_at_least(1)),
    "steps": Key("int", check=_at_least(1)),
    "eta": Key("schedule", 0.1),
    "aggregation": Key("str", "error_feedback_mean"),
    "partition": Key("str", "contiguous"),
    "init_scale": Key("float", 1.0),
    "obj_samples": Key("int", 1000, _at_least(1)),
    "obj_noise": Key("num_or_list", 0.5, _at_least(0)),
    "obj_eig_min": Key("float", 0.5),
    "obj_eig_max": Key("float", 2.0),
    "obj_reg": Key("float", 1e-3),
    "obj_hidden": Key("int", 8, _at_least(1)),
    "obj_in": Key("int", 4, _at_least(1)),
    "obj_out": Key("int", 1, _at_least(1)),
    "obj_heavy": Key("int", 10),
    "obj_heavy_noise": Key("float", 0.8, _at_least(0)),
    "obj_light_noise": Key("float", 0.004, _at_least(0)),
}

# Train's rtop window; CompareSparsifiers names each window in its specs.
_TRAIN_SCHEMA = dict(_TRAINING_SCHEMA, r=Key("int", None))  # None: min(n*k, d)
_COMPARE_SCHEMA = dict(_TRAINING_SCHEMA, specs=Key("str_list"), seeds=Key("int_list"))

_BOUNDS_SCHEMA = {
    key: _RISK_SCHEMA[key] for key in ("n", "k", "d", "s", "upper_constant", "lower_constant")
}


class ExperimentConfig:
    """A parsed, schema-checked config bound to one command."""

    def __init__(self, command: str, params: dict, seed: int, out: Optional[str], workers: int):
        self.command = command
        self.params = params
        self.seed = seed
        self.out = out
        self.workers = workers


def load_experiment(
    path: str,
    command: Optional[str] = None,
    seed: Optional[int] = None,
    out: Optional[str] = None,
) -> ExperimentConfig:
    """Read, parse, and schema-check a config file.

    ``command``, ``seed`` and ``out`` given here (e.g. from the CLI)
    override or complete the file's values; a command that contradicts
    the file is a config error.  Ranges are left to :func:`check_ranges`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path!r}: {exc}") from exc
    file_command = raw.pop("command", None)
    if file_command is not None and not isinstance(file_command, str):
        raise ConfigParseError("key 'command': expected a command name")
    resolved = command or file_command
    if resolved is None:
        raise ConfigParseError("no command given (config key 'command' or CLI subcommand)")
    if resolved not in COMMANDS:
        raise ConfigParseError(
            f"unknown command {resolved!r}; choose from {', '.join(COMMANDS)}"
        )
    if command and file_command and command != file_command:
        raise ConfigParseError(
            f"config says command={file_command!r} but {command!r} was requested"
        )

    schema = {**_COMMON_SCHEMA, **COMMANDS[resolved].schema}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigParseError(f"unknown key '{key}' for command {resolved}")
        if not _KINDS[schema[key].kind](value):
            raise ConfigParseError(f"key '{key}': expected {schema[key].kind}, got {value!r}")
    for key, spec in schema.items():
        if key not in raw and spec.default is _REQUIRED:
            raise ConfigParseError(f"missing required key '{key}' for {resolved}")
        raw.setdefault(key, spec.default)
    cfg_seed, cfg_out, workers = (raw.pop(key) for key in _COMMON_SCHEMA)
    final_out = out if out is not None else cfg_out
    if resolved != "CodecRoundtrip" and final_out is None:
        raise ConfigParseError(f"command {resolved} requires an output path ('out' or --out)")
    final_seed = seed if seed is not None else cfg_seed
    return ExperimentConfig(resolved, raw, final_seed, final_out, workers or os.cpu_count() or 1)


def check_ranges(config: ExperimentConfig) -> None:
    """PreconditionError unless every value of ``config`` (each element of
    a list) lies in its key's range, and no grid axis lists a value twice
    (each repeat would rerun a whole grid point); ``run`` calls it before
    any work."""
    schema = COMMANDS[config.command].schema
    for key, value in config.params.items():
        check = schema[key].check
        for item in _as_list(value) if check else ():
            if not check.holds(item):
                raise PreconditionError(f"'{key}' must be {check.text}, got {item}")
        grid = value if schema[key].grid and isinstance(value, list) else []
        repeats = [item for i, item in enumerate(grid) if item in grid[:i]]
        if repeats:
            raise PreconditionError(f"'{key}' lists {repeats[0]} twice; each value is a grid point")


# --- CSV output -------------------------------------------------------------


def format_cell(value) -> str:
    """17-significant-digit floats; ints and strings verbatim; None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv_atomic(path: str, columns: list[str], rows: list[dict]) -> None:
    """Serialize rows in column order and atomically replace ``path``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(row.get(col)) for col in columns])
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
        umask = os.umask(0)  # read it back: mkstemp creates the file 0600
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- probes -----------------------------------------------------------------


def probe_param(name: str, d: int, s: float) -> ParamVector:
    """Named worst-case probes for the risk commands."""
    if name == "flat":
        try:
            return hardest_param(d, s)
        except ValueError as exc:
            raise PreconditionError(str(exc)) from exc
    if name == "half_flat":
        if s > d:
            raise PreconditionError(f"probe half_flat needs s <= d, got s={s} d={d}")
        return ParamVector(np.full(d, s / (2 * d)), s=float(s))
    if name == "corner":
        ones = int(s)
        if not 1 <= ones <= d:
            raise PreconditionError(f"probe corner needs 1 <= floor(s) <= d, got s={s} d={d}")
        values = np.zeros(d)
        values[:ones] = 1.0
        return ParamVector(values, s=float(s))
    raise PreconditionError(f"unknown probe {name!r} (expected flat, half_flat, corner)")


# --- risk commands ----------------------------------------------------------


def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def _risk_grid(params: dict) -> list[dict]:
    grid = []
    for probe, n, k, d, s in itertools.product(
        params["probes"],
        _as_list(params["n"]),
        _as_list(params["k"]),
        _as_list(params["d"]),
        _as_list(params["s"]),
    ):
        grid.append({"probe": probe, "n": n, "k": k, "d": d, "s": s})
    return grid


def _bound_columns(n, k, d, s, theta, upper_c: float, lower_c: float) -> dict:
    """The reference-curve columns of a risk or bounds row at (n, k, d, s).

    An out-of-regime curve gets an empty value and names the failed
    hypothesis in its regime column; ``centralized`` is empty without theta.
    """
    upper = bound_value(BoundCurve(UPPER_ACHIEVABLE, upper_c), n, k, d, s)
    lower = bound_value(BoundCurve(LOWER_MINIMAX, lower_c), n, k, d, s)
    return {
        "upper_bound": None if isinstance(upper, OutOfRegime) else upper,
        "upper_regime": upper.reason if isinstance(upper, OutOfRegime) else "ok",
        "lower_bound": None if isinstance(lower, OutOfRegime) else lower,
        "lower_regime": lower.reason if isinstance(lower, OutOfRegime) else "ok",
        "centralized": (
            None if theta is None else bound_value(BoundCurve(CENTRALIZED), n, k, d, s, theta=theta)
        ),
    }


def _budget_config(d: int, k: int) -> CodecConfig:
    """The codec config of (d, k); a budget below the count header is a
    precondition error."""
    try:
        return make_config(d, k)
    except BudgetTooSmall as exc:
        raise PreconditionError(f"d={d}, k={k}: {exc}") from exc


def _risk_point(args: tuple) -> dict:
    """One grid point of a risk sweep (top level: picklable for pools)."""
    point, theta, cfg, trials, halfwidth, upper_c, lower_c, point_seed = args
    n, k, d, s = point["n"], point["k"], point["d"], point["s"]
    row = dict(point, trials=trials, kprime=cfg.kprime)
    row.update(_bound_columns(n, k, d, s, theta, upper_c, lower_c))
    if cfg.degenerate:
        row["risk"] = None
        row["std_err"] = None
        row["status"] = "degenerate_codec"
        return row
    perturb = UniformPerturbation(halfwidth) if halfwidth > 0 else None
    estimate = monte_carlo_risk(theta, n, cfg, trials, perturb=perturb, seed=point_seed)
    row["risk"] = estimate.mean_sq_error
    row["std_err"] = estimate.std_error
    row["status"] = "ok"
    return row


def _run_risk(config: ExperimentConfig, echo) -> list[dict]:
    params = config.params
    if config.command == "EstimateRisk":
        for key in ("n", "k", "d", "s"):
            if isinstance(params[key], list):
                raise PreconditionError(
                    f"EstimateRisk takes scalar parameters; '{key}' is a list "
                    "(use SweepRisk for grids)"
                )
    grid = _risk_grid(params)
    if not grid:
        raise PreconditionError("empty grid")
    # Every point's probe and codec config is built before the first point
    # runs, so a probe range or budget error exits 3 with no work done.
    inputs = [
        (probe_param(p["probe"], p["d"], p["s"]), _budget_config(p["d"], p["k"])) for p in grid
    ]
    jobs = [
        (
            point,
            theta,
            cfg,
            params["trials"],
            params["perturb_halfwidth"],
            params["upper_constant"],
            params["lower_constant"],
            derive_seed(config.seed, index),
        )
        for index, (point, (theta, cfg)) in enumerate(zip(grid, inputs))
    ]
    if config.workers > 1 and len(jobs) > 1:
        # imported here: the pool pulls in multiprocessing, which no other
        # command needs
        from concurrent.futures import ProcessPoolExecutor

        # one worker per point at most: a fork pool starts them all at once
        with ProcessPoolExecutor(max_workers=min(config.workers, len(jobs))) as pool:
            rows = list(pool.map(_risk_point, jobs))
    else:
        rows = [_risk_point(job) for job in jobs]
    for index, row in enumerate(rows):
        if row["status"] == "ok":
            echo(
                f"[{index + 1}/{len(rows)}] probe={row['probe']} n={row['n']} "
                f"k={row['k']} d={row['d']} s={row['s']} -> "
                f"risk={row['risk']:.6g} +- {row['std_err']:.2g}"
            )
        else:
            echo(
                f"[{index + 1}/{len(rows)}] probe={row['probe']} n={row['n']} "
                f"k={row['k']} d={row['d']} s={row['s']} -> {row['status']} "
                f"(kprime=0)"
            )
    return rows


# --- codec roundtrip command ------------------------------------------------


def _admissible_budgets(d: int) -> list[int]:
    """All budgets from the two-header minimum to codebook saturation."""
    header = ceil_log2(d + 1)
    low = max(2 * ceil_log2(d), header + 1)
    return list(range(low, header + d + 1))


# Supports are drawn or enumerated in pieces of at most _SUPPORT_PIECE
# entries, and encoded, decoded and checked in blocks of at most
# _SUPPORT_BLOCK entries: 1024 rows per ``encode_batch`` and ``decode_batch``
# call at d = 16 and 64 at d = 256.  The float support draws stay
# piece-sized (64 KB); the block's subsample keys and the padded copy of
# them that ``encode_batch`` sorts (128 KB each, with an int64 select mask
# as large while the copy is built) are the largest temporaries.  On the
# codec_roundtrip benchmark (seed 9, 2-core x86_64, Python 3.11, numpy 2.4)
# peak RSS was 37.66 MB with these sizes, 37.54 MB with 2^13-entry blocks
# (which ran about 18% slower), and 38.35 MB with 2^15-entry blocks (about
# 2% faster).
_SUPPORT_PIECE = 1 << 13
_SUPPORT_BLOCK = 1 << 14
# Each point's first supports also go through scalar ``encode`` and
# ``serialize``, on a second generator started at the same stream state.
_CROSS_CHECK_ROWS = 32


def _support_blocks(d: int, samples: int, rng: np.random.Generator):
    """(rows, d) boolean blocks whose rows are the roundtrip supports, in order.

    Each block holds ``_SUPPORT_BLOCK // d`` rows (at least 1; the last
    block may hold fewer) and is filled in pieces of ``_SUPPORT_PIECE // d``
    rows (at least 1).  With ``samples`` > 0 each row holds
    ``rng.random(d) < 0.5``, the same draws as one ``random(d)`` call per
    sample; with 0 the rows are the bit patterns 0 .. 2^d - 1, most
    significant bit first, which is the order of
    ``itertools.product((0, 1), repeat=d)``.
    """
    total = samples or 1 << d
    rows, piece = max(1, _SUPPORT_BLOCK // d), max(1, _SUPPORT_PIECE // d)
    shifts = np.arange(d - 1, -1, -1)
    for lo in range(0, total, rows):
        block = np.empty((min(rows, total - lo), d), dtype=bool)
        for start in range(0, len(block), piece):
            part = block[start : start + piece]
            if samples:
                np.less(rng.random(part.shape), 0.5, out=part)
            else:
                part[...] = (np.arange(lo + start, lo + start + len(part))[:, None] >> shifts) & 1
        yield block


def _codec_point(cfg: CodecConfig, samples: int, seed: int, echo) -> dict:
    """Roundtrip every support of one (d, k) point; raise if any fails.

    Each block from :func:`_support_blocks` goes through
    :func:`_block_failures`, which draws its subsample keys from
    ``substream(seed, 7)`` in the order scalar ``encode`` draws them
    support by support.  The first ``_CROSS_CHECK_ROWS`` supports are also
    encoded by scalar ``encode`` on a copy of the stream's start state.
    """
    d, k = cfg.d, cfg.k
    failures = 0
    total = 0
    rng = substream(seed, 7)
    scalar_rng = np.random.Generator(np.random.PCG64())
    scalar_rng.bit_generator.state = rng.bit_generator.state
    for block in _support_blocks(d, samples, np.random.default_rng(seed)):
        checked = min(len(block), max(0, _CROSS_CHECK_ROWS - total))
        failures += _block_failures(block, cfg, rng, scalar_rng, checked)
        total += len(block)
    echo(f"roundtrips: {total - failures}/{total} ok (d={d}, k={k})")
    if failures:
        raise RuntimeError(f"{failures} codec roundtrips failed for d={d}, k={k}")
    return {
        "d": d,
        "k": k,
        "header_bits": cfg.header_bits,
        "payload_bits": cfg.payload_bits,
        "kprime": cfg.kprime,
        "roundtrips": total,
        "failures": failures,
        "status": "ok",
    }


def _block_failures(
    block: np.ndarray, cfg: CodecConfig, rng: np.random.Generator,
    scalar_rng: np.random.Generator, checked: int,
) -> int:
    """How many supports (rows) of one block fail their roundtrip.

    The block is encoded with one ``encode_batch`` call.  Its keys are one
    ``rng.random`` draw per position of the rows with count > kprime > 0,
    filled in row-major order: the draws scalar ``encode`` makes support
    by support.  One ``decode_batch`` call decodes it, and the rows are
    checked as arrays: each message fits k bits and has the true count, and
    decodes to min(count, kprime) ones, all inside the support.  The first
    ``checked`` rows also go through scalar ``encode`` on ``scalar_rng``
    and ``serialize``, and fail unless that message is the batch one in k
    bits.  Its temporaries are freed before the next block is drawn.
    """
    d, kprime = cfg.d, cfg.kprime
    counts = np.count_nonzero(block, axis=1)
    keys = np.zeros(block.shape)
    if kprime:  # a 1-d scatter by flat index: no branch on the half-dense mask
        at = np.flatnonzero(block & (counts > kprime)[:, None])
        keys.reshape(-1)[at] = rng.random(at.size)
    sent, payloads, _ = encode_batch(block, cfg, keys)
    del keys
    decoded = decode_batch(sent, payloads, cfg)
    ok = (
        (sent < 1 << cfg.header_bits) & (payloads < 1 << cfg.payload_bits)  # k bits
        & (sent == counts)
        & (np.count_nonzero(decoded, axis=1) == np.minimum(counts, kprime))
        & ~(decoded > block).any(axis=1)  # no decoded one outside the support
    )
    for i in range(checked):
        msg = encode(Observation(d, np.flatnonzero(block[i])), cfg, scalar_rng)
        bits = serialize(msg, cfg)
        ok[i] &= (msg.count, msg.payload_index, len(bits)) == (sent[i], payloads[i], cfg.k)
    return len(block) - int(np.count_nonzero(ok))


def _run_codec(config: ExperimentConfig, echo) -> list[dict]:
    params = config.params
    samples, dims, k_spec = params["samples"], _as_list(params["d"]), params["k"]
    if samples == 0 and max(dims) > 16:
        raise PreconditionError(
            f"exhaustive roundtrip over 2^{max(dims)} supports is infeasible; "
            "set 'samples' for d > 16"
        )
    points = [
        (_budget_config(d, k), derive_seed(config.seed, index))
        for index, d in enumerate(dims)
        for k in (_admissible_budgets(d) if k_spec == "all" else _as_list(k_spec))
    ]
    return [_codec_point(cfg, samples, seed, echo) for cfg, seed in points]


# --- train / compare commands ------------------------------------------------


def _build_objective(params: dict, seed: int):
    kind = params["objective"]
    if kind == "quadratic":
        noise = params["obj_noise"]
        return make_quadratic(
            params["d"],
            n_samples=params["obj_samples"],
            eig_range=(params["obj_eig_min"], params["obj_eig_max"]),
            noise_std=np.asarray(noise, dtype=float) if isinstance(noise, list) else noise,
            seed=seed,
        )
    if kind == "concentrated_quadratic":
        return make_concentrated_quadratic(
            params["d"],
            heavy=params["obj_heavy"],
            n_samples=params["obj_samples"],
            heavy_noise=params["obj_heavy_noise"],
            light_noise=params["obj_light_noise"],
            seed=seed,
        )
    if kind == "logistic":
        return make_logistic(
            params["d"], n_samples=params["obj_samples"], lam=params["obj_reg"], seed=seed
        )
    if kind == "tiny_mlp":
        return make_tiny_mlp(
            n_in=params["obj_in"],
            hidden=params["obj_hidden"],
            n_out=params["obj_out"],
            n_samples=params["obj_samples"],
            seed=seed,
        )
    raise PreconditionError(f"unknown objective {kind!r}")


def _rtop_window(n: int, k: int, d: int) -> int:
    """The default rtop window: each of the top n*k coordinates (at most d)
    is kept with probability k/r = 1/n, about once a round across n nodes."""
    return min(n * k, d)


def _training_setup(
    params: dict, seed: int, specs: Optional[list[str]] = None
) -> tuple[TrainConfig, object, list[SparsifierSpec]]:
    """The training config, objective and sparsifiers of a Train config (its
    rtop window) or of a CompareSparsifiers config (its parsed ``specs``,
    each spending the budget k; the training config holds the first).  All
    are built from the config alone and every window is checked against d,
    so any error here is a precondition error, raised before training."""
    d, n, k, noise = params["d"], params["n"], params["k"], params["obj_noise"]
    try:
        low, high = params["obj_eig_min"], params["obj_eig_max"]
        if params["objective"] == "quadratic" and isinstance(noise, list) and len(noise) != d:
            raise PreconditionError(f"'obj_noise' must be a number or a list of d={d}, got {noise}")
        if params["objective"] == "quadratic" and low > high:
            raise PreconditionError(f"'obj_eig_min' must be <= obj_eig_max={high}, got {low}")
        # the builders check their own parameter ranges
        obj = _build_objective(params, derive_seed(seed, 0))
        if obj.n_samples < n:
            raise PreconditionError(f"'obj_samples' must be >= n={n}, got {obj.n_samples}")
        if specs is None:
            r = _rtop_window(n, k, obj.d) if params["r"] is None else params["r"]
            if not k <= r <= obj.d:
                raise PreconditionError(f"need k={k} <= r={r} <= d={obj.d}")
            sparsifiers = [SparsifierSpec.rtop(r, k)]
        else:
            sparsifiers = [parse_spec_string(text, obj.d, n) for text in specs]
            for spec in sparsifiers:
                spec.window(obj.d)
            if not sparsifiers or any(spec.entries_budget != k for spec in sparsifiers):
                raise PreconditionError(
                    f"'specs' must be nonempty with every entries budget k={k}, got {specs}"
                )
        cfg = TrainConfig(
            n=n,
            steps=params["steps"],
            sparsifier=sparsifiers[0],
            batch_size=params["batch_size"],
            eta=params["eta"],
            aggregation=params["aggregation"],
            partition=params["partition"],
            init_scale=params["init_scale"],
            seed=seed,
        )
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    return cfg, obj, sparsifiers


def _run_train(config: ExperimentConfig, echo) -> list[dict]:
    cfg, obj, _ = _training_setup(config.params, config.seed)
    result = train(obj, cfg)
    echo(
        f"trained {config.params['objective']} d={obj.d} for {cfg.steps} rounds -> "
        f"final loss={result.final.loss:.6g}, grad_sq={result.final.grad_sq_norm:.6g}"
    )
    return [asdict(record) for record in result.records]


def parse_spec_string(text: str, d: int, n: int) -> SparsifierSpec:
    """Sparsifier spec syntax: ``top:K``, ``random:K``, ``rtop:R:K``,
    or ``rtop:K`` (window defaults to min(n*K, d))."""
    parts = text.split(":")
    try:
        if parts[0] == "top" and len(parts) == 2:
            return SparsifierSpec.top(int(parts[1]))
        if parts[0] == "random" and len(parts) == 2:
            return SparsifierSpec.random(int(parts[1]))
        if parts[0] == "rtop" and len(parts) == 3:
            return SparsifierSpec.rtop(int(parts[1]), int(parts[2]))
        if parts[0] == "rtop" and len(parts) == 2:
            k = int(parts[1])
            return SparsifierSpec.rtop(_rtop_window(n, k, d), k)
    except ValueError as exc:
        raise PreconditionError(f"bad sparsifier spec {text!r}: {exc}") from exc
    raise PreconditionError(
        f"bad sparsifier spec {text!r}; use top:K, random:K, rtop:R:K or rtop:K"
    )


def _run_compare(config: ExperimentConfig, echo) -> list[dict]:
    params = config.params
    cfg, obj, specs = _training_setup(params, config.seed, params["specs"])
    # outside any catch: a run that diverges mid-training is a runtime error
    rows = compare_sparsifiers(obj, cfg, specs, params["seeds"])
    for row in rows:
        echo(
            f"{row['spec']}: final loss {row['mean_final_loss']:.6g} "
            f"+- {row['std_final_loss']:.2g} over {row['seeds']} seeds"
        )
    return rows


# --- bounds command ----------------------------------------------------------


def _run_bounds(config: ExperimentConfig, echo) -> list[dict]:
    params = config.params
    for d, s in itertools.product(_as_list(params["d"]), _as_list(params["s"])):
        if s > d:
            raise PreconditionError(f"Bounds needs s <= d, got s={s} d={d}")
    rows = []
    grid = itertools.product(
        _as_list(params["n"]), _as_list(params["k"]), _as_list(params["d"]), _as_list(params["s"])
    )
    for n, k, d, s in grid:
        theta = probe_param("flat", d, s) if s <= d / 2 else None
        bounds = _bound_columns(
            n, k, d, s, theta, params["upper_constant"], params["lower_constant"]
        )
        rows.append({"n": n, "k": k, "d": d, "s": s, **bounds})
    echo(f"evaluated bounds at {len(rows)} grid points")
    return rows


# --- command table and entry point ------------------------------------------


class Command(NamedTuple):
    """One experiment command: its config keys, its runner, the CSV columns
    of the runner's rows, and the one-line summary its CLI subcommand shows."""

    schema: dict
    runner: Callable[[ExperimentConfig, Callable[[str], None]], list[dict]]
    columns: list[str]
    summary: str


# Every command, in the CLI's order; its subcommand is the name in kebab case.
COMMANDS = {
    "EstimateRisk": Command(
        _RISK_SCHEMA, _run_risk, RISK_COLUMNS,
        "Monte Carlo risk of the pipeline at a single parameter point",
    ),
    "SweepRisk": Command(
        _RISK_SCHEMA, _run_risk, RISK_COLUMNS,
        "risk over a (probe, n, k, d, s) grid with bound-curve columns",
    ),
    "CodecRoundtrip": Command(
        _CODEC_SCHEMA, _run_codec, CODEC_COLUMNS,
        "encode/decode/serialize roundtrip check over supports",
    ),
    "Train": Command(
        _TRAIN_SCHEMA, _run_train, TRAIN_COLUMNS,
        "distributed SGD simulation, one metrics row per round",
    ),
    "CompareSparsifiers": Command(
        _COMPARE_SCHEMA, _run_compare, COMPARE_COLUMNS,
        "train per sparsifier and seed at an equal entries budget",
    ),
    "Bounds": Command(
        _BOUNDS_SCHEMA, _run_bounds, BOUNDS_COLUMNS,
        "reference bound curves over a parameter grid",
    ),
}


def run(
    config_path: str,
    command: Optional[str] = None,
    seed: Optional[int] = None,
    out: Optional[str] = None,
    echo=print,
    errcho=None,
) -> int:
    """Execute one experiment config; returns the process exit code."""
    if errcho is None:
        errcho = lambda msg: print(msg, file=sys.stderr)

    def fail(code: int, exc: BaseException) -> int:
        errcho(f"ERROR code={code} kind={type(exc).__name__} message={exc}")
        return code

    try:
        config = load_experiment(config_path, command=command, seed=seed, out=out)
        check_ranges(config)
        entry = COMMANDS[config.command]
        rows = entry.runner(config, echo)
    except ConfigParseError as exc:
        return fail(EXIT_CONFIG, exc)
    except PreconditionError as exc:
        return fail(EXIT_PRECONDITION, exc)
    except (ValueError, ArithmeticError, RuntimeError, CodecError) as exc:
        return fail(EXIT_RUNTIME, exc)
    if config.out is not None:
        try:
            write_csv_atomic(config.out, entry.columns, rows)
        except OSError as exc:
            return fail(EXIT_RUNTIME, exc)
        echo(f"wrote {len(rows)} rows to {config.out}")
    return EXIT_OK
