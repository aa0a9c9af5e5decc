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
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .codec import (
    BudgetTooSmall,
    CodecConfig,
    CodecError,
    ceil_log2,
    decode,
    encode,
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


class InsufficientData(ValueError):
    """Slope fitting needs at least three rows."""


class NonPositiveValue(ValueError):
    """Slope fitting needs strictly positive numeric values in both columns."""


# --- config parsing ---------------------------------------------------------


def _parse_scalar(token: str):
    token = token.strip()
    if not token:
        raise ValueError("empty value")
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
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

_RISK_SCHEMA = {
    "n": ("int_or_list", _REQUIRED),
    "k": ("int_or_list", _REQUIRED),
    "d": ("int_or_list", _REQUIRED),
    "s": ("num_or_list", _REQUIRED),
    "trials": ("int", 1000),
    "probes": ("str_list", ["flat"]),
    "perturb_halfwidth": ("float", 0.0),
    "upper_constant": ("float", 1.0),
    "lower_constant": ("float", 1.0),
}

_CODEC_SCHEMA = {
    "d": ("int_or_list", _REQUIRED),
    "k": ("any", "all"),  # int, list of ints, or the word "all"
    "samples": ("int", 0),  # 0 = exhaustive over all 2^d supports
}

_TRAIN_SCHEMA = {
    "objective": ("str", "quadratic"),
    "d": ("int", 100),
    "n": ("int", 5),
    "batch_size": ("int", 8),
    "k": ("int", _REQUIRED),
    "r": ("int", None),
    "steps": ("int", _REQUIRED),
    "eta": ("schedule", 0.1),
    "aggregation": ("str", "error_feedback_mean"),
    "partition": ("str", "contiguous"),
    "init_scale": ("float", 1.0),
    "obj_samples": ("int", 1000),
    "obj_noise": ("num_or_list", 0.5),
    "obj_eig_min": ("float", 0.5),
    "obj_eig_max": ("float", 2.0),
    "obj_reg": ("float", 1e-3),
    "obj_hidden": ("int", 8),
    "obj_in": ("int", 4),
    "obj_out": ("int", 1),
    "obj_heavy": ("int", 10),
    "obj_heavy_noise": ("float", 0.8),
    "obj_light_noise": ("float", 0.004),
}

_COMPARE_SCHEMA = dict(_TRAIN_SCHEMA)
_COMPARE_SCHEMA.update(
    {
        "specs": ("str_list", _REQUIRED),
        "seeds": ("int_list", _REQUIRED),
    }
)

_BOUNDS_SCHEMA = {
    key: _RISK_SCHEMA[key] for key in ("n", "k", "d", "s", "upper_constant", "lower_constant")
}


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_type(key: str, value, expected: str):
    ok = True
    if expected == "str":
        ok = isinstance(value, str)
    elif expected == "int":
        ok = _is_int(value)
    elif expected == "float":
        ok = _is_num(value)
    elif expected == "int_or_list":
        ok = _is_int(value) or (
            isinstance(value, list) and value and all(_is_int(v) for v in value)
        )
    elif expected == "num_or_list":
        ok = _is_num(value) or (
            isinstance(value, list) and value and all(_is_num(v) for v in value)
        )
    elif expected == "str_list":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif expected == "int_list":
        ok = isinstance(value, list) and value and all(_is_int(v) for v in value)
    elif expected == "schedule":
        ok = _is_num(value) or (
            isinstance(value, list)
            and value
            and all(
                isinstance(p, list) and len(p) == 2 and _is_int(p[0]) and _is_num(p[1])
                for p in value
            )
        )
    elif expected == "any":
        ok = True
    if not ok:
        raise ConfigParseError(f"key '{key}': expected {expected}, got {value!r}")
    return value


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
    the file is a config error.
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
    cfg_seed = raw.pop("seed", 0)
    if not _is_int(cfg_seed):
        raise ConfigParseError(f"key 'seed': expected int, got {cfg_seed!r}")
    cfg_out = raw.pop("out", None)
    if cfg_out is not None and not isinstance(cfg_out, str):
        raise ConfigParseError(f"key 'out': expected string, got {cfg_out!r}")
    workers = raw.pop("workers", None)
    if workers is None:
        workers = os.cpu_count() or 1
    if not _is_int(workers) or workers < 1:
        raise ConfigParseError(f"key 'workers': expected positive int, got {workers!r}")

    schema = COMMANDS[resolved].schema
    params = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigParseError(f"unknown key '{key}' for command {resolved}")
        params[key] = _check_type(key, value, schema[key][0])
    for key, (_, default) in schema.items():
        if key not in params:
            if default is _REQUIRED:
                raise ConfigParseError(f"missing required key '{key}' for {resolved}")
            params[key] = default

    final_seed = seed if seed is not None else cfg_seed
    final_out = out if out is not None else cfg_out
    if resolved != "CodecRoundtrip" and final_out is None:
        raise ConfigParseError(f"command {resolved} requires an output path ('out' or --out)")
    return ExperimentConfig(resolved, params, final_seed, final_out, workers)


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
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- slope fitting ----------------------------------------------------------


def fit_slope(source: Union[str, list[dict]], x_col: str, y_col: str) -> tuple[float, float]:
    """Ordinary least squares of log(y) on log(x): (slope, std error).

    ``source`` is a CSV path or a list of row dicts.  Requires at least
    three rows and strictly positive values in both columns.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    else:
        rows = source
    xs, ys = [], []
    for row in rows:
        for col, dest in ((x_col, xs), (y_col, ys)):
            cell = row.get(col)
            if cell is None or cell == "":
                raise NonPositiveValue(f"column '{col}' has an empty cell")
            try:
                value = float(cell)
            except (TypeError, ValueError) as exc:
                raise NonPositiveValue(f"column '{col}' has non-numeric {cell!r}") from exc
            if value <= 0:
                raise NonPositiveValue(f"column '{col}' has non-positive value {value}")
            dest.append(value)
    if len(xs) < 3:
        raise InsufficientData(f"need at least 3 rows, got {len(xs)}")
    lx = np.log(xs)
    ly = np.log(ys)
    dx = lx - lx.mean()
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        raise NonPositiveValue("x column is constant")
    slope = float(np.sum(dx * (ly - ly.mean())) / sxx)
    resid = ly - (ly.mean() + slope * dx)
    dof = len(xs) - 2
    std_err = math.sqrt(max(float(np.sum(resid**2)), 0.0) / dof / sxx) if dof else 0.0
    return slope, std_err


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
            raise PreconditionError(f"probe corner needs 1 <= floor(s) <= d")
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


def _check_grid_values(params: dict) -> None:
    """Config-only preconditions of a risk or bounds grid, checked before
    any grid point runs: every ``n >= 1``, ``d >= 2`` and ``s > 0``."""
    for key, low in (("n", 1), ("d", 2)):
        for value in _as_list(params[key]):
            if value < low:
                raise PreconditionError(f"'{key}' must be >= {low}, got {value}")
    for s in _as_list(params["s"]):
        if not s > 0:
            raise PreconditionError(f"'s' must be > 0, got {s}")


def _run_risk(config: ExperimentConfig, echo) -> list[dict]:
    params = config.params
    if params["trials"] < 100:
        raise PreconditionError("trials must be at least 100")
    _check_grid_values(params)
    if not 0 <= params["perturb_halfwidth"] <= 0.5:
        raise PreconditionError(
            f"'perturb_halfwidth' must lie in [0, 0.5], got {params['perturb_halfwidth']}"
        )
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
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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


def _codec_point(cfg: CodecConfig, samples: int, seed: int, echo) -> dict:
    d, k = cfg.d, cfg.k
    rng_bits = np.random.default_rng(seed)
    row = {
        "d": d,
        "k": k,
        "header_bits": cfg.header_bits,
        "payload_bits": cfg.payload_bits,
        "kprime": cfg.kprime,
    }
    failures = 0
    total = 0
    if samples == 0:
        supports = (
            np.flatnonzero(np.array(bits))
            for bits in itertools.product((0, 1), repeat=d)
        )
    else:
        supports = (
            np.flatnonzero(rng_bits.random(d) < 0.5) for _ in range(samples)
        )
    rng = substream(seed, 7)
    for support in supports:
        total += 1
        obs = Observation(d, support)
        msg = encode(obs, cfg, rng)
        bits = serialize(msg, cfg)
        ok = len(bits) == cfg.k
        sub = decode(msg, cfg)
        ok = ok and sub.original_count == obs.count
        ok = ok and set(sub.support.tolist()) <= set(obs.support.tolist())
        ok = ok and sub.support.size == min(obs.count, cfg.kprime)
        if not ok:
            failures += 1
    row["roundtrips"] = total
    row["failures"] = failures
    row["status"] = "ok" if failures == 0 else "failed"
    echo(f"roundtrips: {total - failures}/{total} ok (d={d}, k={k})")
    if failures:
        raise RuntimeError(f"{failures} codec roundtrips failed for d={d}, k={k}")
    return row


def _run_codec(config: ExperimentConfig, echo) -> list[dict]:
    params = config.params
    samples, dims, k_spec = params["samples"], _as_list(params["d"]), params["k"]
    if isinstance(k_spec, str) and k_spec != "all":
        raise ConfigParseError(f"key 'k': expected int, list, or \"all\"")
    if samples < 0:
        raise PreconditionError(f"'samples' must be >= 0, got {samples}")
    for d in dims:
        if d < 2:
            raise PreconditionError(f"'d' must be >= 2, got {d}")
        if samples == 0 and d > 16:
            raise PreconditionError(
                f"exhaustive roundtrip over 2^{d} supports is infeasible; "
                "set 'samples' for d > 16"
            )
    points = [
        (_budget_config(d, k), derive_seed(config.seed, index))
        for index, d in enumerate(dims)
        for k in (_admissible_budgets(d) if isinstance(k_spec, str) else _as_list(k_spec))
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


def _schedule_from(params_eta):
    if isinstance(params_eta, list):
        return [(int(t), float(rate)) for t, rate in params_eta]
    return float(params_eta)


def _train_config(params: dict, seed: int) -> TrainConfig:
    try:
        return TrainConfig(
            n=params["n"],
            k=params["k"],
            r=params["r"],
            steps=params["steps"],
            batch_size=params["batch_size"],
            eta=_schedule_from(params["eta"]),
            aggregation=params["aggregation"],
            partition=params["partition"],
            init_scale=params["init_scale"],
            seed=seed,
        )
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc


def _training_setup(params: dict, seed: int) -> tuple[TrainConfig, object]:
    """The training config and objective of a Train or CompareSparsifiers
    config.  Both are built from the config alone, so any error here is a
    precondition error, raised before training."""
    cfg = _train_config(params, seed)
    d, noise = params["d"], params["obj_noise"]
    if d < 1:
        raise PreconditionError(f"'d' must be >= 1, got {d}")
    if params["objective"] == "quadratic" and isinstance(noise, list) and len(noise) != d:
        raise PreconditionError(f"'obj_noise' must be a number or a list of d={d}, got {noise}")
    try:  # the builders check their own parameter ranges
        obj = _build_objective(params, derive_seed(seed, 0))
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    if obj.n_samples < cfg.n:
        raise PreconditionError(f"'obj_samples' must be >= n={cfg.n}, got {obj.n_samples}")
    return cfg, obj


def _run_train(config: ExperimentConfig, echo) -> list[dict]:
    params = config.params
    cfg, obj = _training_setup(params, config.seed)
    try:  # surface bad (k, r, d) combinations before running
        cfg.resolve_r(obj.d)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    result = train(obj, cfg)
    echo(
        f"trained {params['objective']} d={obj.d} for {cfg.steps} rounds -> "
        f"final loss={result.final.loss:.6g}, grad_sq={result.final.grad_sq_norm:.6g}"
    )
    return [
        {
            "t": rec.t,
            "loss": rec.loss,
            "grad_sq_norm": rec.grad_sq_norm,
            "memory_sq_norm": rec.memory_sq_norm,
            "comm_entries": rec.comm_entries,
        }
        for rec in result.records
    ]


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
            return SparsifierSpec.rtop(min(n * k, d), k)
    except ValueError as exc:
        raise PreconditionError(f"bad sparsifier spec {text!r}: {exc}") from exc
    raise PreconditionError(
        f"bad sparsifier spec {text!r}; use top:K, random:K, rtop:R:K or rtop:K"
    )


def _run_compare(config: ExperimentConfig, echo) -> list[dict]:
    params = config.params
    cfg, obj = _training_setup(params, config.seed)
    specs = [parse_spec_string(s, obj.d, params["n"]) for s in params["specs"]]
    try:  # every spec must fit d-vectors
        for spec in specs:
            spec.window(obj.d)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc
    if not specs or any(spec.entries_budget != cfg.k for spec in specs):
        raise PreconditionError(
            f"'specs' must be nonempty with every entries budget k={cfg.k}, got {params['specs']}"
        )
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
    _check_grid_values(params)
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
    except ConfigParseError as exc:
        return fail(EXIT_CONFIG, exc)
    entry = COMMANDS[config.command]
    try:
        rows = entry.runner(config, echo)
    except (PreconditionError, ConfigParseError) as exc:
        code = EXIT_CONFIG if isinstance(exc, ConfigParseError) else EXIT_PRECONDITION
        return fail(code, exc)
    except (ValueError, ArithmeticError, RuntimeError, CodecError) as exc:
        return fail(EXIT_RUNTIME, exc)
    if config.out is not None:
        try:
            write_csv_atomic(config.out, entry.columns, rows)
        except OSError as exc:
            return fail(EXIT_RUNTIME, exc)
        echo(f"wrote {len(rows)} rows to {config.out}")
    return EXIT_OK
