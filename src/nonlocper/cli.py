"""Batch front door.

One subcommand per library capability; every run validates its merged
configuration against the shipped JSON schema, then writes a JSON report
(embedding the config hash and nonlocper.__version__) plus plot-ready CSVs.

The schema is checked by a built-in validator for the JSON Schema keywords
that config_schema.json uses (see validate), with JSON Schema's semantics
where Python's differ; a schema keyword outside that set raises instead of
being skipped.  The CLI imports only what the command runs: no schema
library, no package metadata.

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
failure; _exit_code maps every failure of run and main onto them.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.resources
import json
import math
import numbers
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, analysis, circle_dtn, kernels
from . import operator as operator_mod, rearrange as rearrange_mod
# `energy` and `minimize` name both a submodule and a function, so pull the
# callables in directly instead of importing the submodules
from .energy import (Nonlinearity, benjamin_ono_type, double_well,
                     polynomial_nonlinearity, power_constraint)
from .energy import energy as energy_fn
from .minimize import MinimizeConfig, max_principle_probe
from .minimize import minimize as run_minimize
from .errors import DomainError, IntegrationError, NonlocError
from .grids import PeriodicFunction, PeriodicGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """The configuration names an input that cannot be used (exit 2)."""


# what a bad input raises, in whichever layer notices it: the CLI, an input
# check of the library, the file system, the decoding of a config file, or
# an allocation that the inputs make too large
_CONFIG_ERRORS = (ConfigError, DomainError, OSError, json.JSONDecodeError,
                  UnicodeDecodeError, MemoryError)


def _exit_code(exc: Exception) -> int:
    """The exit code of a failed run, after its one-line message on stderr:
    2 for a bad input, 3 for any other NonlocError (a numerical failure)."""
    if isinstance(exc, _CONFIG_ERRORS):
        print(f"configuration error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"numerical failure: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


def load_schema() -> dict:
    ref = importlib.resources.files("nonlocper").joinpath("config_schema.json")
    return json.loads(ref.read_text())


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()


def validate_config(config: dict) -> None:
    """Raise ConfigError unless config satisfies the shipped schema."""
    validate(config, load_schema())


def _is_number(value) -> bool:
    # JSON has no NaN or Infinity, though json.load and float() accept them
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    # JSON has one number type: 64.0 is an integer, True is not
    "integer": lambda v: _is_number(v) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
# keyword -> (violated(value, bound), how the value fails the bound)
_BOUNDS = {
    "minimum": (lambda v, b: v < b, "less than"),
    "exclusiveMinimum": (lambda v, b: v <= b, "not greater than"),
    "exclusiveMaximum": (lambda v, b: v >= b, "not less than"),
}
_KEYWORDS = {"$schema", "title", "type", "properties", "required",
             "additionalProperties", "enum", "const", "items", "minItems",
             "maxItems", "allOf", "if", "then", *_BOUNDS}


def _json_equal(a, b) -> bool:
    """JSON equality: 1 == 1.0 but True != 1, also inside arrays and objects."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _check_schema(schema: dict, where: str) -> None:
    """Raise ValueError at a keyword, or a form of one, that _validate lacks."""
    for key, arg in schema.items():
        if (key not in _KEYWORDS
                or key == "type" and not (isinstance(arg, str) and arg in _TYPES)
                or key == "additionalProperties" and arg is not False):
            raise ValueError(f"schema keyword {key}: {arg!r} at {where} is not supported")
        if key == "properties":
            subs = arg.values()
        elif key == "allOf":
            subs = arg
        else:
            subs = [arg] if key in ("items", "if", "then") else []
        for sub in subs:
            _check_schema(sub, f"{where}/{key}")


def validate(instance, schema: dict) -> None:
    """Raise ConfigError at the first violation of schema by instance.

    The schema may use type (object, array, string, number, integer),
    properties, required, additionalProperties: false, enum, const,
    minimum, exclusiveMinimum, exclusiveMaximum, items, minItems,
    maxItems, allOf and if/then; $schema and title are annotations.  Any
    other keyword raises ValueError, so the schema cannot outgrow this
    validator unnoticed.

    One divergence from JSON Schema validators is intended: NaN and the
    infinities, which json.load and argparse's float accept and which such
    validators take for numbers, are not numbers here."""
    _check_schema(schema, "#")
    _validate(instance, schema, "$")


def _validate(value, schema: dict, path: str) -> None:
    def fail(keyword: str, message: str):
        raise ConfigError(f"{path}: {message} ({keyword})")

    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        if key == "type" and not _TYPES[arg](value):
            fail(key, f"{value!r} is not of type {arg!r}")
        elif key in ("enum", "const") and not any(
                _json_equal(value, v) for v in (arg if key == "enum" else [arg])):
            fail(key, f"{value!r} is not {'one of ' if key == 'enum' else ''}{arg!r}")
        elif key in _BOUNDS and _is_number(value) and _BOUNDS[key][0](value, arg):
            fail(key, f"{value!r} is {_BOUNDS[key][1]} {arg!r}")
        elif key == "properties" and is_object:
            for name, sub in arg.items():
                if name in value:
                    _validate(value[name], sub, f"{path}.{name}")
        elif key == "required" and is_object:
            missing = [name for name in arg if name not in value]
            if missing:
                fail(key, f"missing {', '.join(missing)}")
        elif key == "additionalProperties" and is_object:
            extra = [name for name in value if name not in schema.get("properties", {})]
            if extra:
                fail(key, f"unexpected {', '.join(map(str, extra))}")
        elif key == "items" and is_array:
            for i, item in enumerate(value):
                _validate(item, arg, f"{path}[{i}]")
        elif key in ("minItems", "maxItems") and is_array and (
                len(value) < arg if key == "minItems" else len(value) > arg):
            fail(key, f"{len(value)} items where {key} is {arg}")
        elif key == "allOf":
            for sub in arg:
                _validate(value, sub, path)
        elif key == "if" and _holds(value, arg):
            _validate(value, schema.get("then", {}), path)


def _holds(value, schema: dict) -> bool:
    try:
        _validate(value, schema, "$")
    except ConfigError:
        return False
    return True


def read_function_csv(path: str, grid: PeriodicGrid) -> PeriodicFunction:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read function CSV: {exc}") from exc
    samples = data[:, 1] if data.shape[1] >= 2 else data[:, 0]
    if samples.size != grid.size:
        raise ConfigError(
            f"function CSV has {samples.size} samples, grid needs {grid.size}")
    if not np.all(np.isfinite(samples)):
        raise ConfigError(f"function CSV {path} has a non-finite sample")
    return PeriodicFunction(grid, samples)


def write_csv(path: Path, header: str, columns) -> None:
    arr = np.column_stack(columns)
    np.savetxt(path, arr, delimiter=",", header=header, comments="")


def write_function_csv(path: Path, u: PeriodicFunction) -> None:
    write_csv(path, "x,u", (u.grid.nodes, u.samples))


def build_kernel(config: dict) -> kernels.Kernel:
    return kernels.kernel_from_spec(config["kernel"])


def build_grid(config: dict) -> PeriodicGrid:
    g = config["grid"]
    return PeriodicGrid(float(g["L"]), int(g["N"]))


def build_nonlinearity(config: dict) -> Nonlinearity:
    spec = config.get("nonlinearity", {"name": "benjamin_ono", "p": 2})
    name = spec["name"]
    if name == "benjamin_ono":
        return benjamin_ono_type(spec.get("p", 2.0))
    if name == "double_well":
        return double_well()
    if name == "power":
        return power_constraint(spec.get("p", 2.0))
    return polynomial_nonlinearity(
        spec.get("G_coeffs", [0.0]), spec.get("Gt_coeffs"))


def resolve_seed(config: dict) -> int:
    env = os.environ.get("NONLOC_SEED")
    if env is None:
        return int(config.get("seed", 0))
    if not (env.isascii() and env.isdigit()):  # the schema's bound on a config seed
        raise ConfigError(f"NONLOC_SEED must be an integer >= 0, not {env!r}")
    return int(env)


def cmd_symbol(config: dict, out: Path) -> dict:
    grid = build_grid(config)
    kern = build_kernel(config)
    sym = operator_mod.symbol_of_kernel(kern, grid)
    ks = np.arange(grid.size // 2 + 1)
    write_csv(out / "symbol.csv", "k,xi,ell",
              (ks, grid.frequencies(), sym.values))
    return {"provenance": sym.provenance,
            "bounds_hold": operator_mod.symbol_bounds_hold(sym, kern),
            "csv": "symbol.csv"}


def cmd_apply(config: dict, out: Path) -> dict:
    grid = build_grid(config)
    kern = build_kernel(config)
    u = read_function_csv(config["function"], grid)
    mode = config.get("mode", "spectral")
    if mode == "spectral":
        sym = operator_mod.symbol_of_kernel(kern, grid)
        result = operator_mod.apply_spectral(sym, u)
    else:
        result = operator_mod.apply_pv_grid(kern, u)
    write_function_csv(out / "applied.csv", result)
    return {"mode": mode, "csv": "applied.csv"}


def cmd_energy(config: dict, out: Path) -> dict:
    grid = build_grid(config)
    kern = build_kernel(config)
    u = read_function_csv(config["function"], grid)
    nl = build_nonlinearity(config)
    sym = operator_mod.symbol_of_kernel(kern, grid)
    rep = energy_fn(u, sym, nl)
    return rep.to_dict()


def cmd_rearrange(config: dict, out: Path) -> dict:
    grid = build_grid(config)
    u = read_function_csv(config["function"], grid)
    write_function_csv(out / "rearranged.csv", rearrange_mod.rearrange_periodic(u))
    return {"csv": "rearranged.csv"}


def cmd_polya_szego(config: dict, out: Path) -> dict:
    grid = build_grid(config)
    kern = build_kernel(config)
    u = read_function_csv(config["function"], grid)
    return rearrange_mod.polya_szego_check(kern, u).to_dict()


def cmd_riesz(config: dict, out: Path) -> dict:
    grid = build_grid(config)
    fns = config.get("functions")
    if fns:
        f = read_function_csv(fns["f"], grid)
        g = read_function_csv(fns["g"], grid)
        h = read_function_csv(fns["h"], grid)
    else:
        rng = np.random.default_rng(resolve_seed(config))
        f = PeriodicFunction(grid, rng.uniform(0, 1, grid.size))
        h = PeriodicFunction(grid, rng.uniform(0, 1, grid.size))
        g = PeriodicFunction.from_callable(
            grid, lambda x: 1.0 + np.cos(np.pi * x / grid.half_period))
    return rearrange_mod.riesz_circle_check(f, g, h)


def cmd_minimize(config: dict, out: Path) -> dict:
    grid = build_grid(config)
    kern = build_kernel(config)
    nl = build_nonlinearity(config)
    sym = operator_mod.symbol_of_kernel(kern, grid)
    seed = resolve_seed(config)
    rng = np.random.default_rng(seed)
    base = 1.0 + np.cos(np.pi * grid.nodes / grid.half_period)
    noise = rng.standard_normal(grid.size) * 0.1
    initial = PeriodicFunction(grid, base + noise)
    cfg = MinimizeConfig(sym, nl, initial, config.get("constraint"),
                         config.get("tolerances", {}).get("grad", 1e-8),
                         config.get("max_iters", 50000))
    result = run_minimize(cfg)
    if not result.converged:
        raise NonlocError(
            f"descent did not reach grad_tol within {cfg.max_iters} iterations")
    write_function_csv(out / "minimizer.csv", result.u)
    write_csv(out / "energy_trace.csv", "iteration,energy",
              (np.arange(result.energy_trace.size), result.energy_trace))
    payload = result.to_dict()
    payload.update({"seed": seed, "profile_csv": "minimizer.csv",
                    "trace_csv": "energy_trace.csv"})
    return payload


def cmd_maxprinciple(config: dict, out: Path) -> dict:
    grid = build_grid(config)
    kern = build_kernel(config)
    L = grid.half_period
    if "function" in config:
        v = read_function_csv(config["function"], grid)
    else:
        v = PeriodicFunction.from_callable(
            grid, lambda x: -np.sin(2 * np.pi * x / L) ** 2 * np.sin(np.pi * x / L))
    x0 = config.get("x0", L / 2)
    value = max_principle_probe(kern, v, x0)
    return {"x0": x0, "value": value, "strictly_positive": bool(value > 0)}


def cmd_regularity(config: dict, out: Path) -> dict:
    return analysis.regularity_verdict(config["s"], config["beta"]).to_dict()


def cmd_kernel_class(config: dict, out: Path) -> dict:
    L = config.get("grid", {}).get("L", math.pi)
    return asdict(kernels.classify_kernel(build_kernel(config), L=L))


def cmd_dtn_check(config: dict, out: Path) -> dict:
    n = config.get("grid", {}).get("N", 64)
    grid = circle_dtn.circle_grid(n)
    u = PeriodicFunction.from_callable(
        grid, lambda x: np.cos(x) + 0.5 * np.sin(2 * x))
    mult = circle_dtn.dtn_multiplier(u)
    poisson = circle_dtn.dtn_poisson(u)
    probes = np.linspace(-math.pi, math.pi, 9)[:-1]
    pv_defect = float(np.max(np.abs(circle_dtn.half_lap_pv_circle(u, probes)
                                    - mult.eval(probes))))
    gaps = [circle_dtn.wrapped_identity_check(t)["gap"]
            for t in np.linspace(0.1, 2 * math.pi - 0.1, 16)]
    eid = circle_dtn.energy_identity_check(u)
    return {"poisson_vs_multiplier": float(np.max(np.abs(poisson.samples
                                                         - mult.samples))),
            "pv_vs_multiplier": pv_defect,
            "wrapped_identity_worst_gap": max(gaps),
            "energy_identity": eid,
            "energy_spread": max(eid.values()) - min(eid.values())}


# flag -> (argparse type, help, the config path it writes); regularity's
# --s is the verdict's order, so there it writes the top-level "s" instead
_FLAGS = {
    "--kernel": (str, "kernel family", ("kernel", "family")),
    "--s": (float, "kernel order (regularity: the verdict's order)", ("kernel", "s")),
    "--n": (int, "kernel dimension parameter", ("kernel", "n")),
    "--a": (float, "kernel core width", ("kernel", "a")),
    "--cutoff": (float, "indicator kernel cutoff", ("kernel", "cutoff")),
    "--L": (float, "half period", ("grid", "L")),
    "--N": (int, "grid size (power of two)", ("grid", "N")),
    "--beta": (float, "regularity exponent beta", ("beta",)),
    "--function": (str, "input samples CSV (x,u)", ("function",)),
    "--mode": (str, "spectral or pv", ("mode",)),
    "--constraint": (float, "constraint level c", ("constraint",)),
    "--x0": (float, "probe point in (0, L)", ("x0",)),
    "--seed": (int, "random seed", ("seed",)),
    "--max-iters": (int, "iteration budget", ("max_iters",)),
}
_KERNEL = ("--kernel", "--s", "--n", "--a", "--cutoff")
_SYMBOL = _KERNEL + ("--L", "--N")

# command -> (handler, the flags it reads)
COMMANDS = {
    "symbol": (cmd_symbol, _SYMBOL),
    "apply": (cmd_apply, _SYMBOL + ("--function", "--mode")),
    "energy": (cmd_energy, _SYMBOL + ("--function",)),
    "rearrange": (cmd_rearrange, ("--L", "--N", "--function")),
    "polya-szego": (cmd_polya_szego, _SYMBOL + ("--function",)),
    "riesz": (cmd_riesz, ("--L", "--N", "--seed")),
    "minimize": (cmd_minimize, _SYMBOL + ("--constraint", "--seed", "--max-iters")),
    "maxprinciple": (cmd_maxprinciple, _SYMBOL + ("--function", "--x0")),
    "regularity": (cmd_regularity, ("--s", "--beta")),
    "kernel-class": (cmd_kernel_class, _KERNEL + ("--L",)),
    "dtn-check": (cmd_dtn_check, ("--N",)),
}


class _Parser(argparse.ArgumentParser):
    """An argparse failure is a configuration error (exit 2), not SystemExit.
    Flags are not abbreviated: riesz would read --s as --seed."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonlocper", allow_abbrev=False,
        description="Periodic 1-D nonlocal operators: symbols, energies, "
                    "rearrangement checks, constrained minimization.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            kind, text, _ = _FLAGS[flag]
            p.add_argument(flag, type=kind, help=text)
    return parser


def merge_config(args: argparse.Namespace) -> dict:
    """The config file (if any) with every flag that is set written over it."""
    config: dict = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError(f"the top level of {args.config} is not a JSON object")
    config["command"] = args.command
    for flag in COMMANDS[args.command][1]:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        path = ("s",) if args.command == "regularity" and flag == "--s" else _FLAGS[flag][2]
        entry = config
        for key in path[:-1]:
            entry = entry.setdefault(key, {})
            if not isinstance(entry, dict):
                raise ConfigError(f"the {key} entry is {entry!r}, not a JSON object")
        entry[path[-1]] = value
    return config


def _non_finite_field(value, path: str) -> str | None:
    """The dotted path of the first NaN or infinite float in value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        found = _non_finite_field(item, f"{path}.{key}")
        if found is not None:
            return found
    return None


def run(config: dict, out_dir: str = ".") -> int:
    """Validate, dispatch, and write the report; returns the exit code."""
    out = Path(out_dir)
    try:
        validate_config(config)
        out.mkdir(parents=True, exist_ok=True)
        payload = COMMANDS[config["command"]][0](config, out)
        report = {"command": config["command"],
                  "version": __version__,
                  "config_hash": config_hash(config),
                  "timestamp": datetime.datetime.now(
                      datetime.timezone.utc).isoformat(),
                  "result": payload}
        try:
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:
            raise IntegrationError(f"report field {_non_finite_field(payload, 'result')} "
                                   f"is not a finite number") from None
        (out / f"{config['command']}_report.json").write_text(text + "\n")
    except (*_CONFIG_ERRORS, NonlocError) as exc:
        return _exit_code(exc)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = merge_config(args)
    except (*_CONFIG_ERRORS, NonlocError) as exc:
        return _exit_code(exc)
    return run(config, args.out)


if __name__ == "__main__":
    sys.exit(main())
