"""Command-line front end.

Subcommands:
  check         residual checks (additivity defect identity, symmetry)
  reconstruct   build a sample table of f on a rational grid
  verify-bound  modulus-of-continuity bound checks for a reconstruction
  bench         timing of the lattice solver on stress inputs

Each setting is declared once, in ``_SETTINGS``: its config-file parser,
its default and its flag on each command that takes one, from which
``build_parser`` adds every flag and ``_load_config`` checks a config
value against the flag's choices.  ``run`` parses with one parser per
process.

Exit codes: 0 all checks passed / output written, 1 at least one check
failed, 2 usage or evaluation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from fractions import Fraction

from .continuous import (
    ENGINES,
    ConvergenceError,
    grid_gap,
    grid_keys,
    h_rational,
    reconstruct_table,
)
from .expressions import (
    BUILTIN_SEEDS,
    EvaluationError,
    FuncSpec,
    ParseError,
    _seed_cocycle,
    bivariate_expression,
    parse_expr,
)
from .rational import format_rational, parse_rational
from .smooth import QuadratureError, reconstruct_ck_table
from .verify import (
    VerificationReport,
    _plan,
    check_bound_c0,
    kurepa_residual,
    symmetry_residual,
)

def _cast_interval(text: str) -> tuple[float, float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError(f"interval needs two endpoints, got {text!r}")
    a, b = (float(p) for p in parts)
    return (a, b)


def _cast_deltas(text: str) -> list[Fraction]:
    return [parse_rational(p) for p in map(str.strip, text.split(",")) if p]


def _function(cfg: argparse.Namespace) -> FuncSpec:
    if (cfg.expr is None) == (cfg.seed is None):
        raise ValueError("exactly one of --expr or --seed is required")
    if cfg.seed is not None:
        if cfg.vars is not None and cfg.vars.strip() != "t":
            raise ValueError("--vars applies to --expr; seeds are in t")
        # g's tree alone: F compiles it, and g's own forms would go unused
        return _seed_cocycle(parse_expr(BUILTIN_SEEDS.get(cfg.seed, cfg.seed), ("t",)), "t")
    names = tuple(s.strip() for s in (cfg.vars or "x,y").split(","))
    if len(names) != 2 or not all(names):
        raise ValueError("--vars must name two comma-separated variables")
    return bivariate_expression(cfg.expr, variables=names)


def _load_config(path: str) -> dict:
    mapping: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            parse, _, flags = _SETTINGS[key]
            choices = next(iter(flags.values())).get("choices")  # alike on every command
            try:
                mapping[key] = parse(value.strip())
                if choices and mapping[key] not in choices:
                    raise ValueError(f"{key} must be one of {choices}, got {mapping[key]!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return mapping


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The settings of a run: each flag, else its config-file value, else
    its default."""
    config = _load_config(args.config) if args.config else {}
    cfg = argparse.Namespace(command=args.command)
    # a CLI --expr or --seed replaces the config file's function; a CLI
    # --seed also replaces its vars, which belong to the file's function
    cli_only = {"expr", "seed"} if args.expr is not None or args.seed is not None else set()
    if args.seed is not None:
        cli_only.add("vars")
    for name, (_, default, _) in _SETTINGS.items():
        if name == "box" and args.command == "verify-bound":
            default = 1.0
        value = getattr(args, name, None)
        if value is None and name not in cli_only:
            value = config.get(name, default)
        setattr(cfg, name, value)
    if cfg.interval is not None:
        cfg.interval = tuple(cfg.interval)
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and >= 0, got {cfg.tolerance}")
    if not math.isfinite(cfg.box):
        raise ValueError(f"--box must be finite, got {cfg.box}")
    if cfg.interval is not None and not all(map(math.isfinite, cfg.interval)):
        raise ValueError(f"--interval endpoints must be finite, got {cfg.interval}")
    return cfg


def _write_text(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(cfg: argparse.Namespace, report: VerificationReport) -> int:
    _write_text(cfg.out, report.to_ndjson())
    return 0 if report.passed else 1


def _table(cfg: argparse.Namespace, F, keys):
    """The sample table of f on ``keys`` from the configured engine."""
    if cfg.engine == "ck":
        return reconstruct_ck_table(F, keys, tol=cfg.tolerance)
    return reconstruct_table(F, keys, engine=cfg.engine)


def _cmd_check(cfg: argparse.Namespace) -> int:
    F = _function(cfg)
    if not cfg.box > 0:  # a box of 0 or less samples only the origin
        raise ValueError(f"check --box must be positive, got {cfg.box}")
    if not math.isfinite(2.0 * cfg.box):  # the samples' width overflows to inf
        raise ValueError(f"check --box must be at most {sys.float_info.max / 2!r}, got {cfg.box}")
    if cfg.samples < 1:
        raise ValueError(f"check --samples must be at least 1, got {cfg.samples}")
    # random.uniform(-span, span)'s own formula, inline: the same stream
    rnd = random.Random(cfg.rng_seed).random
    lo, width = -cfg.box, cfg.box - -cfg.box
    triples = [(lo + width * rnd(), lo + width * rnd(), lo + width * rnd())
               for _ in range(cfg.samples)]
    pairs = [(lo + width * rnd(), lo + width * rnd()) for _ in range(cfg.samples)]
    report = kurepa_residual(F, triples, tolerance=cfg.tolerance)
    report.results.extend(symmetry_residual(F, pairs, tolerance=cfg.tolerance).results)
    return _emit_report(cfg, report)


def _cmd_reconstruct(cfg: argparse.Namespace) -> int:
    F = _function(cfg)
    if cfg.interval is None:
        raise ValueError("--interval is required for reconstruct")
    keys = grid_keys(
        cfg.interval,
        denominators=cfg.denominators,
        dyadic_level=cfg.dyadic_level,
    )
    table = _table(cfg, F, keys)
    if cfg.format == "json":
        _write_text(cfg.out, table.to_json_text())
    else:
        _write_text(cfg.out, table.to_csv_text())
    return 0


def _cmd_verify_bound(cfg: argparse.Namespace) -> int:
    F = _function(cfg)
    if not cfg.delta:
        raise ValueError("--delta is required for verify-bound (repeatable)")
    if not (cfg.box >= 1 and cfg.box == int(cfg.box)):
        raise ValueError(f"verify-bound --box must be a whole number >= 1, got {cfg.box}")
    M = int(cfg.box)
    den = cfg.denominators
    if den is None:
        den = 2 * max(d.denominator for d in cfg.delta)
    if den < 1:
        raise ValueError("denominator bound must be >= 1")
    if cfg.engine == "dyadic":
        grid = {"dyadic_level": (den - 1).bit_length()}  # the smallest L with 2**L >= den
    else:
        grid = {"denominators": den}
    _plan(cfg.delta, M, grid_gap((-M, M), **grid))  # every refusal, before any key is built
    keys = grid_keys((-M, M), **grid)
    report = check_bound_c0(F, _table(cfg, F, keys), cfg.delta, M, tolerance=cfg.tolerance)
    return _emit_report(cfg, report)


def _cmd_bench(cfg: argparse.Namespace) -> int:
    F = _function(cfg)
    stress = Fraction(1, 1000003)  # a row of 10^6 kernel terms, in O(log m) calls
    t0 = time.perf_counter()
    value = h_rational(F, stress)
    chain_seconds = time.perf_counter() - t0

    keys = grid_keys((0, 1), dyadic_level=12)
    t0 = time.perf_counter()
    reconstruct_table(F, keys, engine="dyadic")
    grid_seconds = time.perf_counter() - t0

    payload = {
        "h_rational": {
            "point": format_rational(stress),
            "value": value,
            "seconds": chain_seconds,
        },
        "dyadic_grid": {
            "level": 12,
            "points": len(keys),
            "seconds": grid_seconds,
        },
    }
    _write_text(cfg.out, json.dumps(payload, indent=2) + "\n")
    return 0


_COMMANDS = {
    "check": (_cmd_check, "residual checks on random samples"),
    "reconstruct": (_cmd_reconstruct, "tabulate f on a rational grid"),
    "verify-bound": (_cmd_verify_bound, "modulus bound checks for a reconstruction"),
    "bench": (_cmd_bench, "lattice solver timings"),
}


def _flag(*commands: str, **keywords) -> dict:
    """The same flag keywords on each of ``commands``, or on every command."""
    return dict.fromkeys(commands or _COMMANDS, keywords)


# every setting: its config-file parser, its default, and the argparse
# keywords of its flag --name (underscores written as dashes) on each
# command that takes it; the flag's type is the config parser unless the
# keywords name another.  A setting's config key and argparse dest are its
# name.  A flag wins over the config file, which wins over the default, and
# a config value must be one of its flag's choices.  The order is the help's.
_SETTINGS = {
    "expr": (str, None, _flag(help="bivariate expression for F(x, y)")),
    "seed": (str, None, _flag(help="univariate seed g(t); F is its additivity defect "
                              f"(builtins: {', '.join(sorted(BUILTIN_SEEDS))})")),
    "vars": (str, None, _flag(help="comma-separated variable names for --expr "
                              "(default x,y); seeds are in t")),
    "out": (str, None, _flag(help="output path (default stdout)")),
    "rng_seed": (int, 0, _flag("check", help="sampling seed (default 0)")),
    "samples": (int, 1000, _flag("check", help="sample count (default 1000)")),
    "interval": (_cast_interval, None,
                 _flag("reconstruct", nargs=2, type=float, metavar=("A", "B"))),
    "delta": (_cast_deltas, (), _flag("verify-bound", action="append", type=parse_rational,
                                      help="rational scale in (0, 1/2); repeatable")),
    "box": (float, 2.0, {  # verify-bound: 1
        "check": {"help": "sampling half-width (default 2)"},
        "verify-bound": {"help": "check on [-M, M] for a whole number M >= 1 (default 1)"},
    }),
    "denominators": (int, None, {
        "reconstruct": {"help": "all reduced p/q with q up to N"},
        "verify-bound": {"help": "sample grid density N for f: all p/q with q up to N, or with "
                         "--engine dyadic all k/2^L for the smallest 2^L >= N "
                         "(default twice the largest delta denominator)"},
    }),
    "dyadic_level": (int, None, _flag("reconstruct", help="grid k/2^j")),
    "engine": (str, "euclid-chain", _flag("reconstruct", "verify-bound", choices=(*ENGINES, "ck"))),
    "format": (str, "csv", _flag("reconstruct", choices=("csv", "json"))),
    "tolerance": (float, 1e-9, _flag("check", "reconstruct", "verify-bound",
                                     help="check/quadrature tolerance (default 1e-9)")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle",
        description="Solve f(x+y) - f(x) - f(y) = F(x, y) and verify the bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        function = p.add_mutually_exclusive_group()
        for name, (parse, _, flags) in _SETTINGS.items():
            if name == "out":  # --config is a flag but not a setting
                p.add_argument("--config", help="key=value settings file; explicit flags win")
            if command in flags:
                group = function if name in ("expr", "seed") else p
                flag = "--" + name.replace("_", "-")
                group.add_argument(flag, **{"type": parse, **flags[command]})
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every run in this process: parsing does not change it."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command][0](cfg)
    except (ParseError, EvaluationError, ConvergenceError, QuadratureError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
