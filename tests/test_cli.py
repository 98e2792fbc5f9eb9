from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from cocycle import cli
from cocycle.cli import _SETTINGS, _load_config, _resolve, build_parser, run
from cocycle.continuous import ENGINES
from cocycle.expressions import BUILTIN_SEEDS
from cocycle.rational import parse_rational

GOLDEN_QUARTER_CSV = """t,f,t_exact
0,0,
0.25,-0.1875,
0.33333333333333331,-0.22222222222222221,1/3
0.5,-0.25,
0.66666666666666663,-0.22222222222222221,2/3
0.75,-0.1875,
1,0,
"""


README = Path(__file__).resolve().parent.parent / "README.md"
DATA = Path(__file__).resolve().parent / "data"

NONFINITE_ARGS = [
    ["verify-bound", "--seed", "cube", "--delta", "1/8", "--box", "inf"],
    ["reconstruct", "--seed", "square", "--interval", "0", "inf", "--denominators", "4"],
]


def _readme_commands():
    """(argv, expected exit code) of each `cocycle` line in README.md's sh
    blocks: continuations joined, comments stripped, and exit code 1 where
    the comment says so."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["cocycle"]:
                commands.append((argv[1:], 1 if "exit 1" in line.partition("#")[2] else 0))
    return commands


README_COMMANDS = _readme_commands()


def run_out(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_out(
            ["check", "--expr", "2*x*y", "--box", "1", "--samples", "200"], capsys
        )
        assert code == 0
        assert all(json.loads(line)["pass"] for line in out.strip().splitlines())

    def test_failed_check_is_one(self, capsys):
        code, out, _ = run_out(
            ["check", "--expr", "x*y^2", "--box", "1", "--samples", "100"], capsys
        )
        assert code == 1
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert any(not o["pass"] for o in objs)
        assert any(o["witness"] for o in objs)

    def test_malformed_expression_is_two(self, capsys):
        code, _, err = run_out(["check", "--expr", "x*y^^2"], capsys)
        assert code == 2
        assert "error:" in err

    def test_unknown_flag_is_two(self, capsys):
        assert run(["check", "--expr", "2*x*y", "--frobnicate"]) == 2

    def test_missing_function_is_two(self, capsys):
        code, _, err = run_out(["check"], capsys)
        assert code == 2
        assert "expr" in err or "seed" in err

    def test_both_sources_rejected(self, capsys):
        assert run(["check", "--expr", "2*x*y", "--seed", "square"]) == 2

    def test_missing_interval_is_two(self, capsys):
        assert run(["reconstruct", "--seed", "square", "--denominators", "4"]) == 2

    def test_oversized_grid_is_two(self, capsys):
        start = time.perf_counter()
        code, _, err = run_out(
            ["reconstruct", "--seed", "square", "--interval", "-2", "2",
             "--denominators", "1000000"],
            capsys,
        )
        assert code == 2
        assert "limit is 1000000" in err
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "interval,message",
        [
            ("0 1", " candidate keys k/2^20000; the limit is 1000000\n"),
            ("0 5e-324", "error: dyadic level 20000 is over the limit 1074\n"),
        ],
        ids=["unit", "one-subnormal-wide"],
    )
    def test_dyadic_level_over_1074_is_two(self, interval, message, capsys):
        # a finer level is counted at level 1074, which refuses [0, 1]; a
        # narrower interval passes the count and is refused for its level
        code, out, err = run_out(
            ["reconstruct", "--seed", "square", "--dyadic-level", "20000",
             "--interval", *interval.split()],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(message) and err.count("\n") == 1

    def test_denominator_bound_over_the_limit_is_two(self, capsys):
        # the interval holds no key; the bound alone is refused, at once
        start = time.perf_counter()
        code, out, err = run_out(
            ["reconstruct", "--seed", "square", "--interval", "0.3000000001", "0.3000000002",
             "--denominators", "1000001"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: grid on [") and err.count("\n") == 1
        assert err.endswith("] has 1000001 denominators q to scan for keys p/q; the limit is 1000000\n")
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "expr,message",
        [
            ("+".join(["x*y"] * 201), "expression nested too deeply for Python to compile\n"),
            ("+".join(["x*y"] * 1000), "expression nested too deeply for Python to compile\n"),
            ("(" * 198 + "x*y" + ")" * 198, "expression nested too deeply (offset "),
            ("exp(" * 198 + "x*y" + ")" * 198, "expression nested too deeply (offset "),
        ],
        ids=["sum-201", "sum-1000", "parentheses-198", "exp-198"],
    )
    def test_deep_expression_is_two(self, expr, message, capsys):
        code, out, err = run_out(["check", "--expr", expr], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--seed", "square", "--dyadic-level", "70", "--interval", "0", "1"],
            ["verify-bound", "--seed", "square", "--delta", "1/4", "--engine", "dyadic",
             "--denominators", "1" + "0" * 400],
        ],
        ids=["level-70", "denominators-10^400"],
    )
    def test_key_count_past_2_63_is_two(self, argv, capsys):
        # the candidate keys are counted from each span's ends, not by len()
        code, out, err = run_out(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: grid on [") and err.count("\n") == 1
        assert err.endswith("; the limit is 1000000\n")

    def test_150_term_sum_runs(self, capsys):
        code, out, err = run_out(["check", "--expr", "+".join(["x*y"] * 150), "--samples", "20"], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2

    def test_conflicting_resolutions_is_two(self, capsys):
        code = run(
            [
                "reconstruct",
                "--seed",
                "square",
                "--interval",
                "0",
                "1",
                "--denominators",
                "4",
                "--dyadic-level",
                "2",
            ]
        )
        assert code == 2

    def test_verify_bound_needs_delta(self, capsys):
        assert run(["verify-bound", "--seed", "square"]) == 2

    def test_delta_outside_range_is_two(self, capsys):
        assert run(["verify-bound", "--seed", "square", "--delta", "3/5"]) == 2

    def test_unwritable_output_is_two(self, capsys):
        code = run(
            [
                "reconstruct",
                "--seed",
                "square",
                "--interval",
                "0",
                "1",
                "--denominators",
                "2",
                "--out",
                "/nonexistent-dir/f.csv",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("argv", NONFINITE_ARGS)
    def test_nonfinite_flag_is_two(self, argv, capsys):
        code, out, err = run_out(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--seed", "square", "--interval", "0", "1", "--denominators", "2"],
            ["verify-bound", "--seed", "square", "--delta", "1/4"],
        ],
    )
    def test_epsilon_flag_is_gone(self, argv, capsys):
        code, _, err = run_out(argv + ["--epsilon", "1e-3"], capsys)
        assert code == 2
        assert "--epsilon" in err

    @pytest.mark.parametrize("box", ["1.9", "0.5"])
    def test_verify_bound_box_must_be_whole(self, box, capsys):
        # it used to be truncated, so 1.9 and 0.5 both checked on [-1, 1]
        code, out, err = run_out(
            ["verify-bound", "--seed", "square", "--delta", "1/4", "--box", box], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "whole number" in err

    @pytest.mark.parametrize("box", ["0", "-1"])
    def test_check_box_must_be_positive(self, box, tmp_path, capsys):
        # a box of 0 sampled only the origin, where x*y^2 passes both checks
        argv = ["check", "--expr", "x*y^2", "--samples", "50"]
        code, out, err = run_out(argv + ["--box", box], capsys)
        assert (code, out) == (2, "") and "--box must be positive" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"box={box}\n", encoding="utf-8")
        code, out, err = run_out(argv + ["--config", str(cfg)], capsys)
        assert (code, out) == (2, "") and "--box must be positive" in err

    @pytest.mark.parametrize("box", ["1e308", "8.98846567431158e307"])
    def test_check_box_whose_width_overflows_is_two(self, box, capsys):
        # 2 * box overflowed, and every sample was inf: [inf, inf, inf]
        # passed the checks, a witness outside the box and not strict JSON
        code, out, err = run_out(["check", "--expr", "1", "--box", box], capsys)
        assert (code, out) == (2, "") and "--box must be at most 8.988465674311579e+307" in err
        # the widest box left, half the largest float, samples finite points
        code, out, _ = run_out(["check", "--expr", "1", "--box", "8.988465674311579e307"], capsys)
        assert code == 0 and "Infinity" not in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_check_samples_must_be_positive(self, samples, tmp_path, capsys):
        # 0 used to reach the residual report as "empty sample set"
        message = f"error: check --samples must be at least 1, got {samples}\n"
        code, out, err = run_out(["check", "--seed", "square", "--samples", samples], capsys)
        assert (code, out, err) == (2, "", message)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"samples={samples}\n", encoding="utf-8")
        code, out, err = run_out(["check", "--seed", "square", "--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--expr", "x*y^2", "--samples", "10"],
            ["check", "--seed", "sine", "--samples", "10"],
            ["verify-bound", "--seed", "cube", "--delta", "1/8"],
            ["reconstruct", "--seed", "square", "--interval", "0", "1", "--dyadic-level", "2",
             "--engine", "ck"],
        ],
        ids=["check-skew", "check-sine", "verify-bound", "reconstruct-ck"],
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, argv, value, tmp_path, capsys):
        # inf passed every check, nan wrote a bare NaN token into the
        # NDJSON, and -1 failed a zero residual
        message = "error: --tolerance must be finite and >= 0"
        code, out, err = run_out(argv + ["--tolerance", value], capsys)
        assert (code, out) == (2, "") and err.startswith(message)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tolerance={value}\n", encoding="utf-8")
        code, out, err = run_out(argv + ["--config", str(cfg)], capsys)
        assert (code, out) == (2, "") and err.startswith(message)

    def test_zero_tolerance_accepted(self, capsys):
        argv = ["verify-bound", "--seed", "square", "--delta", "1/4", "--tolerance", "0"]
        code, out, _ = run_out(argv, capsys)
        assert code == 0
        assert all(json.loads(line)["tolerance"] in (0.0, 1e-6) for line in out.splitlines())

    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--seed", "square", "--interval", "0", "1", "--denominators", "2",
             "--rng-seed", "3"],
            ["verify-bound", "--seed", "square", "--delta", "1/4", "--rng-seed", "3"],
            ["bench", "--seed", "square", "--rng-seed", "3"],
            ["bench", "--seed", "square", "--tolerance", "1e-3"],
        ],
        ids=["reconstruct-rng-seed", "verify-bound-rng-seed", "bench-rng-seed", "bench-tolerance"],
    )
    def test_flag_of_another_command_is_two(self, argv, capsys):
        code, out, err = run_out(argv, capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in err

    def test_non_ascii_digit_is_two(self, capsys):
        code, out, err = run_out(["check", "--expr", "x*\u00b2"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: unexpected character '\u00b2' (offset 2)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "sine", "--delta", "1/512", "--delta", "1/8", "--engine", "dyadic"],
            ["--seed", "square", "--delta", "1/4", "--box", "1000"],
        ],
        ids=["dense", "wide"],
    )
    def test_oversized_kernel_grid_is_two(self, argv, capsys):
        # they asked for 8,193^2 and 64,001^2 kernel cells
        start = time.perf_counter()
        code, out, err = run_out(["verify-bound", *argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: kernel grid too large")
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--delta", "1/4", "--box", "1000"], "kernel grid too large"),
            (["--delta", "1/4", "--box", "40000", "--denominators", "4"], "kernel grid too large"),
            (["--delta", "1/16", "--denominators", "4"], "too coarse for delta 1/16"),
            (["--delta", "3/4"], "delta must lie in (0, 1/2)"),
        ],
        ids=["wide", "wider", "coarse", "delta-range"],
    )
    def test_refused_before_the_table(self, argv, message, monkeypatch, capsys):
        # what the keys alone rule out is refused before f is reconstructed
        def table(*args):
            raise AssertionError("the table was built")

        monkeypatch.setattr(cli, "_table", table)
        code, out, err = run_out(["verify-bound", "--seed", "square", *argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_kernel_grid_refused_before_the_keys(self, monkeypatch, capsys):
        # the widest gap of the grid follows from --denominators alone
        def grid_keys(*args, **kwargs):
            raise AssertionError("keys were built")

        monkeypatch.setattr(cli, "grid_keys", grid_keys)
        argv = ["verify-bound", "--seed", "square", "--delta", "1/4", "--box", "40000",
                "--denominators", "4"]
        code, out, err = run_out(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: kernel grid too large: 1638402560001 cells (limit 8388608) and "
            "14745623040009 cell passes (limit 2147483648); sample f more coarsely or on a "
            "smaller [-M, M]\n"
        )

    def test_coarse_samples_refused_before_the_keys(self, monkeypatch, capsys):
        # the exact widest gap 1/4 follows from --denominators alone
        def grid_keys(*args, **kwargs):
            raise AssertionError("keys were built")

        monkeypatch.setattr(cli, "grid_keys", grid_keys)
        argv = ["verify-bound", "--seed", "square", "--delta", "1/16", "--denominators", "4"]
        code, out, err = run_out(argv, capsys)
        assert (code, out, err) == (2, "", "error: sample spacing 0.25 too coarse for delta 1/16\n")

    @pytest.mark.parametrize(
        "argv",
        [["--delta", "1/3", "--denominators", "3"],
         ["--delta", "1/7", "--denominators", "7", "--box", "3"]],
        ids=["1/3", "1/7-box-3"],
    )
    def test_spacing_equal_to_delta_is_admitted(self, argv, capsys):
        # the widest gap is exactly delta, though the float gaps of the
        # keys round above it
        code, out, err = run_out(["verify-bound", "--seed", "square", *argv], capsys)
        assert (code, err) == (0, "")
        assert [json.loads(line)["pass"] for line in out.splitlines()] == [True, True]

    def test_quadrature_error_names_where_it_stopped(self, capsys):
        argv = ["reconstruct", "--seed", "expo", "--interval", "0", "1", "--dyadic-level", "3",
                "--engine", "ck", "--tolerance", "0"]
        code, out, err = run_out(argv, capsys)
        assert (code, out) == (2, "")
        number = r"-?[0-9.e+-]+"
        assert re.fullmatch(
            rf"error: subdivision limit reached on \[{number}, {number}\]: "
            rf"estimate {number}, error {number} above tolerance 0\.0\n",
            err,
        ), err

    def test_evaluation_error_is_two(self, capsys):
        code = run(
            ["reconstruct", "--expr", "1/(x - 1/4)", "--interval", "0", "1",
             "--denominators", "4"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "--expr", "log(x)", "--samples", "3"],
             "math domain error at x=-0.9192341133537125, y=-0.38026345019834284"),
            # F(0, 0), which the lattice solver takes first
            (["reconstruct", "--expr", "1/x", "--interval", "0", "1", "--denominators", "2"],
             "float division by zero at x=0.0, y=0.0"),
            # the kernel grid's first point, found again by scalar calls
            # after its block's array call failed
            (["verify-bound", "--expr", "log(x+2)", "--delta", "1/4", "--box", "2"],
             "math domain error at x=-2.0, y=-2.0"),
        ],
        ids=["check", "reconstruct", "verify-bound"],
    )
    def test_evaluation_error_names_the_point(self, argv, message, capsys):
        code, out, err = run_out(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_first_pole_is_at_the_integer_part(self, capsys):
        # h(5/2) takes h(2) before h(1/2): F fails at (1, 1) on the way to
        # h(2), before it would fail at (1/2, 1/2) on the way to h(1/2)
        argv = ["reconstruct", "--expr", "1/(x*y-1)+1/(4*x*y-1)", "--interval", "2.4", "2.6",
                "--denominators", "2"]
        code, out, err = run_out(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: F not evaluable at lattice point (1, 1): float division by zero\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("engine", ["euclid-chain", "dyadic"])
    def test_verify_bound_zero_denominators_is_two(self, source, engine, tmp_path, capsys):
        # 0 is a density, not an unset value
        argv = ["verify-bound", "--seed", "square", "--delta", "1/4", "--engine", engine]
        if source == "flag":
            argv += ["--denominators", "0"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("denominators = 0\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        code, out, err = run_out(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: denominator bound must be >= 1\n"


class TestReconstructCommand:
    def test_golden_quarter_grid(self, capsys):
        code, out, _ = run_out(
            [
                "reconstruct",
                "--seed",
                "square",
                "--interval",
                "0",
                "1",
                "--denominators",
                "4",
                "--engine",
                "euclid-chain",
            ],
            capsys,
        )
        assert code == 0
        assert out == GOLDEN_QUARTER_CSV

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        code = run(
            [
                "reconstruct",
                "--seed",
                "square",
                "--interval",
                "0",
                "1",
                "--denominators",
                "4",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == GOLDEN_QUARTER_CSV

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "reconstruct",
            "--seed",
            "expo",
            "--interval",
            "-1",
            "1",
            "--dyadic-level",
            "5",
            "--engine",
            "dyadic",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run_out(
            [
                "reconstruct",
                "--seed",
                "square",
                "--interval",
                "0",
                "1",
                "--denominators",
                "3",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["engine"] == "euclid-chain"
        rows = {r.get("t_exact", str(r["t"])): r["f"] for r in obj["samples"]}
        assert rows["1/3"] == pytest.approx(-2 / 9, abs=1e-12)

    @pytest.mark.parametrize(
        "engine,grid",
        [("euclid-chain", ["--denominators", "3"]), ("ck", ["--dyadic-level", "2"])],
    )
    def test_json_keys(self, engine, grid, capsys):
        code, out, _ = run_out(
            ["reconstruct", "--seed", "square", "--interval", "0", "1", *grid,
             "--engine", engine, "--format", "json"],
            capsys,
        )
        assert code == 0
        assert sorted(json.loads(out)) == ["engine", "normalization", "samples"]

    def test_ck_engine(self, capsys):
        code, out, _ = run_out(
            [
                "reconstruct",
                "--seed",
                "square",
                "--interval",
                "0",
                "1",
                "--dyadic-level",
                "1",
                "--engine",
                "ck",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,f"
        # ck normalization reproduces t^2 for this kernel
        assert float(lines[2].split(",")[1]) == pytest.approx(0.25, abs=1e-8)

    def test_custom_variables(self, capsys):
        code, out, _ = run_out(
            [
                "reconstruct",
                "--expr",
                "2*u*v",
                "--vars",
                "u,v",
                "--interval",
                "0",
                "1",
                "--denominators",
                "2",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[2] == "0.5,-0.25"

    def test_dyadic_level_520(self, capsys):
        # 520 halvings from the integer/half lattice: at two frames a
        # level, a recursive descent passes the default recursion limit
        argv = ["reconstruct", "--seed", "square", "--engine", "dyadic", "--dyadic-level", "520",
                "--interval", "0", "1e-155"]
        code, out, _ = run_out(argv, capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 35
        for t_text, f_text in rows:
            t = float(Decimal(t_text))
            assert float(f_text) == pytest.approx(t * t - t, rel=1e-12, abs=0.0)


class TestGoldens:
    """Output compared byte for byte: the first three recorded before the
    lattice moved to integer keys, the next three before seed kernels
    became plain trees and the solver stopped caching H, and the last two
    before the window maxima skipped blocks and the residual scans called
    F's compiled form inline.  The five euclid-chain files were written
    again when the rows became ladders of O(log m) kernel terms."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("reconstruct_expo_den12.csv",
             ["reconstruct", "--seed", "expo", "--denominators", "12", "--interval", "-2.5", "1.75"]),
            ("reconstruct_sine_dyadic5.json",
             ["reconstruct", "--seed", "sine", "--engine", "dyadic", "--dyadic-level", "5",
              "--interval", "-1.5", "2.25", "--format", "json"]),
            ("verify_bound_cube_8.ndjson", ["verify-bound", "--seed", "cube", "--delta", "1/8"]),
            # keys p/n with chain steps of up to 299 row terms, each in a ladder of at most 16
            ("reconstruct_expo_den300_near0.csv",
             ["reconstruct", "--seed", "expo", "--interval", "0", "0.02", "--denominators", "300"]),
            # the kernel's tree repeats x + y
            ("reconstruct_texp_den12.json",
             ["reconstruct", "--seed", "t*exp(t)-t^3", "--interval", "-1", "1", "--denominators", "12",
              "--format", "json"]),
            ("verify_bound_hoelder_40.ndjson",
             ["verify-bound", "--seed", "hoelder", "--delta", "1/4", "--denominators", "40"]),
            # a 2,049^2 kernel grid, where the window maxima skip most blocks
            ("verify_bound_hoelder_box2.ndjson",
             ["verify-bound", "--seed", "hoelder", "--box", "2", "--delta", "1/4", "--delta", "1/16",
              "--delta", "1/64"]),
            ("check_expo_1000.ndjson", ["check", "--seed", "expo", "--samples", "1000", "--rng-seed", "7"]),
        ],
    )
    def test_output_matches_golden(self, name, argv, tmp_path):
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()

    def test_dyadic_level_14_stays_fast(self, tmp_path):
        # on a shared 2-core machine this took 3.1 s when every key was a
        # Fraction, and takes about 0.6 s with integer keys
        start = time.perf_counter()
        code = run(["reconstruct", "--seed", "sine", "--engine", "dyadic", "--dyadic-level", "14",
                    "--interval", "-2", "2", "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert time.perf_counter() - start < 2.0


class TestSeedVariable:
    ARGS = ["check", "--samples", "50"]

    @pytest.mark.parametrize(
        "seed,names",
        [("t^2", "a,b"), ("t^2", "t,u"), ("square", "u"), ("u^2", "u")],
    )
    def test_vars_other_than_t_refused(self, seed, names, capsys):
        code, out, err = run_out(self.ARGS + ["--seed", seed, "--vars", names], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --vars applies to --expr; seeds are in t\n"

    def test_seed_vars_t_accepted(self, capsys):
        code, out, _ = run_out(self.ARGS + ["--seed", "square", "--vars", "t"], capsys)
        assert code == 0
        assert out == run_out(self.ARGS + ["--seed", "square"], capsys)[1]
        assert run(self.ARGS + ["--seed", "t^2 - t", "--vars", "t"]) == 0

    @pytest.mark.parametrize("seed", ["square", "t*exp(t)-t^3"])
    def test_seed_compiles_only_its_kernel(self, seed, monkeypatch):
        # F holds g's tree, so g's own callables are never built
        from cocycle import expressions

        compiled, compile_ = [], expressions._compile
        monkeypatch.setattr(expressions, "_compile", lambda *a: compiled.append(a) or compile_(*a))
        cfg = _resolve(build_parser().parse_args(["check", "--seed", seed]))
        F = cli._function(cfg)
        assert [variables for _, variables in compiled] == [("x", "y")]
        g = expressions.seed_expression(BUILTIN_SEEDS.get(seed, seed))
        assert F == expressions.cocycle_from_seed(g)

    def test_seed_vars_from_config_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=square\nvars=u\ninterval=0,1\ndenominators=4\n", encoding="utf-8")
        code, out, err = run_out(["reconstruct", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == "" and "error: " in err

    def test_cli_seed_ignores_config_vars(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("expr=a*b\nvars=a,b\ninterval=0,1\ndenominators=4\n", encoding="utf-8")
        code, out, _ = run_out(["reconstruct", "--config", str(cfg), "--seed", "square"], capsys)
        assert code == 0
        assert out == GOLDEN_QUARTER_CSV

    def test_repeated_vars_refused(self, capsys):
        code, out, err = run_out(
            ["reconstruct", "--expr", "x*x", "--vars", "x,x", "--interval", "0", "1",
             "--denominators", "2"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: variable names must be distinct, got x, x\n"

    def test_cli_expr_takes_config_vars(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("vars=u,v\n", encoding="utf-8")
        argv = ["reconstruct", "--config", str(cfg), "--expr", "2*u*v", "--interval", "0", "1"]
        code, out, _ = run_out(argv + ["--denominators", "2"], capsys)
        assert code == 0
        assert out.splitlines()[2] == "0.5,-0.25"


class TestVerifyBoundCommand:
    def test_report_lines(self, capsys):
        code, out, _ = run_out(
            ["verify-bound", "--seed", "square", "--delta", "1/4", "--delta", "1/8"],
            capsys,
        )
        assert code == 0
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert [o["check"] for o in objs] == [
            "modulus-bound",
            "lattice-bound",
            "modulus-bound",
            "lattice-bound",
        ]
        assert all(o["pass"] for o in objs)
        assert objs[0]["lhs"] <= objs[0]["rhs"] + 1e-9

    def test_readme_cube_example(self, capsys):
        # README.md shows this command's NDJSON, byte for byte
        lines = README.read_text(encoding="utf-8").splitlines()
        sample = "".join(line + "\n" for line in lines if line.startswith('{"check": '))
        assert sample.count("\n") == 4
        code, out, _ = run_out(
            ["verify-bound", "--seed", "cube", "--delta", "1/8", "--delta", "1/16", "--box", "1"],
            capsys,
        )
        assert code == 0
        assert out == sample

    def test_dyadic_engine(self, capsys):
        # both engines sample f with spacing 1/16, so the kernel grid and
        # the modulus-bound right side coincide
        argv = ["verify-bound", "--seed", "cube", "--delta", "1/8"]
        code, out, _ = run_out(argv + ["--engine", "dyadic"], capsys)
        assert code == 0
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert [o["check"] for o in objs] == ["modulus-bound", "lattice-bound"]
        assert all(o["pass"] for o in objs)
        code, out, _ = run_out(argv + ["--engine", "euclid-chain"], capsys)
        assert code == 0
        chain = json.loads(out.splitlines()[0])
        assert objs[0]["rhs"] == chain["rhs"]
        assert objs[0]["params"] == chain["params"]
        assert run(argv + ["--engine", "dyadic", "--denominators", "-3"]) == 2

    def test_dense_grid_stays_fast(self, capsys):
        # the kernel window maxima grew about x20 per doubling of the
        # density (26 s here); the dilation takes about 1 s
        start = time.perf_counter()
        code, out, _ = run_out(
            ["verify-bound", "--seed", "hoelder", "--delta", "1/4", "--denominators", "96"],
            capsys,
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        assert elapsed < 10.0


class TestBenchCommand:
    def test_reports_timings(self, capsys):
        code, out, _ = run_out(["bench", "--seed", "square"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["h_rational"]["point"] == "1/1000003"
        assert obj["h_rational"]["seconds"] >= 0.0
        assert obj["dyadic_grid"]["points"] == 4097


class TestFootprint:
    # numpy.ma costs about 1.3 MiB and 6 ms when first imported (np.unique
    # without return_inverse and np.union1d import it); no command needs it
    SCRIPT = """
import contextlib, io, sys
from cocycle import cli
out = sys.argv[1]
argvs = [
    ["reconstruct", "--seed", "expo", "--interval", "-2", "2", "--denominators", "12"],
    ["reconstruct", "--seed", "sine", "--interval", "-2", "2", "--engine", "dyadic",
     "--dyadic-level", "6", "--format", "json"],
    ["reconstruct", "--seed", "cube", "--interval", "-2", "2", "--engine", "ck",
     "--dyadic-level", "3", "--format", "json"],
    ["check", "--seed", "expo", "--samples", "50"],
    ["verify-bound", "--seed", "hoelder", "--delta", "1/4", "--denominators", "16"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run([*argv, "--out", out]) for argv in argvs]
    codes.append(cli.run(["bench", "--seed", "square"]))
print(codes, "numpy.ma" in sys.modules)
"""

    def test_commands_leave_numpy_ma_unimported(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.stdout == "[0, 0, 0, 0, 0, 0] False\n", proc.stderr


class TestModuleEntryPoint:
    """``python -m cocycle`` exits with ``run``'s code through ``cli.main``."""

    @pytest.mark.parametrize(
        "argv,code,stream,start",
        [
            (["--seed", "square"], 0, "stdout", '{"check": "kurepa"'),
            (["--expr", "x*y^2"], 1, "stdout", '{"check": "kurepa"'),
            ([], 2, "stderr", "error: exactly one of --expr or --seed is required\n"),
        ],
        ids=["pass", "fail", "no-function"],
    )
    def test_exit_codes(self, argv, code, stream, start):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cocycle", "check", *argv, "--samples", "5"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == code
        assert getattr(proc, stream).startswith(start)


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reconstruction settings\n"
            "seed=square\n"
            "interval=0,1\n"
            "denominators=4\n",
            encoding="utf-8",
        )
        code, out, _ = run_out(["reconstruct", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == GOLDEN_QUARTER_CSV

    def test_cli_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=square\ninterval=0,1\ndenominators=4\n", encoding="utf-8")
        code, out, _ = run_out(
            ["reconstruct", "--config", str(cfg), "--denominators", "2"], capsys
        )
        assert code == 0
        assert out.splitlines() == ["t,f", "0,0", "0.5,-0.25", "1,0"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("flux_capacitor=1\n", encoding="utf-8")
        assert run(["check", "--expr", "2*x*y", "--config", str(cfg)]) == 2

    def test_missing_file_is_two(self, capsys):
        assert run(["check", "--expr", "2*x*y", "--config", "/no/such/file"]) == 2

    def test_config_deltas(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=square\ndelta=1/4,1/8\n", encoding="utf-8")
        code, out, _ = run_out(["verify-bound", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_config_deltas_with_spaces(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = square\ndelta = 1/8, 1/16\n", encoding="utf-8")
        code, out, _ = run_out(["verify-bound", "--config", str(cfg)], capsys)
        assert code == 0
        flags = ["verify-bound", "--seed", "square", "--delta", "1/8", "--delta", "1/16"]
        assert out == run_out(flags, capsys)[1]

    @pytest.mark.parametrize(
        "command,settings",
        [
            ("verify-bound", "seed=cube\ndelta=1/8\nbox=inf\n"),
            ("reconstruct", "seed=square\ninterval=0,inf\ndenominators=4\n"),
        ],
        ids=["verify-bound", "reconstruct"],
    )
    def test_nonfinite_setting_is_two(self, tmp_path, capsys, command, settings):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(settings, encoding="utf-8")
        code, out, err = run_out([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--seed", "square"],
            ["reconstruct", "--seed", "square", "--interval", "0", "1", "--denominators", "2"],
        ],
        ids=["bench", "reconstruct"],
    )
    def test_keys_of_other_commands_accepted(self, argv, tmp_path, capsys):
        # one file may serve several commands, so its keys are not refused
        # where the matching flag is
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rng_seed=3\ntolerance=1e-3\nsamples=10\n", encoding="utf-8")
        assert run_out(argv + ["--config", str(cfg)], capsys)[0] == 0

    def test_epsilon_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=square\ninterval=0,1\ndenominators=2\nepsilon=1e-3\n", encoding="utf-8")
        code, _, err = run_out(["reconstruct", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown setting 'epsilon'" in err


# one valid config-file value for every setting
CONFIG_VALUES = {
    "expr": "x*y",
    "seed": "sine",
    "vars": "x,y",
    "out": "table.csv",
    "format": "json",
    "engine": "dyadic",
    "box": "3",
    "tolerance": "1e-6",
    "samples": "5",
    "rng_seed": "2",
    "denominators": "7",
    "dyadic_level": "4",
    "interval": "0, 1",
    "delta": "1/4,1/8",
}


class TestSettingsTable:
    def test_every_flag_is_a_setting(self):
        (commands,) = (a for a in build_parser()._actions if a.dest == "command")
        dests = {a.dest for sub in commands.choices.values() for a in sub._actions}
        assert dests - {"help", "config"} == set(_SETTINGS)

    def test_every_setting_loads_from_a_config_file(self, tmp_path):
        assert set(CONFIG_VALUES) == set(_SETTINGS)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in CONFIG_VALUES.items()), encoding="utf-8")
        loaded = _load_config(str(cfg))
        assert set(loaded) == set(_SETTINGS)
        resolved = _resolve(build_parser().parse_args(["bench", "--config", str(cfg)]))
        assert {name: getattr(resolved, name) for name in _SETTINGS} == loaded

    def test_defaults(self):
        resolved = _resolve(build_parser().parse_args(["check"]))
        assert {name: getattr(resolved, name) for name in _SETTINGS} == {
            name: default for name, (_, default, _) in _SETTINGS.items()
        }
        assert _resolve(build_parser().parse_args(["verify-bound"])).box == 1.0

    @pytest.mark.parametrize(
        "line,message",
        [
            ("format=xml", "format must be one of ('csv', 'json'), got 'xml'"),
            ("engine=fast", "engine must be one of ('euclid-chain', 'dyadic', 'ck'), got 'fast'"),
        ],
    )
    def test_choice_refused(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=square\n{line}\n", encoding="utf-8")
        code, _, err = run_out(["bench", "--config", str(cfg)], capsys)
        assert (code, err) == (2, f"error: {cfg}:2: {message}\n")


def reference_parser() -> argparse.ArgumentParser:
    """The parser as it was written out flag by flag, before the flags came
    from the settings table."""
    engines = (*ENGINES, "ck")
    common = argparse.ArgumentParser(add_help=False)
    fn = common.add_mutually_exclusive_group()
    fn.add_argument("--expr", help="bivariate expression for F(x, y)")
    fn.add_argument(
        "--seed",
        help="univariate seed g(t); F is its additivity defect "
        f"(builtins: {', '.join(sorted(BUILTIN_SEEDS))})",
    )
    common.add_argument(
        "--vars",
        help="comma-separated variable names for --expr (default x,y); seeds are in t",
    )
    common.add_argument("--config", help="key=value settings file; explicit flags win")
    common.add_argument("--out", help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="cocycle",
        description="Solve f(x+y) - f(x) - f(y) = F(x, y) and verify the bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common], help="residual checks on random samples")
    p_check.add_argument("--rng-seed", type=int, dest="rng_seed", help="sampling seed (default 0)")
    p_check.add_argument("--samples", type=int, help="sample count (default 1000)")
    p_check.add_argument("--box", type=float, help="sampling half-width (default 2)")

    p_rec = sub.add_parser("reconstruct", parents=[common], help="tabulate f on a rational grid")
    p_rec.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"))
    p_rec.add_argument("--denominators", type=int, help="all reduced p/q with q up to N")
    p_rec.add_argument("--dyadic-level", type=int, dest="dyadic_level", help="grid k/2^j")
    p_rec.add_argument("--engine", choices=engines)
    p_rec.add_argument("--format", choices=("csv", "json"))

    p_bound = sub.add_parser(
        "verify-bound", parents=[common], help="modulus bound checks for a reconstruction"
    )
    p_bound.add_argument(
        "--delta",
        action="append",
        type=parse_rational,
        help="rational scale in (0, 1/2); repeatable",
    )
    p_bound.add_argument(
        "--box", type=float, help="check on [-M, M] for a whole number M >= 1 (default 1)"
    )
    p_bound.add_argument(
        "--denominators",
        type=int,
        help="sample grid density N for f: all p/q with q up to N, or with "
        "--engine dyadic all k/2^L for the smallest 2^L >= N "
        "(default twice the largest delta denominator)",
    )
    p_bound.add_argument("--engine", choices=engines)
    for p in (p_check, p_rec, p_bound):
        p.add_argument("--tolerance", type=float, help="check/quadrature tolerance (default 1e-9)")

    sub.add_parser("bench", parents=[common], help="lattice solver timings")

    return parser


def _helps(parser: argparse.ArgumentParser) -> dict:
    (commands,) = (a for a in parser._actions if a.dest == "command")
    return {None: parser.format_help()} | {
        name: sub.format_help() for name, sub in commands.choices.items()
    }


class TestParser:
    def test_help_equals_the_reference(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        got, want = _helps(build_parser()), _helps(reference_parser())
        assert list(got) == list(want)
        for command, text in want.items():
            assert got[command] == text, command

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in README_COMMANDS] + [
            ["check", "--expr", "a*b", "--vars", "a,b", "--rng-seed", "3", "--samples", "5",
             "--box", "0.5", "--tolerance", "0", "--out", "o", "--config", "c"],
            ["reconstruct", "--seed", "cube", "--interval", "-1", "2", "--dyadic-level", "3",
             "--engine", "dyadic", "--format", "json"],
            ["verify-bound", "--seed", "cube", "--delta", "1/4", "--delta", "1/8", "--box", "2",
             "--denominators", "9", "--engine", "ck"],
            ["bench", "--seed", "expo", "--vars", "t"],
        ],
        ids=" ".join,
    )
    def test_parse_equals_the_reference(self, argv):
        assert vars(build_parser().parse_args(argv)) == vars(reference_parser().parse_args(argv))

    def test_one_parser_per_process(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            argv = ["check", "--seed", "square", "--samples", "1"]
            assert [run(argv), run(argv)] == [0, 0]
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_calls_carry_nothing_over(self, monkeypatch, capsys):
        deltas = []
        resolve = cli._resolve
        monkeypatch.setattr(
            cli, "_resolve", lambda args: deltas.append(getattr(args, "delta", None)) or resolve(args)
        )
        argv = ["verify-bound", "--seed", "square", "--delta", "1/4"]
        assert [run(argv), run(argv)] == [0, 0]
        assert deltas == [[Fraction(1, 4)]] * 2
        capsys.readouterr()

        both = ["check", "--expr", "x*y", "--seed", "square"]
        first = run_out(both, capsys)
        assert run_out(["check", "--seed", "square", "--samples", "1"], capsys)[0] == 0
        assert run_out(both, capsys) == first
        assert first[0] == 2 and "argument --seed: not allowed with argument --expr" in first[2]


class TestReadme:
    def test_commands_found(self):
        assert len(README_COMMANDS) >= 8
        assert [code for _, code in README_COMMANDS].count(1) == 1

    def test_library_example_runs(self, tmp_path, monkeypatch, capsys):
        (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        monkeypatch.chdir(tmp_path)
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
        out = capsys.readouterr().out
        assert [json.loads(line)["check"] for line in out.strip().splitlines()] == [
            "modulus-bound", "lattice-bound"
        ]

    @pytest.mark.parametrize(
        "argv,expected", README_COMMANDS, ids=[" ".join(a) for a, _ in README_COMMANDS]
    )
    def test_command(self, argv, expected, tmp_path, monkeypatch, capsys):
        (ini,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        (tmp_path / "solve.cfg").write_text(ini, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, _, err = run_out(argv, capsys)
        assert code == expected, err
