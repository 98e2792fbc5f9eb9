from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SEEDS, oracle_solution, seed_kernel
from cocycle import continuous
from cocycle import (
    ConvergenceError,
    EvaluationError,
    LatticeSolver,
    bivariate_expression,
    grid_keys,
    h_rational,
    reconstruct_point,
    reconstruct_table,
)

F_BILINEAR = bivariate_expression("2*x*y")  # seed t^2, oracle h(t) = t^2 - t
F_ZERO = bivariate_expression("0")

small_rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=24
)


class TestLatticeValues:
    def test_core_interval_chain(self):
        # m0 = 3: h = -(1/3) * [H(1/3,1/3) + H(1/3,2/3)] = -(1/3)(2/9 + 4/9)
        assert h_rational(F_BILINEAR, Fraction(1, 3)) == pytest.approx(-2 / 9, abs=1e-15)

    def test_integer_rule(self):
        assert h_rational(F_BILINEAR, Fraction(2)) == pytest.approx(2.0, abs=1e-15)

    def test_one_half_rule(self):
        assert h_rational(F_BILINEAR, Fraction(1, 2)) == pytest.approx(-0.25, abs=1e-15)

    def test_dyadic_halving(self):
        # (h(1/2) - H(1/4,1/4)) / 2 = (-1/4 - 1/8) / 2
        got = h_rational(F_BILINEAR, Fraction(1, 4), engine="dyadic")
        assert got == pytest.approx(-3 / 16, abs=1e-15)

    def test_normalization_pins_zero_and_one(self):
        for name in ALL_SEEDS:
            F = seed_kernel(name)
            assert h_rational(F, Fraction(0)) == 0.0
            assert h_rational(F, Fraction(1)) == 0.0

    def test_zero_kernel_vanishes_everywhere(self):
        for r in (Fraction(0), Fraction(2, 7), Fraction(5, 3), Fraction(-4, 9), Fraction(11)):
            assert h_rational(F_ZERO, r) == 0.0

    def test_dyadic_engine_requires_dyadic_denominator(self):
        with pytest.raises(ValueError):
            h_rational(F_BILINEAR, Fraction(1, 3), engine="dyadic")

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            h_rational(F_BILINEAR, Fraction(1, 4), engine="newton")

    @given(small_rationals)
    @settings(max_examples=80, deadline=None)
    def test_negation_rule_self_consistent(self, r):
        # h(-r) + h(r) = -H(r, -r) must hold exactly as computed
        solver = LatticeSolver(F_BILINEAR)
        lhs = solver.h(-r) + solver.h(r)
        rhs = -solver.H(r, -r) if r != 0 else 0.0
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_evaluation_error_carries_lattice_point(self):
        F = bivariate_expression("1/(x - 1/4)")
        with pytest.raises(EvaluationError) as exc:
            h_rational(F, Fraction(1, 4))
        assert exc.value.point == (0.25, 0.25)

    def test_pole_on_one_row_keeps_later_rows_vectorized(self):
        kernel = bivariate_expression("2*x*y + 1/(x - 1/200)")
        array_calls = []

        def F(x, y):
            array_calls.append(isinstance(y, np.ndarray))
            return kernel(x, y)

        solver = LatticeSolver(F)
        with pytest.raises(EvaluationError) as exc:
            solver.h(Fraction(1, 200))  # its row of 199 falls back to scalars
        assert exc.value.point == (0.005, 0.005)
        array_calls.clear()
        solver.h(Fraction(1, 300))
        assert array_calls == [True]  # the row of 299 is one array call

    def test_row_of_scalar_results(self):
        # a constant returned for an array used to crash the row sum
        assert h_rational(lambda x, y: 2.0, Fraction(1, 200)) == 0.0

    @pytest.mark.parametrize("r", [Fraction(1, 200), Fraction(7, 1000), Fraction(3, 997)])
    def test_scalar_only_callable_matches_array_rows(self, r):
        # rows of 128 terms and more take one array call when F takes
        # arrays and one scalar call per term when it does not
        scalar_only = lambda x, y: float(2 * x * y)
        assert h_rational(scalar_only, r) == h_rational(F_BILINEAR, r)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_SEEDS)
    def test_matches_closed_form(self, name):
        F = seed_kernel(name)
        oracle = oracle_solution(name)
        solver = LatticeSolver(F)
        tol = 1e-7 if name == "hoelder" else 1e-9
        worst = 0.0
        for n in range(1, 13):
            for p in range(-2 * n, 2 * n + 1):
                r = Fraction(p, n)
                worst = max(worst, abs(solver.f_value(r) - oracle(r)))
        assert worst <= tol

    @pytest.mark.parametrize("name", ALL_SEEDS)
    def test_engines_agree_on_dyadics(self, name):
        F = seed_kernel(name)
        solver = LatticeSolver(F)
        for k in range(-64, 65):
            r = Fraction(k, 64)
            chain = solver.h(r, "euclid-chain")
            dyad = solver.h(r, "dyadic")
            assert abs(chain - dyad) <= 1e-10


class TestReconstructPoint:
    def test_sqrt2(self):
        got = reconstruct_point(F_BILINEAR, math.sqrt(2), epsilon=1e-6)
        assert got == pytest.approx(2 - math.sqrt(2), abs=1e-6)

    def test_exact_float_target_short_circuits(self):
        assert reconstruct_point(F_BILINEAR, 1.0) == 0.0
        assert reconstruct_point(F_BILINEAR, 0.75, epsilon=1e-9) == pytest.approx(
            -3 / 16, abs=1e-12
        )

    def test_rational_input_is_lattice_exact(self):
        got = reconstruct_point(F_BILINEAR, Fraction(1, 3))
        assert got == h_rational(F_BILINEAR, Fraction(1, 3))

    def test_int_input_is_lattice_exact(self):
        assert reconstruct_point(F_BILINEAR, 2) == pytest.approx(2.0, abs=1e-15)

    def test_zero_kernel(self):
        assert reconstruct_point(F_ZERO, math.pi, epsilon=1e-8) == 0.0

    def test_convergence_error_reports_best_and_bound(self):
        with pytest.raises(ConvergenceError) as exc:
            reconstruct_point(F_BILINEAR, math.sqrt(2), epsilon=1e-6, max_depth=2)
        assert exc.value.bound > 1e-6
        assert exc.value.best is None or math.isfinite(exc.value.best)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            reconstruct_point(F_BILINEAR, 0.5, epsilon=0.0)

    def test_rejects_nonfinite_target(self):
        with pytest.raises(ValueError):
            reconstruct_point(F_BILINEAR, math.nan)

    def test_hoelder_target(self):
        F = seed_kernel("hoelder")
        oracle = oracle_solution("hoelder")
        t = math.sqrt(2)
        got = reconstruct_point(F, t, epsilon=1e-4)
        assert got == pytest.approx(oracle(t), abs=1e-4)


class TestGridKeys:
    def test_denominator_grid(self):
        keys = grid_keys((0, 1), denominators=4)
        assert keys == [
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 4),
            Fraction(1),
        ]

    def test_dyadic_grid(self):
        keys = grid_keys((0, 1), dyadic_level=2)
        assert keys == [Fraction(k, 4) for k in range(5)]

    def test_negative_interval(self):
        keys = grid_keys((-1, 0), denominators=2)
        assert keys == [Fraction(-1), Fraction(-1, 2), Fraction(0)]

    def test_exactly_one_resolution(self):
        with pytest.raises(ValueError):
            grid_keys((0, 1), denominators=4, dyadic_level=2)
        with pytest.raises(ValueError):
            grid_keys((0, 1))

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            grid_keys((1, 1), denominators=4)

    @pytest.mark.parametrize("end", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("grid", [{"denominators": 4}, {"dyadic_level": 2}])
    def test_nonfinite_endpoint(self, end, grid):
        for interval in ((0, end), (end, 0)):
            with pytest.raises(ValueError, match="interval endpoints must be finite"):
                grid_keys(interval, **grid)

    def test_size_guard_threshold(self, monkeypatch):
        # the bound counts every multiple of 1/q in [a, b] before reduction:
        # 2 + 3 + 4 = 9 for q <= 3 on [0, 1], and 2^L + 1 for level L
        monkeypatch.setattr(continuous, "MAX_GRID_KEYS", 9)
        assert len(grid_keys((0, 1), denominators=3)) == 5
        assert len(grid_keys((0, 1), dyadic_level=3)) == 9
        with pytest.raises(ValueError, match="limit is 9"):
            grid_keys((0, 1), denominators=4)
        with pytest.raises(ValueError, match="limit is 9"):
            grid_keys((0, 1), dyadic_level=4)

    def test_huge_grids_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit is 1000000"):
            grid_keys((-2, 2), denominators=10**6)
        with pytest.raises(ValueError, match="limit is 1000000"):
            grid_keys((-2, 2), dyadic_level=60)
        assert time.perf_counter() - start < 2.0


class TestTables:
    def test_known_quarter_grid(self):
        table = reconstruct_table(F_BILINEAR, grid_keys((0, 1), denominators=4))
        want = {
            Fraction(0): 0.0,
            Fraction(1, 4): -3 / 16,
            Fraction(1, 3): -2 / 9,
            Fraction(1, 2): -1 / 4,
            Fraction(2, 3): -2 / 9,
            Fraction(3, 4): -3 / 16,
            Fraction(1): 0.0,
        }
        assert set(table.samples) == set(want)
        for k, v in want.items():
            assert table.value_at(k) == pytest.approx(v, abs=1e-12)

    def test_expo_dyadic_level6(self):
        F = seed_kernel("expo")
        oracle = oracle_solution("expo")
        table = reconstruct_table(F, grid_keys((0, 1), dyadic_level=6), engine="dyadic")
        worst = max(abs(table.value_at(k) - oracle(k)) for k in table.samples)
        assert worst <= 1e-10

    def test_normalization_record(self):
        F = seed_kernel("expo")  # F(0,0) = -1
        table = reconstruct_table(F, [Fraction(0), Fraction(1)])
        assert table.value_at(Fraction(0)) == 1.0
        assert table.value_at(Fraction(1)) == 1.0
        assert table.normalization["f(0)"] == 1.0
        assert table.normalization["f(1)"] == 1.0

    def test_keys_sorted_and_deduplicated(self):
        table = reconstruct_table(
            F_BILINEAR, [Fraction(1, 2), Fraction(0), Fraction(2, 4), Fraction(-1, 2)]
        )
        assert list(table.samples) == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]

    def test_lookup_miss_raises(self):
        table = reconstruct_table(F_BILINEAR, [Fraction(0), Fraction(1, 2)])
        with pytest.raises(LookupError):
            table.value_at(Fraction(1, 5))

    def test_callable_interface(self):
        table = reconstruct_table(F_BILINEAR, [Fraction(3, 4)])
        assert table(0.75) == table.value_at(Fraction(3, 4))

    def test_memoization_shared_across_keys(self):
        solver = LatticeSolver(F_BILINEAR)
        reconstruct_table(F_BILINEAR, grid_keys((0, 1), denominators=8), solver=solver)
        first = dict(solver._H)
        reconstruct_table(F_BILINEAR, grid_keys((0, 1), denominators=8), solver=solver)
        assert dict(solver._H) == first  # second pass hits the cache


class TestCsv:
    def test_header_without_exact_column(self):
        table = reconstruct_table(F_BILINEAR, [Fraction(0), Fraction(1, 4), Fraction(1, 2)])
        text = table.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "t,f"
        assert lines[1] == "0,0"
        assert lines[2] == "0.25,-0.1875"
        assert text.endswith("\n")

    def test_exact_column_for_nonterminating_keys(self):
        table = reconstruct_table(F_BILINEAR, [Fraction(0), Fraction(1, 3)])
        lines = table.to_csv_text().splitlines()
        assert lines[0] == "t,f,t_exact"
        assert lines[1] == "0,0,"
        t_text, f_text, exact = lines[2].split(",")
        assert t_text == f"{1/3:.17g}"
        assert float(f_text) == pytest.approx(-2 / 9, abs=1e-15)
        assert exact == "1/3"

    def test_terminating_decimals_are_exact(self):
        table = reconstruct_table(
            F_BILINEAR, [Fraction(-3, 4), Fraction(1, 5), Fraction(2)]
        )
        lines = table.to_csv_text().splitlines()
        assert lines[1].startswith("-0.75,")
        assert lines[2].startswith("0.2,")
        assert lines[3].startswith("2,")

    def test_byte_determinism(self):
        keys = grid_keys((0, 1), denominators=5)
        a = reconstruct_table(F_BILINEAR, keys).to_csv_text()
        b = reconstruct_table(F_BILINEAR, keys).to_csv_text()
        assert a == b

    def test_json_payload(self):
        table = reconstruct_table(F_BILINEAR, [Fraction(1, 3)])
        obj = table.to_json_obj()
        assert obj["engine"] == "euclid-chain"
        (row,) = obj["samples"]
        assert row["t_exact"] == "1/3"
        assert row["f"] == pytest.approx(-2 / 9, abs=1e-15)
