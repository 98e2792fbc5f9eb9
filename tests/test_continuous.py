from __future__ import annotations

import gc
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ALL_SEEDS, oracle_solution, seed_kernel
from cocycle import continuous
from cocycle import (
    ConvergenceError,
    EvaluationError,
    LatticeSolver,
    bivariate_expression,
    cocycle_from_seed,
    euclid_chain,
    grid_gap,
    grid_keys,
    h_rational,
    reconstruct_point,
    reconstruct_ck_table,
    reconstruct_table,
    seed_expression,
)
from cocycle.expressions import FuncSpec

F_BILINEAR = bivariate_expression("2*x*y")  # seed t^2, oracle h(t) = t^2 - t
F_ZERO = bivariate_expression("0")
F_EXPO = seed_kernel("expo")

small_rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=24
)


class ReferenceSolver:
    """The Fraction-keyed lattice recursion that the integer-keyed
    LatticeSolver replaced, kept as the reference for its values: the same
    float operations, with exact keys as Fractions, and scalar F calls
    only, where the solver takes a long row in one array call."""

    def __init__(self, F):
        self.F = F
        self.F00 = float(F(0.0, 0.0))
        self._h: dict = {}
        self._H: dict = {}

    def H(self, x: Fraction, y: Fraction) -> float:
        if x == 0 or y == 0:
            return 0.0
        if (x, y) not in self._H:
            try:
                val = float(self.F(float(x), float(y))) - self.F00
            except EvaluationError as exc:
                raise EvaluationError(str(exc), point=(float(x), float(y))) from exc
            if not math.isfinite(val):
                raise EvaluationError("non-finite", point=(float(x), float(y)))
            self._H[(x, y)] = val
        return self._H[(x, y)]

    def _row_sum(self, x: Fraction, m: int) -> float:
        return math.fsum(self.H(x, i * x) for i in range(1, m))

    def h(self, r: Fraction, engine: str = "euclid-chain") -> float:
        key = (engine, r)
        if key not in self._h:
            self._h[key] = self._reduce(r, engine)
        return self._h[key]

    def _reduce(self, r: Fraction, engine: str) -> float:
        half = Fraction(1, 2)
        if r == 0 or r == 1:
            return 0.0
        if r < 0:
            return -self.h(-r, engine) - self.H(-r, r)
        if r >= 1:
            k = math.floor(r)
            if r == k:  # h(2m) = 2h(m) + H(m, m), h(2m + 1) = h(2m) + H(1, 2m)
                m = Fraction(k // 2)
                if k % 2:
                    return self.h(2 * m, engine) + self.H(Fraction(1), 2 * m)
                return 2.0 * self.h(m, engine) + self.H(m, m)
            return self.h(Fraction(k), engine) + self.h(r - k, engine) + self.H(Fraction(k), r - k)
        if r == half:
            return -self.H(half, half) / 2.0
        if r > half:
            return -self.h(1 - r, engine) - self.H(r, 1 - r)
        if engine == "dyadic":
            return (self.h(2 * r, engine) - self.H(r, r)) / 2.0
        chain = euclid_chain(r)
        nodes = [r] + [Fraction(p, chain.n) for _, p in chain.steps]
        h_next = 0.0
        for j in range(len(chain.steps) - 1, -1, -1):
            key = ("euclid-chain", nodes[j])
            if key not in self._h:
                m = chain.steps[j][0]
                bridge = self.H(nodes[j + 1], 1 - nodes[j + 1])
                self._h[key] = -(self._row_sum(nodes[j], m) + bridge + h_next) / m
            h_next = self._h[key]
        return h_next


class CountingSpec(FuncSpec):
    """A FuncSpec that logs its calls in ``calls``.  The solver calls a
    subclass through F(x, y), not through the compiled form, so every
    scalar call of F is logged."""

    def __init__(self, spec: FuncSpec):
        super().__init__(spec.ast, spec.variables)
        object.__setattr__(self, "calls", [])

    def __call__(self, *args):
        self.calls.append(args)
        return super().__call__(*args)


KERNELS = {
    **{name: seed_kernel(name) for name in ("sine", "expo", "hoelder", "cube")},
    "2*x*y": F_BILINEAR,
}


def approximant(t: float, level: int) -> Fraction:
    """t_j, the multiple of 2**-level nearest the float t (``_dyadic_round``)."""
    num, den = t.as_integer_ratio()
    return Fraction(continuous._dyadic_round(num, den.bit_length() - 1, level), 1 << level)


def limit_bound(solver: LatticeSolver, q: Fraction, d: Fraction) -> float:
    """``_limit_bound`` at the exact floats q and d, with n, the largest
    with |d| <= 2**-n, taken from d's Fraction."""
    n = (d.denominator // abs(d.numerator)).bit_length() - 1
    return solver._limit_bound(float(q), float(d), n)


def reference_point(F, t: float, epsilon: float = 1e-6, *, max_depth: int = 64) -> float:
    """The level-by-level limit that reconstruct_point replaced, kept as
    the reference for its outcomes: f(t_j) at every level j, returned at
    the first whose bound meets epsilon, else ConvergenceError with the
    value of least bound, ties going to the later level."""
    solver = LatticeSolver(F)
    exact = Fraction(t)
    best: float | None = None
    bound = math.inf
    for level in range(1, max_depth + 1):
        q = approximant(t, level)
        val = solver.f_value(q, engine="dyadic")
        d = exact - q
        if d == 0:
            return val
        level_bound = limit_bound(solver, q, d)
        if level_bound <= epsilon:
            return val
        if best is None or level_bound <= bound:
            best, bound = val, level_bound
    raise ConvergenceError(
        f"no convergence within {max_depth} levels (achieved bound {bound:.3g})",
        best=best,
        bound=bound,
    )



def rationals_up_to(max_den: int):
    """Reduced rationals with |t| up to 5 and denominators up to max_den."""
    return st.integers(1, max_den).flatmap(
        lambda n: st.integers(-5 * n, 5 * n).map(lambda p: Fraction(p, n))
    )


# denominators up to 10^6, so that chain rows of 128 terms and more take
# the array path
wide_rationals = rationals_up_to(10**6)
dyadic_rationals = st.integers(0, 20).flatmap(
    lambda L: st.integers(-5 << L, 5 << L).map(lambda k: Fraction(k, 1 << L))
)


def _outcome(solver, r, engine="euclid-chain"):
    """h(r), or the lattice point of the EvaluationError it raised."""
    try:
        return solver.h(r, engine)
    except EvaluationError as exc:
        return ("error", exc.point)


class TestAgainstReference:
    @given(st.sampled_from(sorted(KERNELS)), st.one_of(small_rationals, wide_rationals))
    @settings(max_examples=40, deadline=None)
    def test_chain_engine_equals_reference(self, name, r):
        F = KERNELS[name]
        assert LatticeSolver(F).h(r) == ReferenceSolver(F).h(r)

    @given(st.sampled_from(sorted(KERNELS)), dyadic_rationals)
    @settings(max_examples=60, deadline=None)
    def test_dyadic_engine_equals_reference(self, name, r):
        F = KERNELS[name]
        assert LatticeSolver(F).h(r, "dyadic") == ReferenceSolver(F).h(r, "dyadic")

    @pytest.mark.parametrize("n,arrays", [(128, 0), (129, 1), (130, 1)])
    def test_vector_threshold_equals_reference(self, n, arrays):
        # 1/n has a row of n - 1 terms: scalar calls below 128, one array
        # call from 128 on, whose values equal the reference's scalar calls
        calls = []

        def F(x, y):
            calls.append(isinstance(y, np.ndarray))
            return F_EXPO(x, y)

        got = LatticeSolver(F).h(Fraction(1, n))
        assert sum(calls) == arrays
        assert got == ReferenceSolver(F_EXPO).h(Fraction(1, n))

    @pytest.mark.parametrize("a,b", [(309517039889459, 58957243863480000),
                                     (51393207630335, 10739385266208768)])
    def test_row_over_2_53_equals_reference(self, a, b):
        # chains of six rows whose first, of 189 and 207 terms, has a
        # denominator over 2**53, where the products i*a are not all floats:
        # float ys would miss the lattice points i*a/b of the scalar calls
        r = Fraction(a, b)
        assert LatticeSolver(F_EXPO).h(r) == ReferenceSolver(F_EXPO).h(r)

    @given(st.sampled_from(sorted(KERNELS)), st.lists(small_rationals, min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_shared_caches_equal_reference(self, name, rs):
        # one solver across many keys: values read back from the caches
        # equal those computed afresh
        F = KERNELS[name]
        solver, ref = LatticeSolver(F), ReferenceSolver(F)
        for r in rs:
            assert solver.h(r) == ref.h(r)

    @given(st.integers(1, 2000), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_pole_row_falls_back_like_reference(self, k, shift):
        # 1/(y - 1/3) has a pole on every row through y = 1/3, so those
        # rows fall back to scalar calls, which report the lattice point
        F = bivariate_expression("2*x*y + 1/(y - 1/3)")
        r = Fraction(k, 3 * 200) + shift
        assert _outcome(LatticeSolver(F), r) == _outcome(ReferenceSolver(F), r)

    @given(rationals_up_to(10**4))
    @settings(max_examples=30, deadline=None)
    def test_scalar_rows_equal_reference(self, r):
        # a kernel that refuses arrays sends every long row to scalar calls
        def F(x, y):
            if isinstance(y, np.ndarray):
                raise EvaluationError("no arrays")
            return F_EXPO(x, y)

        assert LatticeSolver(F).h(r) == ReferenceSolver(F).h(r)

    @given(st.sampled_from(sorted(KERNELS)), small_rationals, small_rationals)
    @settings(max_examples=80, deadline=None)
    def test_cocycle_identity(self, name, x, y):
        solver = LatticeSolver(KERNELS[name])
        lhs = solver.h(x + y) - solver.h(x) - solver.h(y)
        assert lhs == pytest.approx(solver.H(x, y), abs=1e-10)

    @given(st.sampled_from(sorted(KERNELS)), st.integers(0, 12).flatmap(
        lambda L: st.integers(-4 << L, 4 << L).map(lambda k: Fraction(k, 1 << L))))
    @settings(max_examples=80, deadline=None)
    def test_engines_agree_on_dyadic_keys(self, name, r):
        solver = LatticeSolver(KERNELS[name])
        assert solver.h(r, "euclid-chain") == pytest.approx(solver.h(r, "dyadic"), abs=1e-10)


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

    def test_kernel_overflow_carries_lattice_point(self):
        # F is finite everywhere, yet H(1, 1/2) = 1e308 - (-1e308) overflows
        with pytest.raises(EvaluationError) as exc:
            h_rational(bivariate_expression("1e308*(2*x - 1)"), Fraction(3, 2))
        assert str(exc.value) == "F non-finite at lattice point (1, 1/2)"
        assert exc.value.point == (1.0, 0.5)

    def test_non_finite_callable_carries_lattice_point(self):
        def F(x, y):
            return math.inf if (x, y) == (0.5, 0.5) else 2.0 * x * y

        with pytest.raises(EvaluationError) as exc:
            h_rational(F, Fraction(1, 2))
        assert str(exc.value) == "F non-finite at lattice point (1/2, 1/2)"
        assert exc.value.point == (0.5, 0.5)

    def test_dyadic_refusal_stops_at_the_first_key(self):
        # one Fraction for the first non-dyadic key, not one per such key
        grid = grid_keys((-2, 2), denominators=700)  # 596,073 keys
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            reconstruct_table(F_BILINEAR, grid, engine="dyadic")
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == "dyadic engine needs a power-of-two denominator, got -1399/700"

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

    @pytest.mark.parametrize("t", [2.0**1023, -1.7976931348623157e308])
    def test_targets_past_2_to_the_1023(self, t):
        # t lies on the level-1 grid, where rounding it would overflow
        assert reconstruct_point(F_ZERO, t) == 0.0
        with pytest.raises(EvaluationError, match="at lattice point"):
            reconstruct_point(bivariate_expression("x*y"), t)

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

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            reconstruct_point(F_BILINEAR, 1.3, epsilon=math.nan)

    @pytest.mark.parametrize("max_depth", [0, -3])
    def test_rejects_max_depth_below_one(self, max_depth):
        with pytest.raises(ValueError, match="max_depth"):
            reconstruct_point(F_BILINEAR, 1.3, max_depth=max_depth)

    def test_hoelder_target(self):
        F = seed_kernel("hoelder")
        oracle = oracle_solution("hoelder")
        t = math.sqrt(2)
        got = reconstruct_point(F, t, epsilon=1e-4)
        assert got == pytest.approx(oracle(t), abs=1e-4)

    def test_cusp_meets_epsilon(self):
        # the kernel's modulus is largest at the cusp, next to the target;
        # a box-wide lower estimate of it missed epsilon here by 78x
        g = seed_expression("sqrt(abs(t - 3/10))")
        t = 0.3 + 1e-9
        got = reconstruct_point(cocycle_from_seed(g), t, epsilon=1e-6)
        want = math.sqrt(abs(t - 0.3)) - (math.sqrt(0.7) - math.sqrt(0.3)) * t
        assert abs(got - want) <= 1e-6

    @pytest.mark.parametrize("t", [199.4566413018294, 1707.6281, -3215.6281, 4924.6281])
    def test_sine_targets_that_alias_a_sparse_probe(self, t):
        got = reconstruct_point(seed_kernel("sine"), t, epsilon=1e-6)
        assert abs(got - oracle_solution("sine")(t)) <= 1e-6

    @pytest.mark.parametrize("name", ALL_SEEDS)
    def test_seed_oracles_near_origin(self, name):
        F, oracle = seed_kernel(name), oracle_solution(name)
        solver = LatticeSolver(F)
        for t in (-3.9063, -2.718281828, -1.1, -0.25 - 1e-12, 1e-7, 0.6180339887, 1.9999, 3.14159):
            assert abs(reconstruct_point(F, t, epsilon=1e-6, solver=solver) - oracle(t)) <= 1e-6

    @pytest.mark.parametrize("name", ["square", "cube", "sine", "hoelder"])
    def test_seed_oracles_far_out(self, name):
        F, oracle = seed_kernel(name), oracle_solution(name)
        for t in (-1013.4271, 998.0000001, 1234.5678):
            assert abs(reconstruct_point(F, t, epsilon=1e-6) - oracle(t)) <= 1e-6

    def test_expo_far_out_is_not_evaluable(self):
        # h(1000) needs e^1000, which overflows a float
        with pytest.raises(EvaluationError):
            reconstruct_point(seed_kernel("expo"), 1000.5, epsilon=1e-6)

    @pytest.mark.parametrize("name", ALL_SEEDS)
    def test_convergence_error_when_max_depth_is_too_small(self, name):
        t = 0.7071067811865476
        with pytest.raises(ConvergenceError) as exc:
            reconstruct_point(seed_kernel(name), t, epsilon=1e-6, max_depth=12)
        assert 1e-6 < exc.value.bound < math.inf
        # the bound is certified: it holds for the value it comes with
        assert abs(exc.value.best - oracle_solution(name)(t)) <= exc.value.bound

    @given(st.sampled_from(ALL_SEEDS), st.floats(-4, 4), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_level_bound_holds(self, name, t, level):
        # |f(t) - f(t_j)| <= bound at every level, not only where it stops;
        # 1e-9 covers the rounding of the lattice and of the oracle
        solver = LatticeSolver(seed_kernel(name))
        q = approximant(t, level)
        d = Fraction(t) - q
        assume(d != 0)
        oracle = oracle_solution(name)
        assert abs(oracle(t) - solver.f_value(q, "dyadic")) <= limit_bound(solver, q, d) + 1e-9

    def test_opaque_callable_needs_exact_target(self):
        opaque = lambda x, y: 2.0 * x * y  # noqa: E731
        with pytest.raises(ValueError, match="FuncSpec"):
            reconstruct_point(opaque, math.sqrt(2))
        assert reconstruct_point(opaque, Fraction(1, 3)) == reconstruct_point(F_BILINEAR, Fraction(1, 3))
        assert reconstruct_point(opaque, 2) == reconstruct_point(F_BILINEAR, 2)

    def test_no_probe_calls(self, monkeypatch):
        from cocycle import verify

        def refuse(*args):
            raise AssertionError("modulus_probe called")

        monkeypatch.setattr(verify, "modulus_probe", refuse)
        got = reconstruct_point(seed_kernel("sine"), 0.3, epsilon=1e-6)
        assert abs(got - oracle_solution("sine")(0.3)) <= 1e-6
        assert not hasattr(LatticeSolver(F_BILINEAR), "_omega")


def _point_outcome(point, F, t, epsilon, max_depth):
    """The value, ConvergenceError's best, bound and message, or only
    the fact of an EvaluationError, whose lattice point may differ."""
    try:
        return point(F, t, epsilon=epsilon, max_depth=max_depth)
    except ConvergenceError as exc:
        return ("convergence", exc.best, exc.bound, str(exc))
    except EvaluationError:
        return ("evaluation",)


POINT_KERNELS = {**{name: seed_kernel(name) for name in ALL_SEEDS}, "2*x*y": F_BILINEAR}
far_targets = st.floats(1e3, 5e3, exclude_max=True).flatmap(
    lambda t: st.sampled_from([t, -t])
)


class TestLimitWalk:
    @given(
        st.sampled_from(sorted(POINT_KERNELS)),
        st.one_of(st.floats(-4, 4), far_targets),
        st.sampled_from([1e-4, 1e-6, 1e-9, 1e-12]),
        st.sampled_from([6, 12, 64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_level_by_level_reference(self, name, t, epsilon, max_depth):
        F = POINT_KERNELS[name]
        got = _point_outcome(reconstruct_point, F, t, epsilon, max_depth)
        assert got == _point_outcome(reference_point, F, t, epsilon, max_depth)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(5e-324)
    @example(-2.2250738585072014e-308)
    @example(2.0**53 + 2.0)
    @example(1.7976931348623157e308)
    @example(0.1)
    @settings(max_examples=200, deadline=None)
    def test_scanned_points_are_floats(self, t):
        # reconstruct_point encloses H at the floats ldexp(num, -level) and
        # ldexp(dn, -shift), which are t_j and d exactly if both are
        # floats: at every level the scan bounds, t off the level's grid
        exact = Fraction(t)
        for level in range(1, exact.denominator.bit_length() - 1):
            q = approximant(t, level)
            d = exact - q
            assert d != 0
            assert Fraction(float(q)) == q and Fraction(float(d)) == d

    @pytest.mark.parametrize("name,t", [("sine", 4924.6281), ("cube", 25000.123)])
    def test_one_walk_per_point(self, monkeypatch, name, t):
        # the bound needs no value of f, so the lattice is walked once, at
        # the level returned: F(0, 0) and 61 and 73 kernel terms, where a
        # walk at every level took 337 and 460
        f_value, calls = LatticeSolver.f_value, []

        def counted_f_value(self, *args, **kwargs):
            calls.append(args)
            return f_value(self, *args, **kwargs)

        monkeypatch.setattr(LatticeSolver, "f_value", counted_f_value)
        F = CountingSpec(seed_kernel(name))
        got = reconstruct_point(F, t, epsilon=1e-6)
        assert len(calls) == 1
        assert len(F.calls) < 100
        assert got == reference_point(seed_kernel(name), t)


    def test_failure_ties_go_to_the_later_level(self):
        # every box enclosure of this F is (-inf, inf), as 1 + x - x spans
        # 0 on a box, while its point values are finite: each level's
        # bound is inf, and the value comes from the last, not the first
        F = bivariate_expression("2*x*y/(1 + x - x)")
        with pytest.raises(ConvergenceError) as exc:
            reconstruct_point(F, 0.1, 1e-6, max_depth=6)
        assert exc.value.bound == math.inf
        assert exc.value.best == -0.0849609375
        assert LatticeSolver(F).f_value(approximant(0.1, 1), "dyadic") == 0.0


def _outcome_text(F, t, epsilon, max_depth, solver):
    # repr keeps the sign of a zero and the message of every error
    try:
        return repr(reconstruct_point(F, t, epsilon, max_depth=max_depth, solver=solver))
    except ConvergenceError as exc:
        return repr(("convergence", exc.best, exc.bound, str(exc)))
    except EvaluationError as exc:
        return repr(("evaluation", str(exc)))


def _box_enclosures(monkeypatch) -> list:
    # the boxes of every FuncSpec.enclose call from now on that are not points
    boxes = []
    enclose = FuncSpec.enclose

    def counted(self, *box):
        if any(lo != hi for lo, hi in box):
            boxes.append(box)
        return enclose(self, *box)

    monkeypatch.setattr(FuncSpec, "enclose", counted)
    return boxes


class TestSharedBounds:
    """The scale bounds S of reconstruct_point are kept per kernel."""

    @given(
        st.sampled_from(sorted(POINT_KERNELS)),
        st.lists(st.one_of(st.floats(-4, 4), far_targets), min_size=1, max_size=6),
        st.sampled_from([1e-3, 1e-6, 1e-12]),
        st.sampled_from([8, 30, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_solver_equals_fresh_ones(self, name, targets, epsilon, max_depth):
        F = POINT_KERNELS[name]
        shared = LatticeSolver(F)
        for t in targets:
            fresh = _outcome_text(F, t, epsilon, max_depth, None)
            assert _outcome_text(F, t, epsilon, max_depth, shared) == fresh

    @pytest.mark.parametrize("name", ["sine", "hoelder", "2*x*y"])
    def test_deep_bound_first_equals_step_by_step(self, monkeypatch, name):
        F = POINT_KERNELS[name]
        monkeypatch.setattr(continuous, "_BOUNDS", weakref.WeakKeyDictionary())
        deep = LatticeSolver(F)._h_bound(40)
        first = continuous._BOUNDS[F][1]
        monkeypatch.setattr(continuous, "_BOUNDS", weakref.WeakKeyDictionary())
        solver = LatticeSolver(F)
        steps = tuple(solver._h_bound(n) for n in range(41))
        assert len(first) == 41 and first == steps == continuous._BOUNDS[F][1]
        assert deep == steps[40]

    def test_equal_kernel_builds_no_scale_bound(self, monkeypatch):
        F, G = bivariate_expression("sin(x) * y"), bivariate_expression("sin(x) * y")
        assert F == G and F is not G
        want = reconstruct_point(F, 0.3, 1e-9)
        boxes = _box_enclosures(monkeypatch)
        assert reconstruct_point(G, 0.3, 1e-9) == want
        assert boxes == []
        reconstruct_point(G, 0.3, 1e-12)  # finer scales than F asked for
        assert boxes and all(lo == -hi for box in boxes for lo, hi in box)

    def test_entry_dies_with_its_kernel(self):
        F, G = bivariate_expression("x * y + 1"), bivariate_expression("x * y + 1")
        reconstruct_point(F, 0.3)
        assert G in continuous._BOUNDS
        del F
        gc.collect()
        assert G not in continuous._BOUNDS

    def test_threads_extending_one_entry_agree(self, monkeypatch):
        # solvers in several threads extend the same entry, each from its
        # own copy; a lost publication costs a recomputation, never a value
        F = seed_kernel("sine")
        monkeypatch.setattr(continuous, "_BOUNDS", weakref.WeakKeyDictionary())
        want = tuple(LatticeSolver(F)._h_bound(n) for n in range(61))
        monkeypatch.setattr(continuous, "_BOUNDS", weakref.WeakKeyDictionary())
        got = []

        def work(seed):
            for n in random.Random(seed).sample(range(61), 61):
                got.append((n, LatticeSolver(F)._h_bound(n)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(got) == 4 * 61 and all(v == want[n] for n, v in got)
        published = continuous._BOUNDS[F][1]
        assert published == want[: len(published)]

    def test_grid_work_never_hashes_the_kernel(self, monkeypatch):
        F = bivariate_expression("x * y + 2")

        def refuse(self):
            raise AssertionError("FuncSpec hashed")

        monkeypatch.setattr(FuncSpec, "__hash__", refuse)
        with pytest.raises(AssertionError):
            hash(F)
        keys = grid_keys((-2, 2), dyadic_level=6)
        assert reconstruct_table(F, keys, engine="dyadic").values
        assert reconstruct_table(F, grid_keys((-2, 2), denominators=12)).values


class TestIntegerPart:
    @pytest.mark.parametrize("k", [10**9, 10**9 + 7, 2**30 - 1])
    def test_square_and_cube_at_a_billion(self, k):
        # closed forms h(k) = k^2 - k and k^3 - k, compared exactly
        for name, want in (("square", k * k - k), ("cube", k**3 - k)):
            got = LatticeSolver(seed_kernel(name)).h(Fraction(k))
            assert abs(Fraction(got) - want) <= 1e-15 * want

    @pytest.mark.parametrize("name", ["sine", "hoelder"])
    def test_other_seeds_at_a_billion(self, name):
        k = 10**9 + 7
        got = LatticeSolver(seed_kernel(name)).f_value(Fraction(k))
        assert got == pytest.approx(oracle_solution(name)(k), rel=1e-14)

    def test_square_is_exact_below_2_to_the_26(self):
        solver = LatticeSolver(seed_kernel("square"))
        for k in [2, 3, 4, 5, 1000, 4_000_001, 2**26 - 1]:
            assert solver.h(Fraction(k)) == k * k - k

    @given(st.sampled_from(["2*x*y", "cube", "hoelder", "sine"]), st.integers(2, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_doubling_identities(self, name, k):
        solver = LatticeSolver(KERNELS[name])
        h = lambda n: solver.h(Fraction(n))  # noqa: E731
        if k % 2:
            assert h(k) == h(k - 1) + solver.H(Fraction(1), Fraction(k - 1))
        else:
            assert h(k) == 2.0 * h(k // 2) + solver.H(Fraction(k // 2), Fraction(k // 2))


class TestDescent:
    @pytest.mark.parametrize("r", [Fraction(1, 2**700), -5 - Fraction(3, 2**700)])
    def test_deep_dyadic_keys(self, r):
        # 700 halvings, below an integer part and a sign change: the
        # descent is a loop, so its depth is not bounded by the stack
        got = LatticeSolver(seed_kernel("sine")).h(r, "dyadic")
        assert math.isfinite(got)
        assert got == pytest.approx(oracle_solution("sine")(r), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_integer_grid_equals_reference(self, name):
        # one solver across every integer of [-700, 700]: h(k) from the
        # cached h(k >> 1) equals the reference's recursion on k // 2
        F = KERNELS[name]
        solver, ref = LatticeSolver(F), ReferenceSolver(F)
        for k in range(-700, 701):
            assert solver.h(Fraction(k)) == ref.h(Fraction(k))


    def test_integer_grid_asks_each_kernel_point_once(self):
        # h(2m + 1) builds on h(2m), so H(m, m) is not asked for again
        calls = []

        def F(x, y):
            calls.append((x, y))
            return F_BILINEAR(x, y)

        reconstruct_table(F, grid_keys((-64, 64), denominators=1))
        # F(0, 0), then one new point per key k in [2, 64] and per key -k
        assert len(set(calls)) == len(calls) == 1 + 63 + 64


class TestRowWork:
    @pytest.mark.parametrize("r", [Fraction(1, 2**700), Fraction(1, 10**9)])
    def test_huge_row_is_refused_before_it_is_built(self, r):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"at key {r}; the limit per call is 33554432"):
            LatticeSolver(seed_kernel("square")).h(r)
        assert time.perf_counter() - start < 10.0

    def test_rows_count_per_call(self, monkeypatch):
        monkeypatch.setattr(continuous, "MAX_ROW_TERMS", 100)
        solver = LatticeSolver(F_BILINEAR)
        # one table: rows of 59 and 49 terms
        with pytest.raises(ValueError, match="reach 108 kernel terms at key 1/50; the limit per call is 100"):
            reconstruct_table(F_BILINEAR, [Fraction(1, 60), Fraction(1, 50)], solver=solver)
        # rows of 59, 49 and 39 terms in three calls of h, then of 69 and
        # 79 terms in two tables: the count starts again at each call
        solver = LatticeSolver(F_BILINEAR)
        for r in (Fraction(1, 60), Fraction(1, 50), Fraction(1, 40)):
            assert solver.h(r) == ReferenceSolver(F_BILINEAR).h(r)
        for r in (Fraction(1, 70), Fraction(1, 80)):
            table = reconstruct_table(F_BILINEAR, [r], solver=solver)
            assert table.values == [ReferenceSolver(F_BILINEAR).h(r) - solver.F00]

    def test_long_row_is_the_scalar_sum(self):
        # h(1/n) = -(S + H(0, 1) + h(0)) / n, S = sum_{i=1..n-1} H(1/n, i/n):
        # the row's 16 blocks of array calls give the scalar calls' sum
        F, n = seed_kernel("sine"), 2**20
        call, f00 = F._compiled[0], F(0.0, 0.0)
        row = math.fsum(call(1 / n, i / n) - f00 for i in range(1, n))
        assert LatticeSolver(F).h(Fraction(1, n)) == -(row + 0.0 + 0.0) / n

    @pytest.mark.parametrize("n", [100, 200])
    def test_overflowing_term_names_its_point_in_any_row(self, n):
        # F is finite, and F - F(0, 0) overflows at y = 1/2 alone: a row of
        # 99 scalar terms and one of 199 array terms both name the point
        bump = "1e308*exp(-1000000*(y-0.5)^2)"
        F = bivariate_expression(f"{bump} - 1.7e308 + {bump}")
        with pytest.raises(EvaluationError) as exc, np.errstate(over="ignore"):
            LatticeSolver(F).h(Fraction(1, n))
        assert str(exc.value) == f"F non-finite at lattice point (1/{n}, 1/2)"

    PEAK_SCRIPT = """
import resource
from fractions import Fraction
from cocycle import LatticeSolver, builtin_seed, cocycle_from_seed
solver = LatticeSolver(cocycle_from_seed(builtin_seed("sine")))
solver.h(Fraction(1, 2**10))  # pages in numpy's array code
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
solver.h(Fraction(1, 2**22))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""

    def test_long_row_memory_is_bounded(self):
        # a row of 2**22 - 1 terms in blocks of 2**16: about 4 MiB more
        # peak memory; one array for the row and its list would take 261 MiB
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.PEAK_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 16 * 1024  # ru_maxrss counts KiB on Linux

    def test_row_past_2_to_53_is_streamed(self):
        # past b = 2**53 the ys i*a/b are not exact in an array, so the row
        # takes scalar calls, one at a time: a list of its 2**16 terms
        # alone would take 2 MiB
        F = seed_kernel("sine")
        solver, (a, b, m) = LatticeSolver(F), (3, 2**60 + 1, 2**16)
        want = math.fsum(solver._kernel(a, b, i * a, b) for i in range(1, m))
        tracemalloc.start()
        try:
            got = solver._row_sum(a, b, m, F._compiled[0], [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 18


def _table(F, keys, engine):
    """reconstruct_table's values as hex forms, or its error as (type,
    message, point)."""
    try:
        return [v.hex() for v in reconstruct_table(F, keys, engine).values]
    except (EvaluationError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "point", None))


def _reference(F, keys, engine):
    """The same table from ReferenceSolver, key by key."""
    ref = ReferenceSolver(F)
    return [(ref.h(k, engine) - ref.F00).hex() for k in continuous.KeyGrid.of(keys)]


# keys of either engine: negatives, integers, keys above 1, half-integers
dyadic_keys = st.integers(0, 7).flatmap(
    lambda L: st.integers(-6 << L, 6 << L).map(lambda k: Fraction(k, 1 << L))
)
farey_keys = st.integers(1, 40).flatmap(lambda n: st.integers(-6 * n, 6 * n).map(lambda p: Fraction(p, n)))
# whole grids, with keys of their own
dyadic_tables = st.tuples(
    st.integers(-4, 3), st.integers(1, 4), st.integers(0, 6), st.lists(dyadic_keys, max_size=8)
).map(lambda t: [*grid_keys((t[0], t[0] + t[1]), dyadic_level=t[2]), *t[3]])
chain_tables = st.one_of(
    st.lists(st.one_of(farey_keys, dyadic_keys), min_size=1, max_size=30),
    st.tuples(st.integers(-4, 3), st.integers(1, 12), st.lists(farey_keys, max_size=8)).map(
        lambda t: [*grid_keys((t[0], t[0] + 1), denominators=t[1]), *t[2]]
    ),
)
engine_tables = st.one_of(
    st.tuples(st.just("dyadic"), st.one_of(dyadic_tables, st.lists(dyadic_keys, max_size=30))),
    st.tuples(st.just("euclid-chain"), chain_tables),
)

# reconstruct_table's errors, from a pole, an overflowing F, or H = F -
# F(0, 0) overflowing where F does not: each names the first lattice
# point at which a recursion on the identities asks for a bad term
TABLE_ERRORS = [
    ("1/(x-1/2)", grid_keys((0, 1), denominators=4), "euclid-chain",
     "F not evaluable at lattice point (1/2, 1/2): float division by zero", (0.5, 0.5)),
    ("1/(x-1/2)", grid_keys((0, 1), dyadic_level=3), "dyadic",
     "F not evaluable at lattice point (1/2, 1/2): float division by zero", (0.5, 0.5)),
    ("1/(y-1/3) + x*y", grid_keys((-3, 3), denominators=9), "euclid-chain",
     "F not evaluable at lattice point (1/9, 1/3): float division by zero", (1 / 9, 1 / 3)),
    ("1e308*x*y", grid_keys((-2, 2), denominators=3), "euclid-chain",
     "F not evaluable at lattice point (2, -2): non-finite result", (2.0, -2.0)),
    ("1e308*x*y", grid_keys((-2, 2), dyadic_level=3), "dyadic",
     "F not evaluable at lattice point (2, -2): non-finite result", (2.0, -2.0)),
    ("exp(1000*x*y)", grid_keys((-2, 2), dyadic_level=4), "dyadic",
     "F not evaluable at lattice point (1, 1): math range error", (1.0, 1.0)),
    # no key asks for log(x+1) at x <= -1: the reference's values
    ("log(x+1)", grid_keys((-2, 2), denominators=5), "euclid-chain", None, None),
    # 1/(x - 3/8) is a pole on (0, 1) that only the key 3/8 asks for
    ("1/(x-3/8) + x*y", [*grid_keys((0, 1), dyadic_level=2), Fraction(-3, 8)], "dyadic",
     "F not evaluable at lattice point (3/8, 3/8): float division by zero", (0.375, 0.375)),
    ("1/(x-3/8) + x*y", grid_keys((-1, 1), dyadic_level=3), "dyadic",
     "F not evaluable at lattice point (3/8, 3/8): float division by zero", (0.375, 0.375)),
    # F is finite, and F - F(0, 0) overflows from x*y = 0.9 on: first at
    # (1, 15/16), for the key 31/16, before the integer 2 asks for (1, 1)
    ("1e308*x*y - 1.7e308 + 1e308*x*y", grid_keys((0, 2), dyadic_level=4), "dyadic",
     "F non-finite at lattice point (1, 15/16)", (1.0, 0.9375)),
    ("1e308*x*y - 1.7e308 + 1e308*x*y", grid_keys((0, 2), denominators=16), "euclid-chain",
     "F non-finite at lattice point (1, 9/10)", (1.0, 0.9)),
    # the same without the integer 2
    ("1e308*x*y - 1.7e308 + 1e308*x*y", grid_keys((0, Fraction(31, 16)), dyadic_level=4), "dyadic",
     "F non-finite at lattice point (1, 15/16)", (1.0, 0.9375)),
    ("1e308*x*y - 1.7e308 + 1e308*x*y", grid_keys((0, Fraction(19, 10)), denominators=10), "euclid-chain",
     "F non-finite at lattice point (1, 9/10)", (1.0, 0.9)),
]


class TestTablePass:
    """reconstruct_table and LatticeSolver.h share one evaluator, so a
    table is checked against ReferenceSolver, key by key, and its errors
    against the lattice points a recursion on the identities reaches
    first."""

    # the zero kernel's values are signed zeros, which the hex forms tell apart
    KERNELS = {**{name: seed_kernel(name) for name in ALL_SEEDS}, "2*x*y": F_BILINEAR, "0": F_ZERO}

    @given(st.sampled_from(sorted(KERNELS)), st.one_of(dyadic_tables, st.lists(dyadic_keys, max_size=30)))
    @settings(max_examples=60, deadline=None)
    def test_dyadic_table_equals_walk(self, name, keys):
        F = self.KERNELS[name]
        assert _table(F, keys, "dyadic") == _reference(F, keys, "dyadic")

    @given(st.sampled_from(sorted(KERNELS)), chain_tables)
    @settings(max_examples=60, deadline=None)
    def test_chain_table_equals_walk(self, name, keys):
        F = self.KERNELS[name]
        assert _table(F, keys, "euclid-chain") == _reference(F, keys, "euclid-chain")

    @given(st.sampled_from(sorted(KERNELS)), engine_tables)
    @settings(max_examples=40, deadline=None)
    def test_shared_cache_gives_fresh_values(self, name, engine_keys):
        # a table fills the shared solver's cache, and h then reads it
        F, (engine, keys) = self.KERNELS[name], engine_keys
        solver = LatticeSolver(F)
        reconstruct_table(F, keys, engine, solver=solver)
        got = [solver.h(k, engine).hex() for k in keys]
        assert got == [LatticeSolver(F).h(k, engine).hex() for k in keys]

    def test_long_rows_equal_walk(self):
        # rows of 128 terms and more take array calls
        keys = [Fraction(1, n) for n in (100, 129, 300, 1000)] + [Fraction(-7, 300), Fraction(5, 2)]
        assert _table(F_EXPO, keys, "euclid-chain") == _reference(F_EXPO, keys, "euclid-chain")

    @pytest.mark.parametrize("expr,keys,engine", [case[:3] for case in TABLE_ERRORS])
    def test_errors_are_the_walks(self, expr, keys, engine):
        F = bivariate_expression(expr)
        message, point = next(case[3:] for case in TABLE_ERRORS if case[1] is keys)
        want = _reference(F, keys, engine) if message is None else (EvaluationError, message, point)
        assert _table(F, keys, engine) == want
        assert _table(lambda x, y: F(x, y), keys, engine) == want  # a plain callable

    def test_pole_names_the_lattice_point(self):
        F = bivariate_expression("1/(x-1/2)")
        for engine, grid in (("euclid-chain", {"denominators": 4}), ("dyadic", {"dyadic_level": 3})):
            with pytest.raises(EvaluationError, match=r"lattice point \(1/2, 1/2\)") as info:
                reconstruct_table(F, grid_keys((0, 1), **grid), engine)
            assert info.value.point == (0.5, 0.5)

    def test_unused_level_node_fails_only_the_pass(self):
        # 3/8, a pole, lies between these keys at their finest level, and
        # no key asks for it: F is never called there
        F = bivariate_expression("1/(x-3/8) + x*y")
        keys = [Fraction(k, 8) for k in range(-16, 17) if k % 8 in (0, 2, 4, 6)] + [Fraction(1, 8)]
        assert _table(F, keys, "dyadic") == _reference(F, keys, "dyadic")

    def test_row_limit_refusal_is_the_walks(self, monkeypatch):
        # in key order, rows of 499 and 399 terms fit, and one of 299 more would not
        monkeypatch.setattr(continuous, "MAX_ROW_TERMS", 1000)
        keys = [Fraction(1, 300), Fraction(1, 400), Fraction(1, 500), Fraction(3, 2)]
        assert _table(F_EXPO, keys, "euclid-chain") == (
            ValueError,
            "euclid-chain row sums reach 1197 kernel terms at key 1/300; the limit per call is 1000",
            None,
        )


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

    @pytest.mark.parametrize("M", [1, 2, 5])
    @pytest.mark.parametrize(
        "grid",
        [{"denominators": 1}, {"denominators": 7}, {"denominators": 12},
         {"dyadic_level": 0}, {"dyadic_level": 3}],
    )
    def test_grid_gap_is_the_widest_gap(self, M, grid):
        keys = list(grid_keys((-M, M), **grid))
        gap = grid_gap((-M, M), **grid)
        assert type(gap) is Fraction and gap == max(b - a for a, b in zip(keys, keys[1:]))

    def test_grid_gap_refusals(self, monkeypatch):
        with pytest.raises(ValueError, match="integer endpoints"):
            grid_gap((0, 0.5), denominators=4)
        # the key limit comes first, as in grid_keys, and builds no key
        monkeypatch.setattr(continuous, "MAX_GRID_KEYS", 9)
        with pytest.raises(ValueError, match="limit is 9"):
            grid_gap((0, 1), denominators=4)
        with pytest.raises(ValueError, match="limit is 9"):
            grid_gap((0, 1), dyadic_level=4)

    @staticmethod
    def _brute_force(a, b, dens):
        a, b = Fraction(a), Fraction(b)
        return sorted({
            Fraction(num, den)
            for den in dens
            for num in range(math.ceil(a * den), math.floor(b * den) + 1)
        })

    @given(
        st.integers(1, 2000),
        st.one_of(st.floats(-50, 50), small_rationals),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_denominator_grid_in_exact_order(self, bound, a, share):
        # widths keep the candidate count near 20,000 at any bound
        b = Fraction(a) + Fraction(share * min(5.0, 40000 / bound**2))
        keys = grid_keys((a, b), denominators=bound)
        assert list(keys) == self._brute_force(a, b, range(1, bound + 1))

    @given(st.integers(0, 24), st.floats(-50, 50), st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_dyadic_grid_in_exact_order(self, level, a, share):
        b = a + share * min(5.0, 20000 / 2**level)
        keys = grid_keys((a, b), dyadic_level=level)
        assert list(keys) == self._brute_force(a, b, [1 << level])

    @pytest.mark.parametrize(
        "interval,bound",
        [
            ((10**6, 10**6 + 1e-3), 2000),  # neighbours 1/q^2 apart, far from 0
            ((-(10**6) - 1e-3, -(10**6)), 2000),
            ((2**60, 2**60 + 1), 3),  # distinct keys that round to one float
            ((-(2**55) - 1, -(2**55) + 1), 5),
            ((2**60, 2**60 + 1), 200),  # 12,233 keys, all rounding to one float
        ],
    )
    def test_near_equal_neighbours_in_exact_order(self, interval, bound):
        keys = grid_keys(interval, denominators=bound)
        assert list(keys) == self._brute_force(*interval, range(1, bound + 1))

    def test_key_grid_reads_as_fractions(self):
        keys = grid_keys((-1, 1), denominators=3)
        assert keys.pairs[:3] == [(-1, 1), (-2, 3), (-1, 2)]
        assert keys[1] == Fraction(-2, 3) and keys[-1] == Fraction(1)
        assert list(keys)[1:3] == [Fraction(-2, 3), Fraction(-1, 2)]
        assert Fraction(1, 3) in keys and len(keys) == 9
        assert keys == tuple(keys) and keys != list(keys)[1:]

    @pytest.mark.parametrize(
        "grid,message",
        [
            ({"denominators": 1414}, "has at least 1000404 candidate keys p/q with q up to 1414"),
            ({"dyadic_level": 70}, "has at least 1180591620717411303425 candidate keys k/2^70"),
        ],
        ids=["farey-1414", "dyadic-70"],
    )
    def test_key_limit_names_what_it_counts(self, grid, message):
        # every multiple of 1/q is a candidate, reduced or not: the Farey
        # grid of 1414 holds 608,001 keys but 1,001,819 candidates
        with pytest.raises(ValueError) as exc:
            grid_keys((0, 1), **grid)
        assert str(exc.value) == f"grid on [0, 1] {message}; the limit is 1000000"

    def test_huge_grids_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit is 1000000"):
            grid_keys((-2, 2), denominators=10**6)
        with pytest.raises(ValueError, match="limit is 1000000"):
            grid_keys((-2, 2), dyadic_level=60)
        assert time.perf_counter() - start < 2.0

    def test_dyadic_level_over_the_limit_refused(self):
        # keys finer than 2**-1074 are not floats; the finest level still
        # tiles an interval whose width is one subnormal
        tiny = (0.0, 5e-324)
        assert list(grid_keys(tiny, dyadic_level=1074)) == [0, Fraction(1, 2**1074)]
        with pytest.raises(ValueError) as exc:
            grid_keys(tiny, dyadic_level=1075)
        assert str(exc.value) == "dyadic level 1075 is over the limit 1074"
        with pytest.raises(ValueError, match="candidate keys k/2\\^1075; the limit is 1000000"):
            grid_gap((0, 1), dyadic_level=1075)

    def test_huge_dyadic_level_refused_without_building_it(self):
        # the candidates of a finer level are counted at level 1074, so
        # 2**level is never built: it would take 125 GB here
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                grid_keys((0, 1), dyadic_level=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(exc.value).startswith("grid on [0, 1] has at least ")
        assert str(exc.value).endswith(" candidate keys k/2^1000000000000; the limit is 1000000")

    def test_denominator_bound_over_the_limit_refused_at_once(self):
        # the interval holds no key p/q with q up to 10**6, yet counting the
        # candidates over each q takes about 2 s at that bound
        tiny = (0.3000000001, 0.3000000002)
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            grid_keys(tiny, denominators=continuous.MAX_GRID_KEYS + 1)
        assert time.perf_counter() - start < 0.1
        assert str(exc.value).startswith("grid on [")
        assert str(exc.value).endswith(
            "] has 1000001 denominators q to scan for keys p/q; the limit is 1000000"
        )
        with pytest.raises(ValueError, match="1000001 denominators q to scan"):
            grid_gap((0, 1), denominators=continuous.MAX_GRID_KEYS + 1)

    @pytest.mark.parametrize(
        "interval,grid,message",
        [
            (
                (0, 10**5000),
                {"denominators": 1},
                "grid on [0, ~10^5000] has at least ~10^5000 candidate keys p/q with q up to 1",
            ),
            (
                (-(10**5000), Fraction(1, 3)),
                {"dyadic_level": 2},
                "grid on [~-10^5000, 1/3] has at least ~10^5001 candidate keys k/2^2",
            ),
            (
                (0, 1),
                {"denominators": 10**5000},
                "grid on [0, 1] has ~10^5000 denominators q to scan for keys p/q",
            ),
        ],
        ids=["endpoint", "negative-endpoint", "denominators"],
    )
    def test_numbers_past_the_digit_limit_refused_by_the_key_limit(self, interval, grid, message):
        # str() of an int over 4300 digits raises its own ValueError; the
        # message gives such a number as its rounded power of ten
        with pytest.raises(ValueError) as exc:
            grid_keys(interval, **grid)
        assert str(exc.value) == f"{message}; the limit is 1000000"
        with pytest.raises(ValueError) as exc:
            grid_keys((0.0, 5e-324), dyadic_level=10**5000)
        assert str(exc.value) == "dyadic level ~10^5000 is over the limit 1074"


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
        calls = []

        def F(x, y):
            calls.append((x, y))
            return F_BILINEAR(x, y)

        solver = LatticeSolver(F)
        reconstruct_table(F, grid_keys((0, 1), denominators=8), solver=solver)
        assert calls
        calls.clear()
        reconstruct_table(F, grid_keys((0, 1), denominators=8), solver=solver)
        assert calls == []  # the second pass reads every h from the cache


class TestJson:
    def _assert_same_as_json_dumps(self, table):
        assert table.to_json_text() == json.dumps(table.to_json_obj(), indent=2) + "\n"

    @given(st.lists(st.fractions(-50, 50, max_denominator=4000), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_lattice_tables(self, keys):
        self._assert_same_as_json_dumps(reconstruct_table(F_EXPO, keys))

    def test_ck_table(self):
        self._assert_same_as_json_dumps(reconstruct_ck_table(F_EXPO, grid_keys((-1, 1), dyadic_level=4)))

    def test_non_finite_values_and_quoted_names(self):
        table = continuous.ReconstructedFunction(
            continuous.KeyGrid([(-1, 3), (1, 2), (7, 1)]), [math.inf, math.nan, -math.inf],
            engine='a"b', normalization={"f'(0)": -0.0, 'q"': 1e300},
        )
        self._assert_same_as_json_dumps(table)

    @given(st.dictionaries(
        st.fractions(-50, 50, max_denominator=40),
        st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
        max_size=20,
    ))
    @settings(max_examples=60, deadline=None)
    def test_any_values(self, rows):
        # finite and non-finite values, rows with and without t_exact
        keys = sorted(rows)
        table = continuous.ReconstructedFunction(
            continuous.KeyGrid.of(keys), [rows[k] for k in keys], engine="dyadic",
            normalization={"f(0)": 0.5, "f(1)": math.nan},
        )
        self._assert_same_as_json_dumps(table)

    def test_golden(self):
        keys = grid_keys((-1.5, 2.25), dyadic_level=5)
        table = reconstruct_table(seed_kernel("sine"), keys, engine="dyadic")
        golden = Path(__file__).resolve().parent / "data" / "reconstruct_sine_dyadic5.json"
        assert table.to_json_text() == golden.read_text(encoding="utf-8")


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

    @given(st.lists(st.fractions(-50, 50, max_denominator=4000), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_t_column_is_exact(self, keys):
        # a terminating key is written as its exact decimal, any other as
        # its float, with the key itself in t_exact
        table = reconstruct_table(F_ZERO, keys)
        rows = [line.split(",") for line in table.to_csv_text().splitlines()[1:]]
        for key, (t_text, _, *exact) in zip(sorted(set(keys)), rows):
            if exact and exact[0]:
                assert exact[0] == f"{key.numerator}/{key.denominator}"
                assert t_text == f"{float(key):.17g}"
            else:
                assert Fraction(Decimal(t_text)) == key
                assert "." not in t_text or not t_text.endswith("0")

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
