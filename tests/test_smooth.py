from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMOOTH_SEEDS, affine_difference, oracle_solution, seed_kernel
from cocycle import (
    QuadratureError,
    bivariate_expression,
    grid_keys,
    reconstruct_ck_point,
    reconstruct_ck_table,
    reconstruct_table,
)
from cocycle.continuous import KeyGrid
from cocycle.smooth import _dl, _integrate

F_BILINEAR = bivariate_expression("2*x*y")
F_ZERO = bivariate_expression("0")


def h1(F, x: float) -> float:
    return _dl(F, x, 0.0)


def h2(F, y: float) -> float:
    return _dl(F, 0.0, y) - _dl(F, 0.0, 0.0)


def two_sweeps(F, keys, tol: float = 1e-9) -> list[float]:
    """The values of reconstruct_ck_table as two mirrored sweeps, kept as
    the reference for its one loop over both sides: out from 0 over the
    keys >= 0, then over the negative keys."""
    f00 = float(F(0.0, 0.0))
    xs = [num / den for num, den in KeyGrid.of(keys).pairs]
    split = sum(x < 0 for x in xs)
    integral = [0.0] * len(xs)
    acc, prev = 0.0, 0.0
    for i in range(split, len(xs)):
        acc += _integrate(lambda x: h1(F, x), prev, xs[i], tol)
        integral[i], prev = acc, xs[i]
    acc, prev = 0.0, 0.0
    for i in range(split - 1, -1, -1):
        acc -= _integrate(lambda x: h1(F, x), xs[i], prev, tol)
        integral[i], prev = acc, xs[i]
    return [-math.sqrt(2.0) * v - f00 for v in integral]


def without_repeats(calls):
    """F's calls with each h1 evaluation after the first at its point
    dropped: F(0, 0), then four calls per point of h1 (``_dl``)."""
    seen, kept = set(), calls[:1]
    for i in range(1, len(calls), 4):
        point = tuple(calls[i : i + 4])
        if point not in seen:
            seen.add(point)
            kept += point
    return kept


class TestDirectionalDerivative:
    def test_bilinear_gradient(self):
        # grad F = (2y, 2x); along (1/sqrt2, -1/sqrt2) at (1, 0): -sqrt2
        got = _dl(F_BILINEAR, 1.0, 0.0)
        assert got == pytest.approx(-math.sqrt(2), abs=1e-8)

    def test_vanishes_at_origin(self):
        assert abs(_dl(F_BILINEAR, 0.0, 0.0)) <= 1e-10

    def test_constant_function(self):
        F = bivariate_expression("3")
        assert _dl(F, 0.4, -1.2) == 0.0

    def test_expo_matches_closed_form(self):
        # d/ds F(pt + s*l) at 0, computed analytically for g = exp
        F = seed_kernel("expo")
        x, y = 0.3, 0.4
        truth = (math.exp(y) - math.exp(x)) / math.sqrt(2)
        assert _dl(F, x, y) == pytest.approx(truth, abs=1e-9)


class TestDerivativeProfile:
    def test_h2_zero_at_origin(self):
        assert h2(seed_kernel("expo"), 0.0) == 0.0

    @pytest.mark.parametrize("name", SMOOTH_SEEDS)
    def test_antisymmetry(self, name):
        F = seed_kernel(name)
        worst = max(abs(h1(F, t) + h2(F, t)) for t in [0.1 * i for i in range(-10, 11)])
        assert worst <= 1e-6


class TestAntiderivative:
    def test_linear(self):
        assert _integrate(lambda z: z, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-12)

    def test_zero_integrand(self):
        assert _integrate(lambda z: 0.0, 0.0, 3.7, 1e-10) == 0.0

    def test_zero_width(self):
        assert _integrate(lambda z: z * z, 0.0, 0.0, 1e-10) == 0.0

    def test_exponential(self):
        got = _integrate(math.exp, 0.0, 1.0, 1e-12)
        assert got == pytest.approx(math.e - 1, abs=1e-10)

    def test_reversed_orientation(self):
        # integral from 0 down to -1 of z dz = +1/2, taken as the
        # negative keys of a table take it
        assert -_integrate(lambda z: z, -1.0, 0.0, 1e-10) == pytest.approx(0.5, abs=1e-12)
        table = reconstruct_ck_table(F_BILINEAR, [Fraction(-1)])
        assert table.values[0] == pytest.approx(1.0, abs=1e-8)

    def test_subdivision_limit(self):
        with pytest.raises(QuadratureError) as exc:
            _integrate(lambda z: math.sin(50 * z), 0.0, 1.0, 1e-14, max_depth=2)
        assert math.isfinite(exc.value.estimate)
        assert exc.value.error > 0
        with pytest.raises(QuadratureError):
            reconstruct_ck_point(bivariate_expression("sqrt(abs(x)) * sqrt(abs(y))"), 1.0, tol=1e-15)


class TestCkReconstruction:
    def test_bilinear_point(self):
        assert reconstruct_ck_point(F_BILINEAR, 0.5) == pytest.approx(0.25, abs=1e-8)

    def test_zero_kernel(self):
        assert reconstruct_ck_point(F_ZERO, 1.7) == pytest.approx(0.0, abs=1e-12)

    def test_expo_at_one(self):
        # g = exp: normalization f'(0) = 0 forces f(t) = exp(t) - t,
        # so f(1) = e - 1
        F = seed_kernel("expo")
        got = reconstruct_ck_point(F, 1.0, tol=1e-10)
        assert got == pytest.approx(math.e - 1, abs=1e-6)

    def test_origin_value(self):
        F = seed_kernel("expo")  # F(0,0) = -1
        assert reconstruct_ck_point(F, 0.0) == 1.0

    def test_table_engine_tag_and_normalization(self):
        F = seed_kernel("expo")
        keys = grid_keys((0, 1), dyadic_level=2)
        table = reconstruct_ck_table(F, keys)
        assert table.engine == "ck"
        assert table.value_at(Fraction(0)) == 1.0
        assert table.normalization["f(0)"] == 1.0
        assert table.normalization["f'(0)"] == 0.0

    def test_table_matches_pointwise_route(self):
        F = seed_kernel("sine")
        keys = grid_keys((0, 1), dyadic_level=3)
        table = reconstruct_ck_table(F, keys, tol=1e-11)
        for k in keys:
            assert table.value_at(k) == pytest.approx(
                reconstruct_ck_point(F, float(k), tol=1e-11), abs=1e-9
            )

    @pytest.mark.parametrize("k", [Fraction(3, 4), Fraction(-5, 8), Fraction(7, 3)])
    def test_one_key_table_is_the_point_route(self, k):
        # both routes run the same quadrature, so the values agree exactly
        F = seed_kernel("expo")
        assert reconstruct_ck_table(F, [k]).value_at(k) == reconstruct_ck_point(F, float(k))

    @given(
        st.sampled_from(SMOOTH_SEEDS),
        st.lists(st.fractions(-3, 3, max_denominator=16), max_size=6),
        st.fractions(-3, Fraction(-1, 16), max_denominator=16),
        st.fractions(Fraction(1, 16), 3, max_denominator=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_sweep_equals_two(self, name, keys, negative, positive):
        # the same values, bit for bit, from F called at the same points
        # in the same order, less the repeats at the ends that neighbouring
        # gaps share: h1 is evaluated once at each key
        F = seed_kernel(name)
        keys = [*keys, negative, positive, Fraction(0)]
        calls, reference_calls = [], []

        def logged(log):
            def G(x, y):
                log.append((x, y))
                return F(x, y)

            return G

        got = reconstruct_ck_table(logged(calls), keys).values
        assert got == two_sweeps(logged(reference_calls), keys)
        assert calls == without_repeats(reference_calls)
        gaps = len({k for k in keys if k != 0})  # one per key, out from 0
        assert len(reference_calls) - len(calls) == 4 * (gaps - 1)

    def test_negative_keys(self):
        F = seed_kernel("square")
        keys = grid_keys((-1, 1), dyadic_level=1)
        table = reconstruct_ck_table(F, keys)
        # this normalization gives f(t) = t^2 for the bilinear kernel
        assert table.value_at(Fraction(-1, 2)) == pytest.approx(0.25, abs=1e-8)

    def test_two_routes_differ_by_affine(self):
        F = seed_kernel("square")
        keys = grid_keys((0, 1), dyadic_level=4)
        f_ck = reconstruct_ck_table(F, keys)
        f_c0 = reconstruct_table(F, keys)
        slope, intercept, residual = affine_difference(f_ck, f_c0, keys)
        # t^2 versus t^2 - t: difference is exactly the line t
        assert slope == pytest.approx(1.0, abs=1e-7)
        assert intercept == pytest.approx(0.0, abs=1e-7)
        assert residual <= 1e-7

    @pytest.mark.parametrize("name", SMOOTH_SEEDS)
    def test_cocycle_restored(self, name):
        F = seed_kernel(name)
        pairs = [(0.25, 0.5), (0.1, 0.3), (-0.5, 0.75)]
        for x, y in pairs:
            resid = F(x, y) - (
                reconstruct_ck_point(F, x + y)
                - reconstruct_ck_point(F, x)
                - reconstruct_ck_point(F, y)
            )
            assert abs(resid) <= 1e-7

    @pytest.mark.parametrize("name", SMOOTH_SEEDS)
    def test_matches_oracle_up_to_slope(self, name):
        # the ck normalization differs from the f(1)=f(0) oracle by c*t;
        # fix c by matching at t=1 and compare across the grid
        F = seed_kernel(name)
        oracle = oracle_solution(name)
        keys = grid_keys((0, 1), dyadic_level=3)
        table = reconstruct_ck_table(F, keys, tol=1e-11)
        c = table.value_at(Fraction(1)) - oracle(1.0)
        for k in keys:
            assert table.value_at(k) - c * float(k) == pytest.approx(
                oracle(k), abs=1e-7
            )
