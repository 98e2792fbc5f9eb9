"""Shared oracles for the test suite.

Each builtin seed g has the closed-form solution f(t) = g(t) - (g(1) -
g(0)) * t, the unique continuous solution of F(x, y) = f(x+y) - f(x) -
f(y) with f(1) = f(0) when F is the additivity defect of g.  Tests
compare reconstructions against these, never against the code under
test.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from cocycle import builtin_seed, cocycle_from_seed

SEED_FUNCS = {
    "square": lambda t: t * t,
    "cube": lambda t: t**3,
    "expo": math.exp,
    "sine": math.sin,
    "hoelder": lambda t: math.sqrt(abs(t)),
}

SMOOTH_SEEDS = ("square", "cube", "expo", "sine")
ALL_SEEDS = tuple(SEED_FUNCS)


def seed_kernel(name: str):
    """F(x, y) = g(x+y) - g(x) - g(y) for the named builtin seed."""
    return cocycle_from_seed(builtin_seed(name))


def oracle_solution(name: str):
    """Closed-form f normalized by f(1) = f(0)."""
    g = SEED_FUNCS[name]
    slope = g(1.0) - g(0.0)
    return lambda t: g(float(t)) - slope * float(t)


# exact references: the closed forms in rational arithmetic for the
# polynomial kernels, and at EXACT_DIGITS significant digits otherwise;
# "3*x*y*(x+y)" is the cube's kernel written as an expression
EXACT_DIGITS = 50
POLYNOMIAL_SOLUTIONS = {
    "square": lambda t: t * t - t,
    "cube": lambda t: t**3 - t,
    "3*x*y*(x+y)": lambda t: t**3 - t,
}


def _decimal_sin(x: Decimal) -> Decimal:
    # the Taylor series, summed until a term no longer changes the sum;
    # for the |x| <= 4 used here the terms fall below 10^-50 after 40
    term = total = x
    k = 1
    while True:
        term *= -x * x / ((2 * k) * (2 * k + 1))
        if total + term == total:
            return total
        total += term
        k += 1


_DECIMAL_SEEDS = {
    "expo": lambda t: t.exp(),
    "sine": _decimal_sin,
    "hoelder": lambda t: abs(t).sqrt(),
}


def exact_solution(name: str):
    """The closed-form f(r) at an exact rational r: a Fraction for the
    polynomial kernels, else a Decimal of EXACT_DIGITS digits."""
    if name in POLYNOMIAL_SOLUTIONS:
        return lambda r: POLYNOMIAL_SOLUTIONS[name](Fraction(r))
    g = _DECIMAL_SEEDS[name]

    def f(r) -> Decimal:
        r = Fraction(r)
        with localcontext() as ctx:
            ctx.prec = EXACT_DIGITS
            t = Decimal(r.numerator) / Decimal(r.denominator)
            return g(t) - (g(Decimal(1)) - g(Decimal(0))) * t

    return f


def relative_error(value: float, exact, floor: float = 1.0) -> float:
    """|value - exact| / max(floor, |exact|), for a Fraction or Decimal
    exact."""
    if isinstance(exact, Decimal):
        with localcontext() as ctx:
            ctx.prec = EXACT_DIGITS
            return float(abs(Decimal(value) - exact) / max(Decimal(floor), abs(exact)))
    return float(abs(Fraction(value) - exact) / max(Fraction(floor), abs(exact)))


def affine_difference(f1, f2, grid) -> tuple[float, float, float]:
    """Least-squares affine fit to f1 - f2 on the grid.

    Returns (slope, intercept, max_residual); two solutions of the same
    cocycle equation differ by an affine function, so the residual is the
    observable disagreement.
    """
    pts = list(grid)
    if len(pts) < 2:
        raise ValueError("need at least 2 grid points")
    xs = np.array([float(t) for t in pts])
    diffs = np.array([float(f1(t)) - float(f2(t)) for t in pts])
    slope, intercept = np.polyfit(xs, diffs, 1)
    residual = float(np.max(np.abs(diffs - (slope * xs + intercept))))
    return float(slope), float(intercept), residual
