"""Shared oracles for the test suite.

Each builtin seed g has the closed-form solution f(t) = g(t) - (g(1) -
g(0)) * t, the unique continuous solution of F(x, y) = f(x+y) - f(x) -
f(y) with f(1) = f(0) when F is the additivity defect of g.  Tests
compare reconstructions against these, never against the code under
test.
"""

from __future__ import annotations

import math

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
