"""Closed-form oracles for the benchmark's checks, written apart from the
program under test.

For a seed g the kernel is F(x, y) = g(x+y) - g(x) - g(y).  The lattice
and limit routes return the solution normalized by f(1) = f(0), which is
f(t) = g(t) - (g(1) - g(0)) * t.  The smooth (ck) route normalizes by
f'(0) = 0 instead, which gives f(t) = g(t) - g'(0) * t.  For the bilinear
kernel F(x, y) = c*x*y the two solutions are c*(t^2 - t)/2 and c*t^2/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

# name -> (g, g', vectorized g)
SEEDS: dict[str, tuple[Callable, Callable, Callable]] = {
    "square": (lambda t: t * t, lambda t: 2.0 * t, lambda t: t * t),
    "cube": (lambda t: t**3, lambda t: 3.0 * t * t, lambda t: t**3),
    "expo": (math.exp, math.exp, np.exp),
    "sine": (math.sin, math.cos, np.sin),
    "hoelder": (lambda t: math.sqrt(abs(t)), None, lambda t: np.sqrt(np.abs(t))),
}
SMOOTH_SEEDS = ("square", "cube", "expo", "sine")


@dataclass(frozen=True)
class Kernel:
    """One input kernel: how the CLI names it and what its solutions are."""

    label: str
    argv: tuple[str, ...]        # CLI flags that select F
    f: Callable[[float], float]  # solution with f(1) = f(0)
    ck: Callable[[float], float] | None  # solution with f'(0) = 0
    F: Callable                  # kernel, scalar or numpy arrays
    tolerance: float             # allowed |value - oracle| on grids

    def h(self, t: float) -> float:
        """Normalized lattice solution h = f + F(0, 0), so h(0) = h(1) = 0."""
        return self.f(t) + float(self.F(0.0, 0.0))


def seed_kernel(name: str) -> Kernel:
    g, dg, gv = SEEDS[name]
    slope = g(1.0) - g(0.0)
    d0 = dg(0.0) if dg is not None else None

    def F(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return gv(x + y) - (gv(x) + gv(y))
        return g(x + y) - (g(x) + g(y))

    return Kernel(
        label=name,
        argv=("--seed", name),
        f=lambda t: g(t) - slope * t,
        ck=(lambda t: g(t) - d0 * t) if d0 is not None else None,
        F=F,
        tolerance=1e-7 if name == "hoelder" else 1e-9,
    )


def bilinear_kernel(c: Fraction) -> Kernel:
    """F(x, y) = c*x*y, written for the CLI as the expression 'p/q*x*y'."""
    cf = float(c)
    return Kernel(
        label=f"{c.numerator}/{c.denominator}*x*y",
        argv=("--expr", f"{c.numerator}/{c.denominator}*x*y"),
        f=lambda t: cf * (t * t - t) / 2.0,
        ck=lambda t: cf * t * t / 2.0,
        F=lambda x, y: cf * x * y,
        tolerance=1e-9,
    )


def farey_keys(order: int, lo: int, hi: int) -> list[Fraction]:
    """All reduced p/q with q <= order in [lo, hi], by the Farey-sequence
    successor rule on [0, 1] shifted by integers."""
    unit = [Fraction(0)]
    a, b, c, d = 0, 1, 1, order
    while c <= order:
        unit.append(Fraction(c, d))
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    keys = {i + x for i in range(lo, hi) for x in unit}
    keys.add(Fraction(hi))
    return sorted(keys)


def dyadic_keys(level: int, lo: int, hi: int) -> list[Fraction]:
    den = 1 << level
    return [Fraction(k, den) for k in range(lo * den, hi * den + 1)]
