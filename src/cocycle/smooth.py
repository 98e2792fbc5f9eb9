"""Derivative-based reconstruction for smooth kernels.

For differentiable F of cocycle form, the derivative along the
anti-diagonal direction l = (1/sqrt(2), -1/sqrt(2)) splits additively:
dF/dl(x, y) = h1(x) + h2(y) with h1(x) = dF/dl(x, 0) and
h2(y) = dF/dl(0, y) - dF/dl(0, 0).  For symmetric F the two parts are
opposite (h1 = -h2) and dF/dl(0, 0) = 0, which gives the reconstruction

    f(t) = -sqrt(2) * integral_0^t h1(z) dz - F(0, 0)

normalized by f(0) = -F(0, 0) and f'(0) = 0.  Derivatives are central
differences (optionally one Richardson level); integrals use adaptive
Simpson quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .continuous import KeyGrid, ReconstructedFunction

__all__ = [
    "QuadratureError",
    "DerivativeProfile",
    "directional_derivative",
    "derivative_profile",
    "antiderivative",
    "reconstruct_ck_point",
    "reconstruct_ck_table",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
# Central differences balance truncation against cancellation at a step
# proportional to the cube root of machine epsilon.
_STEP_SCALE = (2.0**-52) ** (1.0 / 3.0)


class QuadratureError(Exception):
    """Subdivision limit reached before the tolerance; carries the best
    estimate and its error bound."""

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def directional_derivative(
    F,
    point: tuple[float, float],
    step: float | None = None,
    richardson: bool = False,
) -> float:
    """Central-difference derivative of F at ``point`` along
    (1/sqrt(2), -1/sqrt(2)); one optional Richardson extrapolation level."""
    px, py = float(point[0]), float(point[1])
    if step is None:
        step = _STEP_SCALE * max(1.0, abs(px), abs(py))
    if step <= 0:
        raise ValueError("step must be positive")

    def central(s: float) -> float:
        dx, dy = s * _INV_SQRT2, -s * _INV_SQRT2
        return (F(px + dx, py + dy) - F(px - dx, py - dy)) / (2.0 * s)

    d = central(step)
    if richardson:
        d = (4.0 * central(step / 2.0) - d) / 3.0
    return d


@dataclass(frozen=True)
class DerivativeProfile:
    """The two univariate parts of dF/dl; h2(0) = 0 by construction."""

    h1: Callable[[float], float]
    h2: Callable[[float], float]
    step: float


def derivative_profile(F, step: float | None = None, richardson: bool = True) -> DerivativeProfile:
    """Split dF/dl(x, y) = h1(x) + h2(y) into its univariate parts."""
    base = directional_derivative(F, (0.0, 0.0), step, richardson)

    def h1(x: float) -> float:
        return directional_derivative(F, (x, 0.0), step, richardson)

    def h2(y: float) -> float:
        return directional_derivative(F, (0.0, y), step, richardson) - base

    return DerivativeProfile(h1=h1, h2=h2, step=step if step is not None else _STEP_SCALE)


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def _adaptive(
    fn, a: float, b: float, fa: float, fm: float, fb: float,
    whole: float, tol: float, depth: int,
) -> float:
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = fn(lm)
    frm = fn(rm)
    left = _simpson(fa, flm, fm, mid - a)
    right = _simpson(fm, frm, fb, b - mid)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            "subdivision limit reached",
            estimate=left + right + err / 15.0,
            error=abs(err) / 15.0,
        )
    return _adaptive(fn, a, mid, fa, flm, fm, left, tol / 2.0, depth - 1) + _adaptive(
        fn, mid, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def _integrate(fn, a: float, b: float, tol: float, max_depth: int) -> float:
    """Integral of fn over [a, b], a <= b, by adaptive Simpson quadrature."""
    if a == b:
        return 0.0
    fa, fb = fn(a), fn(b)
    mid = 0.5 * (a + b)
    fm = fn(mid)
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive(fn, a, b, fa, fm, fb, whole, tol, max_depth)


def antiderivative(h, x: float, tol: float = 1e-10, max_depth: int = 50) -> float:
    """Integral of h from 0 to x by adaptive Simpson quadrature.

    Raises QuadratureError (with the achieved estimate) if the error
    cannot be brought under ``tol`` within ``max_depth`` splits.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = float(x)
    if x < 0:
        return -_integrate(h, x, 0.0, tol, max_depth)
    return _integrate(h, 0.0, x, tol, max_depth)


def reconstruct_ck_point(F, t, tol: float = 1e-9) -> float:
    """Reconstructed value f(t) = -sqrt(2) * integral_0^t h1 - F(0, 0)."""
    profile = derivative_profile(F)
    integral = antiderivative(profile.h1, float(t), tol)
    return -_SQRT2 * integral - float(F(0.0, 0.0))


def reconstruct_ck_table(F, keys, tol: float = 1e-9) -> ReconstructedFunction:
    """Reconstruct f at the given keys through the derivative route.

    The integral is accumulated segment by segment between consecutive
    keys, outward from 0 on each side, so a grid costs one quadrature per
    gap.
    """
    profile = derivative_profile(F)
    f00 = float(F(0.0, 0.0))
    grid = KeyGrid.of(keys)
    xs = [num / den for num, den in grid.pairs]
    split = sum(num < 0 for num, _ in grid.pairs)  # the keys sort negatives first
    integral = [0.0] * len(xs)
    acc, prev = 0.0, 0.0
    for i in range(split, len(xs)):
        acc += _integrate(profile.h1, prev, xs[i], tol, 50)
        integral[i], prev = acc, xs[i]
    acc, prev = 0.0, 0.0
    for i in range(split - 1, -1, -1):
        acc -= _integrate(profile.h1, xs[i], prev, tol, 50)
        integral[i], prev = acc, xs[i]
    return ReconstructedFunction(
        keys=grid,
        values=[-_SQRT2 * v - f00 for v in integral],
        engine="ck",
        normalization={"f(0)": -f00, "f'(0)": 0.0},
    )
