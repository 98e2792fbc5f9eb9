"""Derivative-based reconstruction for smooth kernels.

For differentiable F of cocycle form, the derivative along the
anti-diagonal direction l = (1/sqrt(2), -1/sqrt(2)) splits additively:
dF/dl(x, y) = h1(x) + h2(y) with h1(x) = dF/dl(x, 0) and
h2(y) = dF/dl(0, y) - dF/dl(0, 0).  For symmetric F the two parts are
opposite (h1 = -h2) and dF/dl(0, 0) = 0, which gives the reconstruction

    f(t) = -sqrt(2) * integral_0^t h1(z) dz - F(0, 0)

normalized by f(0) = -F(0, 0) and f'(0) = 0.  The derivative is a
central difference with one Richardson level of F's compiled scalar
form (``expressions._scalar``); integrals use adaptive Simpson quadrature.
"""

from __future__ import annotations

import math

from .continuous import KeyGrid, ReconstructedFunction
from .expressions import _scalar

__all__ = [
    "QuadratureError",
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


def _dl(F, x: float, y: float) -> float:
    """dF/dl at (x, y): a central difference at a step scaled by
    max(1, |x|, |y|), with one Richardson extrapolation level."""
    step = _STEP_SCALE * max(1.0, abs(x), abs(y))

    def central(s: float) -> float:
        d = s * _INV_SQRT2
        return (F(x + d, y - d) - F(x - d, y + d)) / (2.0 * s)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


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
        estimate, error = left + right + err / 15.0, abs(err) / 15.0
        raise QuadratureError(
            f"subdivision limit reached on [{a}, {b}]: estimate {estimate}, "
            f"error {error} above tolerance {tol}", estimate, error
        )
    return _adaptive(fn, a, mid, fa, flm, fm, left, tol / 2.0, depth - 1) + _adaptive(
        fn, mid, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def _integrate(fn, a: float, b: float, tol: float, max_depth: int = 50) -> float:
    """Integral of fn over [a, b], a <= b, by adaptive Simpson quadrature.

    Raises QuadratureError (with the achieved estimate) if the error
    cannot be brought under ``tol`` within ``max_depth`` splits.
    """
    if a == b:
        return 0.0
    fa, fb = fn(a), fn(b)
    mid = 0.5 * (a + b)
    fm = fn(mid)
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive(fn, a, b, fa, fm, fb, whole, tol, max_depth)


def reconstruct_ck_point(F, t, tol: float = 1e-9) -> float:
    """Reconstructed value f(t) = -sqrt(2) * integral_0^t h1 - F(0, 0):
    the one-key table of ``reconstruct_ck_table``."""
    return reconstruct_ck_table(F, [t], tol).values[0]


def reconstruct_ck_table(F, keys, tol: float = 1e-9) -> ReconstructedFunction:
    """Reconstruct f at the given keys through the derivative route.

    The integral of h1(x) = dF/dl(x, 0) is accumulated segment by segment
    between consecutive keys, outward from 0 on each side, so a grid costs
    one quadrature per gap.
    """
    at = _scalar(F)

    def h1(x: float) -> float:
        return _dl(at, x, 0.0)

    f00 = float(F(0.0, 0.0))
    grid = KeyGrid.of(keys)
    xs = [num / den for num, den in grid.pairs]
    split = sum(num < 0 for num, _ in grid.pairs)  # the keys sort negatives first
    integral = [0.0] * len(xs)
    for side in (range(split, len(xs)), range(split - 1, -1, -1)):
        acc, prev = 0.0, 0.0
        for i in side:
            x = xs[i]
            acc += _integrate(h1, prev, x, tol) if prev <= x else -_integrate(h1, x, prev, tol)
            integral[i], prev = acc, x
    return ReconstructedFunction(
        keys=grid,
        values=[-_SQRT2 * v - f00 for v in integral],
        engine="ck",
        normalization={"f(0)": -f00, "f'(0)": 0.0},
    )
