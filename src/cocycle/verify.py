"""Residual checks, modulus-of-continuity estimation, and bound checks.

Residual checks report the largest violation of an identity over a
sample set together with the witness point attaining it.  Moduli of
continuity are estimated from below on finite grids; the bound check
compares the reconstruction's modulus against three times the kernel's,
and the lattice values of h against twice the kernel modulus at the same
scale.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .continuous import LatticeSolver, ReconstructedFunction
from .expressions import _sample, _scalar
from .rational import format_rational

__all__ = [
    "CheckResult",
    "VerificationReport",
    "kurepa_residual",
    "symmetry_residual",
    "cocycle_residual",
    "modulus_estimate",
    "modulus_probe",
    "check_bound_c0",
]

# Default absolute tolerance for exact-lattice checks.
DEFAULT_TOLERANCE = 1e-9

# The lattice bound |h| <= 2*omega involves grid estimates on both sides,
# so it is checked at a looser tolerance.
LATTICE_TOLERANCE = 1e-6

# Full grid estimation is quadratic in the axis size; beyond this many
# points per axis the sparse probe takes over.
_GRID_AXIS_LIMIT = 1024

# Points per axis of the probe's anchor lattice.
_PROBE_ANCHORS = 33

# Kernel grids are evaluated in blocks of rows of about this many points.
_BLOCK_POINTS = 1 << 16

# A grid of more cells than this (64 MiB per float64 buffer; the window
# maxima hold three), or whose window maxima would take more cell passes
# than this, summed over the deltas, is refused before it is sampled.
_GRID_CELL_LIMIT = 1 << 23
_WINDOW_WORK_LIMIT = 1 << 31


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


@dataclass
class CheckResult:
    """One verified statement: either a residual maximum or a bound."""

    check: str
    params: dict
    passed: bool
    tolerance: float
    max_residual: float | None = None
    witness: tuple | None = None
    lhs: float | None = None
    rhs: float | None = None
    slack: float | None = None

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "params": _jsonable(self.params),
            "max_residual": self.max_residual,
            "witness": _jsonable(self.witness),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }


@dataclass
class VerificationReport:
    """A list of check results; one NDJSON object per check."""

    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_ndjson(self) -> str:
        return "\n".join(json.dumps(r.to_json_obj()) for r in self.results) + "\n"


# --- residual checks ---------------------------------------------------

def _residual_report(check: str, points, residual_fn, tolerance: float) -> VerificationReport:
    """One-result report of the largest |residual_fn(pt)| over the points,
    with the point attaining it as the witness.  The first NaN residual is
    the largest: the check fails and reports it."""
    worst = -1.0
    witness = None
    for pt in points:
        r = abs(residual_fn(pt))
        if r > worst or (math.isnan(r) and not math.isnan(worst)):
            worst = r
            witness = pt
    if witness is None:
        raise ValueError("empty sample set")
    result = CheckResult(
        check=check,
        params={"samples": len(points) if hasattr(points, "__len__") else None},
        passed=worst <= tolerance,
        tolerance=tolerance,
        max_residual=worst,
        witness=tuple(witness),
    )
    return VerificationReport([result])


def kurepa_residual(F, triples, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Largest violation of F(x+y,z) + F(x,y) = F(y,z) + F(x,y+z)."""
    F = _scalar(F)

    def resid(pt):
        x, y, z = (float(v) for v in pt)
        return F(x + y, z) + F(x, y) - F(y, z) - F(x, y + z)

    return _residual_report("kurepa", triples, resid, tolerance)


def symmetry_residual(F, pairs, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Largest violation of F(x, y) = F(y, x)."""
    F = _scalar(F)

    def resid(pt):
        x, y = (float(v) for v in pt)
        return F(x, y) - F(y, x)

    return _residual_report("symmetry", pairs, resid, tolerance)


def cocycle_residual(F, f, pairs, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Largest violation of F(x, y) = f(x+y) - f(x) - f(y).

    ``f`` may be a callable or a sample table; table lookups outside the
    stored keys raise LookupError (tables carry no extension rule).
    """
    F = _scalar(F)

    def resid(pt):
        x, y = pt
        total = x + y  # exact when x, y are Fractions
        lhs = float(F(float(x), float(y)))
        return lhs - (float(f(total)) - float(f(x)) - float(f(y)))

    return _residual_report("cocycle", pairs, resid, tolerance)


# --- modulus estimation -----------------------------------------------

def _box(domain) -> tuple[float, float, float, float]:
    try:
        (a, b), (c, d) = domain
    except (TypeError, ValueError):
        raise ValueError(f"domain must be a box ((a, b), (c, d)), got {domain!r}") from None
    return float(a), float(b), float(c), float(d)


def _grid(fn, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """fn on the grid xs x ys (indexed [i, j] = fn(xs[i], ys[j])), filled a
    block of rows at a time into one preallocated array, so only a block's
    worth of temporaries is alive at once.  A block is one broadcast call
    fn(xs[rows, None], ys), or one call per point where fn does not return
    the block's shape (``_sample``)."""
    vals = np.empty((len(xs), len(ys)))
    rows = max(1, _BLOCK_POINTS // len(ys))
    for i in range(0, len(xs), rows):
        vals[i : i + rows] = _sample(fn, xs[i : i + rows, None], ys)
    return vals


def _reach(delta: float, step: float, n: int) -> int:
    """Grid offsets within delta along an axis of n points and spacing step."""
    return min(int(math.floor(delta / step + 1e-9)), n - 1)


def _widen(rm: np.ndarray) -> None:
    """Grow a running max along the last axis by one index on each side,
    in place: rm[..., j] becomes max(rm[..., j-1], rm[..., j], rm[..., j+1])."""
    np.maximum(rm[..., :-1], rm[..., 1:], out=rm[..., :-1])
    np.maximum(rm[..., 1:], rm[..., :-1], out=rm[..., 1:])


def _window_max_2d(vals: np.ndarray, sx: float, sy: float, delta: float) -> float:
    """max |vals[a] - vals[b]| over grid pairs with |a - b| <= delta.

    The disk max of ``vals`` (a dilation) is built one offset row di at a
    time: a running max over columns whose half-width w(di) only grows as
    di falls, folded in at row shifts +di and -di.  That is about
    2 * (imax + jmax) in-place passes over two grid-sized buffers, so the
    cost is O(N^2 * delta/h) for an N x N grid of step h.  The offsets are
    exactly those of the pairwise definition.  The sup of |v(a) - v(b)|
    over a window equals the max over a of the window max of v around a,
    minus v(a); float subtraction rounds monotonically, so the result is
    exactly the pairwise maximum.
    """
    n0, n1 = vals.shape
    imax, jmax = _reach(delta, sx, n0), _reach(delta, sy, n1)
    d2 = delta * delta * (1.0 + 1e-12)
    dil = vals.copy()
    rm = vals.copy()
    w = 0
    for di in range(imax, -1, -1):
        if (di * sx) ** 2 > d2:
            continue  # the whole row lies outside the disk
        while w < jmax and (di * sx) ** 2 + ((w + 1) * sy) ** 2 <= d2:
            _widen(rm)
            w += 1
        np.maximum(dil[: n0 - di], rm[di:], out=dil[: n0 - di])
        np.maximum(dil[di:], rm[: n0 - di], out=dil[di:])
    np.subtract(dil, vals, out=dil)
    return float(dil.max())


def _layout(deltas, domain, grid_step: float, advice: str = "") -> tuple[np.ndarray, np.ndarray]:
    """The axes of a grid over the box ``domain`` with spacing at most
    ``grid_step``, refused before they are built if the grid or its window
    maxima for ``deltas`` exceed _GRID_CELL_LIMIT or _WINDOW_WORK_LIMIT."""
    a, b, c, d = _box(domain)
    if not (b > a and d > c):
        raise ValueError("empty grid: domain must have positive extent")
    nx, ny = (max(1, math.ceil(w / grid_step - 1e-12)) for w in (b - a, d - c))
    cells = (nx + 1) * (ny + 1)
    # the window maxima make about 2 * reach + 1 passes over the grid per delta
    passes = sum(
        _reach(t, (b - a) / nx, nx + 1) + _reach(t, (d - c) / ny, ny + 1) + 1
        for t in map(float, deltas)
    )
    if cells > _GRID_CELL_LIMIT or cells * passes > _WINDOW_WORK_LIMIT:
        raise ValueError(
            f"kernel grid too large: {cells} cells (limit {_GRID_CELL_LIMIT}) and "
            f"{cells * passes} cell passes (limit {_WINDOW_WORK_LIMIT}){advice}"
        )
    return np.linspace(a, b, nx + 1), np.linspace(c, d, ny + 1)


def modulus_estimate(fn, delta: float, domain, grid_step: float) -> float:
    """Grid lower estimate of sup |fn(a) - fn(b)| over |a - b| <= delta on
    the box ``domain`` = ((a, b), (c, d)), with Euclidean distances.

    The grid spans the box with spacing at most ``grid_step`` (which must
    not exceed delta).  With N points per axis and r = delta / grid_step
    the window maxima cost O(N^2 * r); a grid over the limits that
    ``check_bound_c0`` also keeps raises ValueError before fn is sampled.
    A grid value that is not finite raises EvaluationError.
    """
    delta = float(delta)
    grid_step = float(grid_step)
    if delta <= 0 or grid_step <= 0:
        raise ValueError("delta and grid_step must be positive")
    if grid_step > delta:
        raise ValueError("grid_step must not exceed delta")
    xs, ys = _layout([delta], domain, grid_step)
    return _window_max_2d(_grid(fn, xs, ys), float(xs[1] - xs[0]), float(ys[1] - ys[0]), delta)


def modulus_probe(fn, delta: float, domain) -> float:
    """Sparse lower estimate of the modulus on the box ``domain``: pairs at
    distance exactly delta from a lattice of _PROBE_ANCHORS points per
    axis, probed along the axes and diagonals.

    It is a lower estimate only, and a loose one: the anchors can alias
    with a periodic fn and see almost none of its variation, so it must
    never stand in for an upper bound.  ``check_bound_c0`` uses it where
    the grid is unaffordable, on the right-hand side of |h(delta)| <=
    2 * omega, where reading low can only fail a check, never pass a false
    one.  The cost is independent of delta.  A sampled value that is not
    finite raises EvaluationError.
    """
    delta = float(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    a, b, c, d = _box(domain)
    xs = np.linspace(a, b, _PROBE_ANCHORS)
    ys = np.linspace(c, d, _PROBE_ANCHORS)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    base = _sample(fn, X, Y)
    diag = delta / math.sqrt(2.0)
    directions = [
        (delta, 0.0), (-delta, 0.0), (0.0, delta), (0.0, -delta),
        (diag, diag), (diag, -diag), (-diag, diag), (-diag, -diag),
    ]
    worst = 0.0
    for dx, dy in directions:
        tx = X + dx
        ty = Y + dy
        mask = (tx >= a) & (tx <= b) & (ty >= c) & (ty <= d)
        if not mask.any():
            continue
        moved = _sample(fn, tx[mask], ty[mask])
        worst = max(worst, float(np.max(np.abs(moved - base[mask]))))
    return worst


# --- bound checks ------------------------------------------------------

def _plan(deltas, M: int, gap: Fraction) -> tuple[list[Fraction], tuple[np.ndarray, np.ndarray]]:
    """The deltas and the axes of the kernel grid of the bound checks on
    [-M, M], for f sampled with the exact widest gap ``gap``.  Every
    refusal that these inputs decide is made here: a delta outside
    (0, 1/2), a kernel grid over the limits (``_layout``), and samples too
    coarse for a delta, ``gap > delta`` exactly.  verify-bound calls it
    with ``grid_gap`` before any key is built, and check_bound_c0 with its
    keys' widest gap before F is evaluated."""
    ds = [Fraction(d) for d in deltas]
    for d in ds:
        if not 0 < d < Fraction(1, 2):
            raise ValueError(f"delta must lie in (0, 1/2), got {d}")
    if not ds:
        raise ValueError("need at least one delta")
    box = ((-M, M), (-M, M))
    axes = _layout(ds, box, float(gap) / 4.0, "; sample f more coarsely or on a smaller [-M, M]")
    for d in ds:
        if gap > d:
            raise ValueError(f"sample spacing {float(gap)} too coarse for delta {d}")
    return ds, axes


def _bound(check: str, params: dict, lhs: float, rhs: float, tol: float) -> CheckResult:
    return CheckResult(check, params, lhs <= rhs + tol, tol, lhs=lhs, rhs=rhs, slack=rhs - lhs)


def check_bound_c0(
    F,
    table: ReconstructedFunction,
    deltas,
    M: int = 1,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Continuity transfer checks for a sample table of f, the
    reconstruction of kernel F.

    For each rational delta in (0, 1/2), checks that the modulus of f on
    [-M, M] is at most 3 times the modulus of F on the square (the kernel
    modulus is estimated on a grid 4x finer than f's sample spacing), and
    that |h(delta)| <= 2 * omega(H; delta) on the unit square, where
    h = f + F(0,0) is the normalized lattice solution.

    The exact widest gap of the table's keys on [-M, M] decides, in
    ``_plan``, every refusal (a delta out of range, a kernel grid over the
    limits, samples too coarse for a delta) with ValueError before F is
    evaluated.  A kernel value on the grid that is not finite raises
    EvaluationError.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    pairs = table.keys.pairs  # sorted, so the keys in [-M, M] are one slice
    rows = slice(
        bisect_left(pairs, True, key=lambda p: p[0] >= -M * p[1]),
        bisect_left(pairs, True, key=lambda p: p[0] > M * p[1]),
    )
    pairs = pairs[rows]
    if len(pairs) < 2:
        raise ValueError("sample table too small on [-M, M]")
    gn, gd = 0, 1  # the widest gap r/s - p/q, exactly, by cross-multiplying
    for (p, q), (r, s) in zip(pairs, pairs[1:]):
        if (r * q - p * s) * gd > gn * q * s:
            gn, gd = r * q - p * s, q * s
    ds, (xs, ys) = _plan(deltas, M, Fraction(gn, gd))
    kf = np.array([num / den for num, den in pairs])
    vf = np.array(table.values[rows])
    kernel_step, sy = float(xs[1] - xs[0]), float(ys[1] - ys[0])
    kernel_vals = _grid(F, xs, ys)

    solver = LatticeSolver(F)

    def H(x, y):
        return F(x, y) - solver.F00

    unit_box = ((0.0, 1.0), (0.0, 1.0))
    results: list[CheckResult] = []
    for d in ds:
        df = float(d)
        kernel_modulus = _window_max_2d(kernel_vals, kernel_step, sy, df)
        # reconstruction side: pairs of stored samples within delta, one pass
        # per key offset k, up to the first k with none (the keys are sorted);
        # np.maximum keeps a NaN difference, which max would drop
        left = 0.0
        for k in range(1, len(kf)):
            near = kf[k:] - kf[:-k] <= df + 1e-12
            if not near.any():
                break
            left = float(np.maximum(left, np.abs(vf[k:] - vf[:-k])[near].max()))
        params = {"delta": d, "M": M, "grid_step": kernel_step}
        results.append(_bound("modulus-bound", params, left, 3.0 * kernel_modulus, tolerance))
        # lattice side: |h(p/n)| against twice the kernel modulus at p/n
        h_val = solver.h(d)
        if 4 * d.denominator <= _GRID_AXIS_LIMIT * d.numerator:
            omega_h = modulus_estimate(H, df, unit_box, df / 4.0)
        else:
            omega_h = modulus_probe(H, df, unit_box)
        results.append(
            _bound("lattice-bound", {"delta": d}, abs(h_val), 2.0 * omega_h, LATTICE_TOLERANCE)
        )
    return VerificationReport(results)
