"""Lattice reconstruction of a continuous solution of
F(x, y) = f(x+y) - f(x) - f(y).

Everything is phrased through the shifted kernel H(x, y) = F(x, y) - F(0, 0)
and the normalized solution h with h(0) = h(1) = 0, which satisfies
H(x, y) = h(x+y) - h(x) - h(y).  The returned function is f = h - F(0, 0),
the unique continuous solution normalized by f(1) = f(0).

Values of h at rationals follow from F alone through a handful of exact
identities (each is the cocycle relation H(x, y) = h(x+y) - h(x) - h(y)
specialized, with h(0) = h(1) = 0):

  h(0) = h(1) = 0
  h(-r)      = -h(r) - H(r, -r)                    take (x, y) = (r, -r)
  h(k)       = sum_{i=1..k-1} H(1, i)              integers k >= 2
  h(k + s)   = h(k) + h(s) + H(k, s)               integer + fractional split
  h(1/2)     = -H(1/2, 1/2) / 2
  h(r)       = -h(1-r) - H(r, 1-r)                 reflect (1/2, 1) into (0, 1/2)

and on the core interval (0, 1/2) by one of two engines:

  euclid-chain   h(p/n) = -(S + B + h(p'/n)) / m, where m = floor(n/p),
                 p' = n mod p, S = sum_{i=1..m-1} H(p/n, i*p/n) and
                 B = H(p'/n, 1 - p'/n); iterated along the quotient chain
                 of p/n until the remainder vanishes.
  dyadic         h(x) = (h(2x) - H(x, x)) / 2, descending from the
                 integer/half lattice (power-of-two denominators only).

Real targets are handled by a limit over dyadic approximants with a
modulus-of-continuity stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expressions import EvaluationError, _sample
from .rational import ONE_HALF, euclid_chain, format_rational

__all__ = [
    "ConvergenceError",
    "LatticeSolver",
    "ReconstructedFunction",
    "h_rational",
    "reconstruct_point",
    "reconstruct_table",
    "grid_keys",
]

ENGINES = ("euclid-chain", "dyadic")

# Row sums switch to vectorized evaluation above this length.
_VECTOR_MIN = 128

# grid_keys refuses grids larger than this many keys.
MAX_GRID_KEYS = 10**6


class ConvergenceError(Exception):
    """Limit extension failed to reach the requested epsilon.

    Carries the best value seen and the error bound actually achieved.
    """

    def __init__(self, message: str, best: float | None, bound: float):
        super().__init__(message)
        self.best = best
        self.bound = bound


class LatticeSolver:
    """Shared evaluation state for one kernel F.

    Caches h at rational nodes (keyed per engine) and H at lattice pairs,
    both by exact Fraction keys.  Reads and single-key insertions on these
    dicts are atomic under the interpreter lock, so a solver may be shared
    across threads that only query values.
    """

    def __init__(self, F):
        self.F = F
        self.F00 = float(F(0.0, 0.0))
        self._h: dict[tuple[str, Fraction], float] = {}
        self._H: dict[tuple[Fraction, Fraction], float] = {}
        self._omega: dict[tuple[float, int], float] = {}

    # -- kernel access --

    def H(self, x: Fraction, y: Fraction) -> float:
        if x == 0 or y == 0:
            return 0.0  # H(x, 0) = H(0, y) = 0 for any cocycle
        key = (x, y)
        cached = self._H.get(key)
        if cached is not None:
            return cached
        xf, yf = float(x), float(y)
        try:
            val = float(self.F(xf, yf)) - self.F00
        except EvaluationError as exc:
            raise EvaluationError(
                f"F not evaluable at lattice point ({x}, {y}): {exc}",
                point=(xf, yf),
            ) from exc
        if not math.isfinite(val):
            raise EvaluationError(
                f"F non-finite at lattice point ({x}, {y})", point=(xf, yf)
            )
        self._H[key] = val
        return val

    def _row_sum(self, x: Fraction, m: int) -> float:
        # sum_{i=1..m-1} H(x, i*x); m can reach the denominator of x, so
        # large rows go through one sampled call and exact (Shewchuk)
        # summation via math.fsum.  A pole spoils one row, which scalar H
        # calls then report at its lattice point.
        if m - 1 < _VECTOR_MIN:
            return math.fsum(self.H(x, i * x) for i in range(1, m))
        ys = np.arange(1, m, dtype=np.float64) * float(x.numerator) / float(x.denominator)
        try:
            vals = _sample(self.F, float(x), ys)
        except EvaluationError:
            return math.fsum(self.H(x, i * x) for i in range(1, m))
        return math.fsum((vals - self.F00).tolist())

    # -- h at rationals --

    def h(self, r: Fraction, engine: str = "euclid-chain") -> float:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        r = Fraction(r)
        if engine == "dyadic" and r.denominator & (r.denominator - 1):
            raise ValueError(
                f"dyadic engine needs a power-of-two denominator, got {r}"
            )
        return self._h_value(r, engine)

    def _h_value(self, r: Fraction, engine: str) -> float:
        key = (engine, r)
        cached = self._h.get(key)
        if cached is not None:
            return cached
        val = self._h_reduce(r, engine)
        self._h[key] = val
        return val

    def _h_reduce(self, r: Fraction, engine: str) -> float:
        if r == 0 or r == 1:
            return 0.0
        if r < 0:
            return -self._h_value(-r, engine) - self.H(-r, r)
        if r >= 1:
            k = math.floor(r)
            if r == k:
                return math.fsum(
                    self.H(Fraction(1), Fraction(i)) for i in range(1, k)
                )
            s = r - k
            return (
                self._h_value(Fraction(k), engine)
                + self._h_value(s, engine)
                + self.H(Fraction(k), s)
            )
        if r == ONE_HALF:
            return -self.H(ONE_HALF, ONE_HALF) / 2.0
        if r > ONE_HALF:
            return -self._h_value(1 - r, engine) - self.H(r, 1 - r)
        if engine == "dyadic":
            return (self._h_value(2 * r, engine) - self.H(r, r)) / 2.0
        return self._h_chain(r)

    def _h_chain(self, r: Fraction) -> float:
        chain = euclid_chain(r)
        n = chain.n
        # p_0 and then each step's remainder; euclid_chain builds a valid
        # chain, which EuclidChain has already checked once
        rems = [r.numerator] + [p for _, p in chain.steps]
        vals = [Fraction(p, n) for p in rems]
        h_next = 0.0  # h at the terminal remainder, which is 0
        for j in range(len(chain.steps) - 1, -1, -1):
            node = vals[j]
            key = ("euclid-chain", node)
            hv = self._h.get(key)
            if hv is None:
                m = chain.steps[j][0]
                row = self._row_sum(node, m)
                bridge = self.H(vals[j + 1], 1 - vals[j + 1])
                hv = -(row + bridge + h_next) / m
                self._h[key] = hv
            h_next = hv
        return h_next

    def f_value(self, r: Fraction, engine: str = "euclid-chain") -> float:
        return self.h(r, engine) - self.F00


def h_rational(
    F,
    r: Fraction | int,
    engine: str = "euclid-chain",
    *,
    solver: LatticeSolver | None = None,
) -> float:
    """Value at a rational of the normalized solution h (h(0) = h(1) = 0).

    Pass a ``solver`` to share caches across calls; a fresh one is created
    otherwise.  The dyadic engine requires a power-of-two denominator.
    """
    solver = solver or LatticeSolver(F)
    return solver.h(Fraction(r), engine)


def _dyadic_round(t: float, level: int) -> Fraction:
    """Nearest multiple of 2**-level to the float t, ties rounding down,
    so |t - q| <= 2**-(level+1)."""
    scaled = math.ldexp(t, level)
    num = math.floor(scaled)
    if scaled - num > 0.5:
        num += 1
    return Fraction(num, 1 << level)


def reconstruct_point(
    F,
    t,
    epsilon: float = 1e-6,
    *,
    max_depth: int = 64,
    solver: LatticeSolver | None = None,
) -> float:
    """Value of the reconstructed f at a single point.

    Exact inputs (int or Fraction) are answered on the rational lattice.
    Floats are treated as real targets: f is evaluated along dyadic
    approximants t_j until 3 * omega(F; |t - t_j|) <= epsilon on the
    enclosing box and successive values agree within epsilon, then two
    further refinement levels are taken as margin (the modulus estimate
    is a lower bound).  Raises ConvergenceError if the rule is not met
    within max_depth levels.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    solver = solver or LatticeSolver(F)
    if isinstance(t, (int, Fraction)):
        return solver.f_value(Fraction(t))
    tf = float(t)
    if not math.isfinite(tf):
        raise ValueError("t must be finite")
    from .verify import modulus_probe  # deferred: verify imports this module

    M = max(1.0, float(math.ceil(abs(tf))) + 1.0)
    box = ((-M, M), (-M, M))
    best: float | None = None
    bound = math.inf
    for level in range(1, max_depth + 1):
        q = _dyadic_round(tf, level)
        val = solver.f_value(q, engine="dyadic")
        gap = abs(tf - float(q))
        if gap == 0.0:
            return val
        exp = math.frexp(gap)[1]  # smallest power of two >= gap
        cache_key = (M, exp)
        omega = solver._omega.get(cache_key)
        if omega is None:
            omega = modulus_probe(F, math.ldexp(1.0, exp), box)
            solver._omega[cache_key] = omega
        bound = 3.0 * omega
        if best is not None and bound <= epsilon and abs(val - best) <= epsilon:
            refined = _dyadic_round(tf, level + 2)
            return solver.f_value(refined, engine="dyadic")
        best = val
    raise ConvergenceError(
        f"no convergence within {max_depth} levels (achieved bound {bound:.3g})",
        best=best,
        bound=bound,
    )


# --- sample tables -----------------------------------------------------

def _terminating_decimal(r: Fraction) -> str | None:
    # Exact decimal rendering when the denominator is 2^a * 5^b.
    rest = r.denominator
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    digits = max(twos, fives)
    if digits == 0:
        return str(r.numerator)
    scaled = abs(r.numerator) * 10**digits // r.denominator
    text = str(scaled).rjust(digits + 1, "0")
    head, tail = text[:-digits], text[-digits:].rstrip("0")
    out = head + ("." + tail if tail else "")
    return "-" + out if r < 0 else out


@dataclass
class ReconstructedFunction:
    """Sampled reconstruction: exact rational keys to float values."""

    samples: dict[Fraction, float]
    engine: str
    normalization: dict[str, float] = field(default_factory=dict)

    def value_at(self, t) -> float:
        key = t if isinstance(t, Fraction) else Fraction(t)
        try:
            return self.samples[key]
        except KeyError:
            raise LookupError(f"point {key} not in sample table") from None

    def __call__(self, t) -> float:
        return self.value_at(t)

    def to_csv_text(self) -> str:
        exact = {k: _terminating_decimal(k) for k in self.samples}
        with_exact = any(v is None for v in exact.values())
        header = "t,f,t_exact" if with_exact else "t,f"
        lines = [header]
        for k, v in self.samples.items():
            t_text = exact[k] if exact[k] is not None else f"{float(k):.17g}"
            row = f"{t_text},{v:.17g}"
            if with_exact:
                row += "," + ("" if exact[k] is not None else format_rational(k))
            lines.append(row)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        rows = []
        for k, v in self.samples.items():
            row: dict = {"t": float(k), "f": v}
            if _terminating_decimal(k) is None:
                row["t_exact"] = format_rational(k)
            rows.append(row)
        return {
            "engine": self.engine,
            "normalization": self.normalization,
            "samples": rows,
        }


def reconstruct_table(
    F,
    keys,
    engine: str = "euclid-chain",
    *,
    solver: LatticeSolver | None = None,
) -> ReconstructedFunction:
    """Reconstruct f at the given rational keys (sorted, deduplicated)."""
    solver = solver or LatticeSolver(F)
    ordered = sorted({Fraction(k) for k in keys})
    samples = {k: solver.f_value(k, engine) for k in ordered}
    return ReconstructedFunction(
        samples=samples,
        engine=engine,
        normalization={"f(0)": -solver.F00, "f(1)": -solver.F00},
    )


def _check_grid_size(a: Fraction, b: Fraction, dens) -> None:
    """Raise ValueError when the multiples of 1/den in [a, b], summed over
    dens (an upper bound on the key count), exceed MAX_GRID_KEYS; the sum
    stops as soon as it does, so a huge bound is refused at once."""
    total = 0
    for den in dens:
        total += math.floor(b * den) - math.ceil(a * den) + 1
        if total > MAX_GRID_KEYS:
            raise ValueError(
                f"grid on [{a}, {b}] would hold over {total} keys; "
                f"the limit is {MAX_GRID_KEYS}"
            )


def grid_keys(
    interval,
    *,
    denominators: int | None = None,
    dyadic_level: int | None = None,
) -> list[Fraction]:
    """Reduced rationals in [a, b]: all with denominator <= bound, or all
    multiples of 2**-level.  Grids of more than MAX_GRID_KEYS keys are
    rejected with ValueError before any key is built."""
    if (denominators is None) == (dyadic_level is None):
        raise ValueError("give exactly one of denominators or dyadic_level")
    if any(isinstance(x, float) and not math.isfinite(x) for x in interval):
        raise ValueError("interval endpoints must be finite")
    a, b = (Fraction(x) for x in interval)
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    keys: list[Fraction] = []
    if denominators is not None:
        if denominators < 1:
            raise ValueError("denominator bound must be >= 1")
        _check_grid_size(a, b, range(1, denominators + 1))
        for den in range(1, denominators + 1):
            for num in range(math.ceil(a * den), math.floor(b * den) + 1):
                if math.gcd(num, den) == 1:
                    keys.append(Fraction(num, den))
        keys.sort()
        return keys
    if dyadic_level < 0:
        raise ValueError("dyadic level must be >= 0")
    den = 1 << dyadic_level
    _check_grid_size(a, b, (den,))
    return [
        Fraction(num, den)
        for num in range(math.ceil(a * den), math.floor(b * den) + 1)
    ]
