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
  h(2m)      = 2 h(m) + H(m, m)                    integers k >= 2, along
  h(m + 1)   = h(m) + H(1, m)                      the binary digits of k
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

A single key is walked: down its line of parents to a known value, then
back up.  A table is one pass, when F is compiled: h on (0, 1) parents
first (one list per dyadic level, or the keys' quotient chains), then
the identities above at each key, with the walk's float operations.

Real targets are handled by a limit over dyadic approximants t_j with a
certified stopping rule.  For d = t - t_j the cocycle relation gives
f(t) - f(t_j) = H(t_j, d) + h(d), and h(u) = (h(2u) - H(u, u)) / 2 gives
S(r) <= (S(2r) + E(r)) / 2 for S(r) = sup_{|u|<=r} |h(u)| and
E(r) = sup_{|u|<=r} |H(u, u)|.  Unrolled up to r = 1 and closed with
S(1) <= 3 * osc(F; [-1, 1]^2), the factor-3 transfer bound, that makes

  |f(t) - f(t_j)| <= |H(t_j, d)| + S(|d|)

computable from interval enclosures of F alone (FuncSpec.enclose): one
at (t_j, d) and one on [-r, r]^2 per dyadic scale r, kept per kernel.
The bound needs no value of f, so levels are scanned on it alone, and
the lattice is walked once per target, at the level returned.
The bound holds in real arithmetic; it does not cover the rounding inside
the lattice recursion that computes f(t_j).
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .expressions import EvaluationError, FuncSpec, _i_sub, _sample, _scalar
from .rational import euclid_chain  # noqa: F401  benchmark/tracing.py wraps it here

__all__ = [
    "ENGINES",
    "ConvergenceError",
    "KeyGrid",
    "LatticeSolver",
    "ReconstructedFunction",
    "h_rational",
    "reconstruct_point",
    "reconstruct_table",
    "grid_keys",
    "grid_gap",
]

ENGINES = ("euclid-chain", "dyadic")

# Row sums of this many terms or more take one array call, for speed only.
_VECTOR_MIN = 128

# grid_keys refuses grids larger than this many keys.
MAX_GRID_KEYS = 10**6

# The finest dyadic grid: above it no key k/2^L with k odd is a float, so
# F would be called at rounded points.
MAX_DYADIC_LEVEL = 1074

# One call of LatticeSolver.h or reconstruct_table refuses euclid-chain
# row sums of more kernel terms than this, counted over all of its rows.
MAX_ROW_TERMS = 1 << 25

# Per kernel (equal FuncSpecs share one, and it dies with the kernel):
# [F(0, 0) enclosed, S], S[n] a bound of sup |h(u)| over |u| <= 2**-n.  S
# is a tuple, replaced by a longer one and never mutated, so solvers in
# several threads at worst recompute the same floats.
_BOUNDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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

    Exact points are reduced integer pairs (num, den) with den > 0, and F
    gets each one as the float num / den, through its compiled scalar form
    (``expressions._scalar``).  The walk (``_h_value``) caches h per engine
    by its pair; no Fraction is built below the public methods.  H is not
    cached, and a recomputed value is the same float; an odd integer
    2m + 1 builds on h(2m), so an integer grid asks for each H(m, m) once.
    A table of a compiled F is one pass (``_table``), which gives the
    walk's values, writes only the integer parts into the cache, and
    leaves the table to the walk wherever it cannot finish.  Reads and
    single-key insertions on the h caches are atomic under the interpreter
    lock, so a solver may be shared across threads that only query values;
    the bounds of reconstruct_point are per kernel (``_BOUNDS``), not per
    solver, and safe to share in the same way.
    The euclid-chain rows of one call of ``h`` or ``reconstruct_table``
    hold at most MAX_ROW_TERMS kernel terms in all (``_row_sum``).
    """

    def __init__(self, F):
        self.F = F
        self.F00 = float(F(0.0, 0.0))
        self._F_at = _scalar(F)
        # F's compiled scalar form, for the table pass and short rows: the
        # rule of _scalar, which leaves other callables to their own calls
        self._compiled = F._compiled[0] if type(F) is FuncSpec else None
        self._h: dict[str, dict[tuple[int, int], float]] = {e: {} for e in ENGINES}
        self._bounds = None  # F's _BOUNDS entry, read on the first _h_bound call

    # -- kernel access --

    def H(self, x: Fraction, y: Fraction) -> float:
        """H(x, y) = F(x, y) - F(0, 0) at exact points."""
        x, y = Fraction(x), Fraction(y)
        return self._kernel(x.numerator, x.denominator, y.numerator, y.denominator)

    def _kernel(self, a: int, b: int, c: int, d: int) -> float:
        # H(a/b, c/d); the pairs need not be reduced
        if a == 0 or c == 0:
            return 0.0  # H(x, 0) = H(0, y) = 0 for any cocycle
        xf, yf = a / b, c / d
        try:
            val = float(self._F_at(xf, yf)) - self.F00
        except EvaluationError as exc:
            raise EvaluationError(
                f"F not evaluable at lattice point ({Fraction(a, b)}, {Fraction(c, d)}): "
                f"{exc.__cause__ or exc}",  # the reason, without the float point
                point=(xf, yf),
            ) from exc
        if not math.isfinite(val):
            raise EvaluationError(
                f"F non-finite at lattice point ({Fraction(a, b)}, {Fraction(c, d)})",
                point=(xf, yf),
            )
        return val

    def _row_sum(self, a: int, b: int, m: int, row_terms: list[int]) -> float:
        # sum_{i=1..m-1} H(a/b, i*a/b); m can reach b, so a long row takes one
        # sampled call (its ys exact while b <= 2**53) and exact (Shewchuk)
        # summation via math.fsum, and a short one F's compiled form, when F
        # has one.  A pole spoils one row, which calls through _kernel then
        # report at its lattice point.  row_terms[0] counts the row terms
        # of the current public call; a row that would take it past
        # MAX_ROW_TERMS is refused before it is evaluated or allocated.
        terms = row_terms[0] + m - 1
        if terms > MAX_ROW_TERMS:
            raise ValueError(
                f"euclid-chain row sums reach {terms} kernel terms at key {a}/{b}; "
                f"the limit per call is {MAX_ROW_TERMS}"
            )
        row_terms[0] = terms
        if m - 1 >= _VECTOR_MIN and b <= 1 << 53:
            ys = np.arange(1, m, dtype=np.float64) * float(a) / float(b)
            try:
                vals = _sample(self.F, a / b, ys)
            except EvaluationError:
                pass
            else:
                return math.fsum((vals - self.F00).tolist())
        elif self._compiled is not None:
            F, f00, x = self._compiled, self.F00, a / b
            try:
                row = math.fsum([F(x, i * a / b) - f00 for i in range(1, m)])
                if math.isfinite(row):
                    return row
            except (ArithmeticError, ValueError, TypeError):
                pass  # the sum through _kernel below raises it
        return math.fsum(self._kernel(a, b, i * a, b) for i in range(1, m))

    # -- h at rationals --

    def h(self, r: Fraction, engine: str = "euclid-chain") -> float:
        r = Fraction(r)
        _check_engine(engine, [(r.numerator, r.denominator)])
        return self._h_value(r.numerator, r.denominator, engine, [0])

    def _h_value(self, num: int, den: int, engine: str, row_terms: list[int]) -> float:
        # h(num/den) by one loop: down the line of parents (module
        # docstring) to a cached value or to h(0) = h(1) = 0, then back up,
        # applying each key's identity.  Kernel terms are taken on the way
        # up, so F is called in the order a recursion would call it.
        cache = self._h[engine]
        hv = cache.get((num, den))
        if hv is not None:  # most calls, in a grid
            return hv
        path = []
        hk = None  # h(k) at the path's one key k + s: below it, all keys lie in [0, 1)
        while hv is None:
            if num == 0 or num == den:
                hv = 0.0
                break
            path.append((num, den))
            if num < 0:
                num = -num
            elif den == 1:
                num = num - 1 if num & 1 else num >> 1
            elif num > den:
                # h(k) before s, so the first pole reported is the one
                # at the integer part
                hk = self._h_value(num // den, 1, engine, row_terms)
                num %= den
            elif 2 * num == den:
                break
            elif 2 * num > den:
                num = den - num
            elif engine == "dyadic":
                den >>= 1  # num is odd, so 2r is reduced
            else:
                num, den = _chain_next(num, den)
            hv = cache.get((num, den))
        while path:
            num, den = key = path.pop()
            if num < 0:
                hv = -hv - self._kernel(-num, den, num, den)
            elif den == 1:
                if num & 1:
                    hv += self._kernel(1, 1, num - 1, 1)
                else:
                    m = num >> 1
                    hv = 2.0 * hv + self._kernel(m, 1, m, 1)
            elif num > den:
                hv = hk + hv + self._kernel(num // den, 1, num % den, den)
            elif 2 * num == den:
                hv = -self._kernel(1, 2, 1, 2) / 2.0
            elif 2 * num > den:
                hv = -hv - self._kernel(num, den, den - num, den)
            elif engine == "dyadic":
                hv = (hv - self._kernel(num, den, num, den)) / 2.0
            else:
                (c, d), m = _chain_next(num, den), den // num
                row = self._row_sum(num, den, m, row_terms)
                hv = -(row + self._kernel(c, d, d - c, d) + hv) / m
            cache[key] = hv
        return hv

    # -- h at the keys of a table --

    def _table(self, pairs: list[tuple[int, int]], engine: str) -> list[float]:
        # h at every key, in key order: one pass when F is compiled, else,
        # and wherever the pass stops short, the walk, key by key
        if self._compiled is not None:
            try:
                values = self._pass(pairs, engine)
            except (ArithmeticError, ValueError, TypeError, EvaluationError):
                values = None  # the walk raises the error, at its point
            if values is not None and all(map(math.isfinite, values)):
                return values
        row_terms = [0]  # the row-work limit holds per table
        return [self._h_value(num, den, engine, row_terms) for num, den in pairs]

    def _pass(self, pairs: list[tuple[int, int]], engine: str) -> list[float] | None:
        # The walk's values, bit for bit, with no per-key walk: h on (0, 1)
        # comes parents first, each node once, then the key identities are
        # applied in the walk's operation order.  F is called at the walk's
        # float points; its Python errors and non-finite values (which
        # reach the result through + - / and fsum) are the caller's to
        # catch.  None, returned before F is called, leaves the table to
        # the walk.
        F, f00 = self._compiled, self.F00
        frac = (self._dyadic_values if engine == "dyadic" else self._chain_values)(pairs)
        if frac is None:
            return None
        ints = self._h[engine]  # h at an integer comes from the walk, which caches it
        out = []
        for num, den in pairs:
            n = -num if num < 0 else num
            k, s = divmod(n, den)
            hv = ints.get((k, 1)) if k > 1 else 0.0
            if hv is None:
                hv = self._h_value(k, 1, engine, [0])
            if s:
                hs = frac(s, den)
                hv = hv + hs + (F(float(k), s / den) - f00) if k else hs
            if num < 0:
                x = n / den
                hv = -hv - (F(x, -x) - f00)
            out.append(hv)
        return out

    def _dyadic_values(self, pairs):
        # h(i / 2**l), i odd, in one list per level l up to the finest key's
        # L: h(x) = (h(2x) - H(x, x)) / 2 on (0, 1/2), then
        # h(x) = -h(1-x) - H(x, 1-x) on (1/2, 1).  The lists hold 2**L - 1
        # values, so a table of far fewer keys is left to the walk.
        top = max(map(itemgetter(1), pairs), default=1)
        if top > 4 * len(pairs):
            return None
        F, f00 = self._compiled, self.F00
        levels = [[], [-(F(0.5, 0.5) - f00) / 2.0]] if top > 1 else []
        for level in range(2, top.bit_length()):
            prev, step = levels[-1], 1 << level
            xs = [i / step for i in range(1, step, 2)]
            lower = [(hv - (F(x, x) - f00)) / 2.0 for hv, x in zip(prev, xs)]
            low_xs = reversed(xs[: len(prev)])
            levels.append(lower + [
                -hv - (F(x, y) - f00) for hv, x, y in zip(reversed(lower), xs[len(prev):], low_xs)
            ])
        return lambda s, den: levels[den.bit_length() - 1][s >> 1]

    def _chain_values(self, pairs):
        # h on (0, 1/2) at the quotient chains of the keys' fractional
        # parts (reflected there from (1/2, 1)): the chains are listed
        # first, each node after its parent (n mod p)/n, and their row
        # terms summed, so a table past MAX_ROW_TERMS is left to the walk
        # before F is called; then 1/2 and the reflections, once each
        F, f00 = self._compiled, self.F00
        seen, order, terms = {(0, 1)}, [], 0
        for num, den in pairs:
            s = abs(num) % den
            if 2 * s == den:
                continue
            node = (s, den) if 2 * s < den else (den - s, den)
            path = []
            while node not in seen:
                seen.add(node)
                p, n = node
                node = _chain_next(p, n)
                path.append((p, n, node))
                terms += n // p - 1
            order += reversed(path)
        if terms > MAX_ROW_TERMS:
            return None
        h, row_terms = {(0, 1): 0.0}, [0]
        for p, n, (c, d) in order:
            m = n // p
            row = self._row_sum(p, n, m, row_terms)
            bridge = F(c / d, (d - c) / d) - f00 if c else 0.0
            h[p, n] = -(row + bridge + h[c, d]) / m

        def frac(s: int, den: int) -> float:
            hv = h.get((s, den))
            if hv is None:  # 1/2 or a key on (1/2, 1), the first time
                if 2 * s == den:
                    hv = -(F(0.5, 0.5) - f00) / 2.0
                else:
                    hv = -h[den - s, den] - (F(s / den, (den - s) / den) - f00)
                h[s, den] = hv
            return hv

        return frac

    def f_value(self, r: Fraction, engine: str = "euclid-chain") -> float:
        return self.h(r, engine) - self.F00

    # -- certified bounds (F a FuncSpec) --

    def _H_abs(self, x: tuple[float, float], y: tuple[float, float]) -> float:
        # sup |H| = sup |F(x, y) - F(0, 0)| over the box x * y, rounded up
        lo, hi = _i_sub(self.F.enclose(x, y), self._bounds[0])
        return max(-lo, hi)

    def _h_bound(self, n: int) -> float:
        """An upper bound of sup |h(u)| over |u| <= 2**-n, for n >= 0."""
        entry = self._bounds
        if entry is None:
            F = self.F
            entry = _BOUNDS.get(F) or _BOUNDS.setdefault(F, [F.enclose((0.0, 0.0), (0.0, 0.0)), ()])
            self._bounds = entry
        S = entry[1]
        if len(S) <= n:
            S = list(S)
            if not S:
                lo, hi = self.F.enclose((-1.0, 1.0), (-1.0, 1.0))
                S.append(_up(3.0 * _up(hi - lo)))
            while len(S) <= n:
                r = math.ldexp(1.0, -len(S))
                S.append(_up(_up(S[-1] + self._H_abs((-r, r), (-r, r))) / 2.0))
            entry[1] = max(entry[1], tuple(S), key=len)
        return S[n]

    def _limit_bound(self, x: float, y: float, n: int, cutoff: float = math.inf) -> float:
        """An upper bound of |f(x + y) - f(x)| = |H(x, y) + h(y)| for
        0 < |y| <= 2**-n, n >= 0; inf, without enclosing H(x, y), when the
        bound S(2**-n) of |h(y)| alone exceeds ``cutoff``."""
        s = self._h_bound(n)
        if s > cutoff:
            return math.inf
        return _up(self._H_abs((x, x), (y, y)) + s)


def _chain_next(p: int, n: int) -> tuple[int, int]:
    """The next node of the quotient chain of p/n, (n mod p)/n, reduced."""
    rest = n % p
    g = math.gcd(rest, n)  # rest = 0 gives the pair (0, 1)
    return rest // g, n // g


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _check_engine(engine: str, pairs) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "dyadic" and any(den & (den - 1) for den in set(map(itemgetter(1), pairs))):
        bad = next(p for p in pairs if p[1] & (p[1] - 1))
        raise ValueError(f"dyadic engine needs a power-of-two denominator, got {Fraction(*bad)}")


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


def _dyadic_round(num: int, shift: int, level: int) -> int:
    """The numerator of q, the multiple of 2**-level nearest to
    t = num / 2**shift, ties rounding down, so |t - q| <= 2**-(level+1)."""
    k = shift - level
    if k <= 0:
        return num << -k
    low = num >> k  # rounded down
    return low + (num - (low << k) > 1 << (k - 1))


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
    Floats are treated as real targets, approximated by the dyadic t_j
    nearest t at levels j = 1, 2, ...  The levels are scanned on the
    certified bound |H(t_j, d)| + S(|d|) on |f(t) - f(t_j)|, d = t - t_j
    (module docstring), alone; a level whose S(|d|) exceeds epsilon fails
    without enclosing H(t_j, d).  The lattice is then walked once, for
    f(t_j) at the first level whose bound is at most epsilon.  If none up
    to max_depth is, the walk is at the level of least bound (the later on
    a tie), and ConvergenceError carries its value and that bound.  An
    EvaluationError names a lattice point of that walk.  The bound is
    built from interval enclosures of F, so F must be a FuncSpec; a float
    target with any other callable raises ValueError.  It holds in real
    arithmetic and does not cover the rounding of the lattice recursion
    that computes f(t_j).  A shared ``solver`` shares its h cache; the S
    bounds are kept per kernel, and shared by all of its solvers.
    ValueError also answers a NaN or non-positive epsilon and a max_depth
    below 1.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    solver = solver or LatticeSolver(F)
    if isinstance(t, (int, Fraction)):
        return solver.f_value(Fraction(t))
    tf = float(t)
    if not math.isfinite(tf):
        raise ValueError("t must be finite")
    if not isinstance(solver.F, FuncSpec):
        raise ValueError(
            "a float target needs F as a FuncSpec, whose enclosures certify the "
            "limit; pass an int or Fraction target for another callable"
        )
    # t = num_t / 2**shift and, at each level, t_j = num / 2**level and
    # d = dn / 2**shift, in integers; below shift, t_j and d are floats
    # exactly (t's numerator has at most 53 bits), and d is not 0
    num_t, den_t = tf.as_integer_ratio()
    shift = den_t.bit_length() - 1
    scanned = []
    for level in range(1, max_depth + 1):
        if shift <= level:  # t on the grid
            return solver.f_value(Fraction(num_t, den_t), engine="dyadic")
        num = _dyadic_round(num_t, shift, level)
        dn = num_t - (num << (shift - level))
        n = (den_t // abs(dn)).bit_length() - 1  # the largest n with |d| <= 2**-n
        point = (math.ldexp(num, -level), math.ldexp(dn, -shift), n)
        if solver._limit_bound(*point, epsilon) <= epsilon:
            return solver.f_value(Fraction(num, 1 << level), engine="dyadic")
        scanned.append((level, num, point))
    # no level met epsilon: the least full bound, ties to the later level
    bound, neg_level, num = min((solver._limit_bound(*p), -level, num) for level, num, p in scanned)
    raise ConvergenceError(
        f"no convergence within {max_depth} levels (achieved bound {bound:.3g})",
        best=solver.f_value(Fraction(num, 1 << -neg_level), engine="dyadic"),
        bound=bound,
    )


# --- sample tables -----------------------------------------------------

class KeyGrid:
    """Sorted, distinct exact keys, held as reduced integer pairs
    (num, den) with den > 0 in ``pairs``.  Read as a sequence it yields
    Fractions, built on access; the solver and the table writers read
    ``pairs`` and build none."""

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = pairs

    @classmethod
    def of(cls, keys) -> "KeyGrid":
        """``keys`` if a KeyGrid, else its distinct values (as Fraction()
        reads them) in order."""
        if isinstance(keys, KeyGrid):
            return keys
        return cls([(q.numerator, q.denominator) for q in sorted({Fraction(k) for k in keys})])

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(*self.pairs[i])  # also serves iteration and `in`

    def __eq__(self, other):
        if not isinstance(other, (KeyGrid, list, tuple)):
            return NotImplemented
        return list(self) == list(other)



def _decimal_places(den: int) -> tuple[int, int] | None:
    """(places, 10**places // den) when p/den in lowest terms is a
    terminating decimal, that is den = 2^a * 5^b and places = max(a, b);
    None otherwise."""
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    places = max(twos, fives)
    return (places, 10**places // den) if rest == 1 else None


def _decimal_text(num: int, places: int, scale: int) -> str:
    # the exact decimal of num/den, given _decimal_places(den); its last
    # digit is never 0, since num is odd when den is even and not a
    # multiple of 5 when 5 divides den
    if places == 0:
        return str(num)
    text = str(abs(num) * scale).rjust(places + 1, "0")
    return f"{'-' if num < 0 else ''}{text[:-places]}.{text[-places:]}"


@dataclass
class ReconstructedFunction:
    """Sampled reconstruction: f at the exact keys of a KeyGrid, with
    ``values`` in key order."""

    keys: KeyGrid
    values: list[float]
    engine: str
    normalization: dict[str, float] = field(default_factory=dict)

    @functools.cached_property
    def samples(self) -> dict[Fraction, float]:
        """The table as a dict from exact key to value, built on first use.
        ``value_at`` reads it; the writers read ``keys`` and ``values``."""
        return dict(zip(self.keys, self.values))

    def value_at(self, t) -> float:
        key = t if isinstance(t, Fraction) else Fraction(t)
        try:
            return self.samples[key]
        except KeyError:
            raise LookupError(f"point {key} not in sample table") from None

    def __call__(self, t) -> float:
        return self.value_at(t)

    def _decimals(self) -> list[tuple[int, int] | None]:
        pairs = self.keys.pairs
        per_den = {den: _decimal_places(den) for den in {den for _, den in pairs}}
        return [per_den[den] for _, den in pairs]

    def to_csv_text(self) -> str:
        # t is the exact decimal when there is one, else the float num/den
        # with the key as p/n (format_rational's form) in t_exact
        decimals = self._decimals()
        with_exact = None in decimals
        lines = ["t,f,t_exact" if with_exact else "t,f"]
        tail = "," if with_exact else ""
        for (num, den), dec, v in zip(self.keys.pairs, decimals, self.values):
            if dec is None:
                lines.append(f"{num / den:.17g},{v:.17g},{num}/{den}")
            else:
                lines.append(f"{_decimal_text(num, *dec)},{v:.17g}{tail}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        rows = []
        for (num, den), dec, v in zip(self.keys.pairs, self._decimals(), self.values):
            row: dict = {"t": num / den, "f": v}
            if dec is None:
                row["t_exact"] = f"{num}/{den}"
            rows.append(row)
        return {"engine": self.engine, "normalization": self.normalization, "samples": rows}

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_obj(), indent=2) + "\\n"``, written
        directly, with one format call for the rows: with ``indent`` set,
        json runs its pure-Python encoder."""
        norm = [f"    {json.dumps(k)}: {_json_float(v)}" for k, v in self.normalization.items()]
        values = self.values
        if not all(map(math.isfinite, values)):
            values = [_json_float(v) for v in values]  # %s then writes the text
        forms, args = [], []
        for (num, den), dec, v in zip(self.keys.pairs, self._decimals(), values):
            if dec is None:
                forms.append(_JSON_ROW_EXACT)
                args += (num / den, v, num, den)
            else:
                forms.append(_JSON_ROW)
                args += (num / den, v)
        rows = [",\n".join(forms) % tuple(args)] if forms else []
        return (
            f"{{\n  \"engine\": {json.dumps(self.engine)},\n"
            f"  \"normalization\": {_json_block(norm, '{}')},\n"
            f"  \"samples\": {_json_block(rows, '[]')}\n}}\n"
        )


# one sample row of to_json_text, without and with t_exact: t is a finite
# float, which %r writes as json does, and f a finite float or its json text
_JSON_ROW = '    {\n      "t": %r,\n      "f": %s\n    }'
_JSON_ROW_EXACT = '    {\n      "t": %r,\n      "f": %s,\n      "t_exact": "%d/%d"\n    }'


def _json_float(v: float) -> str:
    # as json.dumps writes a float
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")


def _json_block(items: list[str], brackets: str) -> str:
    # a JSON object or array at depth 1 of indent=2 output, from its lines
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n  " + brackets[1]


def reconstruct_table(
    F,
    keys,
    engine: str = "euclid-chain",
    *,
    solver: LatticeSolver | None = None,
) -> ReconstructedFunction:
    """Reconstruct f at the given rational keys, sorted and deduplicated
    (a KeyGrid from grid_keys is used as it is).

    A FuncSpec F is solved in one pass, parents first; any other callable,
    a dyadic table whose level lists would hold over four times as many
    values as it has keys, euclid-chain rows past MAX_ROW_TERMS, and an
    error or non-finite value in the pass leave the table to the walk of
    ``LatticeSolver.h``, key by key.  Both give the same values, and every
    error is the walk's.  A shared ``solver`` lends its cache to the walk;
    the pass reads only its integer parts."""
    solver = solver or LatticeSolver(F)
    grid = KeyGrid.of(keys)
    _check_engine(engine, grid.pairs)
    f00 = solver.F00
    return ReconstructedFunction(
        keys=grid,
        values=[hv - f00 for hv in solver._table(grid.pairs, engine)],
        engine=engine,
        normalization={"f(0)": -f00, "f(1)": -f00},
    )


def _text(x: int | Fraction) -> str:
    # str(x), or ~10^e, e its rounded power of ten, where str() passes
    # Python's limit on the digits of an int
    try:
        return str(x)
    except ValueError:
        x = Fraction(x)
        return f"~{'-' * (x < 0)}10^{round(math.log10(abs(x.numerator)) - math.log10(x.denominator))}"


def _grid_spans(interval, denominators: int | None, dyadic_level: int | None):
    """The denominators of a grid and, as ``span(den)``, its numerators
    over each; grids of more than MAX_GRID_KEYS candidate keys (every
    multiple of 1/den in [a, b], reduced or not) are refused here, before
    any key is built, and so are more than MAX_GRID_KEYS denominators,
    whose scan costs as much where the interval holds no key, and dyadic
    levels over MAX_DYADIC_LEVEL."""
    if (denominators is None) == (dyadic_level is None):
        raise ValueError("give exactly one of denominators or dyadic_level")
    if any(isinstance(x, float) and not math.isfinite(x) for x in interval):
        raise ValueError("interval endpoints must be finite")
    a, b = (Fraction(x) for x in interval)
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    where = f"grid on [{_text(a)}, {_text(b)}]"

    def span(den: int) -> range:
        # the numerators num with a <= num/den <= b
        return range(-(-an * den // ad), bn * den // bd + 1)

    if denominators is not None:
        if denominators < 1:
            raise ValueError("denominator bound must be >= 1")
        if denominators > MAX_GRID_KEYS:
            raise ValueError(
                f"{where} has {_text(denominators)} denominators q to scan for keys p/q; "
                f"the limit is {MAX_GRID_KEYS}"
            )
        dens, form = range(1, denominators + 1), f"p/q with q up to {_text(denominators)}"
    else:
        if dyadic_level < 0:
            raise ValueError("dyadic level must be >= 0")
        # a finer level is counted at MAX_DYADIC_LEVEL, a lower bound, and
        # refused below: 2**level is never built
        dens, form = (1 << min(dyadic_level, MAX_DYADIC_LEVEL),), f"k/2^{_text(dyadic_level)}"
    # the sum stops as soon as it passes the limit; a span's length is
    # taken from its ends, since len() of a range stops at 2^63
    total = 0
    for den in dens:
        r = span(den)
        total += max(0, r.stop - r.start)
        if total > MAX_GRID_KEYS:
            raise ValueError(
                f"{where} has at least {_text(total)} candidate keys {form}; "
                f"the limit is {MAX_GRID_KEYS}"
            )
    if dyadic_level is not None and dyadic_level > MAX_DYADIC_LEVEL:
        raise ValueError(f"dyadic level {_text(dyadic_level)} is over the limit {MAX_DYADIC_LEVEL}")
    return dens, span


def grid_keys(
    interval,
    *,
    denominators: int | None = None,
    dyadic_level: int | None = None,
) -> KeyGrid:
    """Reduced rationals in [a, b]: all with denominator <= N, or all
    multiples of 2**-level, in increasing order.  Grids of more than
    MAX_GRID_KEYS candidate keys or denominators, and dyadic levels over
    MAX_DYADIC_LEVEL, are rejected with ValueError before any key is
    built.  Two distinct keys p/q and r/s with q, s <= N differ by at
    least 1/(qs) >= 1/N^2, so floor(N^2 * p/q), an integer, orders the
    keys exactly, without a tie."""
    dens, span = _grid_spans(interval, denominators, dyadic_level)
    if dyadic_level is not None:
        (den,) = dens
        return KeyGrid([(num // (g := math.gcd(num, den)), den // g) for num in span(den)])
    pairs = [(num, den) for den in dens for num in span(den) if math.gcd(num, den) == 1]
    scale = denominators * denominators
    pairs.sort(key=lambda p: p[0] * scale // p[1])
    return KeyGrid(pairs)


def grid_gap(
    interval,
    *,
    denominators: int | None = None,
    dyadic_level: int | None = None,
) -> Fraction:
    """The widest gap between neighbouring keys of grid_keys on an
    interval with integer endpoints, exactly: 1/N, beside each integer,
    for denominators up to N, and 2**-level for the dyadic grid.
    grid_keys' refusals come first, and no key is built."""
    if any(Fraction(x).denominator != 1 for x in interval):
        raise ValueError("grid_gap needs an interval with integer endpoints")
    _grid_spans(interval, denominators, dyadic_level)
    return Fraction(1, denominators if denominators is not None else 1 << dyadic_level)
