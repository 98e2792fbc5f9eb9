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

and on the core interval (0, 1/2) by one identity, with m >= 2:

  h(x)       = (h(mx) - T(m)) / m,  T(m) = sum_{i=1..m-1} H(x, i*x)

where T follows the binary digits of m, T(2j) = 2 T(j) + H(jx, jx) and
T(j + 1) = T(j) + H(jx, x), in about 2 log2(m) kernel terms.  The two
engines differ only in the choice of m:

  euclid-chain   m = floor(n/p) for x = p/n, so mx = 1 - p'/n with
                 p' = n mod p, reflected to p'/n: the quotient chain of
                 p/n, until the remainder vanishes (mx = 1).
  dyadic         m = 2, T(2) = H(x, x), descending to 1/2 (power-of-two
                 denominators only).

One evaluator serves single keys and tables alike, key by key: for
|r| = k + s, h(k) along the binary digits of k, h(s) down its line of
parents to a cached value and back up, then H(k, s) and H(|r|, -|r|).

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

from .expressions import EvaluationError, FuncSpec, _i_sub
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

# grid_keys refuses grids larger than this many keys.
MAX_GRID_KEYS = 10**6

# The finest dyadic grid: above it no key k/2^L with k odd is a float, so
# F would be called at rounded points.
MAX_DYADIC_LEVEL = 1074

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


def _lattice_term(F, f00: float):
    """term(a, b, c, d) = H(a/b, c/d) for a, c != 0, pairs not necessarily
    reduced, with F called by the rule of ``expressions._scalar``: the one
    place where F's EvaluationError or a non-finite H becomes an error at
    the lattice point.  Other exceptions of a plain callable pass as they are."""
    call = F._compiled[0] if type(F) is FuncSpec else lambda x, y: float(F(x, y))
    isfinite = math.isfinite

    def term(a: int, b: int, c: int, d: int) -> float:
        x, y = a / b, c / d
        try:
            val = call(x, y) - f00
        except EvaluationError as exc:  # its reason, without the float point
            raise EvaluationError(f"F not evaluable at lattice point ({Fraction(a, b)}, "
                                  f"{Fraction(c, d)}): {exc.__cause__ or exc}", point=(x, y)) from exc
        if isfinite(val):
            return val
        raise EvaluationError(f"F non-finite at lattice point ({Fraction(a, b)}, {Fraction(c, d)})",
                              point=(x, y))

    return term


class LatticeSolver:
    """Shared evaluation state for one kernel F.

    Exact points are reduced integer pairs (num, den) with den > 0, and F
    gets each one as the float num / den.  Every kernel term is one call
    of ``_term`` (``_lattice_term``), the one place where F's failure
    becomes an error at its lattice point.  One evaluator (``_values``)
    serves ``h`` and ``reconstruct_table``, and caches h per engine at
    every nonnegative key and node by its pair, so a table and the single
    keys after it share the cache; no Fraction is built below the public
    methods.  H is not cached, and a recomputed value is the same float;
    an odd integer 2m + 1 builds on h(2m), so an integer grid asks for
    each H(m, m) once.  Reads and single-key insertions on the h caches
    are atomic under the interpreter lock, so a solver may be shared
    across threads that only query values; the bounds of
    reconstruct_point are per kernel (``_BOUNDS``), not per solver, and
    safe to share in the same way.  A step h(x) = (h(mx) - T(m)) / m
    takes its row T(m) in O(log m) kernel terms (``_row_sum``), so a key
    p/n costs O(log n) terms per step of its quotient chain.
    """

    def __init__(self, F):
        self.F = F
        self.F00 = float(F(0.0, 0.0))
        self._term = _lattice_term(F, self.F00)
        self._h: dict[str, dict[tuple[int, int], float]] = {e: {} for e in ENGINES}
        self._bounds = None  # F's _BOUNDS entry, read on the first _h_bound call

    # -- kernel access --

    def H(self, x: Fraction, y: Fraction) -> float:
        """H(x, y) = F(x, y) - F(0, 0) at exact points."""
        x, y = Fraction(x), Fraction(y)
        if not (x and y):
            return 0.0  # H(x, 0) = H(0, y) = 0 for any cocycle
        return self._term(x.numerator, x.denominator, y.numerator, y.denominator)

    def _row_sum(self, a: int, b: int, m: int, t: float) -> float:
        # T(m) = sum_{i=1..m-1} H(x, i*x) for x = a/b and m > 2, from
        # t = T(2) = H(x, x), along the binary digits of m by the cocycle
        # relation T(j + c) = T(j) + T(c) + H(jx, cx): c = j doubles j
        # while j is m's leading digits (m >> s), and c = 1 adds the next
        # digit where it is 1
        term, j, s = self._term, 2, m.bit_length() - 2
        while j < m:
            c = j if j == m >> s else 1
            t = (2.0 * t if c > 1 else t) + term(j * a, b, c * a, b)
            s -= c > 1
            j += c
        return t

    # -- h at rationals --

    def h(self, r: Fraction, engine: str = "euclid-chain") -> float:
        r = Fraction(r)
        key = (r.numerator, r.denominator)
        _check_engine(engine, [key])
        return self._values([key], engine)[0]

    def _values(self, pairs: list[tuple[int, int]], engine: str) -> list[float]:
        # h at each key (num, den), in order.  For |r| = k + s: h(k); h(s),
        # down its line of parents (1 - x on (1/2, 1), mx on (0, 1/2)) to a
        # cached value, 1/2 or 1, then back up; H(k, s); and H(|r|, -|r|)
        # for r < 0: the order in which a recursion on the identities calls
        # F.  Each term is one _term call, which raises at its lattice
        # point.  h is cached at every nonnegative key and node.
        term, cache, dyadic, out = self._term, self._h[engine], engine == "dyadic", []
        for num, den in pairs:
            n = -num if num < 0 else num
            hv = cache.get((n, den))
            if hv is None:
                k, s = divmod(n, den)
                hv = cache.get((k, 1)) if k > 1 else 0.0
                if hv is None:
                    hv = self._integer(k, cache)
                # for k = 0 the key is (s, den), just looked up
                hs = cache.get((s, den)) if k and s else None if s else 0.0
                if hs is None:
                    path, node = [], (s, den)
                    while hs is None:
                        path.append(node)
                        p, q = node
                        if 2 * p == q:
                            break
                        node = (q - p, q) if 2 * p > q else (p, q >> 1) if dyadic else _multiple(p, q)
                        hs = cache.get(node) if node[1] > 1 else 0.0  # h(1) = 0
                    for node in reversed(path):
                        p, q = node
                        if 2 * p > q:  # h(x) = -h(1-x) - H(x, 1-x)
                            hs = -hs - term(p, q, q - p, q)
                        else:
                            # h(x) = (h(mx) - T(m)) / m, m = 2 on the dyadic
                            # engine; h(1/2) = -T(2) / 2, T(2) = H(x, x)
                            t = term(p, q, p, q)
                            m = 2 if dyadic else q // p
                            if m > 2:
                                t = self._row_sum(p, q, m, t)
                            hs = (hs - t) / m if 2 * p < q else -t / 2.0
                        cache[node] = hs
                if k and s:  # h(k + s) = h(k) + h(s) + H(k, s)
                    cache[n, den] = hv = hv + hs + term(k, 1, s, den)
                elif s:
                    hv = hs
            if num < 0:  # h(-r) = -h(r) - H(r, -r)
                hv = -hv - term(n, den, num, den)
            out.append(hv)
        return out

    def _integer(self, k: int, cache: dict) -> float:
        # h(k) for an integer k >= 2, along its binary digits, down to a
        # cached value or h(1) = 0: h(2m) = 2 h(m) + H(m, m) and
        # h(m + 1) = h(m) + H(1, m), so h(2m + 1) reuses h(2m)
        path, hv = [], None
        while hv is None:
            path.append(k)
            k = k - 1 if k & 1 else k >> 1
            hv = cache.get((k, 1)) if k > 1 else 0.0
        for k in reversed(path):
            a, c = (1, k - 1) if k & 1 else (k >> 1, k >> 1)
            t = self._term(a, 1, c, 1)
            cache[k, 1] = hv = hv + t if k & 1 else 2.0 * hv + t
        return hv

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


def _multiple(p: int, n: int) -> tuple[int, int]:
    """m * p/n for m = floor(n/p), that is 1 - (n mod p)/n, reduced: the
    quotient chain of p/n goes on from its reflection (n mod p)/n."""
    rest = n % p
    g = math.gcd(rest, n)  # rest = 0 gives the pair (1, 1)
    return (n - rest) // g, n // g


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
        # with the key as p/n (format_rational's form) in t_exact; the
        # rows take one format call, as in to_json_text
        decimals = self._decimals()
        with_exact = None in decimals
        row = "%s,%.17g," if with_exact else "%s,%.17g"
        forms, args = ["t,f,t_exact" if with_exact else "t,f"], []
        for (num, den), dec, v in zip(self.keys.pairs, decimals, self.values):
            if dec is None:
                forms.append("%.17g,%.17g,%d/%d")
                args += (num / den, v, num, den)
            else:
                forms.append(row)
                args += (_decimal_text(num, *dec), v)
        return "\n".join(forms) % tuple(args) + "\n"

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

    The keys are evaluated in order by the evaluator of
    ``LatticeSolver.h``, so each value is h's, and an error names the
    first lattice point at which F fails.  A shared ``solver`` lends its
    cache, and keeps h at the table's nonnegative keys."""
    solver = solver or LatticeSolver(F)
    grid = KeyGrid.of(keys)
    _check_engine(engine, grid.pairs)
    f00 = solver.F00
    return ReconstructedFunction(
        keys=grid,
        values=[hv - f00 for hv in solver._values(grid.pairs, engine)],
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
