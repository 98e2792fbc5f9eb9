from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle import (
    euclid_chain,
    format_rational,
    parse_rational,
    reconstruct_point,
)
from cocycle.continuous import _dyadic_round


class TestReduce:
    """Parsed rationals come back in lowest terms, denominator positive."""

    def test_gcd_cancellation(self):
        r = parse_rational("4/6")
        assert (r.numerator, r.denominator) == (2, 3)

    def test_zero_numerator(self):
        r = parse_rational("0/5")
        assert (r.numerator, r.denominator) == (0, 1)

    def test_sign_moves_to_numerator(self):
        r = parse_rational("-3/9")
        assert (r.numerator, r.denominator) == (-1, 3)

    def test_zero_denominator_rejected(self):
        # ValueError, not the ZeroDivisionError Fraction(0, 0) raises
        with pytest.raises(ValueError):
            parse_rational("0/0")

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(1, 1000))
    @settings(max_examples=100, deadline=None)
    def test_scaling_invariance(self, num, den, k):
        assert parse_rational(f"{num * k}/{den * k}") == parse_rational(f"{num}/{den}")


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/4", Fraction(3, 4)),
            ("-2/5", Fraction(-2, 5)),
            ("+1/2", Fraction(1, 2)),
            ("7", Fraction(7)),
            ("-0", Fraction(0)),
            ("6/4", Fraction(3, 2)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "a/b", "1 / 2", "", "1/2/3", "2e3", "1/-2"])
    def test_invalid_syntax(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_format_round_trip(self):
        for r in (Fraction(3, 7), Fraction(-1, 3), Fraction(5)):
            assert parse_rational(format_rational(r)) == r


class TestEuclidChain:
    @pytest.mark.parametrize(
        "r,steps",
        [
            (Fraction(2, 5), ((2, 1), (5, 0))),
            (Fraction(1, 3), ((3, 0),)),
            (Fraction(3, 7), ((2, 1), (7, 0))),
        ],
    )
    def test_known_chains(self, r, steps):
        chain = euclid_chain(r)
        assert chain.n == r.denominator
        assert chain.steps == steps

    @pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 2), Fraction(3, 5), Fraction(-1, 4), Fraction(2)])
    def test_domain_errors(self, r):
        with pytest.raises(ValueError):
            euclid_chain(r)

    @given(st.integers(2, 500), st.integers(1, 10**4))
    @settings(max_examples=150, deadline=None)
    def test_chain_invariants(self, p, n_seed):
        # draw a reduced p/n strictly inside (0, 1/2)
        n = 2 * p + 1 + (n_seed % (8 * p))
        g = math.gcd(p, n)
        p, n = p // g, n // g
        if p == 0 or 2 * p >= n:
            return
        chain = euclid_chain(Fraction(p, n))
        rems = [p] + [nxt for _, nxt in chain.steps]
        assert rems[0] == p and rems[-1] == 0
        assert all(a > b for a, b in zip(rems, rems[1:]))
        quots = [m for m, _ in chain.steps]
        assert quots[0] >= 2
        assert all(a <= b for a, b in zip(quots, quots[1:]))
        for (m, nxt), cur in zip(chain.steps, rems):
            assert n == m * cur + nxt


def _nearest_dyadic(t: float, level: int) -> Fraction:
    # exact reference: nearest multiple of 2**-level, ties rounding down
    scaled = Fraction(t) * 2**level
    num = math.floor(scaled)
    if scaled - num > Fraction(1, 2):
        num += 1
    return Fraction(num, 2**level)


def _approximant(t: float, level: int) -> Fraction:
    # _dyadic_round at t = num / 2**shift, as reconstruct_point calls it
    num, den = t.as_integer_ratio()
    return Fraction(_dyadic_round(num, den.bit_length() - 1, level), 1 << level)


class TestApproximants:
    """Dyadic approximants of a real target, as the real-point limit
    takes them (``_dyadic_round``)."""

    def test_dyadic_exact_target(self):
        assert [_approximant(0.75, j) for j in (1, 2, 3)] == [
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(3, 4),
        ]

    @pytest.mark.parametrize(
        "t,level,want",
        [
            (0.375, 2, Fraction(1, 4)),
            (-0.375, 2, Fraction(-1, 2)),
            (0.5, 0, Fraction(0)),
            (-0.5, 0, Fraction(-1)),
        ],
    )
    def test_ties_round_down(self, t, level, want):
        assert _approximant(t, level) == want

    def test_dyadic_error_bound(self):
        t = math.pi / 4
        for j in range(1, 21):
            q = _approximant(t, j)
            assert abs(t - float(q)) <= 2.0 ** -(j + 1) + 1e-18
            assert q.denominator <= 2**j

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_rounding(self, t, level):
        q = _approximant(t, level)
        assert q == _nearest_dyadic(t, level)
        assert abs(Fraction(t) - q) <= Fraction(1, 2 ** (level + 1))
        assert q.denominator <= 2**level

    def test_rejects_nonfinite(self):
        # a non-finite target has no dyadic approximants
        with pytest.raises(ValueError):
            reconstruct_point(lambda x, y: 2.0 * x * y, math.inf)
