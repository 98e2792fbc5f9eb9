"""Exact rationals: parsing, formatting and quotient chains.

The public API takes and returns plain ``fractions.Fraction`` values.
Below it the lattice solver and the sample tables key by reduced integer
pairs (num, den) with den > 0, so neither a Fraction nor a float is ever
used to identify a lattice point there.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?\Z")

__all__ = [
    "EuclidChain",
    "parse_rational",
    "format_rational",
    "euclid_chain",
]


def parse_rational(text: str) -> Fraction:
    """Parse 'p/n' or a bare integer; optional sign, no whitespace."""
    if not _RATIONAL_PATTERN.match(text):
        raise ValueError(f"invalid rational literal {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError("denominator must be nonzero")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(r: Fraction) -> str:
    """Render as 'p/n' (denominator kept even when it is 1).

    The one text form of an exact key in CSV, JSON and NDJSON output, and
    the inverse of ``parse_rational``.
    """
    return f"{r.numerator}/{r.denominator}"


class EuclidChain(NamedTuple):
    """Quotient chain of a reduced fraction p/n in (0, 1/2).

    Step j records (m_j, p_{j+1}) where m_j = floor(n / p_j) and
    p_{j+1} = n mod p_j.  The dividend n is fixed: every step divides the
    same n by the current remainder, so remainders strictly decrease to 0
    and quotients never decrease.  On (0, 1/2) the first quotient is >= 2.
    """

    n: int
    steps: tuple[tuple[int, int], ...]


def euclid_chain(r: Fraction) -> EuclidChain:
    """Quotient chain for r = p/n in the open interval (0, 1/2).

    Repeatedly divides the fixed n by the current remainder:
    m_j = floor(n / p_j), p_{j+1} = n - m_j * p_j, until the remainder
    hits zero.  Raises ValueError outside the domain.
    """
    r = Fraction(r)
    if not 0 < r < Fraction(1, 2):
        raise ValueError(f"chain domain is (0, 1/2), got {r}")
    n = r.denominator
    p = r.numerator
    steps: list[tuple[int, int]] = []
    while p:
        m, p = divmod(n, p)
        steps.append((m, p))
    return EuclidChain(n, tuple(steps))
