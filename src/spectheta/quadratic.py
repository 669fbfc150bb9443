"""Exact arithmetic in real quadratic extensions Q(sqrt(d)).

A QuadExt is a + b*sqrt(d) with rational a, b and squarefree d >= 1.
Construction normalizes: square factors of d fold into b, b == 0 forces
d = 1, and d = 1 folds into a.  Two normalized values are equal iff their
components match, so __eq__ is structural.

Values support +, * and == between QuadExts and an exact sign(); no
floats are consulted.  There is no ordering, so < raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def squarefree_part(d: int) -> tuple[int, int]:
    """Split d >= 1 as s*s * d0 with d0 squarefree; returns (s, d0)."""
    if d < 1:
        raise ValueError("need d >= 1")
    s = 1
    d0 = d
    f = 2
    while f * f <= d0:
        while d0 % (f * f) == 0:
            d0 //= f * f
            s *= f
        f += 1
    return s, d0


class QuadExt:
    """Element a + b*sqrt(d) of a real quadratic field."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational = 0, b: Rational = 0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 1
        else:
            s, d0 = squarefree_part(d)
            b *= s
            d = d0
            if d == 1:
                a += b
                b = Fraction(0)
        self.a = a
        self.b = b
        self.d = d

    def _compatible(self, other: "QuadExt") -> int:
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")
        return self.d if self.b != 0 else other.d

    def __add__(self, other: "QuadExt") -> "QuadExt":
        d = self._compatible(other)
        return QuadExt(self.a + other.a, self.b + other.b, d)

    def __mul__(self, other: "QuadExt") -> "QuadExt":
        d = self._compatible(other)
        # (a1 + b1 r)(a2 + b2 r) with r*r = d
        return QuadExt(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        # compare a against -b*sqrt(d); both sides squared with care
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a*a with b*b*d
        lhs = a * a
        rhs = b * b * d
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        if a > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __float__(self) -> float:
        import math

        return float(self.a) + float(self.b) * math.sqrt(self.d)


def largest_root_of_monic_quadratic(b: Rational, c: Rational) -> QuadExt:
    """Larger root of x*x + b*x + c, exact; disc must be nonnegative."""
    b = Fraction(b)
    c = Fraction(c)
    disc = b * b - 4 * c
    if disc < 0:
        raise ValueError("complex roots")
    if disc == 0:
        return QuadExt(-b / 2)
    num = disc.numerator * disc.denominator
    scale = Fraction(1, 2 * disc.denominator)
    return QuadExt(-b / 2, scale, num)
