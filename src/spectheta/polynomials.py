"""Integer polynomials with exact evaluation and exactly isolated real roots.

Coefficients are stored ascending (coeffs[k] multiplies x**k) as Python
ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .quadratic import QuadExt


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be ints")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def true_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c) for c in self.coeffs)

    def eval_fraction(self, x: Union[int, Fraction]) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_quad(self, x: QuadExt) -> QuadExt:
        acc = QuadExt(0, 0, 1)
        for c in reversed(self.coeffs):
            acc = acc * x + QuadExt(c)
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def _combine(self, other: "Polynomial", sgn: int) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = [0] * max(len(self.coeffs), len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += sgn * c
        return Polynomial(out)

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial([other * c for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        body = " + ".join(parts).replace("+ -", "- ")
        return f"Polynomial({body})"


def poly_divmod_exact(
    f: Polynomial, g: Polynomial
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Quotient and remainder of f by g over the rationals, ascending."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(f.true_coeffs())
    div = list(g.true_coeffs())
    dq = len(rem) - len(div)
    if dq < 0:
        return (Fraction(0),), (tuple(rem) if rem else (Fraction(0),))
    quot = [Fraction(0)] * (dq + 1)
    lead = div[-1]
    for k in range(dq, -1, -1):
        c = rem[len(div) - 1 + k] / lead
        quot[k] = c
        if c:
            for i, d in enumerate(div):
                rem[i + k] -= c * d
    tail = rem[: len(div) - 1]
    while tail and tail[-1] == 0:
        tail.pop()
    return tuple(quot), (tuple(tail) if tail else (Fraction(0),))


def divides_exactly(g: Polynomial, f: Polynomial) -> bool:
    """True when g divides f with zero remainder over the rationals."""
    if g.is_zero():
        return f.is_zero()
    _, rem = poly_divmod_exact(f, g)
    return all(c == 0 for c in rem)


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """1 + max |c_k / c_deg|; every real root lies strictly inside this radius."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    lead = abs(p.coeffs[-1])
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def _integral(cs: Sequence[Fraction]) -> Polynomial:
    """cs times a positive rational, with coprime integer coefficients."""
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*ints) or 1
    return Polynomial([c // g for c in ints])


def _derivative(p: Polynomial) -> Polynomial:
    return Polynomial([k * c for k, c in enumerate(p.coeffs)][1:])


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    """Sturm chain of the squarefree part of p, every member integral."""
    g, h = p, _derivative(p)
    while not h.is_zero():  # Euclid: g ends as gcd(p, p')
        g, h = h, _integral(poly_divmod_exact(g, h)[1])
    chain = [_integral(poly_divmod_exact(p, g)[0])]
    chain.append(_derivative(chain[0]))
    while chain[-1].degree > 0:
        _, rem = poly_divmod_exact(chain[-2], chain[-1])
        chain.append(_integral([-c for c in rem]))
    return chain


def _values_at(chain: list[Polynomial], a: int, k: int) -> list[int]:
    """2**(k*deg s) * s(a / 2**k) for each s in chain: same signs, no division."""
    out = []
    for s in chain:
        acc = 0
        for j, c in enumerate(reversed(s.coeffs)):
            acc = acc * a + (c << (k * j))
        out.append(acc)
    return out


def _variations(values: list[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def largest_real_root(p: Polynomial) -> float:
    """Largest real root of p, correctly rounded to a float.

    The root is isolated exactly by bisection on dyadic rationals with
    the Sturm chain of the squarefree part of p, so roots of any
    multiplicity count and every variation count is exact, even at a
    root.  With B = 2**e above the Cauchy bound, the bisection keeps no
    root in (hi, B] and at least one in (lo, B]; it stops when lo and hi
    round to the same float, which by monotone rounding is the root
    rounded.  Raises ValueError when p has no real root.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    chain = _sturm_chain(p)
    e = math.ceil(cauchy_root_bound(p)).bit_length()
    lo, hi, k = -(1 << e), 1 << e, 0
    top = _variations(_values_at(chain, hi, 0))
    if _variations(_values_at(chain, lo, 0)) == top:
        raise ValueError("no real root")
    while lo / (1 << k) != hi / (1 << k):
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        values = _values_at(chain, mid, k)
        if _variations(values) > top:
            lo = mid
        elif values[0] == 0:
            return mid / (1 << k)
        else:
            hi = mid
    return hi / (1 << k)
