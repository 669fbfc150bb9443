"""Integer polynomials with exact evaluation and exactly isolated real roots.

Coefficients are stored ascending (coeffs[k] multiplies x**k) as Python
ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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

    def __mul__(self, other: "Polynomial") -> "Polynomial":
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

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])


def _pseudo_divmod(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    """q, r with |lc g|**(deg f - deg g + 1) * f = q*g + r and deg r < deg g.

    The scale is positive, so r keeps the signs of the rational
    remainder; when deg f < deg g, q is 0 and r is f.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    a, sgn = abs(g.coeffs[-1]), (1 if g.coeffs[-1] > 0 else -1)
    rem, low = list(f.coeffs), g.coeffs[:-1]
    quot = [0] * max(len(rem) - len(low), 0)
    for k in range(len(quot) - 1, -1, -1):
        c = sgn * rem.pop()
        quot = [a * x for x in quot]
        quot[k] = c
        rem = [a * x for x in rem]
        for i, d in enumerate(low):
            rem[i + k] -= c * d
    return Polynomial(quot), Polynomial(rem)


def divides_exactly(g: Polynomial, f: Polynomial) -> bool:
    """True when g divides f, that is when the pseudo-remainder is zero."""
    if g.is_zero():
        return f.is_zero()
    return _pseudo_divmod(f, g)[1].is_zero()


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """1 + max |c_k / c_deg|; every real root lies strictly inside this radius."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    lead = abs(p.coeffs[-1])
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def _primitive(p: Polynomial) -> Polynomial:
    """p divided by the gcd of its coefficients."""
    g = math.gcd(*p.coeffs) or 1
    return Polynomial([c // g for c in p.coeffs])


def _derivative(p: Polynomial) -> Polynomial:
    return Polynomial([k * c for k, c in enumerate(p.coeffs)][1:])


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    """Sturm chain of the squarefree part of p, every member integral."""
    g, h = p, _derivative(p)
    while not h.is_zero():  # Euclid: g ends as gcd(p, p')
        g, h = h, _primitive(_pseudo_divmod(g, h)[1])
    chain = [_primitive(_pseudo_divmod(p, g)[0])]
    chain.append(_derivative(chain[0]))
    while chain[-1].degree > 0:
        chain.append(_primitive(-_pseudo_divmod(chain[-2], chain[-1])[1]))
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


# the largest float F, and T = F + ulp(F)/2, from which a real rounds to inf
_FLOAT_MAX = (2**53 - 1) << 971
_ROUNDS_TO_INF = _FLOAT_MAX + (1 << 970)

# a float Newton descent from the Cauchy radius needs about
# deg * log(radius / root) steps; past this the hint is left as it is
_NEWTON_STEPS = 200


def _newton_hint(p: Polynomial, e: int) -> float:
    """Float Newton steps on p from 2**e, stopped when a step fails to
    descend; NaN when 2**e or a coefficient overflows a float.  Only a
    hint."""
    try:
        x = math.ldexp(1.0, e)
        cs = [float(c) for c in reversed(p.coeffs)]
    except OverflowError:
        return math.nan
    for _ in range(_NEWTON_STEPS):
        v = dv = 0.0
        for c in cs:
            dv = dv * x + v
            v = v * x + c
        if not dv:
            break
        step = x - v / dv
        if not step < x:
            break
        x = step
    return x


def largest_real_root(p: Polynomial) -> float:
    """Largest real root of p, correctly rounded to a float.

    The root is isolated exactly on dyadic rationals with the Sturm
    chain of the squarefree part of p, so roots of any multiplicity
    count and every variation count is exact, even at a root.  A float
    Newton descent from B = 2**e, above the Cauchy bound, gives a hint
    g that is never trusted: the bracket (lo, hi] = (c - w, c + w] / 2**k
    around it, with c / 2**k = g at the grid of g's last bit, is accepted
    only when the Sturm counts put no root in (hi, B] and at least one
    in (lo, B]; otherwise w grows 16-fold, capped at [-B, B].  Bisection
    then keeps both properties and stops when lo and hi round to the
    same float, which by monotone rounding is the root rounded.  Raises
    ValueError when p has no real root, and OverflowError when the root
    rounds to an infinity.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    chain = _sturm_chain(p)
    # variations at +inf and -inf, read off the leading coefficients;
    # no root lies above B, so top is the count at B too
    top = _variations([s.coeffs[-1] for s in chain])
    if _variations([s.coeffs[-1] * (-1) ** s.degree for s in chain]) == top:
        raise ValueError("no real root")
    e = math.ceil(cauchy_root_bound(p)).bit_length()
    g = _newton_hint(chain[0], e)
    if math.isfinite(g) and abs(g) < (1 << e):
        k = max(53 - math.frexp(g)[1], 0)
        c, w = int(math.ldexp(g, k)), 2
    else:
        k, c, w = 0, 0, 1 << e
    while True:
        lo, hi = max(c - w, -(1 << (e + k))), min(c + w, 1 << (e + k))
        above_hi = _variations(_values_at(chain, hi, k))
        if above_hi == top and _variations(_values_at(chain, lo, k)) > top:
            break
        w *= 16
    # a bracket past +-F: settle the root against +-F and +-T
    if hi > _FLOAT_MAX << k:
        if _variations(_values_at(chain, _FLOAT_MAX, 0)) > top:  # root > F
            at_t = _values_at(chain, _ROUNDS_TO_INF, 0)
            if _variations(at_t) > top or at_t[0] == 0:
                raise OverflowError("largest real root is above the float range")
            return float(_FLOAT_MAX)
        hi = _FLOAT_MAX << k
    if lo < -_FLOAT_MAX << k:
        if _variations(_values_at(chain, -_FLOAT_MAX, 0)) == top:  # root <= -F
            if _variations(_values_at(chain, -_ROUNDS_TO_INF, 0)) == top:
                raise OverflowError("largest real root is below the float range")
            return -float(_FLOAT_MAX)
        lo = -_FLOAT_MAX << k
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
