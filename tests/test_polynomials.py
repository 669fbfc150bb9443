import hashlib
import math
import sys
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, strategies as st

from conftest import at
from spectheta.families import f_poly
from spectheta.polynomials import (
    Polynomial,
    _derivative,
    _pseudo_divmod,
    _sturm_chain,
    _values_at,
    _variations,
    cauchy_root_bound,
    divides_exactly,
    largest_real_root,
)
from spectheta.quadratic import QuadExt

coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=6)
points = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def test_construction_normalizes():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([]).degree == -1
    assert Polynomial([0]).is_zero()
    with pytest.raises(TypeError):
        Polynomial([1.5])


@given(coeff_lists, coeff_lists, points)
def test_ring_laws_at_points(cs, ds, x):
    f, g = Polynomial(cs), Polynomial(ds)
    assert at(f + g, x) == at(f, x) + at(g, x)
    assert at(f - g, x) == at(f, x) - at(g, x)
    assert at(f * g, x) == at(f, x) * at(g, x)


@given(coeff_lists, points)
def test_scalar_multiplication(cs, x):
    f = Polynomial(cs)
    assert at(f * Polynomial([3]), x) == 3 * at(f, x)
    assert at(-f, x) == -at(f, x)


@given(coeff_lists, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
def test_division_round_trip(cs, ds):
    f = Polynomial(cs)
    tail = Polynomial(ds)
    g = tail * Polynomial([0, 0, 1]) + Polynomial([1])  # nonzero by construction
    q, r = _pseudo_divmod(f, g)
    scale = abs(g.coeffs[-1]) ** max(f.degree - g.degree + 1, 0)
    assert f * Polynomial([scale]) == q * g + r
    assert r.degree < g.degree


def test_divides_exactly_on_products():
    f = Polynomial([-2, 0, 1]) * Polynomial([1, 1, 0, 3])
    assert divides_exactly(Polynomial([-2, 0, 1]), f)
    assert not divides_exactly(Polynomial([1, 1]), f)
    assert divides_exactly(Polynomial([2, 0, -1]), f)  # negative leading coefficient
    assert divides_exactly(Polynomial([-3, 0, 2]), Polynomial([-3, 0, 2]) * f)
    assert not divides_exactly(Polynomial([-3, 0, 2]), f)
    assert divides_exactly(Polynomial([1, 1]), Polynomial([0]))


def test_eval_quad_agrees_with_exact_arithmetic():
    p = Polynomial([-2, 0, 1])  # x^2 - 2
    assert p.eval_quad(QuadExt(0, 1, 2)) == QuadExt(0)
    q = Polynomial([1, -4, 1])  # x^2 - 4x + 1
    assert q.eval_quad(QuadExt(2, 1, 3)) == QuadExt(0)
    assert q.eval_quad(QuadExt(1, 1, 3)) == QuadExt(1, -2, 3)


def _from_roots(roots) -> Polynomial:
    p = Polynomial([1])
    for r in roots:
        p = p * Polynomial([-r, 1])
    return p


def _poly_divmod_exact(
    f: Polynomial, g: Polynomial
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Quotient and remainder of f by g over the rationals, ascending."""
    rem = [Fraction(c) for c in f.coeffs]
    div = [Fraction(c) for c in g.coeffs]
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


def _integral(cs: Sequence[Fraction]) -> Polynomial:
    """cs times a positive rational, with coprime integer coefficients."""
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*ints) or 1
    return Polynomial([c // g for c in ints])


def _reference_sturm_chain(p: Polynomial) -> list[Polynomial]:
    """The Sturm chain computed by division over the rationals."""
    g, h = p, _derivative(p)
    while not h.is_zero():
        g, h = h, _integral(_poly_divmod_exact(g, h)[1])
    chain = [_integral(_poly_divmod_exact(p, g)[0])]
    chain.append(_derivative(chain[0]))
    while chain[-1].degree > 0:
        _, rem = _poly_divmod_exact(chain[-2], chain[-1])
        chain.append(_integral([-c for c in rem]))
    return chain


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
)
def test_sturm_chain_matches_rational_reference(roots, extra, lead):
    # repeated integer roots, a factor with any leading coefficient
    # (negative ones included) and an arbitrary tail
    p = _from_roots(roots) * _from_roots(roots[:2]) * Polynomial(extra + [lead])
    assert _sturm_chain(p) == _reference_sturm_chain(p)


def test_sturm_chain_matches_rational_reference_on_the_quartics():
    for m in range(6, 4001, 2):
        p = f_poly(m, 1)
        assert _sturm_chain(p) == _reference_sturm_chain(p), m


# sha256 of the newline-joined float.hex() of largest_real_root(f_poly(m, 1))
# over even m = 6..4000, computed with division over the rationals
QUARTIC_ROOTS_SHA256 = "96a5ac537c604a606dc542eb4e7c072391c439ff1d2464986d5852b42a556140"


def test_quartic_roots_are_pinned():
    text = "\n".join(largest_real_root(f_poly(m, 1)).hex() for m in range(6, 4001, 2))
    assert hashlib.sha256(text.encode()).hexdigest() == QUARTIC_ROOTS_SHA256


def test_largest_real_root_known_values():
    assert largest_real_root(Polynomial([-2, 0, 1])) == math.sqrt(2)
    assert largest_real_root(Polynomial([6, -5, 1])) == 3.0
    # negative leading coefficient is normalized away
    assert largest_real_root(Polynomial([2, 0, -1])) == math.sqrt(2)
    # two roots closer than a grid cell, far from the rest
    assert largest_real_root(_from_roots([1, 1000, 1001])) == 1001.0
    # (x + 1)(x - 10)(1000x - 10001)
    cubic = Polynomial([1, 1]) * Polynomial([-10, 1]) * Polynomial([-10001, 1000])
    assert largest_real_root(cubic) == 10.001
    assert largest_real_root(_from_roots([3, 3, 3])) == 3.0
    # characteristic polynomial of 2*K3: the top root has even multiplicity
    assert largest_real_root(_from_roots([2, 2, -1, -1, -1, -1])) == 2.0


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
def test_largest_real_root_of_integer_roots_is_exact(roots):
    assert largest_real_root(_from_roots(roots)) == float(max(roots))


def _reference_largest_real_root(p: Polynomial) -> float:
    """The plain full-width Sturm bisection from [-B, B], with B = 2**e
    above the Cauchy bound: no root hint, no bracket."""
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


def _same_root_as_reference(p: Polynomial) -> None:
    try:
        want = _reference_largest_real_root(p)
    except ValueError:
        with pytest.raises(ValueError):
            largest_real_root(p)
        return
    assert largest_real_root(p).hex() == want.hex(), p


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=7),
    st.integers(-30, 30).filter(bool),
)
def test_largest_real_root_matches_full_width_bisection(tail, lead):
    # degree 1..7, any nonzero leading coefficient
    _same_root_as_reference(Polynomial(tail + [lead]))


@pytest.mark.parametrize(
    "p, root",
    [
        # x((x - 5)^2 + 1): the complex pair 5 +- i lies above the real
        # root, so the float Newton hint is no use
        (Polynomial([0, 26, -10, 1]), 0.0),
        # (x - 3)(2**60 x - (3 * 2**60 + 1)): two roots under one ulp apart
        (Polynomial([-3, 1]) * Polynomial([-(3 * 2**60 + 1), 2**60]), 3.0),
        # a root of multiplicity 4, under other roots
        (_from_roots([7, 7, 7, 7, -2, 5]), 7.0),
        # 10**400 x^2 - (3 * 10**400 + 1), primitive with a root just
        # above sqrt 3: float() of a coefficient overflows, so the
        # bracket starts at the full width [-B, B]
        (Polynomial([-(3 * 10**400 + 1), 0, 10**400]), math.sqrt(3)),
    ],
)
def test_largest_real_root_hard_cases(p, root):
    assert largest_real_root(p) == root
    _same_root_as_reference(p)


def test_largest_real_root_past_a_float_cauchy_radius():
    # the Cauchy radius 1 + 10**400 is past the float range, the root is not
    assert largest_real_root(Polynomial([-10**400, 0, 1])) == float(10**200)
    with pytest.raises(OverflowError):
        largest_real_root(Polynomial([-10**4000, 0, 1]))


FLOAT_MAX = int(sys.float_info.max)
# from FLOAT_MAX plus half its ulp on, a real rounds to inf
ROUNDS_TO_INF = FLOAT_MAX + (1 << 970)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize(
    "a",
    [FLOAT_MAX, FLOAT_MAX + 1, ROUNDS_TO_INF - 1, ROUNDS_TO_INF, 10**400],
    ids=["max", "above_max", "below_tie", "tie", "1e400"],
)
def test_largest_real_root_at_the_edge_of_the_float_range(a, sign):
    # float() of an int is correctly rounded and raises past the range
    p = Polynomial([-sign * a, 1])
    try:
        want = float(sign * a)
    except OverflowError:
        with pytest.raises(OverflowError):
            largest_real_root(p)
    else:
        assert largest_real_root(p) == want


def test_largest_real_root_requires_a_real_root():
    with pytest.raises(ValueError):
        largest_real_root(Polynomial([1, 0, 1]))  # x^2 + 1
    with pytest.raises(ValueError):
        largest_real_root(Polynomial([5]))


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=6))
def test_cauchy_bound_dominates_roots(cs):
    p = Polynomial(cs)
    if p.degree < 1:
        return
    bound = cauchy_root_bound(p)
    try:
        r = largest_real_root(p)
    except ValueError:
        return
    assert r <= bound + 1e-9
