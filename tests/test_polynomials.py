import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spectheta.polynomials import (
    Polynomial,
    cauchy_root_bound,
    divides_exactly,
    largest_real_root,
    poly_divmod_exact,
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
    assert (f + g).eval_fraction(x) == f.eval_fraction(x) + g.eval_fraction(x)
    assert (f - g).eval_fraction(x) == f.eval_fraction(x) - g.eval_fraction(x)
    assert (f * g).eval_fraction(x) == f.eval_fraction(x) * g.eval_fraction(x)


@given(coeff_lists, points)
def test_scalar_multiplication(cs, x):
    f = Polynomial(cs)
    assert (f * 3).eval_fraction(x) == 3 * f.eval_fraction(x)
    assert (-f).eval_fraction(x) == -f.eval_fraction(x)


def _eval_coeffs(cs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


@given(coeff_lists, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
def test_division_round_trip(cs, ds):
    f = Polynomial(cs)
    tail = Polynomial(ds)
    g = tail * Polynomial([0, 0, 1]) + Polynomial([1])  # nonzero by construction
    q, r = poly_divmod_exact(f, g)
    x = Fraction(3, 2)
    assert f.eval_fraction(x) == _eval_coeffs(q, x) * g.eval_fraction(x) + _eval_coeffs(r, x)
    assert len(r) - 1 < g.degree or all(c == 0 for c in r)


def test_divides_exactly_on_products():
    f = Polynomial([-2, 0, 1]) * Polynomial([1, 1, 0, 3])
    assert divides_exactly(Polynomial([-2, 0, 1]), f)
    assert not divides_exactly(Polynomial([1, 1]), f)
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


def test_repr_is_stable():
    assert "Polynomial" in repr(Polynomial([1, 2]))
