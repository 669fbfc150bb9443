from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spectheta.quadratic import (
    QuadExt,
    largest_root_of_monic_quadratic,
    squarefree_part,
)

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 13, 17])


def test_squarefree_part_examples():
    assert squarefree_part(12) == (2, 3)
    assert squarefree_part(49) == (7, 1)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(360) == (6, 10)


def test_normalization_folds_square_factors():
    assert QuadExt(0, 2, 8) == QuadExt(0, 4, 2)
    assert QuadExt(3, 5, 4) == QuadExt(13)  # 3 + 5*sqrt(4) = 13
    assert QuadExt(1, 0, 7) == QuadExt(1)


@given(fractions, fractions, fractions, fractions, radicands)
def test_field_arithmetic_matches_floats(a1, b1, a2, b2, d):
    x = QuadExt(a1, b1, d)
    y = QuadExt(a2, b2, d)
    assert abs(float(x + y) - (float(x) + float(y))) < 1e-6
    assert abs(float(x * y) - float(x) * float(y)) < 1e-5
    assert abs(float(x - y) - (float(x) - float(y))) < 1e-6


def test_sign_is_exact_where_floats_tie():
    # 665857/470832 is a continued-fraction convergent sitting about
    # 1.6e-12 above sqrt(2); this sign is invisible at float precision
    close = QuadExt(Fraction(665857, 470832), -1, 2)
    assert close.sign() == 1
    assert QuadExt(Fraction(-665857, 470832), 1, 2).sign() == -1
    assert QuadExt(0, 0, 2).sign() == 0
    assert QuadExt(-3, 1, 2).sign() == -1  # sqrt(2) < 3


def test_ordering_and_comparison():
    vals = [QuadExt(1, 1, 2), QuadExt(0), QuadExt(2), QuadExt(0, 1, 2)]
    assert sorted(vals) == [QuadExt(0), QuadExt(0, 1, 2), QuadExt(2), QuadExt(1, 1, 2)]
    with pytest.raises(ValueError):  # mixed radicands have no exact comparison
        QuadExt(1, 1, 2) < QuadExt(1, 1, 3)


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    # rationals embed into any radicand
    assert QuadExt(1, 1, 2) + QuadExt(4) == QuadExt(5, 1, 2)
    assert QuadExt(2) * QuadExt(0, 1, 3) == QuadExt(0, 2, 3)


def test_int_and_fraction_coercion():
    x = QuadExt(0, 1, 5)
    assert 1 + x == QuadExt(1, 1, 5)
    assert x - Fraction(1, 2) == QuadExt(Fraction(-1, 2), 1, 5)
    assert 2 * x == QuadExt(0, 2, 5)


def test_largest_root_of_monic_quadratic():
    # x^2 - x - 42 factors; the root collapses to the rational 7
    assert largest_root_of_monic_quadratic(-1, -42) == QuadExt(7)
    golden = largest_root_of_monic_quadratic(-1, -1)
    assert golden == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert abs(float(golden) - 1.618033988749895) < 1e-12
    with pytest.raises(ValueError):
        largest_root_of_monic_quadratic(0, 1)  # negative discriminant


def test_hash_consistency_with_equality():
    assert hash(QuadExt(0, 2, 8)) == hash(QuadExt(0, 4, 2))
    assert hash(QuadExt(3, 5, 4)) == hash(QuadExt(13))
