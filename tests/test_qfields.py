"""Exact scalar arithmetic: rationals and quadratic extensions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oscurve.errors import ExtensionMismatchError
from oscurve.qfields import (
    QQ,
    QuadExt,
    QuadraticField,
    make_quadratic,
    rational_sqrt,
    squarefree_core,
)
from oscurve.rings import PolyRing

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_rational_basics():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(2, 4).denominator == 2  # always reduced
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


@given(rationals)
def test_rational_negation_cancels(a):
    assert a + (-a) == Fraction(0)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


def test_quadext_gaussian_units():
    i = QuadExt(0, 1, -1)
    assert (QuadExt(1, 1, -1)) * (QuadExt(1, -1, -1)) == Fraction(2)
    assert i * i == Fraction(-1)


def test_quadext_inverse_of_one_plus_sqrt2():
    x = QuadExt(1, 1, 2)
    inv = 1 / x
    # check by multiplying back
    assert inv * x == Fraction(1)
    assert inv == QuadExt(-1, 1, 2)


def test_quadext_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 2) / QuadExt(0, 0, 2)


def test_mismatched_tags_refuse_to_combine():
    with pytest.raises(ExtensionMismatchError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    # purely rational elements retag freely
    assert QuadExt(5, 0, 2) + QuadExt(0, 1, 3) == QuadExt(5, 1, 3)


def test_squarefree_normalization():
    core, scale = squarefree_core(Fraction(8))
    assert core == 2 and scale == 2
    core, scale = squarefree_core(Fraction(-9, 4))
    assert core == -1 and scale == Fraction(3, 2)
    assert make_quadratic(1, 2, Fraction(9, 4)) == Fraction(4)
    assert make_quadratic(0, 1, 8) == QuadExt(0, 2, 2)


def test_normalization_idempotent():
    x = make_quadratic(Fraction(1, 3), Fraction(2, 5), 12)
    assert isinstance(x, QuadExt)
    again = make_quadratic(x.a, x.b, x.d)
    assert again == x


@given(small_rationals, small_rationals, small_rationals, small_rationals)
@settings(max_examples=60)
def test_norm_is_multiplicative(a1, b1, a2, b2):
    x = QuadExt(a1, b1, 5)
    y = QuadExt(a2, b2, 5)
    assert (x * y).norm() == x.norm() * y.norm()


@given(small_rationals, small_rationals, small_rationals, small_rationals)
@settings(max_examples=40)
def test_quadext_field_axioms(a1, b1, a2, b2):
    x = QuadExt(a1, b1, -1)
    y = QuadExt(a2, b2, -1)
    assert x + y == y + x
    assert x * y == y * x
    if y:
        assert (x / y) * y == x


def test_quadratic_field_sqrt():
    K = QuadraticField(-1)
    assert K.sqrt(Fraction(-4)) == QuadExt(0, 2, -1)
    assert K.sqrt(Fraction(4)) == QuadExt(2, 0, -1)
    assert K.sqrt(QuadExt(0, 2, -1)) == QuadExt(1, 1, -1)  # sqrt(2i) = 1 + i
    assert K.sqrt(QuadExt(0, 1, -1) + 5) is None  # sqrt(5 + i) needs a bigger field
    assert QuadraticField(8).d == 2


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_textual_forms():
    assert str(Fraction(5, 6)) == "5/6"
    assert str(QuadExt(1, -2, 5)) == "1 - 2*sqrt(5)"
    assert str(QuadExt(0, 1, -1)) == "sqrt(-1)"

    def parse(text, d):
        return PolyRing(("x",), QuadraticField(d)).parse(text).constant_term()

    assert parse("3/4", 5) == Fraction(3, 4)
    assert parse("1 - 2*sqrt(5)", 5) == QuadExt(1, -2, 5)
    assert parse("sqrt(-1)", -1) == QuadExt(0, 1, -1)


def test_field_descriptors():
    assert QQ.coerce("7/2") == Fraction(7, 2)
    K = QuadraticField(-1)
    assert K.coerce(3) == QuadExt(3, 0, -1)
    with pytest.raises(ExtensionMismatchError):
        K.coerce(QuadExt(0, 1, 5))


# -- tags with a square factor above the trial bound ----------------------------

# a prime above the trial bound of squarefree_core, so P^2 stays in a tag
P = 1000003
small_tags = st.integers(min_value=-30, max_value=30).filter(
    lambda d: d != 0 and rational_sqrt(Fraction(d)) is None
)


def test_large_square_factor_stays_in_the_tag():
    assert squarefree_core(Fraction(2 * P * P)) == (2 * P * P, 1)
    assert squarefree_core(Fraction(-P * P)) == (-1, P)
    assert str(make_quadratic(0, 1, 2 * P * P)) == f"sqrt({2 * P * P})"


@given(small_rationals, small_rationals, small_tags)
@settings(max_examples=60)
def test_retagged_values_are_equal(a, b, d):
    core, scale = squarefree_core(Fraction(d))
    x = make_quadratic(a, b, d * P * P)
    y = QuadExt(a, b * P * scale, core)
    assert x == y and y == x
    assert hash(x) == hash(y)


@given(small_rationals, small_rationals, small_rationals, small_rationals, small_tags)
@settings(max_examples=60)
def test_arithmetic_across_tags_of_one_field(a1, b1, a2, b2, d):
    core, scale = squarefree_core(Fraction(d))
    x = make_quadratic(a1, b1, d * P * P)
    x_core = QuadExt(a1, b1 * P * scale, core)  # the same value over the small tag
    y = QuadExt(a2, b2, core)
    assert x + y == x_core + y and y + x == x_core + y
    assert x - y == x_core - y and y - x == y - x_core
    assert x * y == x_core * y and y * x == x_core * y
    if y:
        assert x / y == x_core / y
    if x:
        assert y / x == y / x_core


@given(small_tags)
@settings(max_examples=30)
def test_quadratic_fields_with_different_tags_are_equal(d):
    K_big, K = QuadraticField(d * P * P), QuadraticField(d)
    # -P^2 times a square is a square times -1, which folds into the scale
    assert K_big.d == (K.d if K.d == -1 else K.d * P * P)
    assert K_big == K and K == K_big
    assert hash(K_big) == hash(K)
    core, scale = squarefree_core(Fraction(d))
    x = QuadExt(1, P * scale, core)
    over_big = K_big.coerce(x)
    assert over_big.d == K_big.d and over_big == x
    back = K.coerce(over_big)
    assert back.d == K.d and back == x


def test_sqrt_literal_with_a_large_square_factor_parses():
    from oscurve.rings import PolyRing

    ring = PolyRing(("x",), QuadraticField(2))
    assert ring.parse(f"sqrt({2 * P * P})*x") == ring.parse(f"{P}*sqrt(2)*x")


def test_different_fields_still_refuse_to_combine():
    with pytest.raises(ExtensionMismatchError):
        make_quadratic(0, 1, 2) + make_quadratic(0, 1, 3)
    with pytest.raises(ExtensionMismatchError):
        make_quadratic(0, 1, 2) + make_quadratic(0, 1, -2)
    with pytest.raises(ExtensionMismatchError):
        make_quadratic(0, 1, 2 * P * P) * make_quadratic(0, 1, 3)
    assert QuadraticField(2) != QuadraticField(-2)
    assert make_quadratic(0, 1, 2) != make_quadratic(0, 1, -2)
    with pytest.raises(ExtensionMismatchError):
        QuadraticField(2 * P * P).coerce(make_quadratic(0, 1, 3))
