"""The polynomial scalar and its quotients: evaluation is a ring
homomorphism, Ratio arithmetic and equality, and printing."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aristotle_orbits.backend import exact_div
from aristotle_orbits.derive_law import VARIABLES, monomial_name
from aristotle_orbits.poly import Poly, Ratio, indeterminates

NAMES = ("u", "v", "w")

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_fractions = small_fractions.filter(bool)
exponents = st.tuples(*([st.integers(0, 2)] * len(NAMES)))
polys = st.dictionaries(exponents, nonzero_fractions, max_size=5).map(
    lambda terms: Poly(terms, NAMES))
points = st.tuples(*([small_fractions] * len(NAMES)))
scalars = st.one_of(st.integers(-5, 5), small_fractions)


@given(polys, polys, points)
@settings(max_examples=200)
def test_evaluate_commutes_with_ring_operations(a, b, point):
    value_a, value_b = a.evaluate(point), b.evaluate(point)
    assert (a + b).evaluate(point) == value_a + value_b
    assert (a - b).evaluate(point) == value_a - value_b
    assert (a * b).evaluate(point) == value_a * value_b
    assert (-a).evaluate(point) == -value_a


@given(polys, scalars, points)
@settings(max_examples=200)
def test_scalars_mix_in_on_either_side(a, c, point):
    value = a.evaluate(point)
    for result, expected in ((a + c, value + c), (c + a, c + value),
                             (a - c, value - c), (c - a, c - value),
                             (a * c, value * c), (c * a, c * value)):
        assert isinstance(result, Poly)
        assert result.evaluate(point) == expected
    assert a * c == c * a
    assert (a - c) + c == a


@given(polys, polys)
def test_equality_against_polynomials_and_zero(a, b):
    assert a - a == 0
    assert 0 == a - a
    assert (a == 0) == (not a.terms)
    assert (a != 0) == bool(a.terms)
    assert (a + b == b + a) and (a * b == b * a)
    # same monomials, other coefficients
    assert (a + a == a) == (not a.terms)
    assert all(coeff != 0 for coeff in (a * b).terms.values())
    assert all(coeff != 0 for coeff in (a + b).terms.values())


def test_constants_compare_with_plain_scalars():
    u = indeterminates(NAMES)[0]
    assert u - u + 3 == 3
    assert u * 0 == 0
    assert Fraction(1, 2) + u - u == Fraction(1, 2)
    assert u != 1
    assert 2 * u != u
    assert (u == 1.0) is False  # floats are not polynomial coefficients
    with pytest.raises(TypeError):
        u * 1.5


def test_str_writes_monomials_like_derive_law():
    names = indeterminates(VARIABLES)
    x, t, t2 = names[0], names[1], names[6]
    product = Fraction(1, 2) * x * x * t2 - x * t * t2 + 3
    for alpha in product.terms:
        assert monomial_name(alpha) in str(product)
    # graded, in derive-law's table order
    assert str(product) == "3 - x*t*t' + 1/2*x^2*t'"
    assert str(-x + 1) == "1 - x"
    assert str(x - x) == "0"
    assert str(-Fraction(2, 3) * t) == "-2/3*t"


@given(st.lists(st.tuples(exponents, st.integers(-9, 9).filter(bool)),
                max_size=4),
       st.integers(-9, 9), st.integers(-9, 9), points)
@settings(max_examples=200)
def test_int_scalars_keep_int_coefficients(terms, c, d, point):
    u, v, w = indeterminates(NAMES)
    base = Poly(dict(terms), NAMES)
    product = (base * c + d) * (u - 3 * v) * w + 2
    assert all(type(coeff) is int for coeff in product.terms.values())
    # the same polynomial on Fraction coefficients prints, compares and
    # evaluates alike
    as_fractions = Poly({alpha: Fraction(coeff) for alpha, coeff
                         in product.terms.items()}, NAMES)
    assert str(product) == str(as_fractions)
    assert product == as_fractions and as_fractions == product
    assert product.evaluate(point) == as_fractions.evaluate(point)
    assert type(product.evaluate(point)) is Fraction
    # a fractional coefficient is a Fraction
    half = product * Fraction(1, 2)
    assert all(isinstance(coeff, Fraction) for coeff in half.terms.values())
    assert half * 2 == product


def test_oracle_stays_independent_of_the_package():
    # the tests' group-law oracle must not share the scalar it checks
    source = (Path(__file__).parent / "free_nilpotent_oracle.py").read_text(
        encoding="utf-8")
    imports = [line.strip() for line in source.splitlines()
               if line.strip().startswith(("import ", "from "))]
    assert imports == ["from fractions import Fraction"]


# ---------------------------------------------------------------- Ratio

def _old_evaluate(poly, point):
    # the Fraction-by-Fraction evaluation, kept as the oracle for the
    # integer numerator/denominator one
    total = Fraction(0)
    for alpha, coeff in poly.terms.items():
        for value, power in zip(point, alpha):
            coeff *= Fraction(value) ** power
        total += coeff
    return total


@given(polys, points)
@settings(max_examples=200)
def test_integer_evaluate_matches_fraction_evaluation(a, point):
    value = a.evaluate(point)
    assert type(value) is Fraction
    assert value == _old_evaluate(a, point)


def test_integer_evaluate_on_random_points_and_int_coordinates():
    rng = random.Random(1307)
    u, v, w = indeterminates(NAMES)
    cubic = Fraction(1, 12) * u * u * w - Fraction(5, 7) * v * w + u - 3
    for _ in range(200):
        point = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                      for _ in NAMES)
        assert cubic.evaluate(point) == _old_evaluate(cubic, point)
    assert cubic.evaluate((2, -1, 3)) == _old_evaluate(cubic, (2, -1, 3))
    assert Poly({}, NAMES).evaluate((1, 2, 3)) == 0


ratios = st.tuples(polys, polys.filter(lambda p: p != 0)).map(
    lambda pair: Ratio(*pair))


@given(ratios, ratios, points)
@settings(max_examples=100)
def test_ratio_evaluates_like_the_quotient_of_values(a, b, point):
    def value(r):
        den = r.den.evaluate(point)
        return None if den == 0 else r.num.evaluate(point) / den

    va, vb = value(a), value(b)
    if va is None or vb is None:
        return
    for result, expected in ((a + b, va + vb), (a - b, va - vb),
                             (a * b, va * vb), (-a, -va)):
        assert value(result) == expected
    if vb:
        assert value(a / b) == va / vb


@given(ratios, st.one_of(polys, scalars))
@settings(max_examples=100)
def test_ratio_mixes_with_polys_and_scalars_on_either_side(r, c):
    for result in (r + c, c + r, r - c, c - r, r * c, c * r):
        assert isinstance(result, Ratio)
    assert r + c == c + r and r * c == c * r
    assert (r - c) + c == r
    assert c - r == -(r - c)
    if c != 0:
        assert (r / c) * c == r
        assert isinstance(exact_div(c, r) if r != 0 else r, Ratio)


def test_ratio_equality_cross_multiplies():
    u, v, _ = indeterminates(NAMES)
    assert Ratio(u * v, v) == u
    assert u == Ratio(u * v, v)
    assert Ratio(2 * u, 4) == Ratio(u, 2) == Fraction(1, 2) * u
    assert Ratio(u, v) != Ratio(v, u)
    assert Ratio(u - u, v) == 0 and 0 == Ratio(u - u, v)
    assert Ratio(u, v) != 0
    assert Ratio(3, 6) == Fraction(1, 2)
    assert (Ratio(u, v) == 1.5) is False  # floats are refused, not compared


def test_ratio_division_by_zero_raises():
    u, v, _ = indeterminates(NAMES)
    with pytest.raises(ZeroDivisionError):
        Ratio(u, v - v)
    with pytest.raises(ZeroDivisionError):
        Ratio(u, v) / (u - u)
    with pytest.raises(ZeroDivisionError):
        exact_div(v, u - u)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, Ratio(u - u, v))


def test_ratio_refuses_floats():
    u, v, _ = indeterminates(NAMES)
    r = Ratio(u, v)
    for operation in (lambda: r + 1.5, lambda: 1.5 + r, lambda: r - 1.5,
                      lambda: 1.5 - r, lambda: r * 1.5, lambda: 1.5 * r,
                      lambda: r / 1.5, lambda: 1.5 / r):
        with pytest.raises(TypeError):
            operation()


def test_exact_div_divides_symbols_and_keeps_numbers_unchanged():
    u, v, _ = indeterminates(NAMES)
    assert exact_div(u * v, v) == u
    assert isinstance(exact_div(u, 2), Ratio)
    assert isinstance(exact_div(3, v), Ratio)
    nested = exact_div(exact_div(u, v), Ratio(v, u))
    assert isinstance(nested, Ratio) and nested == Ratio(u * u, v * v)
    assert exact_div(Fraction(1, 2), 3) == Fraction(1, 6)
    assert type(exact_div(1, 2)) is Fraction
    assert exact_div(1.0, 4) == 0.25 and type(exact_div(1, 4.0)) is float
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_ratio_prints_numerator_over_denominator():
    u, v, _ = indeterminates(NAMES)
    assert str(Ratio(u - 1, 2 * v)) == "(-1 + u)/(2*v)"
