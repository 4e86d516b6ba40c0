"""The polynomial scalar: evaluation is a ring homomorphism, and printing."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aristotle_orbits.derive_law import VARIABLES, monomial_name
from aristotle_orbits.poly import Poly, indeterminates

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


def test_oracle_stays_independent_of_the_package():
    # the tests' group-law oracle must not share the scalar it checks
    source = (Path(__file__).parent / "free_nilpotent_oracle.py").read_text(
        encoding="utf-8")
    imports = [line.strip() for line in source.splitlines()
               if line.strip().startswith(("import ", "from "))]
    assert imports == ["from fractions import Fraction"]
