"""Polynomial reconstruction of the group law."""

from fractions import Fraction

import pytest

from aristotle_orbits import derive_law
from aristotle_orbits.lie_core import compose, compose_bch, compose_printed
from aristotle_orbits.derive_law import (
    comparison_table, evaluate_polynomial, monomial_name,
    printed_law_polynomials, reconstruct_law, verify_reconstruction,
)

HALF = Fraction(1, 2)


def by_name(poly):
    return {monomial_name(alpha): coeff for alpha, coeff in poly.items()}


@pytest.fixture(scope="module")
def derived():
    return reconstruct_law(compose_bch)


def test_reconstructed_tables(derived):
    assert by_name(derived["x''"]) == {"x": 1, "x'": 1}
    assert by_name(derived["t''"]) == {"t": 1, "t'": 1}
    assert by_name(derived["zeta''"]) == {"zeta": 1, "zeta'": 1, "x*t'": 1}
    assert by_name(derived["a''"]) == {"a": 1, "a'": 1, "x*zeta'": 1,
                                       "x^2*t'": HALF}
    assert by_name(derived["b''"]) == {"b": 1, "b'": 1, "zeta*t'": HALF,
                                       "t*zeta'": -HALF, "x*t*t'": -HALF}


def test_closed_law_has_the_derived_table(derived):
    """Both laws have degree <= 3, so equal tables mean equal polynomials."""
    assert reconstruct_law(compose) == derived


def test_key_coefficients(derived):
    """The two coefficient spot checks that anchor the audit."""
    zeta_table = by_name(derived["zeta''"])
    assert zeta_table["x*t'"] == 1
    a_table = by_name(derived["a''"])
    assert a_table["x*zeta'"] == 1


def test_printed_law_table():
    printed = printed_law_polynomials()
    assert by_name(printed["b''"]) == {"b": 1, "b'": 1, "t'*zeta'": 1,
                                       "x*t'^2": HALF}
    # the first four coordinates of the printed law are the derived ones
    derived = reconstruct_law(compose_bch)
    for name in ("x''", "t''", "zeta''", "a''"):
        assert printed[name] == derived[name]


def test_comparison_verdicts(derived):
    table = comparison_table(derived, printed_law_polynomials())
    by_coord = {entry["coordinate"]: entry for entry in table}
    for name in ("x''", "t''", "zeta''", "a''"):
        assert by_coord[name]["agrees"]
    b_entry = by_coord["b''"]
    assert not b_entry["agrees"]
    verdicts = {row["monomial"]: row["verdict"] for row in b_entry["monomials"]}
    assert verdicts["b"] == "CONFIRMS"
    assert verdicts["b'"] == "CONFIRMS"
    assert verdicts["t'*zeta'"] == "CONTRADICTS"
    assert verdicts["x*t'^2"] == "CONTRADICTS"
    assert verdicts["zeta*t'"] == "CONTRADICTS"
    assert verdicts["t*zeta'"] == "CONTRADICTS"
    assert verdicts["x*t*t'"] == "CONTRADICTS"


def test_verification_passes(derived):
    assert verify_reconstruction(derived, samples=200, seed=1) == 200


@pytest.mark.parametrize("law", [compose, compose_bch, compose_printed])
def test_read_off_table_reproduces_its_law(law):
    assert verify_reconstruction(reconstruct_law(law), samples=200, seed=3,
                                 law=law) == 200


def test_read_off_coefficients_are_nonzero_fractions(derived):
    for table in derived.values():
        for alpha, coeff in table.items():
            assert len(alpha) == 10 and isinstance(coeff, Fraction) and coeff


def test_verification_catches_corruption(derived):
    corrupted = {name: dict(poly) for name, poly in derived.items()}
    alpha = next(iter(corrupted["b''"]))
    corrupted["b''"][alpha] += 1
    with pytest.raises(ArithmeticError):
        verify_reconstruction(corrupted, samples=50, seed=2)


def test_evaluate_polynomial_matches_direct_composition(derived):
    from aristotle_orbits.lie_core import GroupElement
    g = GroupElement(1, 2, Fraction(1, 3), 0, 5)
    h = GroupElement(Fraction(-2, 7), 1, 4, 2, 1)
    point = g + h
    product = compose(g, h)
    for idx, name in enumerate(derive_law.OUTPUT_NAMES):
        assert evaluate_polynomial(derived[name], point) == product[idx]


def test_monomial_name():
    assert monomial_name((0,) * 10) == "1"
    assert monomial_name((2, 0, 0, 0, 0, 0, 1, 0, 0, 0)) == "x^2*t'"
