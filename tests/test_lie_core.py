"""Algebra and group-law tests.

Expected values for the derived group law were computed two independent
ways before being frozen here: by hand with the BCH series, and by the
truncated tensor-algebra oracle in free_nilpotent_oracle.py.  Tests that
compare the package against the oracle therefore check two genuinely
different computations of the same object.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aristotle_orbits import lie_core, linalg
from aristotle_orbits.lie_core import (
    E, F, LAMBDA, P, Y,
    AlgebraElement, BasisIndex, GroupElement, StructureTensor,
    ad, adjoint_of_group, bch, bracket, compose, compose_bch, compose_printed,
    exp_ad, from_single_exponential, inverse, jacobi_residual,
    to_single_exponential,
)

import free_nilpotent_oracle as oracle

HALF = Fraction(1, 2)
ZERO = AlgebraElement((0, 0, 0, 0, 0))

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
algebra_elements = st.tuples(*([small_fractions] * 5)).map(AlgebraElement)
group_elements = st.tuples(*([small_fractions] * 5)).map(GroupElement._make)


def random_group(rng, bound=9):
    return GroupElement._make(
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
              for _ in range(5)))


# ---------------------------------------------------------------- bracket

def test_bracket_table():
    assert bracket(P, E) == F
    assert bracket(P, F) == LAMBDA
    assert bracket(F, E) == Y
    assert bracket(E, P) == -F
    # everything else vanishes
    assert bracket(P, LAMBDA) == ZERO
    assert bracket(E, F) == -Y
    assert bracket(Y, P) == ZERO
    assert bracket(LAMBDA, Y) == ZERO


def test_bracket_bilinearity_example():
    assert bracket(P + E, F) == LAMBDA + -Y


@given(algebra_elements, algebra_elements)
def test_bracket_antisymmetry(a, b):
    assert bracket(a, b) == -bracket(b, a)


@given(algebra_elements, algebra_elements, algebra_elements, small_fractions)
def test_bracket_bilinearity(a, b, c, lam):
    assert bracket(a + b.scaled(lam), c) == bracket(a, c) + bracket(b, c).scaled(lam)


def test_jacobi_residual_default_is_zero():
    assert jacobi_residual(lie_core.DEFAULT_TENSOR) == 0


def test_jacobi_residual_detects_mutation():
    # replace [F,E] = Y by [F,E] = F; the (P,E,F) cyclic sum becomes -Lambda
    B = BasisIndex
    mutated = StructureTensor.from_brackets([
        (B.P, B.E, B.F, 1),
        (B.P, B.F, B.LAMBDA, 1),
        (B.F, B.E, B.F, 1),
    ])
    assert jacobi_residual(mutated) == 1
    cyc = (bracket(P, bracket(E, F, mutated), mutated)
           + bracket(E, bracket(F, P, mutated), mutated)
           + bracket(F, bracket(P, E, mutated), mutated))
    assert cyc == -LAMBDA


def test_step_three_nilpotency_exhaustive():
    """All left-nested brackets of four basis elements vanish."""
    basis = [AlgebraElement.basis(BasisIndex(i)) for i in range(5)]
    for a in basis:
        for b in basis:
            ab = bracket(a, b)
            for c in basis:
                abc = bracket(ab, c)
                for d in basis:
                    assert bracket(abc, d) == ZERO


# --------------------------------------------------------------------- ad

def test_ad_p_columns():
    m = ad(P)
    assert m.apply(E) == F
    assert m.apply(F) == LAMBDA
    assert m.apply(P) == ZERO
    assert m.apply(LAMBDA) == ZERO
    assert m.apply(Y) == ZERO


def test_ad_central_is_zero():
    assert all(x == 0 for row in ad(Y).rows for x in row)
    assert all(x == 0 for row in ad(LAMBDA).rows for x in row)


def test_ad_p_cubed_is_zero():
    cubed = linalg.mat_pow(ad(P).rows, 3)
    assert all(x == 0 for row in cubed for x in row)


@given(algebra_elements, algebra_elements)
def test_ad_represents_bracket(a, b):
    assert ad(a).apply(b) == bracket(a, b)


# -------------------------------------------------------------------- bch

def test_bch_identity_case():
    assert bch(P.scaled(3), ZERO) == P.scaled(3)


def test_bch_ef_case():
    # [E, F] = -Y and nested terms vanish
    t, zeta = Fraction(2), Fraction(3)
    got = bch(E.scaled(t), F.scaled(zeta))
    assert got == E.scaled(t) + F.scaled(zeta) + Y.scaled(-HALF * t * zeta)


def test_bch_pe_case():
    x, t = Fraction(1), Fraction(1)
    got = bch(P.scaled(x), E.scaled(t))
    expected = (P + E + F.scaled(HALF)
                + LAMBDA.scaled(Fraction(1, 12)) + Y.scaled(Fraction(1, 12)))
    assert got == expected
    assert oracle.oracle_bch((x, 0, 0, 0, 0), (0, t, 0, 0, 0)) == expected.coeffs


@given(algebra_elements, algebra_elements)
@settings(max_examples=60)
def test_bch_matches_oracle(a, b):
    assert bch(a, b).coeffs == oracle.oracle_bch(a.coeffs, b.coeffs)


@given(algebra_elements, algebra_elements)
def test_bch_inversion_identity(a, b):
    assert bch(a, b) == -bch(-b, -a)


# ---------------------------------------------------------------- compose

def test_compose_with_identity():
    g = GroupElement(1, 2, 3, 4, 5)
    assert compose(g, GroupElement.identity()) == g
    assert compose(GroupElement.identity(), g) == g


def test_compose_frozen_examples():
    gx = GroupElement(1, 0, 0, 0, 0)
    gt = GroupElement(0, 1, 0, 0, 0)
    assert compose(gx, gt) == GroupElement(1, 1, 1, HALF, 0)
    assert compose(gt, gx) == GroupElement(1, 1, 0, 0, 0)
    # same two products through the tensor oracle
    assert oracle.oracle_compose(gx, gt) == (1, 1, 1, HALF, 0)
    assert oracle.oracle_compose(gt, gx) == (1, 1, 0, 0, 0)


@given(group_elements, group_elements)
@settings(max_examples=60)
def test_compose_matches_oracle(g, h):
    assert compose(g, h) == oracle.oracle_compose(g, h)


@given(group_elements, group_elements)
def test_compose_equals_bch_derivation(g, h):
    assert compose(g, h) == compose_bch(g, h)


@given(group_elements, group_elements, group_elements)
def test_compose_associative(g, h, k):
    assert compose(compose(g, h), k) == compose(g, compose(h, k))


@given(group_elements)
def test_inverse_cancels(g):
    assert compose(g, inverse(g)) == GroupElement.identity()
    assert compose(inverse(g), g) == GroupElement.identity()


def test_inverse_frozen_examples():
    assert inverse(GroupElement.identity()) == GroupElement.identity()
    assert inverse(GroupElement(3, 0, 0, 0, 0)) == GroupElement(-3, 0, 0, 0, 0)
    got = inverse(GroupElement(1, 0, 1, 0, 0))
    assert got == GroupElement(-1, 0, -1, 1, 0)
    assert oracle.oracle_inverse(GroupElement(1, 0, 1, 0, 0)) == (-1, 0, -1, 1, 0)


@given(group_elements)
def test_inverse_equals_bch_derivation(g):
    assert inverse(g) == from_single_exponential(-to_single_exponential(g))


@given(group_elements, group_elements)
@settings(max_examples=60)
def test_inverse_matches_oracle(g, h):
    del h
    assert inverse(g) == oracle.oracle_inverse(g)


@given(group_elements, group_elements)
def test_quotient_reproduces_first_extension(g, h):
    """Modding out (a, b) leaves the familiar one-extension law."""
    x1, t1, z1 = g[:3]
    x2, t2, z2 = h[:3]
    assert compose(g, h)[:3] == (x1 + x2, t1 + t2, z1 + z2 + x1 * t2)


# -------------------------------------------------------- printed variant

def test_compose_printed_identity():
    assert compose_printed(GroupElement.identity(), GroupElement.identity()) \
        == GroupElement.identity()


def test_compose_printed_frozen_example():
    got = compose_printed(GroupElement(1, 0, 0, 0, 0), GroupElement(0, 1, 0, 0, 0))
    assert got == GroupElement(1, 1, 1, HALF, HALF)


def test_compose_printed_associativity_defect():
    g1 = GroupElement(1, 0, 0, 0, 0)
    g2 = GroupElement(0, 0, 1, 0, 0)
    g3 = GroupElement(0, 1, 0, 0, 0)
    left = compose_printed(compose_printed(g1, g2), g3)
    right = compose_printed(g1, compose_printed(g2, g3))
    assert left == GroupElement(1, 1, 2, Fraction(3, 2), HALF)
    assert right == GroupElement(1, 1, 2, Fraction(3, 2), Fraction(3, 2))
    assert left != right


def test_compose_printed_b_ignores_first_factor():
    # the defect: b'' depends on the second factor only (plus b)
    h = GroupElement(0, 2, 3, 0, 0)
    b1 = compose_printed(GroupElement(0, 5, 7, 0, 0), h).b
    b2 = compose_printed(GroupElement(0, -1, 4, 0, 0), h).b
    assert b1 == b2


# ----------------------------------------------------- coordinate changes

def test_single_exponential_trivial_cases():
    assert to_single_exponential(GroupElement.identity()) == ZERO
    assert from_single_exponential(ZERO) == GroupElement.identity()
    assert to_single_exponential(GroupElement(2, 0, 0, 0, 0)) == P.scaled(2)
    assert from_single_exponential(P.scaled(2)) == GroupElement(2, 0, 0, 0, 0)


@given(group_elements)
@settings(max_examples=60)
def test_single_exponential_matches_oracle(g):
    assert to_single_exponential(g).coeffs == oracle.oracle_single_exponential(g)


@given(group_elements)
def test_single_exponential_round_trip(g):
    assert from_single_exponential(to_single_exponential(g)) == g


@given(algebra_elements)
def test_single_exponential_round_trip_other_way(a):
    assert to_single_exponential(from_single_exponential(a)) == a


def test_round_trip_many_random_points():
    rng = random.Random(20240817)
    for _ in range(200):
        g = random_group(rng)
        assert from_single_exponential(to_single_exponential(g)) == g


# ---------------------------------------------------------------- adjoint

def test_adjoint_identity():
    assert adjoint_of_group(GroupElement.identity()).rows == \
        linalg.identity(lie_core.DIM)


def test_adjoint_of_pure_translation():
    x = Fraction(3)
    m = adjoint_of_group(GroupElement(x, 0, 0, 0, 0))
    assert m.apply(E) == E + F.scaled(x) + LAMBDA.scaled(HALF * x * x)
    assert m.apply(F) == F + LAMBDA.scaled(x)
    assert m.apply(P) == P
    assert m.apply(LAMBDA) == LAMBDA
    assert m.apply(Y) == Y


@given(group_elements)
@settings(max_examples=60)
def test_adjoint_matches_oracle(g):
    assert adjoint_of_group(g).rows == oracle.oracle_adjoint(g)


@given(group_elements)
def test_adjoint_equals_factor_exponentials(g):
    factors = exp_ad(E.scaled(g.t) + F.scaled(g.zeta)) @ exp_ad(P.scaled(g.x))
    assert adjoint_of_group(g).rows == factors.rows


@given(group_elements, group_elements)
@settings(max_examples=60)
def test_adjoint_homomorphism(g, h):
    lhs = adjoint_of_group(compose(g, h))
    rhs = adjoint_of_group(g) @ adjoint_of_group(h)
    assert lhs.rows == rhs.rows


@given(group_elements)
def test_adjoint_unipotent_and_unimodular(g):
    m = adjoint_of_group(g).rows
    cubed = linalg.mat_pow(linalg.mat_sub(m, linalg.identity(5)), 3)
    assert all(x == 0 for row in cubed for x in row)
    # unit lower triangular, so det = 1
    assert all(m[i][j] == 0 for i in range(5) for j in range(i + 1, 5))
    assert all(m[i][i] == 1 for i in range(5))


# ------------------------------------------------------- structure tensor

def test_structure_tensor_antisymmetry():
    c = lie_core.DEFAULT_TENSOR.c
    for i in range(5):
        for j in range(5):
            for m in range(5):
                assert c[i][j][m] == -c[j][i][m]


def test_basis_order_is_fixed():
    assert [b.value for b in BasisIndex] == [0, 1, 2, 3, 4]
    assert BasisIndex.P == 0 and BasisIndex.Y == 4


def test_algebra_element_requires_five_coeffs():
    with pytest.raises(ValueError):
        AlgebraElement((1, 2, 3))
