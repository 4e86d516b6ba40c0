"""Coadjoint action, invariants and classification tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aristotle_orbits import linalg
from aristotle_orbits.backend import (
    EPS_CLASS, InputFormatError, exact_div, format_scalar, is_zero,
    parse_scalar, ratio_text,
)
from aristotle_orbits.lie_core import (
    AlgebraElement, GroupElement, E, F, LAMBDA, P, Y, compose,
)
from aristotle_orbits.orbits import (
    PRINTED_ACTION_CONVENTION,
    DualElement, OrbitClass,
    classify, coadjoint, coadjoint_generators, coadjoint_matrix,
    coadjoint_printed, invariant_pairs, invariants, orbit_dimension, pair,
)

HALF = Fraction(1, 2)


def rel_err(a, b) -> float:
    """|a - b| / max(1, |a|, |b|), in floats."""
    return abs(float(a) - float(b)) / max(1.0, abs(float(a)), abs(float(b)))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
dual_points = st.tuples(*([small_fractions] * 5)).map(DualElement._make)
group_elements = st.tuples(*([small_fractions] * 5)).map(GroupElement._make)
# every zero pattern of (f, k, y) is drawn often, so all five classes occur
maybe_zero = st.one_of(st.just(Fraction(0)), small_fractions)
patterned_duals = st.tuples(small_fractions, small_fractions, maybe_zero,
                            maybe_zero, maybe_zero).map(DualElement._make)
# well scaled: numerators up to 10^6, denominators up to 10^3
well_scaled = st.builds(Fraction, st.integers(-10**6, 10**6),
                        st.integers(1, 10**3))
well_scaled_duals = st.tuples(
    well_scaled, well_scaled, st.one_of(st.just(Fraction(0)), well_scaled),
    st.one_of(st.just(Fraction(0)), well_scaled),
    st.one_of(st.just(Fraction(0)), well_scaled)).map(DualElement._make)


def random_dual(rng, bound=9):
    return DualElement._make(
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
              for _ in range(5)))


def random_group(rng, bound=9):
    return GroupElement._make(
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
              for _ in range(5)))


# ------------------------------------------------------------------ pair

def test_pair_reads_coefficients():
    mu = DualElement(7, 0, 0, 0, 0)
    assert pair(mu, P) == 7
    assert pair(mu, AlgebraElement((0, 0, 0, 0, 0))) == 0


def test_pair_full_sum():
    mu = DualElement(1, 2, 3, 4, 5)
    assert pair(mu, P + E + F + LAMBDA + Y) == 15


# ---------------------------------------------------------------- actions

def test_coadjoint_identity():
    mu = DualElement(1, 2, 3, 4, 5)
    assert coadjoint(GroupElement.identity(), mu) == mu


@given(dual_points, small_fractions, small_fractions)
def test_coadjoint_center_acts_trivially(mu, a, b):
    assert coadjoint(GroupElement(0, 0, 0, a, b), mu) == mu


@given(group_elements, dual_points)
@settings(max_examples=80)
def test_coadjoint_depends_only_on_quotient(g, mu):
    bare = GroupElement(g.x, g.t, g.zeta, 0, 0)
    assert coadjoint(g, mu) == coadjoint(bare, mu)


@given(group_elements, group_elements, dual_points)
@settings(max_examples=80)
def test_coadjoint_left_action(g, h, mu):
    assert coadjoint(compose(g, h), mu) == coadjoint(g, coadjoint(h, mu))


def test_printed_action_frozen_examples():
    mu = DualElement(0, 0, 1, 1, 1)
    assert coadjoint_printed(0, 0, 0, mu) == mu
    assert coadjoint_printed(0, 1, 0, mu) == DualElement(Fraction(3, 2), 0, 2, 1, 1)
    assert coadjoint_printed(1, 0, 0, mu) == DualElement(0, Fraction(-1, 2), 0, 1, 1)


def test_printed_action_convention_is_frozen_identity():
    """The printed action and the matrix reference agree verbatim; the
    recorded convention says so."""
    assert PRINTED_ACTION_CONVENTION == "identity"
    rng = random.Random(7121)
    for _ in range(300):
        g = random_group(rng)
        mu = random_dual(rng)
        assert coadjoint_matrix(g, mu) == coadjoint_printed(g.x, g.t, g.zeta,
                                                            mu)
        assert coadjoint(g, mu) == coadjoint_matrix(g, mu)


@given(dual_points,
       *([small_fractions] * 6))
@settings(max_examples=80)
def test_printed_action_left_action_for_first_extension(mu, x1, t1, z1, x2, t2, z2):
    """Acting by (x2,t2,z2) after (x1,t1,z1) composes through the quotient law."""
    stepwise = coadjoint_printed(x2, t2, z2, coadjoint_printed(x1, t1, z1, mu))
    merged = coadjoint_printed(x1 + x2, t1 + t2, z1 + z2 + x2 * t1, mu)
    assert stepwise == merged


# -------------------------------------------------------------- invariants

def test_invariants_generic_point():
    inv = invariants(DualElement(1, 1, 1, 1, 1))
    assert (inv.v, inv.s, inv.q, inv.tau) == (1, 1, 1, 1)
    assert inv.u == Fraction(3, 2)
    assert inv.pi == Fraction(3, 2)
    assert inv.psi == 3
    assert inv.u == inv.pi * inv.v
    assert inv.f is None


def test_invariants_hooke_only_point():
    inv = invariants(DualElement(0, 1, 0, 2, 0))
    assert inv.k == 2 and inv.y == 0
    assert inv.q == 0
    assert inv.u == 1
    assert inv.psi == 4
    # y = 0, so the slowness-side entries are undefined
    assert inv.s is None and inv.tau is None and inv.pi is None
    # v = y/k is defined (and zero) because k is nonzero
    assert inv.v == 0
    assert inv.f is None


def test_invariants_fixed_point_echoes_force():
    inv = invariants(DualElement(3, 0, 0, 0, 0))
    assert inv.k == 0 and inv.y == 0
    assert inv.f == 0
    assert inv.psi == 0
    assert inv.as_dict() == {"k": 0, "y": 0, "psi": 0, "f": 0}


def test_invariants_force_only_echoes_force():
    inv = invariants(DualElement(0, 0, 5, 0, 0))
    assert inv.f == 5
    assert inv.psi == -25


@given(dual_points)
def test_u_equals_pi_v_when_both_defined(mu):
    inv = invariants(mu)
    if inv.u is not None and inv.pi is not None:
        assert inv.u == inv.pi * inv.v


@given(group_elements, dual_points)
@settings(max_examples=80)
def test_invariants_preserved_along_orbit(g, mu):
    before = invariants(mu)
    after = invariants(coadjoint(g, mu))
    assert after.k == before.k
    assert after.y == before.y
    assert after.psi == before.psi
    if before.u is not None:
        assert after.u == before.u
    if before.pi is not None:
        assert after.pi == before.pi
    if before.f is not None:
        assert after.f == before.f


def test_invariants_float_backend_small_relative_error():
    rng = random.Random(40218)
    for _ in range(100):
        mu_exact = random_dual(rng)
        g = random_group(rng)
        mu_float = DualElement._make(float(c) for c in mu_exact)
        g_float = GroupElement._make(float(c) for c in g)
        before = invariants(mu_float)
        after = invariants(coadjoint(g_float, mu_float))
        assert rel_err(after.psi, before.psi) <= 1e-12
        if before.u is not None and after.u is not None:
            assert rel_err(after.u, before.u) <= 1e-12


def _oracle_scale(mu):
    # the zero test's scale, per value, as classify and invariants first had it
    floats = any(isinstance(c, float) for c in mu)
    return max(1, *map(abs, mu)) if floats else 1


def _oracle_classify(mu, tol=EPS_CLASS):
    scale = _oracle_scale(mu)
    k_zero = is_zero(mu.k, tol, scale)
    y_zero = is_zero(mu.y, tol, scale)
    if not k_zero and not y_zero:
        return OrbitClass.GENERIC
    if not k_zero:
        return OrbitClass.HOOKE_ONLY
    if not y_zero:
        return OrbitClass.YANK_ONLY
    if not is_zero(mu.f, tol, scale):
        return OrbitClass.FORCE_ONLY
    return OrbitClass.FIXED_POINT


def _oracle_invariants(mu, tol=EPS_CLASS):
    # the Fraction-by-Fraction formulas, kept as the oracle for the integer
    # numerator/denominator evaluation of rational input and for the float
    # and mixed points' once-per-point arithmetic
    p, e, f, k, y = mu
    scale = _oracle_scale(mu)
    k_zero = is_zero(k, tol, scale)
    y_zero = is_zero(y, tol, scale)
    v = s = q = tau = u = pi = f_echo = None
    if not k_zero:
        v = exact_div(y, k)
        q = exact_div(f, k)
        u = e - HALF * k * q * q + p * v
    if not y_zero:
        s = exact_div(k, y)
        tau = exact_div(f, y)
        pi = p - HALF * y * tau * tau + e * s
    if k_zero and y_zero:
        f_echo = f
    psi = 2 * k * e - f * f + 2 * p * y
    return (k, y, psi, v, s, q, tau, u, pi, f_echo)


BIG = 10**30
big_rationals = st.one_of(
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# which of (f, k, y) are zero; all eight patterns are drawn
zero_patterns = st.tuples(st.booleans(), st.booleans(), st.booleans())


def _patterned(coords, zeros, zero):
    """coords with ``zero`` put in the slots of (f, k, y) that ``zeros`` marks."""
    tail = (zero if is_zero_slot else c
            for c, is_zero_slot in zip(coords[2:], zeros))
    return DualElement._make(coords[:2] + tuple(tail))


@given(st.tuples(*([big_rationals] * 5)), zero_patterns,
       st.sampled_from([0, Fraction(0)]))
@settings(max_examples=300)
def test_rational_invariants_equal_the_fraction_formulas(coords, zeros, zero):
    mu = _patterned(coords, zeros, zero)
    got, want = tuple(invariants(mu)), _oracle_invariants(mu)
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if w is not None:
            assert g == w and format_scalar(g) == format_scalar(w)


@given(st.tuples(*([st.one_of(finite_floats, big_rationals)] * 4)),
       finite_floats, zero_patterns, st.sampled_from([0, 0.0, -0.0]))
@settings(max_examples=300)
def test_float_invariants_keep_the_float_formulas(coords, one_float, zeros,
                                                  zero):
    # at least one coordinate is a float, so the whole point is float-backed
    mu = _patterned((one_float,) + coords, zeros, zero)
    assert repr(tuple(invariants(mu))) == repr(_oracle_invariants(mu))


@given(st.tuples(*([big_rationals] * 5)), zero_patterns,
       st.sampled_from([0, Fraction(0)]))
@settings(max_examples=300)
def test_invariant_pairs_are_the_invariants_unreduced(coords, zeros, zero):
    # all five classes, negative numerators, pairs with negative
    # denominators; each CLI cell is the reduced Fraction's text
    mu = _patterned(coords, zeros, zero)
    pairs = invariant_pairs(mu)
    present = invariants(mu).as_dict()
    assert list(pairs) == list(present)
    for name, (num, den) in pairs.items():
        assert Fraction(num, den) == present[name]
        assert ratio_text(num, den) == str(Fraction(num, den))
    assert classify(mu) is _oracle_classify(mu)


_mixed_coords = st.tuples(*([st.one_of(finite_floats, big_rationals)] * 4))


@given(_mixed_coords, finite_floats, zero_patterns,
       st.sampled_from([0, 0.0, -0.0, Fraction(0)]),
       st.sampled_from([0.0, EPS_CLASS]), st.integers(0, 1))
@settings(max_examples=400)
def test_float_and_mixed_points_match_the_per_value_formulas(
        coords, one_float, zeros, zero, tol, slot):
    # the float in ``slot`` (p or e, which no zero pattern overwrites)
    # makes the point float-backed; the rest are all
    # floats (the float backend) or a mix such as a Fraction k beside a
    # float p.  Results are bit-identical to testing, dividing and halving
    # value by value
    values = list(coords)
    values.insert(slot, one_float)
    mu = _patterned(tuple(values), zeros, zero)
    assert repr(tuple(invariants(mu, tol))) == repr(
        _oracle_invariants(mu, tol))
    assert classify(mu, tol) is _oracle_classify(mu, tol)
    floats = DualElement._make(map(float, mu))
    assert repr(tuple(invariants(floats, tol))) == repr(
        _oracle_invariants(floats, tol))
    assert classify(floats, tol) is _oracle_classify(floats, tol)


# ----------------------------------------------------------- classification

def test_classify_frozen_examples():
    assert classify(DualElement(1, 1, 1, 1, 1)) is OrbitClass.GENERIC
    assert classify(DualElement(0, 1, 0, 2, 0)) is OrbitClass.HOOKE_ONLY
    assert classify(DualElement(1, 2, 3, 0, 4)) is OrbitClass.YANK_ONLY
    assert classify(DualElement(0, 0, 5, 0, 0)) is OrbitClass.FORCE_ONLY
    assert classify(DualElement(0, 0, 0, 0, 0)) is OrbitClass.FIXED_POINT
    assert classify(DualElement(3, 0, 0, 0, 0)) is OrbitClass.FIXED_POINT


def test_classify_float_relative_tolerance():
    # k tiny relative to the point's scale counts as zero
    mu = DualElement(1e6, 0.0, 3.0, 1e-9, 0.0)
    assert classify(mu) is OrbitClass.FORCE_ONLY
    # same k on an O(1) point is honestly nonzero
    assert classify(DualElement(0.0, 0.0, 3.0, 1e-9, 0.0)) is OrbitClass.HOOKE_ONLY
    assert classify(DualElement(0.0, 0.0, 3.0, 1e-9, 0.0), tol=1e-6) \
        is OrbitClass.FORCE_ONLY


def test_mixed_point_beyond_the_double_range_is_classified():
    # the zero test's bound tol * 10**400 exceeds every float: exactly
    huge = Fraction(10**400)
    assert classify(DualElement(huge, 0, 0, 1.0, 0)) is OrbitClass.FIXED_POINT
    assert classify(DualElement(huge, 0, 0, 1e90, 0), tol=1e-320) \
        is OrbitClass.HOOKE_ONLY
    assert classify(DualElement(huge, 0, 0, 1e70, 0), tol=1e-320) \
        is OrbitClass.FIXED_POINT
    assert classify(DualElement(huge, 0, 2.0, 0, 0), tol=1e-300) \
        is OrbitClass.FIXED_POINT
    assert classify(DualElement(huge, 0, 1e300, 0, 0), tol=1e-200) \
        is OrbitClass.FORCE_ONLY
    assert invariants(DualElement(huge, 0, 0, 1.0, 0)).as_dict() == {
        "k": 1.0, "y": 0, "psi": 0, "f": 0}


def test_mixed_point_whose_float_invariant_overflows_is_input_error():
    mu = DualElement(1.0, Fraction(10**400), 1, 1, 1)
    assert classify(mu) is OrbitClass.GENERIC
    with pytest.raises(InputFormatError,
                       match=r"^point \(1\.0, 10{400}, 1, 1, 1\): a float "
                             r"invariant overflows"):
        invariants(mu)


@given(group_elements, dual_points)
@settings(max_examples=80)
def test_class_constant_along_orbit(g, mu):
    assert classify(coadjoint(g, mu)) is classify(mu)


# -------------------------------------------------------- orbit dimension

def test_generator_rows():
    mu = DualElement(1, 1, 1, 1, 1)
    rows = coadjoint_generators(mu)
    assert rows[0] == (0, -1, -1, 0, 0)
    assert rows[1] == (1, 0, 1, 0, 0)
    assert rows[2] == (1, -1, 0, 0, 0)


def test_orbit_dimension_frozen_examples():
    assert orbit_dimension(DualElement(1, 1, 1, 1, 1)) == 2
    assert orbit_dimension(DualElement(0, 0, 0, 0, 0)) == 0
    assert orbit_dimension(DualElement(0, 0, 5, 0, 0)) == 2
    assert orbit_dimension(DualElement(3, 0, 0, 0, 0)) == 0


def test_orbit_dimension_two_for_all_four_classes():
    representatives = [
        DualElement(0, 0, 0, 1, 1),    # generic
        DualElement(0, 0, 0, 2, 0),    # hooke only
        DualElement(0, 0, 0, 0, 3),    # yank only
        DualElement(0, 0, 5, 0, 0),    # force only
    ]
    for mu in representatives:
        assert orbit_dimension(mu) == 2


@given(group_elements, dual_points)
@settings(max_examples=60)
def test_dimension_constant_along_orbit(g, mu):
    assert orbit_dimension(coadjoint(g, mu)) == orbit_dimension(mu)


def test_orbit_dimension_float_backend():
    assert orbit_dimension(DualElement(1.0, 1.0, 1.0, 1.0, 1.0)) == 2
    assert orbit_dimension(DualElement(0.0, 0.0, 0.0, 0.0, 0.0)) == 0
    # a float rank of the generator rows reported 3 on these points
    for text in ("885257/42,-230255/388,31/695,977256/767,-658533/572",
                 "36965/277,697601/4,271/114,187276/595,-88129/170"):
        mu = DualElement._make(
            [parse_scalar(c, "float") for c in text.split(",")])
        assert orbit_dimension(mu) == 2


@given(patterned_duals)
def test_orbit_dimension_equals_exact_generator_rank(mu):
    assert orbit_dimension(mu) == linalg.rank(coadjoint_generators(mu))


@given(well_scaled_duals)
def test_orbit_dimension_zero_or_two_on_both_backends(mu):
    exact = orbit_dimension(mu)
    assert exact in (0, 2)
    as_float = DualElement._make(float(c) for c in mu)
    assert orbit_dimension(as_float) == exact
