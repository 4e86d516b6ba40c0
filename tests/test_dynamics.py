"""Flows, closed forms, right-hand sides, Hamiltonians, integrator."""

import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from aristotle_orbits.backend import InputFormatError, format_scalar
from aristotle_orbits.cli import main
from aristotle_orbits.dynamics import (
    ChartUndefinedError, IntegratorConfig, OrbitParams, SpaceState, TimeState,
    closed_form_trajectory, dual_flow_trajectory,
    hamiltonian_space, hamiltonian_time, integrate,
    realization_space, realization_time,
    space_closed_form, space_flow, space_rhs, space_rhs_printed,
    time_closed_form, time_flow, time_rhs, time_rhs_printed,
)
from aristotle_orbits import dynamics
from aristotle_orbits.dynamics import (
    SCAN_POINTS, _exact_rows, _float_grid, _grid_advances,
)
from aristotle_orbits.poly import Poly
from aristotle_orbits.orbits import (
    DualElement, OrbitClass, classify, coadjoint_printed, invariants,
)

HALF = Fraction(1, 2)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
dual_points = st.tuples(*([small_fractions] * 5)).map(DualElement._make)
nonzero_fractions = small_fractions.filter(lambda f: f != 0)


def params_st():
    return st.builds(OrbitParams, nonzero_fractions, nonzero_fractions)


def rows_of(trajectory) -> list:
    """A trajectory's rows, from its row view ``row_factory()``."""
    return list(trajectory.row_factory())


# ------------------------------------------------------------- dual flows

def test_time_flow_frozen_examples():
    mu = DualElement(0, 0, 1, 1, 1)
    assert time_flow(mu, 0) == mu
    assert time_flow(mu, 1) == DualElement(Fraction(-1, 2), 0, 0, 1, 1)


def test_space_flow_frozen_examples():
    mu = DualElement(0, 0, 1, 1, 1)
    assert space_flow(mu, 0) == mu
    assert space_flow(mu, 1) == DualElement(0, Fraction(3, 2), 2, 1, 1)


@given(dual_points, small_fractions)
def test_flows_are_the_printed_action(mu, t):
    """The closed flows are the printed action with its zero terms dropped."""
    assert time_flow(mu, t) == coadjoint_printed(0, -t, 0, mu)
    assert space_flow(mu, t) == coadjoint_printed(-t, 0, 0, mu)


@given(dual_points, small_fractions, small_fractions)
def test_flows_are_one_parameter_groups(mu, t1, t2):
    assert time_flow(time_flow(mu, t1), t2) == time_flow(mu, t1 + t2)
    assert space_flow(space_flow(mu, t1), t2) == space_flow(mu, t1 + t2)


@given(dual_points, small_fractions)
def test_time_flow_leaves_energy_alone(mu, t):
    assert time_flow(mu, t).e == mu.e


@given(dual_points, small_fractions)
def test_space_flow_leaves_momentum_alone(mu, x):
    assert space_flow(mu, x).p == mu.p


def test_degenerate_yank_free_time_flow():
    # y = 0: momentum decays linearly in the force, force itself frozen
    mu = DualElement(5, 7, 3, 2, 0)
    out = time_flow(mu, 4)
    assert out.p == 5 - 3 * 4
    assert out.f == 3
    assert out.e == 7


def test_degenerate_hooke_free_space_flow():
    # k = 0: energy grows linearly in the force, force itself frozen
    mu = DualElement(5, 7, 3, 0, 2)
    out = space_flow(mu, 4)
    assert out.e == 7 + 3 * 4
    assert out.f == 3
    assert out.p == 5


@given(dual_points, small_fractions)
def test_invariants_preserved_by_both_flows(mu, t):
    for flowed in (time_flow(mu, t), space_flow(mu, t)):
        before, after = invariants(mu), invariants(flowed)
        assert after.psi == before.psi
        if before.u is not None:
            assert after.u == before.u
        if before.pi is not None:
            assert after.pi == before.pi


# ------------------------------------------------------------ closed forms

def test_time_closed_form_frozen_examples():
    assert time_closed_form(0, 0, OrbitParams(1, 1), 2) == (-2, 2)
    assert time_closed_form(3, 5, OrbitParams(2, 7), 0) == (3, 5)
    assert time_closed_form(1, 1, OrbitParams(1, 2), 1) == (-1, 1)


def test_space_closed_form_frozen_examples():
    assert space_closed_form(0, 0, 0, OrbitParams(1, 1), 2) == (2, 2)
    assert space_closed_form(3, 5, 1, OrbitParams(2, 7), 0) == (3, 5)
    assert space_closed_form(0, 0, 1, OrbitParams(2, 1), 1) == (2, 2)


def test_charts_require_their_divisors():
    with pytest.raises(ChartUndefinedError):
        time_closed_form(0, 0, OrbitParams(0, 1), 1)
    with pytest.raises(ChartUndefinedError):
        space_closed_form(0, 0, 0, OrbitParams(1, 0), 1)
    with pytest.raises(ChartUndefinedError):
        OrbitParams(0, 1).v
    with pytest.raises(ChartUndefinedError):
        OrbitParams(1, 0).s


@given(params_st(), small_fractions, small_fractions, small_fractions,
       small_fractions, small_fractions)
@settings(max_examples=80)
def test_time_closed_form_is_flow_readout(params, q0, p0, e0, t, _unused):
    """The (f/k, p) reading of the dual flow is the chart solution."""
    mu0 = DualElement(p0, e0, params.k * q0, params.k, params.y)
    mu = time_flow(mu0, t)
    assert (mu.f / params.k, mu.p) == time_closed_form(q0, p0, params, t)


@given(params_st(), small_fractions, small_fractions, small_fractions,
       small_fractions)
@settings(max_examples=80)
def test_space_closed_form_is_flow_readout(params, tau0, e0, p0, x):
    mu0 = DualElement(p0, e0, params.y * tau0, params.k, params.y)
    mu = space_flow(mu0, x)
    expected = space_closed_form(tau0, e0, params.y * tau0, params, x)
    assert (mu.f / params.y, mu.e) == expected


@given(params_st(), small_fractions, small_fractions, small_fractions)
def test_chart_invariants_constant_along_closed_forms(params, q0, p0, t):
    # U = p v - k q^2/2 and pi = e s - y tau^2/2, written out
    def invariant(slope, force):
        return lambda a, b: b * slope - HALF * force * a * a
    u = invariant(params.v, params.k)
    assert u(*time_closed_form(q0, p0, params, t)) == u(q0, p0)
    pi = invariant(params.s, params.y)
    tau_e = space_closed_form(q0, p0, params.y * q0, params, t)
    assert pi(*tau_e) == pi(q0, p0)


def test_potential_forms_build_the_closed_forms():
    params = OrbitParams(Fraction(2), Fraction(3))
    q0, p0, t = Fraction(1), Fraction(5), Fraction(7)
    _, p = time_closed_form(q0, p0, params, t)
    # impulse accumulated by time t: -f0 t + y t^2/2 with f0 = k q0
    assert p == p0 - params.k * q0 * t + HALF * params.y * t * t
    e0, f0, x = Fraction(5), Fraction(4), Fraction(7)
    _, e = space_closed_form(0, e0, f0, params, x)
    # work accumulated over x: f0 x + k x^2/2
    assert e == e0 + f0 * x + HALF * params.k * x * x


# -------------------------------------------------------- right-hand sides

def test_time_rhs_frozen_examples():
    params = OrbitParams(2, 3)
    assert time_rhs(TimeState(q=0, p=9), params) == (Fraction(-3, 2), 0)
    assert time_rhs(TimeState(q=3, p=0), params)[1] == -6
    with pytest.raises(ChartUndefinedError):
        time_rhs(TimeState(q=1, p=1), OrbitParams(0, 1))


def test_space_rhs_frozen_examples():
    params = OrbitParams(2, 3)
    assert space_rhs(SpaceState(tau=0, e=9), params) == (Fraction(2, 3), 0)
    assert space_rhs(SpaceState(tau=2, e=0), params)[1] == 6
    with pytest.raises(ChartUndefinedError):
        space_rhs(SpaceState(tau=1, e=1), OrbitParams(1, 0))


def test_time_rhs_printed_frozen_examples():
    params = OrbitParams(1, 1)
    assert time_rhs_printed(TimeState(q=2, p=0, t=0), params) == \
        time_rhs(TimeState(q=2, p=0, t=0), params)
    assert time_rhs_printed(TimeState(q=0, p=0, t=1), params)[1] == -1
    assert time_rhs(TimeState(q=0, p=0, t=1), params)[1] == 0
    assert time_rhs_printed(TimeState(q=1, p=0, t=2), params)[1] == -3


def test_space_rhs_printed_frozen_examples():
    params = OrbitParams(1, 1)
    assert space_rhs_printed(SpaceState(tau=2, e=0, x=0), params) == \
        space_rhs(SpaceState(tau=2, e=0, x=0), params)
    assert space_rhs_printed(SpaceState(tau=0, e=0, x=1), params)[1] == 1
    assert space_rhs(SpaceState(tau=0, e=0, x=1), params)[1] == 0
    assert space_rhs_printed(SpaceState(tau=1, e=0, x=2), params)[1] == 3


@given(params_st(), small_fractions, small_fractions, small_fractions)
def test_time_rhs_is_exact_derivative(params, q0, p0, t):
    """Centered differences are exact on polynomials of degree <= 2."""
    h = Fraction(1, 3)
    q_plus, p_plus = time_closed_form(q0, p0, params, t + h)
    q_minus, p_minus = time_closed_form(q0, p0, params, t - h)
    q_t, _ = time_closed_form(q0, p0, params, t)
    dq, dp = time_rhs(TimeState(q=q_t, p=0), params)
    assert (q_plus - q_minus) / (2 * h) == dq
    assert (p_plus - p_minus) / (2 * h) == dp


@given(params_st(), small_fractions, small_fractions, small_fractions)
def test_space_rhs_is_exact_derivative(params, tau0, e0, x):
    h = Fraction(1, 3)
    f0 = params.y * tau0
    tau_plus, e_plus = space_closed_form(tau0, e0, f0, params, x + h)
    tau_minus, e_minus = space_closed_form(tau0, e0, f0, params, x - h)
    tau_x, _ = space_closed_form(tau0, e0, f0, params, x)
    dtau, de = space_rhs(SpaceState(tau=tau_x, e=0), params)
    assert (tau_plus - tau_minus) / (2 * h) == dtau
    assert (e_plus - e_minus) / (2 * h) == de


def test_rhs_matches_float_finite_differences():
    rng = random.Random(90125)
    h = 1e-4
    for _ in range(50):
        k = rng.uniform(0.5, 3.0) * rng.choice([-1, 1])
        y = rng.uniform(0.5, 3.0) * rng.choice([-1, 1])
        params = OrbitParams(k, y)
        q0, p0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        t = rng.uniform(0, 3)
        q_p, p_p = time_closed_form(q0, p0, params, t + h)
        q_m, p_m = time_closed_form(q0, p0, params, t - h)
        q_t, _ = time_closed_form(q0, p0, params, t)
        dq, dp = time_rhs(TimeState(q=q_t, p=0.0), params)
        assert abs((q_p - q_m) / (2 * h) - dq) <= 1e-6
        assert abs((p_p - p_m) / (2 * h) - dp) <= 1e-6


# ------------------------------------------------------------ Hamiltonians

def test_hamiltonian_time_frozen_examples():
    params = OrbitParams(1, 1)
    assert hamiltonian_time(0, 0, 5, params) == 0
    assert hamiltonian_time(1, 1, 0, params) == Fraction(-1, 2)
    assert hamiltonian_time(0, 1, 1, params) == Fraction(-1, 2)


def test_hamiltonian_space_frozen_examples():
    params = OrbitParams(1, 1)
    assert hamiltonian_space(0, 0, 5, params) == 0
    assert hamiltonian_space(1, 1, 0, params) == Fraction(-1, 2)
    assert hamiltonian_space(0, 1, 1, params) == Fraction(3, 2)


# ------------------------------------------------------------ realizations

def test_realization_time_frozen_examples():
    params = OrbitParams(1, 1)
    assert realization_time(0, 0, 0, (4, 5), params) == (4, 5)
    assert realization_time(1, 0, 0, (4, 5), params) == (4, 6)
    assert realization_time(0, 0, 1, (0, 0), params) == (-1, 0)


def test_realization_space_frozen_examples():
    params = OrbitParams(1, 1)
    assert realization_space(0, 0, 0, (4, 5), params) == (4, 5)
    assert realization_space(0, 1, 0, (4, 5), params) == (4, 4)
    assert realization_space(1, 0, 0, (0, 0), params) == (HALF, 1)


@given(params_st(), small_fractions, small_fractions, small_fractions)
def test_realization_time_restricted_to_time_axis(params, q0, p0, t):
    """(0, t, 0) through the realization is exactly the closed form."""
    q, p = time_closed_form(q0, p0, params, t)
    assert realization_time(0, t, 0, (p0, q0), params) == (p, q)


@given(params_st(), small_fractions, small_fractions, small_fractions)
def test_realization_space_time_axis_shifts_tau_only(params, tau0, e0, t):
    assert realization_space(0, t, 0, (e0, tau0), params) == (e0, tau0 - t)


# -------------------------------------------------------------- integrator

def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(start=1, stop=0)


def test_trajectory_rejects_non_increasing_parameter():
    # a real exception, not an assert, so ``python -O`` keeps the check;
    # at 1e16 a unit step does not advance the float grid
    config = IntegratorConfig(step=1.0, start=1e16, stop=1e16 + 4)
    builds = (
        lambda: integrate("time", (1, 1), OrbitParams(1, 1), config),
        lambda: closed_form_trajectory("space", (1.0, 1.0),
                                       OrbitParams(1.0, 1.0), config),
        lambda: dual_flow_trajectory(DualElement(1.0, 1, 1, 1, 1), "time",
                                     config),
    )
    for build in builds:
        with pytest.raises(ValueError, match="strictly increasing"):
            build()


def test_float_trajectory_with_a_non_finite_value_is_refused():
    # p = p0 - k q0 t + y t^2/2 overflows at t = 2e154 (a chart slope
    # cannot: classify's zero test keeps |y/k| and |k/y| below
    # 1/EPS_CLASS); e = e0 + f0 x + k x^2/2 overflows at x = 2
    builds = (
        lambda: integrate("time", (1, 1), OrbitParams(1.0, 1.0),
                          IntegratorConfig(step=1e154, start=0, stop=2e154)),
        lambda: closed_form_trajectory(
            "space", (1.0, 1.0), OrbitParams(1.0, 1.0),
            IntegratorConfig(step=1.0, start=0, stop=2), f0=1e308),
    )
    for build in builds:
        with pytest.raises(InputFormatError, match="not finite"):
            build()


def test_float_dual_psi_is_exact_where_its_float_products_overflow():
    # psi = 2ke - f^2 + 2py: f^2 alone is 2.25e308 at t = 0 and 2ke
    # 1.6e308, but psi itself is about -6.5e307 and constant, so each row
    # holds it, rounded once, and every cell is finite
    huge = IntegratorConfig(step=2e153, start=1.75e153, stop=5.75e153)
    mu0 = DualElement(0.0, 8e307, 1.5e154, 1.0, 4.0)
    rows = rows_of(dual_flow_trajectory(mu0, "time", huge))
    psi = float(2 * Fraction(8e307) - Fraction(1.5e154) ** 2)
    assert len(rows) == 3
    assert {row[-2:] for row in rows} == {(psi, 0.0)}
    assert all(map(math.isfinite, (cell for row in rows for cell in row)))


def test_rk4_and_float_closed_form_share_one_float_set_up():
    # an exact value beyond the double range beside a float input: both
    # take the float images in the same set-up and refuse them alike, as
    # they refuse a non-finite row, named by its parameter
    huge = Fraction(10**400)
    for params, config in [
            (OrbitParams(huge, 1.0), IntegratorConfig(0.5, 0, 1)),
            (OrbitParams(1.0, 1.0), IntegratorConfig(0.5, 0, huge)),
            (OrbitParams(1.0, 1.0), IntegratorConfig(1e154, -1e154, 1e154))]:
        errors = set()
        for build in (integrate, closed_form_trajectory):
            with pytest.raises(InputFormatError) as excinfo:
                build("time", (1.0, 1.0), params, config)
            errors.add(str(excinfo.value))
        error, = errors
        assert error.startswith(("a value is beyond the float range",
                                 "a computed value is not finite: the row "
                                 "at 1e+154 is (-2e+154, inf"))


def test_rk4_stages_are_refused_with_one_binade_to_spare():
    # the time stage sum is about 6|k q0|: 6e307 passes, and 1.2e308, a
    # double still, is refused, as is the space one's 6|y tau0|; a
    # one-row run takes no step, so it has no stage to refuse
    config = IntegratorConfig(step=0.5, start=0, stop=1)
    assert len(rows_of(integrate("time", (1.0, 0.0),
                                 OrbitParams(1e307, 1.0), config))) == 3
    for picture, state, params in [
            ("time", (2.0, 0.0), OrbitParams(1e307, 1.0)),
            ("space", (1.0, 0.0), OrbitParams(1.0, 1.7976931348623157e308))]:
        with pytest.raises(InputFormatError,
                           match=r"an RK4 stage reaches (1\.2e\+308|inf), "
                                 r"over half the largest double$"):
            integrate(picture, state, params, config)
    point = IntegratorConfig(step=0.5, start=1, stop=1)
    assert rows_of(integrate("time", (2.0, 0.0), OrbitParams(1e307, 1.0),
                             point)) == [(1.0, 2.0, 0.0, -2e307, 0.0)]


def test_rk4_rows_are_checked_from_the_range_start():
    # RK4 starts its state at the range's start, so its rows are the
    # closed form from 0 over the range's length: p = -k q0 t reaches
    # -2e308 after 200 steps, though |p| <= 1e308 on [-100, 100]; and a
    # single row at 1e155 is the initial state, whatever p(1e155) is
    config = IntegratorConfig(step=1.0, start=-100.0, stop=100.0)
    with pytest.raises(InputFormatError,
                       match=r"the row at 100\.0 is \(1\.0, -inf"):
        integrate("time", (1.0, 0.0), OrbitParams(1e306, 1e-300), config)
    far = IntegratorConfig(step=1.0, start=1e155, stop=1e155)
    assert rows_of(integrate("time", (1.0, 0.0), OrbitParams(1.0, 1.0),
                             far)) == [(1e155, 1.0, 0.0, -0.5, 0.0)]


def test_integrate_zero_length_range():
    config = IntegratorConfig(step=1e-3, start=0, stop=0)
    rows = rows_of(integrate("time", (3, 4), OrbitParams(1, 1), config))
    assert len(rows) == 1
    assert rows[0][0] == 0.0
    assert rows[-1][1:-2] == (3.0, 4.0)
    assert rows[0][-1] == 0.0


def test_integrate_time_picture_matches_closed_form():
    config = IntegratorConfig(step=1e-3, start=0, stop=2)
    rows = rows_of(integrate("time", (0, 0), OrbitParams(1, 1), config))
    q, p = rows[-1][1:-2]
    assert rows[-1][0] == 2.0
    assert abs(q - (-2)) <= 1e-10
    assert abs(p - 2) <= 1e-10
    assert max(row[-1] for row in rows) <= 1e-8


def test_integrate_space_picture_matches_closed_form():
    config = IntegratorConfig(step=1e-3, start=0, stop=2)
    rows = rows_of(integrate("space", (0, 0), OrbitParams(1, 1), config))
    tau, e = rows[-1][1:-2]
    assert abs(tau - 2) <= 1e-10
    assert abs(e - 2) <= 1e-10
    assert max(row[-1] for row in rows) <= 1e-8


def _has_chart(params: OrbitParams, slope: str) -> bool:
    try:
        getattr(params, slope)
    except ChartUndefinedError:
        return False
    return True


float_labels = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e12, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


@given(float_labels, float_labels)
def test_float_chart_exists_iff_classify_finds_its_label_nonzero(k, y):
    cls = classify(DualElement(0, 0, 0, k, y))
    assert _has_chart(OrbitParams(k, y), "v") == (
        cls in (OrbitClass.GENERIC, OrbitClass.HOOKE_ONLY))
    assert _has_chart(OrbitParams(k, y), "s") == (
        cls in (OrbitClass.GENERIC, OrbitClass.YANK_ONLY))


def test_integrate_chart_errors():
    with pytest.raises(ChartUndefinedError):
        integrate("time", (0, 0), OrbitParams(0, 1))
    with pytest.raises(ChartUndefinedError):
        integrate("space", (0, 0), OrbitParams(1, 0))
    with pytest.raises(ValueError):
        integrate("sideways", (0, 0), OrbitParams(1, 1))


@pytest.mark.parametrize("build", [
    lambda p: integrate(p, (1.0, 1.0), OrbitParams(1.0, 1.0)),
    lambda p: closed_form_trajectory(p, (1, 1), OrbitParams(1, 1)),
    lambda p: dual_flow_trajectory(DualElement(1, 1, 1, 1, 1), p),
], ids=["rk4", "closed-form", "dual"])
@pytest.mark.parametrize("picture", ["sideways", "dual-time", "Time", ""])
def test_unknown_picture_is_a_value_error(build, picture):
    with pytest.raises(ValueError, match="unknown picture"):
        build(picture)


@pytest.mark.parametrize("f0", [5, Fraction(5, 3), 5.0])
@pytest.mark.parametrize("state0", [(1, 2), (1.0, 2.0)])
def test_time_closed_form_refuses_f0(f0, state0):
    # f0 is the space picture's initial force; the time closed form once
    # ignored it, and a float f0 turned its exact rows into floats
    params = OrbitParams(*map(type(state0[0]), (3, 4)))
    with pytest.raises(ValueError, match="only to the space picture"):
        closed_form_trajectory("time", state0, params, f0=f0)
    rows = rows_of(closed_form_trajectory("space", state0, params, f0=f0))
    assert rows[0][1:3] == state0


def test_closed_form_trajectory_rational_is_exact():
    config = IntegratorConfig(step=Fraction(1, 2), start=0, stop=2)
    traj = closed_form_trajectory("time", (Fraction(0), Fraction(0)),
                                  OrbitParams(Fraction(1), Fraction(1)), config)
    rows = rows_of(traj)
    assert [row[0] for row in rows] == [0, HALF, 1, Fraction(3, 2), 2]
    assert rows[-1][1] == -2
    assert rows[-1][2] == 2
    assert all(row[-1] == 0 for row in rows)
    assert traj.method == "closed-form"


def test_closed_form_trajectory_space_default_f0():
    config = IntegratorConfig(step=Fraction(1), start=0, stop=2)
    traj = closed_form_trajectory("space", (Fraction(1), Fraction(0)),
                                  OrbitParams(Fraction(2), Fraction(1)), config)
    # f0 defaulted to y*tau0 = 1, so e(x) = x + x^2 and pi-drift is zero
    rows = rows_of(traj)
    assert rows[-1][2] == 2 + 4
    assert all(row[-1] == 0 for row in rows)


def test_closed_form_trajectory_off_orbit_f0_drifts():
    config = IntegratorConfig(step=Fraction(1), start=0, stop=2)
    traj = closed_form_trajectory("space", (Fraction(0), Fraction(0)),
                                  OrbitParams(Fraction(1), Fraction(1)), config,
                                  f0=Fraction(1))
    assert max(row[-1] for row in rows_of(traj)) > 0


def test_dual_flow_trajectory_handles_chartless_points():
    config = IntegratorConfig(step=Fraction(1, 2), start=0, stop=3)
    mu = DualElement(Fraction(1), Fraction(0), Fraction(2), Fraction(0), Fraction(1))
    traj = dual_flow_trajectory(mu, "time", config)
    assert traj.picture == "dual-time"
    assert traj.columns == ("t", "p", "e", "f", "psi", "drift")
    rows = rows_of(traj)
    assert all(row[-1] == 0 for row in rows)
    final = time_flow(mu, 3)
    assert rows[-1][1:-2] == (final.p, final.e, final.f)


def test_trajectory_params_strictly_increasing():
    config = IntegratorConfig(step=1e-1, start=0, stop=1)
    traj = integrate("time", (1, 1), OrbitParams(1, 2), config)
    values = [row[0] for row in rows_of(traj)]
    assert values == sorted(set(values))
    assert values[-1] == 1.0


# ------------------------------------ trajectory rows against the formulas

def _reference_float_grid(start, stop, h):
    """The float grid written out as a list."""
    if stop == start:
        return [start]
    count = int((stop - start) / h + 1e-9)
    grid = [start + i * h for i in range(count + 1)]
    if abs(grid[-1] - stop) <= 1e-9 * h:
        grid[-1] = stop
    else:
        grid.append(stop)
    return grid


def _scan_advances(start, stop, h) -> bool:
    """Whether the float grid strictly increases, every point compared."""
    grid = _reference_float_grid(start, stop, h)
    return all(a < b for a, b in zip(grid, grid[1:]))


def _grid_verdict(start, stop, h) -> bool:
    try:
        _float_grid(start, stop, h)
    except InputFormatError as exc:
        assert "does not advance" in str(exc)
        return False
    return True


def _decided(start, stop, h) -> "bool | None":
    """``_grid_advances`` on the grid that ``_float_grid`` builds."""
    count = int((stop - start) / h + 1e-9)
    if abs(start + count * h - stop) > 1e-9 * h:
        count += 1
    return _grid_advances(start, h, count, start if stop == start else stop)


@pytest.mark.parametrize("start", [0.0, -0.0, 3.0, -7.5, 0.1, 1e16, -1e16,
                                   2.0 ** 60, -(2.0 ** 60), 1e300, -1e300,
                                   5e-324, 2.0 ** -1000])
def test_float_grid_verdict_is_the_scans_beside_the_step_threshold(start):
    # steps from half the rounding at the grid's points to far above it:
    # below about twice the rounding the points are scanned, above it the
    # verdict is proved; either way it is the scan's
    sides = set()
    for factor in (0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 12, 16, 64, 2 ** 20):
        for rows in (0, 1, 2, 3, 50, 1000):
            h = math.ulp(start) * factor
            for stop in (start + rows * h, start + (rows + 0.5) * h):
                if not (h > 0 and stop >= start):
                    continue  # half the smallest subnormal is 0
                assert _grid_verdict(start, stop, h) == \
                    _scan_advances(start, stop, h)
                decided = _decided(start, stop, h)
                assert decided in (None, _scan_advances(start, stop, h))
                sides.add(decided is None)
    assert sides == {True, False}


@given(st.floats(-1e20, 1e20), st.floats(1e-30, 1e6),
       st.integers(0, 300), st.floats(0, 1))
@settings(max_examples=300)
def test_float_grid_verdict_is_the_scans(start, h, rows, part):
    stop = start + (rows + part) * h
    if stop >= start and math.isfinite((stop - start) / h):
        assert _grid_verdict(start, stop, h) == _scan_advances(start, stop, h)


def test_float_grid_past_2_to_the_53_points_is_refused_at_once():
    # float(i) repeats past 2**53, so two points coincide: a scan would
    # meet the pair at 2**53 and 2**53 + 1
    assert 0.0 + 2 ** 53 * 1.0 == 0.0 + (2 ** 53 + 1) * 1.0
    assert _decided(0.0, 2.0 ** 53 + 2, 1.0) is False
    with pytest.raises(InputFormatError, match="does not advance"):
        _float_grid(0.0, 2.0 ** 53 + 2, 1.0)
    with pytest.raises(InputFormatError, match="does not advance"):
        _float_grid(0.0, 1.0, 1e-300)
    # over 1e15 points the count itself rounds: the last regular point
    # passes stop, a pair that a scan would meet last
    start, stop, h = 0.0, 441698295697359.6, 0.38480427929821126
    count = int((stop - start) / h + 1e-9) + 1
    assert start + (count - 1) * h > stop
    assert _decided(start, stop, h) is False
    # up to 2**53 + 1 points float(i) is exact, and the points are scanned
    assert _grid_advances(0.0, 1.0, 2 ** 53 + 1, 2.0 ** 53 + 2) is None
    assert _decided(0.0, 2.0 ** 53, 1.0) is None


def _rounding(start, stop, h) -> float:
    """ulp(span) + ulp(max(|start|, |top|)) of the grid ``_float_grid``
    builds: the bound above which a step is proved to advance it."""
    count = int((stop - start) / h + 1e-9)
    if abs(start + count * h - stop) > 1e-9 * h:
        count += 1
    span = (count - 1) * h
    return math.ulp(span) + math.ulp(max(abs(start), abs(start + span)))


@pytest.mark.parametrize("start", [
    2.0 ** 52 - 300, 2.0 ** 52 - 300.5, -(2.0 ** 52) + 200.25,
    2.0 ** 60 - 2.0 ** 17, -(2.0 ** 60) + 2.0 ** 16, 1e16 + 2.0, 2.0 ** 52,
    -(2.0 ** 53)])
def test_float_grid_verdict_is_the_scans_near_large_magnitudes(start):
    # about 1000 points whose rounding is ulp(start) or the next binade's:
    # steps on both sides of the proof's bound ulp(span) + ulp(max(|start|,
    # |top|)) and of twice it, the bound the proof used to need
    sides, sharper = set(), False
    for factor in (0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 4, 5):
        h = math.ulp(start) * factor
        bound = _rounding(start, start + 1000 * h, h)
        for step in (h, bound, math.nextafter(bound, math.inf), 2 * bound,
                     math.nextafter(2 * bound, math.inf)):
            for rows in (999, 1000, 1000.5):
                stop = start + rows * step
                scan = _scan_advances(start, stop, step)
                assert _grid_verdict(start, stop, step) == scan
                decided = _decided(start, stop, step)
                assert decided in (None, scan)
                sides.add(decided is None)
                rounding = _rounding(start, stop, step)
                # above the bound the grid is proved; below it, a pair
                # among the highest points may prove that it does not
                assert (decided is True) == (step > rounding)
                sharper |= rounding < step <= 2 * rounding
    assert sides == {True, False} and sharper


@pytest.mark.parametrize("start", [1e6, -1e6, 3.0, -0.1, 2.0 ** 60, 1e300])
def test_float_grid_whose_highest_points_collide_does_not_advance(start):
    # a step below half the spacing of doubles at the grid's top, less
    # the products' rounding: two of the three highest points are one
    # double, so the grid is refused as not advancing, before a scan,
    # however many points it has
    for rows in (10, 10 ** 6, 10 ** 12):
        h = 0.45 * math.ulp(start)
        stop = start + rows * h
        span = (rows - 1) * h
        assert 2 * h + math.ulp(span) < math.ulp(stop)
        assert _decided(start, stop, h) is False
        with pytest.raises(InputFormatError, match="does not advance"):
            _float_grid(start, stop, h)
        if rows < SCAN_POINTS:
            assert not _scan_advances(start, stop, h)


def test_float_grid_of_1e11_colliding_points_is_refused_at_once(capsys):
    # from 1e6 by 1e-11 the three highest points are one double; the step
    # is below half of ulp(1e6), where it used to be too fine to prove
    assert 1e-11 < math.ulp(1e6) / 2
    assert _decided(1e6, 1e6 + 1, 1e-11) is False
    code = main(["simulate", "--picture", "time", "--backend", "float",
                 "--state=1,1", "--k=1", "--y=1", "--range",
                 "1000000:1000001", "--step", "1e-11"])
    assert (code, *capsys.readouterr()) == (1, "", (
        "aristotle-orbits: error: step 1e-11 does not advance the float grid "
        "from 1000000.0 to 1000001.0; the trajectory parameter must be "
        "strictly increasing\n"))


def test_float_grid_in_the_band_scans_at_most_scan_points():
    # from 1.0 by ulp(1.0) neither bound decides, and every point is exact:
    # a grid of SCAN_POINTS points is scanned, one of a point more is
    # refused at once, naming the step that would prove it
    start, h = 1.0, math.ulp(1.0)
    scanned = start + (SCAN_POINTS - 1) * h
    assert _decided(start, scanned, h) is None
    _float_grid(start, scanned, h)
    stop = start + SCAN_POINTS * h
    assert _decided(start, stop, h) is None and _scan_advances(start, stop, h)
    bound = _rounding(start, stop, h)
    with pytest.raises(InputFormatError) as excinfo:
        _float_grid(start, stop, h)
    assert str(excinfo.value) == (
        f"step {h!r} is too fine to prove that the float grid from 1.0 to "
        f"{stop!r} advances: a grid of more than {SCAN_POINTS} points "
        f"needs a step above {bound!r}")
    # just above that step the grid is proved without a scan
    step = math.nextafter(bound, 1.0)
    assert _decided(start, stop, step) is True
    _float_grid(start, stop, step)


def test_float_grid_from_zero_needs_only_the_products_rounding():
    # from 0 each point is one rounding of i*h: h > ulp(span) proves the
    # grid, where the general bound would scan about 5e15 points
    start, stop, h = 0.0, 1.0, 2e-16
    count = int((stop - start) / h + 1e-9)
    if abs(start + count * h - stop) > 1e-9 * h:
        count += 1
    span = (count - 1) * h
    assert math.ulp(span) < h <= math.ulp(span) + math.ulp(start + span)
    assert _decided(start, stop, h) is True
    assert _decided(-0.0, stop, h) is True
    _float_grid(start, stop, h)  # at once, before any point
    # the last 200 000 points, where the products round most
    tail = [start + i * h for i in range(count - 200_000, count)] + [stop]
    assert all(a < b for a, b in zip(tail, tail[1:]))


def _reference_rk4(picture, state, params, grid):
    """Generic classical RK4 on time_rhs/space_rhs, one row per parameter."""
    def rhs(s):
        if picture == "time":
            return time_rhs(TimeState(q=s[0], p=s[1]), params)
        return space_rhs(SpaceState(tau=s[0], e=s[1]), params)

    states, prev = [], None
    for param in grid:
        if prev is not None:
            h = param - prev
            k1 = rhs(state)
            k2 = rhs(tuple(s + h / 2 * d for s, d in zip(state, k1)))
            k3 = rhs(tuple(s + h / 2 * d for s, d in zip(state, k2)))
            k4 = rhs(tuple(s + h * d for s, d in zip(state, k3)))
            state = tuple(s + h / 6 * (a + 2 * b + 2 * c + d)
                          for s, a, b, c, d in zip(state, k1, k2, k3, k4))
        prev = param
        states.append(state)
    return states


def _chart_rows(picture, params, grid, states):
    # U = p v - k q^2/2 or pi = e s - y tau^2/2, written out as the oracle
    slope, force = ((params.v, params.k) if picture == "time"
                    else (params.s, params.y))
    rows = [(param, a, b, b * slope - HALF * force * a * a)
            for param, (a, b) in zip(grid, states)]
    return [row + (abs(row[-1] - rows[0][-1]),) for row in rows]


def _dual_rows(picture, mu0, grid):
    # mu0 is the dual point at the range's start, grid[0]
    flow = time_flow if picture == "time" else space_flow
    rows = []
    for param in grid:
        mu = flow(mu0, param - grid[0])
        rows.append((param, mu.p, mu.e, mu.f, invariants(mu).psi))
    return [row + (abs(row[-1] - rows[0][-1]),) for row in rows]


def _closed_form_states(picture, state0, params, grid, f0):
    # The four formulas written out: q = q0 - v t, p = p0 - k q0 t +
    # y t^2/2; tau = tau0 + s x, e = e0 + f0 x + k x^2/2.  state0 (and f0)
    # are the state at the range's start, grid[0].
    a0, b0 = state0
    offsets = [param - grid[0] for param in grid]
    if picture == "time":
        v, kq0, half_y = params.v, params.k * a0, HALF * params.y
        return [(a0 - v * t, b0 - kq0 * t + half_y * t * t) for t in offsets]
    s, half_k = params.s, HALF * params.k
    f0 = params.y * a0 if f0 is None else f0
    return [(a0 + s * x, b0 + f0 * x + half_k * x * x) for x in offsets]


pictures = st.sampled_from(("time", "space"))
steps = st.fractions(min_value=Fraction(1, 5), max_value=2, max_denominator=6)


@given(pictures, params_st(), small_fractions, small_fractions,
       small_fractions, steps, st.one_of(st.none(), small_fractions))
@settings(max_examples=60)
def test_exact_closed_form_rows_are_the_formulas(picture, params, a0, b0,
                                                 start, step, f0):
    if picture == "time":
        f0 = None
    config = IntegratorConfig(step=step, start=start, stop=start + 3)
    traj = closed_form_trajectory(picture, (a0, b0), params, config, f0=f0)
    grid = [row[0] for row in rows_of(traj)]
    assert grid[0] == start and grid[-1] == start + 3
    assert all(b - a == step for a, b in zip(grid, grid[1:-1]))
    states = _closed_form_states(picture, (a0, b0), params, grid, f0)
    assert rows_of(traj) == _chart_rows(picture, params, grid, states)


@given(pictures, dual_points, small_fractions, steps)
@settings(max_examples=60)
def test_exact_dual_rows_are_the_flows(picture, mu0, start, step):
    config = IntegratorConfig(step=step, start=start, stop=start + 3)
    traj = dual_flow_trajectory(mu0, picture, config)
    grid = [row[0] for row in rows_of(traj)]
    assert grid[-1] == start + 3
    assert rows_of(traj) == _dual_rows(picture, mu0, grid)


# ------------------- exact rows tabulated by differences, past the head

def _reference_exact_grid(start, stop, step):
    """start, start+step, ... while below stop, then stop itself."""
    grid, param = [], start
    while param < stop:
        grid.append(param)
        param += step
    return grid + [stop]


def _cells(traj) -> list:
    """The output cells of every row: the one chunk of them all."""
    chunk, = traj.cell_chunks(None)
    return list(chunk)


def _assert_cells_are_the_formatted_rows(traj):
    rows = rows_of(traj)
    assert _cells(traj) == \
        [tuple(map(format_scalar, row)) for row in rows]
    return rows


def _exact_cases(picture, start, stop, step, state0, params, f0, mu0):
    """(trajectory, expected rows) for the three exact trajectories."""
    config = IntegratorConfig(step=step, start=start, stop=stop)
    grid = _reference_exact_grid(start, stop, step)
    states = _closed_form_states(picture, state0, params, grid, None)
    cases = [
        (closed_form_trajectory(picture, state0, params, config),
         _chart_rows(picture, params, grid, states)),
        (dual_flow_trajectory(mu0, picture, config),
         _dual_rows(picture, mu0, grid)),
    ]
    if picture == "space":
        states = _closed_form_states(picture, state0, params, grid, f0)
        cases.append(
            (closed_form_trajectory(picture, state0, params, config, f0=f0),
             _chart_rows(picture, params, grid, states)))
    return cases


long_steps = st.fractions(min_value=Fraction(1, 10), max_value=1,
                          max_denominator=10)
lattice_offsets = st.just(Fraction(0)) | st.fractions(
    min_value=0, max_value=1, max_denominator=7).filter(lambda f: f < 1)


@given(pictures, params_st(), small_fractions, small_fractions,
       small_fractions, dual_points, small_fractions, long_steps,
       st.integers(0, 60), lattice_offsets)
@settings(max_examples=80, deadline=None)
def test_exact_rows_past_the_head_are_the_formulas(
        picture, params, a0, b0, f0, mu0, start, step, count, offset):
    # stop on the lattice (offset 0) or between two of its points
    stop = start + (count + offset) * step
    for traj, expected in _exact_cases(picture, start, stop, step,
                                       (a0, b0), params, f0, mu0):
        rows = _assert_cells_are_the_formatted_rows(traj)
        assert rows == expected
        assert all(type(c) is Fraction for row in rows for c in row)


@pytest.mark.parametrize("picture", ("time", "space"))
@pytest.mark.parametrize("count", range(5))
@pytest.mark.parametrize("offset", (Fraction(0), Fraction(2, 3)))
def test_exact_rows_at_each_head_length(picture, count, offset):
    start, step = Fraction(-7, 3), Fraction(1, 2)
    stop = start + (count + offset) * step
    params = OrbitParams(Fraction(3, 2), Fraction(-5, 4))
    mu0 = DualElement(Fraction(1, 4), Fraction(-3, 4), Fraction(7, 4),
                      params.k, params.y)
    for traj, expected in _exact_cases(picture, start, stop, step,
                                       (Fraction(-3, 4), Fraction(5, 4)),
                                       params, Fraction(3, 7), mu0):
        assert len(expected) == count + (2 if offset else 1)
        assert _assert_cells_are_the_formatted_rows(traj) == expected


@pytest.mark.parametrize("picture", ("time", "space"))
@pytest.mark.parametrize("count", (0, 2, 9))
def test_exact_cells_of_integral_rows(picture, count):
    # integral start, step, orbit and states: the time and dual columns
    # are integers, negative ones among them; the dual's e (time) or p
    # (space) column is constant, and tau = -3 - x/2 is not integral
    start, step = Fraction(-3), Fraction(1)
    params = OrbitParams(Fraction(2), Fraction(-4))
    mu0 = DualElement(Fraction(1), Fraction(-3), Fraction(7), params.k,
                      params.y)
    cells = []
    for traj, expected in _exact_cases(picture, start, start + count, step,
                                       (Fraction(-3), Fraction(5)), params,
                                       Fraction(3), mu0):
        assert _assert_cells_are_the_formatted_rows(traj) == expected
        cells += (cell for row in _cells(traj) for cell in row)
    assert any(cell.startswith("-") and "/" not in cell for cell in cells)
    assert any(cell.isdigit() and cell != "0" for cell in cells)


@given(pictures, params_st(), small_fractions, small_fractions,
       small_fractions, dual_points, small_fractions, long_steps,
       st.integers(0, 40), lattice_offsets, st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_exact_cell_chunks_of_any_size_are_the_cells(
        picture, params, a0, b0, f0, mu0, start, step, count, offset, size):
    # chunks of ``size`` rows drawn from one stream of cells; the stop row
    # ends the last chunk, on the lattice or off it
    stop = start + (count + offset) * step
    for traj, expected in _exact_cases(picture, start, stop, step,
                                       (a0, b0), params, f0, mu0):
        chunks = [list(chunk) for chunk in traj.cell_chunks(size)]
        assert [len(chunk) for chunk in chunks[:-1]] == \
            [size] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= size
        assert [cell for chunk in chunks for cell in chunk] == \
            [tuple(map(format_scalar, row)) for row in expected]


# ------------------- the initial state is the state at the range's start

def _exact_builds(picture, state0, params, f0, mu0) -> list:
    """config -> trajectory, for every exact mode of ``picture``."""
    builds = [
        lambda config: closed_form_trajectory(picture, state0, params, config),
        lambda config: dual_flow_trajectory(mu0, picture, config),
    ]
    if picture == "space":
        builds.append(lambda config: closed_form_trajectory(
            picture, state0, params, config, f0=f0))
    return builds


@given(pictures, params_st(), small_fractions, small_fractions,
       small_fractions, dual_points, small_fractions, long_steps,
       st.integers(0, 20), lattice_offsets)
@settings(max_examples=60, deadline=None)
def test_exact_trajectory_over_a_shifted_range_shifts_only_its_parameter(
        picture, params, a0, b0, f0, mu0, shift, step, count, offset):
    # a run over A:B is the run over 0:B-A with the parameter shifted by
    # A, in the rows and in the cells, whatever the chunk size
    length = (count + offset) * step
    for build in _exact_builds(picture, (a0, b0), params, f0, mu0):
        shifted = build(IntegratorConfig(step=step, start=shift,
                                         stop=shift + length))
        origin = build(IntegratorConfig(step=step, start=0, stop=length))
        assert rows_of(shifted) == [(row[0] + shift, *row[1:])
                                    for row in rows_of(origin)]
        for size in (None, 1, 2, 5):
            assert [list(chunk) for chunk in shifted.cell_chunks(size)] == [
                [(format_scalar(Fraction(row[0]) + shift), *row[1:])
                 for row in chunk] for chunk in origin.cell_chunks(size)]


def test_exact_chunks_never_iterated_make_no_cell(monkeypatch):
    # a chunk's cells are made as the chunk is drawn: one chunk of many
    # makes the cells of that chunk only
    made = []

    def counted(num, den):
        made.append(num)
        return real(num, den)

    real = dynamics.ratio_text
    monkeypatch.setattr(dynamics, "ratio_text", counted)
    params = OrbitParams(Fraction(3, 2), Fraction(-5, 4))
    config = IntegratorConfig(step=Fraction(1, 64), start=0,
                              stop=Fraction(2000, 64) + Fraction(1, 128))
    for traj in (closed_form_trajectory("space", (Fraction(1, 4), 2),
                                        params, config),
                 dual_flow_trajectory(DualElement(1, -3, 7, *params),
                                      "time", config)):
        whole = _cells(traj)
        made.clear()
        chunks = traj.cell_chunks(256)
        assert made == []
        first = next(chunks)
        # one text a row for each column that is not constant
        varying = sum(len({row[column] for row in whole}) > 1
                      for column in range(len(whole[0])))
        assert len(made) == 256 * varying
        assert first == whole[:256]
        fourth = list(chunks)[2]
        assert fourth == whole[768:1024]
        # each regular row's cells once; the stop row's are read off the
        # columns' coefficients
        assert len(made) == (len(whole) - 1) * varying


@pytest.mark.parametrize("size", [None, 1, 2, 3, 256])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 255, 256, 257, 1000])
def test_drawn_chunks_are_the_rows_in_order(count, size):
    # one factory() call; every chunk but the last is full, none is empty,
    # and a chunk is drawn only as it is asked for
    calls, drawn = [], []

    def factory():
        calls.append(None)
        for row in range(count):
            drawn.append(row)
            yield (row, f"{row * row}")

    chunks = dynamics._drawn_chunks(factory, size)
    assert calls == [] or calls == [None]
    got = []
    for chunk in chunks:
        assert type(chunk) is list and chunk
        got.append(chunk)
        assert len(drawn) == sum(map(len, got))
    assert calls == [None]
    width = size or max(count, 1)
    assert [len(chunk) for chunk in got[:-1]] == [width] * (len(got) - 1)
    assert len(got) == -(-count // width)
    assert [row for chunk in got for row in chunk] == [
        (row, f"{row * row}") for row in range(count)]


def test_float_cell_chunks_are_lists_of_the_rows():
    config = IntegratorConfig(step=0.125, start=0, stop=100.0625)
    traj = integrate("time", (0.25, -1.75), OrbitParams(1.5, -1.25), config)
    chunks = list(traj.cell_chunks(256))
    assert all(type(chunk) is list for chunk in chunks)
    assert [len(chunk) for chunk in chunks] == [256, 256, 256, 802 - 768]
    assert [row for chunk in chunks for row in chunk] == rows_of(traj)
    assert _cells(traj) == rows_of(traj)


def test_difference_guard_rejects_a_cubic_sampler():
    # the degree is read off the coefficients, so a cubic column is refused
    # at every range length, the shortest ones included
    for count in range(5):
        config = IntegratorConfig(step=Fraction(1, 3), start=-1,
                                  stop=-1 + Fraction(count, 3))
        with pytest.raises(ArithmeticError, match="not quadratic"):
            _exact_rows(config, lambda t: (t, t * t * t), lambda a, b: a)
        with pytest.raises(ArithmeticError, match="not quadratic"):
            _exact_rows(config, lambda t: (t, t * t), lambda a, b: a * b)
        with pytest.raises(ArithmeticError, match="not quadratic"):
            _exact_rows(config, lambda t: (t, t * t * t), lambda a, b: b)


float_cases = st.tuples(
    pictures,
    st.floats(0.25, 4) | st.floats(-4, -0.25),
    st.floats(0.25, 4) | st.floats(-4, -0.25),
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
    st.sampled_from((0.1, 0.125, 0.3, 0.001)))


def _exact_cells(picture, labels, state, dual=False, f0=None):
    """offset -> the exact (*coords, invariant) of the paper's formulas
    from the exact images of the float inputs, written out: q = q0 - v t,
    p = p0 - k q0 t + y t^2/2, U = p v - k q^2/2; tau = tau0 + s x, e =
    e0 + f0 x + k x^2/2, pi = e s - y tau^2/2; the dual flows of (p, e, f)
    with psi = 2ke - f^2 + 2py."""
    k, y = map(Fraction, labels)
    a0, b0, *rest = map(Fraction, state)
    if dual:
        c0, = rest
        if picture == "time":
            path = lambda t: (a0 - c0 * t + y * t * t / 2, b0, c0 - y * t)
        else:
            path = lambda x: (a0, b0 + c0 * x + k * x * x / 2, c0 + k * x)
        return lambda s: (*path(s), psi_of(*path(s), k, y))
    if picture == "time":
        v = y / k
        return lambda t: ((q := a0 - v * t), (p := b0 - k * a0 * t
                                              + y * t * t / 2),
                          p * v - k * q * q / 2)
    slowness = k / y
    force = y * a0 if f0 is None else Fraction(f0)
    return lambda x: ((tau := a0 + slowness * x),
                      (e := b0 + force * x + k * x * x / 2),
                      e * slowness - y * tau * tau / 2)


def psi_of(p, e, f, k, y):
    return 2 * k * e - f * f + 2 * p * y


def _rounded_rows(cells, grid):
    """Each grid row's exact cells and drift |inv - inv0|, each rounded
    to a double once by ``float()``."""
    inv0 = cells(0)[-1]
    rows = []
    for param in grid:
        exact = cells(Fraction(param) - Fraction(grid[0]))
        rows.append((param, *map(float, exact), float(abs(exact[-1] - inv0))))
    return rows


def _some_cell_overflows(cells, length):
    """Whether an exact cell at an end of [0, length], or at a column's
    vertex inside it (from the column's second difference), rounds
    beyond the largest double."""
    inv0 = cells(0)[-1]
    offsets = [Fraction(0), length]
    for f0, f1, f2 in zip(*(cells(Fraction(i)) for i in range(3))):
        c2 = (f2 - 2 * f1 + f0) / 2
        if c2 and 0 < (f0 - f1 + c2) / (2 * c2) < length:
            offsets.append((f0 - f1 + c2) / (2 * c2))
    for offset in offsets:
        exact = cells(offset)
        for value in (*exact, exact[-1] - inv0):
            try:
                float(value)
            except OverflowError:
                return True
    return False


def _assert_rows_are_rounded_cells(build, cells, grid):
    """The trajectory's rows are the exact cells rounded once, or it is
    refused and some exact cell rounds beyond the doubles."""
    try:
        traj = build()
    except InputFormatError as exc:
        event("refused")
        assert "not finite" in str(exc)
        assert _some_cell_overflows(cells, Fraction(grid[-1])
                                    - Fraction(grid[0]))
        return
    event("written")
    assert rows_of(traj) == _rounded_rows(cells, grid)


# signed zeros, subnormal, tiny and near-1e150 values beside ordinary ones
rounding_inputs = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e150,
                     -1e150, 1.5e150]),
    st.floats(-4, 4), st.floats(1e149, 1e151), st.floats(-1e151, -1e149))
rounding_starts = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
    [0.0, -0.0, 0.1, -2.5, 1e6, 1e-300]))
rounding_steps = st.sampled_from((0.1, 0.125, 0.3, 0.25))
# psi = 2ke - f^2 + 2py passes the doubles only from about 1e154
dual_inputs = st.one_of(rounding_inputs, st.floats(1e154, 1e156),
                        st.floats(-1e156, -1e154))


@given(pictures, rounding_inputs, rounding_inputs, rounding_inputs,
       rounding_inputs, st.one_of(st.none(), rounding_inputs),
       rounding_starts, rounding_steps)
@settings(max_examples=80, deadline=None)
def test_float_closed_form_rows_are_the_formulas(picture, k, y, a0, b0, f0,
                                                 start, h):
    # every cell but the parameter is float() of the exact formula at the
    # row's exact offset, for the run's own float inputs
    if picture == "time":
        f0 = None
    params = OrbitParams(k, y)
    if not _has_chart(params, "v" if picture == "time" else "s"):
        event("no chart")
        return
    config = IntegratorConfig(step=h, start=start, stop=start + 2)
    _assert_rows_are_rounded_cells(
        lambda: closed_form_trajectory(picture, (a0, b0), params, config,
                                       f0=f0),
        _exact_cells(picture, (k, y), (a0, b0), f0=f0),
        _reference_float_grid(start, start + 2, h))


@given(pictures, dual_inputs, dual_inputs,
       st.tuples(dual_inputs, dual_inputs, dual_inputs),
       rounding_starts, rounding_steps)
@settings(max_examples=80, deadline=None)
def test_float_dual_rows_are_the_flows(picture, k, y, state, start, h):
    config = IntegratorConfig(step=h, start=start, stop=start + 2)
    _assert_rows_are_rounded_cells(
        lambda: dual_flow_trajectory(DualElement(*state, k, y), picture,
                                     config),
        _exact_cells(picture, (k, y), state, dual=True),
        _reference_float_grid(start, start + 2, h))


@pytest.mark.parametrize("y, written", [
    (2.0**971 * (1 - 2.0**-53), True),  # p(1) = MAX + y/2 rounds to MAX
    (2.0**971, False),  # y/2 is half an ulp of MAX: it rounds to 2^1024
])
def test_float_row_is_refused_exactly_where_a_cell_rounds_beyond(y, written):
    # q = -v t is tiny and U = MAX v, so p is the largest cell
    config = IntegratorConfig(step=1.0, start=0.0, stop=1.0)
    params, state = OrbitParams(2.0**1000, y), (0.0, sys.float_info.max)
    assert Fraction(sys.float_info.max) + Fraction(y) / 2 > \
        Fraction(sys.float_info.max)
    build = lambda: closed_form_trajectory("time", state, params, config)
    if written:
        assert rows_of(build())[-1][2] == sys.float_info.max
    else:
        with pytest.raises(InputFormatError,
                           match=r"the row at 1\.0 is \(-?[0-9.e-]+, inf,"):
            build()


@pytest.mark.parametrize("picture", ["time", "space"])
@pytest.mark.parametrize("dual", [False, True], ids=["closed-form", "dual"])
@pytest.mark.parametrize("number", [Fraction, float])
def test_sampled_trajectories_read_their_model_once_on_a_poly(
        monkeypatch, picture, dual, number):
    # the columns are read off one symbolic sample; rows and cells, drawn
    # any number of times over any grid, evaluate those columns only
    calls = []

    def counted(model):
        def wrapped(*args):
            sample, invariant = model(*args)
            return (lambda offset: calls.append(offset) or sample(offset),
                    invariant)
        return wrapped

    for name in ("_chart_model", "_dual_model"):
        monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
    k, y, a0, b0, c0 = map(number, (1.5, -1.25, 0.25, -1.75, 0.5))
    for stop in (0, 1, 50):
        config = IntegratorConfig(step=number(0.125), start=number(-0.5),
                                  stop=number(stop))
        if dual:
            traj = dual_flow_trajectory(DualElement(a0, b0, c0, k, y),
                                        picture, config)
        else:
            traj = closed_form_trajectory(picture, (a0, b0),
                                          OrbitParams(k, y), config)
        for _ in range(2):
            assert len(rows_of(traj)) == len(_cells(traj)) == 8 * stop + 5
        assert len(calls) == 1 and isinstance(calls[0], Poly)
        calls.clear()


@pytest.mark.parametrize("picture, state, term", [
    ("time", (1.4e154, 0.0), "k q^2/2"),
    ("space", (1.4e154, 0.0), "y tau^2/2"),
])
def test_rk4_invariant_products_are_refused_with_one_binade_to_spare(
        picture, state, term):
    # k q^2/2 (y tau^2/2) is 9.8e307, a double over half the largest one:
    # RK4, whose invariant is a float sum of two float products, refuses
    # it before any row; the closed form's invariant is exact, then rounded
    config = IntegratorConfig(step=0.5, start=0, stop=0)
    params = OrbitParams(1.0, 1.0)
    with pytest.raises(InputFormatError,
                       match=rf"the RK4 invariant's product {re.escape(term)}"
                             r" reaches 9\.8\d*e\+307, over half"):
        integrate(picture, state, params, config)
    (row,) = rows_of(closed_form_trajectory(picture, state, params, config))
    assert row[-2] == float(-Fraction(1.4e154) ** 2 / 2)


@given(float_cases)
@settings(max_examples=40)
def test_rk4_rows_are_the_generic_scheme(case):
    """Same float operations as classical RK4 written over the rhs."""
    picture, k, y, a0, b0, start, h = case
    params = OrbitParams(k, y)
    config = IntegratorConfig(step=h, start=start, stop=start + 2)
    traj = integrate(picture, (a0, b0), params, config)
    grid = _reference_float_grid(start, start + 2, h)
    states = _reference_rk4(picture, (a0, b0), params, grid)
    assert rows_of(traj) == _chart_rows(picture, params, grid, states)


@given(float_cases, st.floats(-3, 3))
@settings(max_examples=40)
def test_float_trajectory_over_a_shifted_range_is_close_to_the_shift(
        case, e0):
    # start + i*h rounds differently from i*h, so a float run over A:A+2
    # is the run over 0:2 shifted by A only up to roundoff; RK4's grows
    # with its steps, to about 1.5e-12 relative over 2000 of them
    picture, k, y, a0, b0, shift, h = case
    params = OrbitParams(k, y)
    builds = [
        lambda config: integrate(picture, (a0, b0), params, config),
        lambda config: closed_form_trajectory(picture, (a0, b0), params,
                                              config),
        lambda config: dual_flow_trajectory(DualElement(a0, e0, b0, k, y),
                                            picture, config),
    ]
    for build in builds:
        shifted = rows_of(build(IntegratorConfig(step=h, start=shift,
                                                 stop=shift + 2)))
        origin = rows_of(build(IntegratorConfig(step=h, start=0, stop=2.0)))
        assert len(shifted) == len(origin)
        for near, far in zip(origin, shifted):
            assert math.isclose(far[0] - shift, near[0], abs_tol=1e-14)
            for a, b in zip(near[1:], far[1:]):
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def test_rows_rerun_identically():
    config = IntegratorConfig(step=0.25, start=0, stop=2)
    traj = integrate("space", (0.5, -1.0), OrbitParams(3, 2), config)
    assert list(traj.row_factory()) == list(traj.row_factory())
    assert not hasattr(traj, "rows")


# ------------------------------------------------- RK4's rounding, bounded

def _flow_at(picture, params, state0, offset):
    """The exact (a, b) at ``offset`` of the flow of integrate's own float
    constants, written out: a0 + rate s, b0 + gain (a0 s + rate s^2/2)."""
    rate, gain = map(Fraction, dynamics._chart(picture, params)[:2])
    a0, b0 = map(Fraction, state0)
    return a0 + rate * offset, b0 + gain * (a0 * offset
                                            + rate * offset * offset / 2)


# signs, 0.1-like decimals, magnitudes up to 1e6; states also tiny ones,
# whose products underflow
decimals = st.integers(-10**7, 10**7).map(lambda i: i / 10)
labels = st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), st.one_of(
    st.integers(1, 10**7).map(lambda i: i / 10), st.floats(1e-3, 1e6)))
states = st.one_of(decimals, st.floats(-1e6, 1e6), st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-300, 1e-160, 0.1, -0.3]))


@given(pictures, labels, labels, states, states,
       st.sampled_from([0.0, 0.0, -1.5, 0.3, 7.0]),
       st.sampled_from([1e-3, 0.1, 0.125, 0.3, 1.0]),
       st.integers(0, 2000) | st.sampled_from([1000, 2000]))
@settings(max_examples=80, deadline=None)
def test_rk4_bound_dominates_the_rounding(picture, k, y, a0, b0, start, h,
                                          steps):
    # the float run's final (a, b) against the exact flow at its last
    # parameter, and its largest drift, are within the exact bound
    params = OrbitParams(k, y)
    config = IntegratorConfig(step=h, start=start, stop=start + steps * h)
    try:
        rows = rows_of(integrate(picture, (a0, b0), params, config))
    except (ChartUndefinedError, InputFormatError):
        return
    bound = dynamics.rk4_bound(picture, (a0, b0), params, config)
    assert bound.steps == len(rows) - 1
    last = rows[-1]
    exact = _flow_at(picture, params, (a0, b0),
                     Fraction(last[0]) - Fraction(start))
    assert exact == bound.end
    for value, flow, limit in zip(last[1:3], exact, bound.coords):
        assert abs(Fraction(value) - flow) <= limit
    assert max(row[-1] for row in rows) <= bound.drift


def test_rk4_bound_grows_with_the_steps():
    # more steps over one range, or more of one step, round more; 10**12
    # steps are bounded at once, as no row is stepped
    run = ("time", (0.5, -1.0), OrbitParams(2.0, 3.0))
    over_one_range = [dynamics.rk4_bound(*run, IntegratorConfig(
        step=10 / steps, start=0.0, stop=10.0))
        for steps in (1, 10, 10**4, 10**6, 10**12)]
    of_one_step = [dynamics.rk4_bound(*run, IntegratorConfig(
        step=1e-3, start=0.0, stop=steps * 1e-3))
        for steps in (0, 1, 100, 10**4, 10**5)]
    for bounds in (over_one_range, of_one_step):
        for less, more in zip(bounds, bounds[1:]):
            assert less.steps < more.steps
            assert all(map(operator.lt, less.coords, more.coords))
            assert less.drift < more.drift
    assert of_one_step[0].coords == (0, 0)
    assert over_one_range[-1].steps == 10**12


@given(pictures, float_labels, float_labels,
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.sampled_from([(1e-3, 0.0, 10.0), (0.5, 0.0, 1.0), (1.0, -100.0, 100.0),
                        (1e-11, 0.0, 10.0), (2e-16, 0.0, 1.0),
                        (1e154, -1e154, 1e154), (0.5, 1.0, 1.0)]))
@settings(max_examples=150, deadline=None)
def test_rk4_bound_is_given_exactly_where_integrate_runs(picture, k, y, a0,
                                                         b0, span):
    # the bound shares integrate's set-up, so it refuses what integrate
    # refuses, with the same error, and is a finite exact number otherwise
    params, config = OrbitParams(k, y), IntegratorConfig(*span)
    try:
        integrate(picture, (a0, b0), params, config)
    except (ChartUndefinedError, InputFormatError) as exc:
        with pytest.raises(type(exc)) as excinfo:
            dynamics.rk4_bound(picture, (a0, b0), params, config)
        assert str(excinfo.value) == str(exc)
        return
    bound = dynamics.rk4_bound(picture, (a0, b0), params, config)
    for value in (*bound.end, *bound.coords, bound.drift):
        assert type(value) is Fraction
    assert min(*bound.coords, bound.drift) >= 0
