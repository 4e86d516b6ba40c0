"""Flows, closed forms, right-hand sides, Hamiltonians, integrator."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aristotle_orbits.backend import InputFormatError, format_scalar
from aristotle_orbits.dynamics import (
    ChartUndefinedError, IntegratorConfig, OrbitParams, SpaceState, TimeState,
    closed_form_trajectory, dual_flow_trajectory,
    hamiltonian_space, hamiltonian_time, integrate,
    Trajectory, realization_space, realization_time,
    space_closed_form, space_flow, space_rhs, space_rhs_printed,
    time_closed_form, time_flow, time_rhs, time_rhs_printed,
)
from aristotle_orbits.dynamics import (
    _chart_invariant, _exact_rows, _float_grid, _grid_advances,
)
from aristotle_orbits.orbits import (
    DualElement, OrbitClass, classify, coadjoint_printed, invariants,
)

HALF = Fraction(1, 2)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
dual_points = st.tuples(*([small_fractions] * 5)).map(DualElement._make)
nonzero_fractions = small_fractions.filter(lambda f: f != 0)


def params_st():
    return st.builds(OrbitParams, nonzero_fractions, nonzero_fractions)


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
    invariant = _chart_invariant("time", params)
    assert invariant(*time_closed_form(q0, p0, params, t)) == invariant(q0, p0)
    invariant = _chart_invariant("space", params)
    tau_e = space_closed_form(q0, p0, params.y * q0, params, t)
    assert invariant(*tau_e) == invariant(q0, p0)


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
    # 1/EPS_CLASS); e = e0 + f0 x + k x^2/2 overflows at x = 2; the dual's
    # psi overflows only where f vanishes, at t = f0/y = 3.75e153, strictly
    # inside the range
    huge = IntegratorConfig(step=2e153, start=1.75e153, stop=5.75e153)
    builds = (
        lambda: integrate("time", (1, 1), OrbitParams(1.0, 1.0),
                          IntegratorConfig(step=1e154, start=0, stop=2e154)),
        lambda: closed_form_trajectory(
            "space", (1.0, 1.0), OrbitParams(1.0, 1.0),
            IntegratorConfig(step=1.0, start=0, stop=2), f0=1e308),
        lambda: dual_flow_trajectory(DualElement(0.0, 8e307, 1.5e154, 1, 4),
                                     "time", huge),
    )
    for build in builds:
        with pytest.raises(InputFormatError, match="not finite"):
            build()


def test_integrate_zero_length_range():
    config = IntegratorConfig(step=1e-3, start=0, stop=0)
    traj = integrate("time", (3, 4), OrbitParams(1, 1), config)
    assert len(traj.rows) == 1
    assert traj.rows[0][0] == 0.0
    assert traj.rows[-1][1:-2] == (3.0, 4.0)
    assert traj.rows[0][-1] == 0.0


def test_integrate_time_picture_matches_closed_form():
    config = IntegratorConfig(step=1e-3, start=0, stop=2)
    traj = integrate("time", (0, 0), OrbitParams(1, 1), config)
    q, p = traj.rows[-1][1:-2]
    assert traj.rows[-1][0] == 2.0
    assert abs(q - (-2)) <= 1e-10
    assert abs(p - 2) <= 1e-10
    assert max(row[-1] for row in traj.rows) <= 1e-8


def test_integrate_space_picture_matches_closed_form():
    config = IntegratorConfig(step=1e-3, start=0, stop=2)
    traj = integrate("space", (0, 0), OrbitParams(1, 1), config)
    tau, e = traj.rows[-1][1:-2]
    assert abs(tau - 2) <= 1e-10
    assert abs(e - 2) <= 1e-10
    assert max(row[-1] for row in traj.rows) <= 1e-8


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


def test_closed_form_trajectory_rational_is_exact():
    config = IntegratorConfig(step=Fraction(1, 2), start=0, stop=2)
    traj = closed_form_trajectory("time", (Fraction(0), Fraction(0)),
                                  OrbitParams(Fraction(1), Fraction(1)), config)
    assert [row[0] for row in traj.rows] == [0, HALF, 1, Fraction(3, 2), 2]
    assert traj.rows[-1][1] == -2
    assert traj.rows[-1][2] == 2
    assert all(row[-1] == 0 for row in traj.rows)
    assert traj.method == "closed-form"


def test_closed_form_trajectory_space_default_f0():
    config = IntegratorConfig(step=Fraction(1), start=0, stop=2)
    traj = closed_form_trajectory("space", (Fraction(1), Fraction(0)),
                                  OrbitParams(Fraction(2), Fraction(1)), config)
    # f0 defaulted to y*tau0 = 1, so e(x) = x + x^2 and pi-drift is zero
    assert traj.rows[-1][2] == 2 + 4
    assert all(row[-1] == 0 for row in traj.rows)


def test_closed_form_trajectory_off_orbit_f0_drifts():
    config = IntegratorConfig(step=Fraction(1), start=0, stop=2)
    traj = closed_form_trajectory("space", (Fraction(0), Fraction(0)),
                                  OrbitParams(Fraction(1), Fraction(1)), config,
                                  f0=Fraction(1))
    assert max(row[-1] for row in traj.rows) > 0


def test_dual_flow_trajectory_handles_chartless_points():
    config = IntegratorConfig(step=Fraction(1, 2), start=0, stop=3)
    mu = DualElement(Fraction(1), Fraction(0), Fraction(2), Fraction(0), Fraction(1))
    traj = dual_flow_trajectory(mu, "time", config)
    assert traj.picture == "dual-time"
    assert traj.columns == ("t", "p", "e", "f", "psi", "drift")
    assert all(row[-1] == 0 for row in traj.rows)
    final = time_flow(mu, 3)
    assert traj.rows[-1][1:-2] == (final.p, final.e, final.f)


def test_trajectory_params_strictly_increasing():
    config = IntegratorConfig(step=1e-1, start=0, stop=1)
    traj = integrate("time", (1, 1), OrbitParams(1, 2), config)
    values = [row[0] for row in traj.rows]
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
    flow = time_flow if picture == "time" else space_flow
    rows = []
    for param in grid:
        mu = flow(mu0, param)
        rows.append((param, mu.p, mu.e, mu.f, invariants(mu).psi))
    return [row + (abs(row[-1] - rows[0][-1]),) for row in rows]


def _closed_form_states(picture, state0, params, grid, f0):
    if picture == "time":
        return [time_closed_form(*state0, params, t) for t in grid]
    if f0 is None:
        f0 = params.y * state0[0]
    return [space_closed_form(*state0, f0, params, x) for x in grid]


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
    grid = [row[0] for row in traj.rows]
    assert grid[0] == start and grid[-1] == start + 3
    assert all(b - a == step for a, b in zip(grid, grid[1:-1]))
    states = _closed_form_states(picture, (a0, b0), params, grid, f0)
    assert list(traj.rows) == _chart_rows(picture, params, grid, states)


@given(pictures, dual_points, small_fractions, steps)
@settings(max_examples=60)
def test_exact_dual_rows_are_the_flows(picture, mu0, start, step):
    config = IntegratorConfig(step=step, start=start, stop=start + 3)
    traj = dual_flow_trajectory(mu0, picture, config)
    grid = [row[0] for row in traj.rows]
    assert grid[-1] == start + 3
    assert list(traj.rows) == _dual_rows(picture, mu0, grid)


# ------------------- exact rows tabulated by differences, past the head

def _reference_exact_grid(start, stop, step):
    """start, start+step, ... while below stop, then stop itself."""
    grid, param = [], start
    while param < stop:
        grid.append(param)
        param += step
    return grid + [stop]


def _assert_cells_are_the_formatted_rows(traj):
    rows = list(traj.rows)
    assert list(traj.cell_factory()) == \
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
        cells += (cell for row in traj.cell_factory() for cell in row)
    assert any(cell.startswith("-") and "/" not in cell for cell in cells)
    assert any(cell.isdigit() and cell != "0" for cell in cells)


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


@given(float_cases, st.one_of(st.none(), st.floats(-3, 3)))
@settings(max_examples=40)
def test_float_closed_form_rows_are_the_formulas(case, f0):
    picture, k, y, a0, b0, start, h = case
    if picture == "time":
        f0 = None
    params = OrbitParams(k, y)
    config = IntegratorConfig(step=h, start=start, stop=start + 2)
    traj = closed_form_trajectory(picture, (a0, b0), params, config, f0=f0)
    grid = _reference_float_grid(start, start + 2, h)
    states = _closed_form_states(picture, (a0, b0), params, grid, f0)
    assert list(traj.rows) == _chart_rows(picture, params, grid, states)


@given(float_cases, st.floats(-3, 3))
@settings(max_examples=40)
def test_float_dual_rows_are_the_flows(case, e0):
    picture, k, y, p0, f0, start, h = case
    mu0 = DualElement(p0, e0, f0, k, y)
    config = IntegratorConfig(step=h, start=start, stop=start + 2)
    traj = dual_flow_trajectory(mu0, picture, config)
    grid = _reference_float_grid(start, start + 2, h)
    assert list(traj.rows) == _dual_rows(picture, mu0, grid)


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
    assert list(traj.rows) == _chart_rows(picture, params, grid, states)


def test_rows_rerun_identically_and_cache():
    config = IntegratorConfig(step=0.25, start=0, stop=2)
    traj = integrate("space", (0.5, -1.0), OrbitParams(3, 2), config)
    assert list(traj.row_factory()) == list(traj.row_factory()) \
        == list(traj.rows)
    assert traj.rows is traj.rows
