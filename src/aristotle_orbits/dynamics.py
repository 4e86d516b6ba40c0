"""The two dynamical pictures on a coadjoint orbit.

Time picture: evolution in the (q, p) chart, q = f/k, generated by the
flow of exp(-t E).  Space picture: evolution in the (tau, e) chart,
tau = f/y, generated by exp(-x P).  The negated-parameter convention is
load-bearing: it is the unique choice under which the dual-space action
reproduces the closed forms

    q(t) = q0 - v t,        p(t) = p0 - k q0 t + y t^2 / 2,
    tau(x) = tau0 + s x,    e(x) = e0 + f0 x + k x^2 / 2.

Each chart exists only on one side of the dual space: the q-chart needs
k != 0 and the tau-chart needs y != 0.  Outside a chart the dual-space
flows (``time_flow``/``space_flow``) are total and should be used
directly; ChartUndefinedError says exactly that.  The flows are closed
polynomials in the parameter, checked against the printed coadjoint
action ``coadjoint_printed`` by the tests and by ``verify``.

Every trajectory (RK4, closed form, dual flow) comes from one row
generator over a lazy grid, so rows can be written as they are produced.
Exact rows past the first three are tabulated by integer forward
differences, every column being quadratic in the grid index, and the
tabulation is checked against the sampler before any row is produced.

``time_rhs``/``space_rhs`` are the derivatives of the verified flows.
The *_printed variants transcribe the source text's damping-form
right-hand sides, which disagree with the flows away from the initial
instant; they exist for the errata engine, not for simulation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .backend import InputFormatError, Scalar, exact_div, is_float_backed
from .orbits import DualElement

HALF = Fraction(1, 2)


class ChartUndefinedError(ValueError):
    """Raised when a chart's defining division does not exist.

    Carries a hint pointing at the dual-space flow, which is total.
    """

    def __init__(self, chart: str, condition: str):
        super().__init__(
            f"the {chart} chart requires {condition}; "
            f"evolve the dual point directly instead (--dual)")
        self.chart = chart
        self.condition = condition


class OrbitParams(NamedTuple):
    """Orbit labels k (Hooke constant) and y (yank)."""

    k: Scalar
    y: Scalar

    @property
    def v(self) -> Scalar:
        """Invariant velocity y/k; the time chart's slope."""
        if self.k == 0:
            raise ChartUndefinedError("time (q, p)", "k != 0")
        return exact_div(self.y, self.k)

    @property
    def s(self) -> Scalar:
        """Invariant slowness k/y; the space chart's slope."""
        if self.y == 0:
            raise ChartUndefinedError("space (tau, e)", "y != 0")
        return exact_div(self.k, self.y)


class TimeState(NamedTuple):
    """Position q, momentum p, elapsed time t."""

    q: Scalar
    p: Scalar
    t: Scalar = 0


class SpaceState(NamedTuple):
    """Travel-time tau, energy e, traversed space x."""

    tau: Scalar
    e: Scalar
    x: Scalar = 0


class _IntegratorFields(NamedTuple):
    step: float = 1e-3
    start: Scalar = 0
    stop: Scalar = 10


class IntegratorConfig(_IntegratorFields):
    """Fixed-step classical Runge-Kutta configuration."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.stop < self.start:
            raise ValueError("empty parameter range")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip __new__'s checks
        return cls(*iterable)


class Trajectory:
    """Sampled evolution: rows of (param, *coords, invariant, drift).

    ``columns`` names the row entries in order; ``method`` records how the
    rows were produced ("rk4 h=..." or "closed-form"); drift is the
    absolute deviation of the invariant from its value at the first row.
    ``row_factory()`` produces the rows one at a time, afresh on each call;
    ``rows`` holds them all, built on first use.  Fields are read-only.
    """

    def __init__(self, picture: str, columns: tuple, invariant_name: str,
                 method: str, params: dict,
                 row_factory: Callable[[], Iterator[tuple]]):
        vars(self).update(picture=picture, columns=columns,
                          invariant_name=invariant_name, method=method,
                          params=params, row_factory=row_factory)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is read-only; cannot set {name!r}")

    @cached_property
    def rows(self) -> tuple:
        return tuple(self.row_factory())


# ------------------------------------------------------------- dual flows

def time_flow(mu0: DualElement, t: Scalar) -> DualElement:
    """Flow of exp(-t E), coadjoint_printed(0, -t, 0, mu0) without zeros."""
    p, e, f, k, y = mu0
    return DualElement(p - f * t + HALF * y * t * t, e, f - y * t, k, y)


def space_flow(mu0: DualElement, x: Scalar) -> DualElement:
    """Flow of exp(-x P), coadjoint_printed(-x, 0, 0, mu0) without zeros."""
    p, e, f, k, y = mu0
    return DualElement(p, e + f * x + HALF * k * x * x, f + k * x, k, y)


# ------------------------------------------------------------ closed forms

def time_closed_form(q0: Scalar, p0: Scalar, params: OrbitParams,
                     t: Scalar) -> tuple:
    """(q, p) at time t; requires the q-chart (k != 0)."""
    v = params.v
    q = q0 - v * t
    p = p0 - params.k * q0 * t + HALF * params.y * t * t
    return (q, p)


def space_closed_form(tau0: Scalar, e0: Scalar, f0: Scalar,
                      params: OrbitParams, x: Scalar) -> tuple:
    """(tau, e) after traversing x; requires the tau-chart (y != 0).

    f0 is the initial force.  On an actual orbit f0 = y*tau0; the formula
    is evaluated literally for any f0, but only the on-orbit case makes
    the internal momentum exactly constant.
    """
    s = params.s
    tau = tau0 + s * x
    e = e0 + f0 * x + HALF * params.k * x * x
    return (tau, e)


# -------------------------------------------------------- right-hand sides

def time_rhs(state: TimeState, params: OrbitParams) -> tuple:
    """(dq/dt, dp/dt) = (-v, -kq), the exact derivative of the time flow."""
    return (-params.v, -params.k * state.q)


def time_rhs_printed(state: TimeState, params: OrbitParams) -> tuple:
    """Damping form dp/dt = -kq + c(t) dq/dt with c(t) = kt, i.e. -kq - yt.

    The momentum component uses the simplified -kq - yt, in which the
    chart slope has cancelled; the position component is still -v.
    Disagrees with the flow derivative by -yt; errata-engine reference.
    """
    return (-params.v, -params.k * state.q - params.y * state.t)


def space_rhs(state: SpaceState, params: OrbitParams) -> tuple:
    """(dtau/dx, de/dx) = (s, y tau), the exact derivative of the space flow."""
    return (params.s, params.y * state.tau)


def space_rhs_printed(state: SpaceState, params: OrbitParams) -> tuple:
    """Power form de/dx = y tau + W(x) dtau/dx with W(x) = yx, i.e. y tau + kx.

    Disagrees with the flow derivative by kx; errata-engine reference.
    """
    w = params.y * state.x
    return (params.s, params.y * state.tau + w * params.s)


# ------------------------------------------------------------ Hamiltonians

def hamiltonian_time(p: Scalar, q: Scalar, t: Scalar,
                     params: OrbitParams) -> Scalar:
    """k q^2/2 - (p + c(t) q) v, evaluated literally.

    No conservation is asserted: the damping term makes it explicitly
    t-dependent, and its Hamilton equations disagree with the flow.
    """
    c = params.k * t
    return HALF * params.k * q * q - (p + c * q) * params.v


def hamiltonian_space(e: Scalar, tau: Scalar, x: Scalar,
                      params: OrbitParams) -> Scalar:
    """y tau^2/2 - (e - W(x) tau) s, evaluated literally; see hamiltonian_time."""
    w = params.y * x
    return HALF * params.y * tau * tau - (e - w * tau) * params.s


# ------------------------------------------------------------ realizations

def realization_time(x: Scalar, t: Scalar, zeta: Scalar, state: tuple,
                     params: OrbitParams) -> tuple:
    """Group action on (p, q) in the time picture, transcribed literally."""
    p, q = state
    return (p - params.k * q * t - params.k * zeta + HALF * params.y * t * t,
            q + x - params.v * t)


def realization_space(x: Scalar, t: Scalar, zeta: Scalar, state: tuple,
                      params: OrbitParams) -> tuple:
    """Group action on (e, tau) in the space picture, transcribed literally."""
    e, tau = state
    return (e + params.y * tau * x + params.y * (zeta - x * t)
            + HALF * params.k * x * x,
            tau - t + params.s * x)


# -------------------------------------------------------------- integration

def _float_grid(config: IntegratorConfig) -> Callable[[], Iterator[float]]:
    """Floating grid start, start+h, ...; the final point lands on stop.

    Rerunnable.  A step too small to advance the grid at its magnitude is
    an input error, raised here, before any row exists.
    """
    start, stop, h = float(config.start), float(config.stop), float(config.step)
    count = int((stop - start) / h + 1e-9)
    if abs(start + count * h - stop) > 1e-9 * h:
        count += 1
    last = start if stop == start else stop  # [start] keeps a -0.0 start

    def grid():
        return chain((start + i * h for i in range(count)), (last,))

    if not all(map(operator.lt, grid(), islice(grid(), 1, None))):
        raise InputFormatError(
            f"step {h!r} does not advance the float grid from {start!r} to "
            f"{stop!r}; the trajectory parameter must be strictly increasing")
    return grid


def _exact_rows(config: IntegratorConfig, sample: Callable,
                invariant: Callable) -> Callable[[], Iterator]:
    """Exact rows on start + i*step for i < n = ceil((stop - start)/step),
    then stop; decimal steps are read exactly.

    The first three rows and the last come from ``sample``.  Every column
    is a polynomial of degree <= 2 in i, so the others are tabulated by
    forward differences (Knuth, TAOCP vol. 2, 4.6.4): one denominator per
    column, numerators advanced by two integer additions per row.  The
    tabulation is checked against ``sample`` at i = n-1 before any row.
    """
    step = Fraction(repr(config.step)) if isinstance(config.step, float) \
        else Fraction(config.step)
    start, stop = Fraction(config.start), Fraction(config.stop)
    n = math.ceil((stop - start) / step)
    *head, last = _rows([start + i * step for i in range(min(n, 3))] + [stop],
                        sample, invariant)
    if n <= 3:
        return lambda: iter((*head, last))
    # per column (param, coords, invariant): denominator, N0, dN, d2N
    tables = []
    for values in list(zip(*head))[:-1]:
        den = math.lcm(*(value.denominator for value in values))
        n0, n1, n2 = (value.numerator * (den // value.denominator)
                      for value in values)
        tables.append((den, n0, n1 - n0, n2 - 2 * n1 + n0))
    reference = next(_rows([start + (n - 1) * step], sample, invariant))
    if any(next(_newton(n0, d1, d2, n - 1)) != value * den
           for (den, n0, d1, d2), value in zip(tables, reference)):
        raise ArithmeticError(
            f"forward differences disagree with the sampler at "
            f"{reference[0]}: the rows are not quadratic in the parameter")
    den, _, d1, d2 = tables[-1]
    tables.append((den, 0, d1, d2, abs))  # drift |N - N0| / den

    def rows():
        columns = (_column(*table) for table in tables)
        return chain(head, islice(zip(*columns), n - 3), (last,))
    return rows


def _newton(n0: int, d1: int, d2: int, i: int) -> Iterator[int]:
    """n0 + j*d1 + C(j, 2)*d2 for j = i, i+1, ..., two additions each."""
    return accumulate(accumulate(repeat(d2), initial=d1 + i * d2),
                      initial=n0 + i * d1 + i * (i - 1) // 2 * d2)


def _column(den: int, n0: int, d1: int, d2: int,
            op: Callable = operator.pos) -> Iterator[Fraction]:
    """op(n0 + j*d1 + C(j, 2)*d2) / den for j = 3, 4, ..."""
    if d1 == d2 == 0:
        return repeat(Fraction(op(n0), den))
    return map(Fraction, map(op, _newton(n0, d1, d2, 3)), repeat(den))


def _rows(grid: Iterator, sample: Callable, invariant: Callable) -> Iterator:
    """(param, *coords, invariant, drift) for each parameter of the grid."""
    inv0 = None
    for param in grid:
        coords = sample(param)
        inv = invariant(*coords)
        if inv0 is None:
            inv0 = inv
        yield (param, *coords, inv, abs(inv - inv0))


def _sampled_rows(grid: Optional[Callable], config: IntegratorConfig,
                  sample: Callable, invariant: Callable) -> Callable:
    """Row factory over a checked float grid, or exact when grid is None."""
    if grid is None:
        return _exact_rows(config, sample, invariant)
    return lambda: _rows(grid(), sample, invariant)


def _rk4(state0: Sequence[float], rate: float, gain: float) -> Callable:
    """Sampler stepping (a, b)' = (rate, gain a) by classical RK4 to each
    parameter in turn, with the generic scheme's float operations; the
    field ignores b and a moves at a constant rate, so k3 equals k2."""
    a, b = state0
    rate_sum = ((rate + 2 * rate) + 2 * rate) + rate
    prev = None

    def sample(param):
        nonlocal a, b, prev
        if prev is not None:
            h = param - prev
            half, sixth = h / 2, h / 6
            k2 = gain * (a + half * rate)
            b = b + sixth * (((gain * a + 2 * k2) + 2 * k2)
                             + gain * (a + h * rate))
            a = a + sixth * rate_sum
        prev = param
        return a, b
    return sample


def _chart_invariant(picture: str, params: OrbitParams) -> Callable:
    """The chart invariant of a state (a, b), with its constants taken once.

    Time: U up to the inert energy offset, p v - k q^2/2 (e0 taken as 0).
    Space: pi up to the inert momentum offset, e s - y tau^2/2 (p0 taken
    as 0).
    """
    slope, half_force = ((params.v, HALF * params.k) if picture == "time"
                         else (params.s, HALF * params.y))
    return lambda a, b: b * slope - half_force * a * a


# picture -> (coordinate columns, invariant name)
_LAYOUTS = {
    "time": (("t", "q", "p"), "U"),
    "space": (("x", "tau", "e"), "pi"),
    "dual-time": (("t", "p", "e", "f"), "psi"),
    "dual-space": (("x", "p", "e", "f"), "psi"),
}


def _check_picture(picture: str):
    if picture not in ("time", "space"):
        raise ValueError(f"unknown picture {picture!r}")


def _trajectory(picture: str, method: str, k: Scalar, y: Scalar,
                row_factory: Callable) -> Trajectory:
    columns, invariant = _LAYOUTS[picture]
    return Trajectory(picture, columns + (invariant, "drift"), invariant,
                      method, {"k": k, "y": y}, row_factory)


def integrate(picture: str, state0: Sequence[Scalar], params: OrbitParams,
              config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Fixed-step RK4 over the derived rhs, in float arithmetic.

    Rows carry the chart invariant and its drift; the rhs is an affine
    polynomial field, so at h = 1e-3 the scheme tracks the closed forms
    to roundoff.
    """
    _check_picture(picture)
    config = config or IntegratorConfig()
    params = OrbitParams(float(params.k), float(params.y))
    state = tuple(float(c) for c in state0)
    invariant = _chart_invariant(picture, params)
    rate, gain = ((-params.v, -params.k) if picture == "time"
                  else (params.s, params.y))
    grid = _float_grid(config)
    return _trajectory(
        picture, f"rk4 h={float(config.step)!r}", params.k, params.y,
        lambda: _rows(grid(), _rk4(state, rate, gain), invariant))


def closed_form_trajectory(picture: str, state0: Sequence[Scalar],
                           params: OrbitParams,
                           config: Optional[IntegratorConfig] = None,
                           f0: Optional[Scalar] = None) -> Trajectory:
    """Exact solution sampled on the same grid the integrator would use.

    Backend-generic: rational inputs give exact rational rows.  For the
    space picture f0 defaults to the on-orbit value y*tau0.
    """
    _check_picture(picture)
    config = config or IntegratorConfig()
    if is_float_backed(*state0, params.k, params.y, f0):
        params = OrbitParams(float(params.k), float(params.y))
        state0 = tuple(float(c) for c in state0)
        grid = _float_grid(config)
        if f0 is not None:
            f0 = float(f0)
    else:
        grid = None
    invariant = _chart_invariant(picture, params)
    a0, b0 = state0
    if picture == "time":
        v, kq0, half_y = params.v, params.k * a0, HALF * params.y

        def sample(t):
            return a0 - v * t, b0 - kq0 * t + half_y * t * t
    else:
        s, half_k = params.s, HALF * params.k
        if f0 is None:
            f0 = params.y * a0

        def sample(x):
            return a0 + s * x, b0 + f0 * x + half_k * x * x
    return _trajectory(picture, "closed-form", params.k, params.y,
                       _sampled_rows(grid, config, sample, invariant))


def dual_flow_trajectory(mu0: DualElement, picture: str,
                         config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Exact dual-space evolution of (p, e, f); total, any k and y.

    The carried invariant is psi = 2ke - f^2 + 2py, which is defined on
    every orbit, so this mode works where the charts do not.  Rows are
    time_flow/space_flow with the constant terms taken once.
    """
    _check_picture(picture)
    config = config or IntegratorConfig()
    p0, e0, f0, k, y = mu0
    if is_float_backed(*mu0):
        p0, e0, f0, k, y = map(float, mu0)
        grid = _float_grid(config)
    else:
        grid = None
    if picture == "time":
        half_y, ke = HALF * y, 2 * k * e0

        def sample(t):
            return p0 - f0 * t + half_y * t * t, e0, f0 - y * t

        def psi(p, e, f):
            return ke - f * f + 2 * p * y
    else:
        half_k, py = HALF * k, 2 * p0 * y

        def sample(x):
            return p0, e0 + f0 * x + half_k * x * x, f0 + k * x

        def psi(p, e, f):
            return 2 * k * e - f * f + py
    return _trajectory(f"dual-{picture}", "closed-form", k, y,
                       _sampled_rows(grid, config, sample, psi))
