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
directly; ChartUndefinedError says exactly that.

``time_rhs``/``space_rhs`` are the derivatives of the verified flows.
The *_printed variants transcribe the source text's damping-form
right-hand sides, which disagree with the flows away from the initial
instant; they exist for the errata engine, not for simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .backend import Scalar
from .orbits import DualElement, coadjoint_printed

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


@dataclass(frozen=True)
class OrbitParams:
    """Orbit labels k (Hooke constant) and y (yank)."""

    k: Scalar
    y: Scalar

    def _is_float_backed(self) -> bool:
        return isinstance(self.k, float) or isinstance(self.y, float)

    @property
    def v(self) -> Scalar:
        """Invariant velocity y/k; the time chart's slope."""
        if self.k == 0:
            raise ChartUndefinedError("time (q, p)", "k != 0")
        if self._is_float_backed():
            return self.y / self.k
        return Fraction(self.y) / Fraction(self.k)

    @property
    def s(self) -> Scalar:
        """Invariant slowness k/y; the space chart's slope."""
        if self.y == 0:
            raise ChartUndefinedError("space (tau, e)", "y != 0")
        if self._is_float_backed():
            return self.k / self.y
        return Fraction(self.k) / Fraction(self.y)


@dataclass(frozen=True)
class TimeState:
    """Position q, momentum p, elapsed time t."""

    q: Scalar
    p: Scalar
    t: Scalar = 0

    def force(self, params: OrbitParams) -> Scalar:
        return params.k * self.q


@dataclass(frozen=True)
class SpaceState:
    """Travel-time tau, energy e, traversed space x."""

    tau: Scalar
    e: Scalar
    x: Scalar = 0

    def force(self, params: OrbitParams) -> Scalar:
        return params.y * self.tau


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical Runge-Kutta configuration."""

    step: float = 1e-3
    start: Scalar = 0
    stop: Scalar = 10
    method: str = "rk4"

    def __post_init__(self):
        if self.method != "rk4":
            raise ValueError(f"unsupported method {self.method!r}")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.stop < self.start:
            raise ValueError("empty parameter range")


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: rows of (param, *coords, invariant, drift).

    ``columns`` names the row entries in order; ``method`` records how the
    rows were produced ("rk4 h=..." or "closed-form"); drift is the
    absolute deviation of the invariant from its value at the first row.
    """

    picture: str
    columns: tuple
    invariant_name: str
    method: str
    params: dict
    rows: tuple

    def __post_init__(self):
        values = [row[0] for row in self.rows]
        if not all(a < b for a, b in zip(values, values[1:])):
            raise ValueError("trajectory parameter must be strictly increasing")

    def final_state(self) -> tuple:
        return tuple(self.rows[-1][1:-2])

    def max_drift(self) -> Scalar:
        return max(row[-1] for row in self.rows)


# ------------------------------------------------------------- dual flows

def time_flow(mu0: DualElement, t: Scalar) -> DualElement:
    """Flow of exp(-t E) on the dual: p gains -f t + y t^2/2, f gains -y t."""
    return coadjoint_printed(0, -t, 0, mu0)


def space_flow(mu0: DualElement, x: Scalar) -> DualElement:
    """Flow of exp(-x P) on the dual: e gains f x + k x^2/2, f gains k x."""
    return coadjoint_printed(-x, 0, 0, mu0)


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


def potential_momentum(f0: Scalar, params: OrbitParams, t: Scalar) -> Scalar:
    """Impulse accumulated by time t: -f0 t + y t^2/2."""
    return -f0 * t + HALF * params.y * t * t


def potential_energy(f0: Scalar, params: OrbitParams, x: Scalar) -> Scalar:
    """Work accumulated over x: f0 x + k x^2/2."""
    return f0 * x + HALF * params.k * x * x


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


def scalar_coefficients(t_or_x: Scalar, params: OrbitParams) -> tuple:
    """(c, W) = (k * arg, y * arg): damping coefficient and power."""
    return (params.k * t_or_x, params.y * t_or_x)


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


# --------------------------------------------------------------- invariants

def chart_invariant_time(q: Scalar, p: Scalar, params: OrbitParams) -> Scalar:
    """U up to the inert energy offset: p v - k q^2/2 (e0 taken as 0)."""
    return p * params.v - HALF * params.k * q * q


def chart_invariant_space(tau: Scalar, e: Scalar, params: OrbitParams) -> Scalar:
    """pi up to the inert momentum offset: e s - y tau^2/2 (p0 taken as 0)."""
    return e * params.s - HALF * params.y * tau * tau


# -------------------------------------------------------------- integration

def _parameter_grid(config: IntegratorConfig) -> list:
    """Floating grid start, start+h, ...; the final point lands on stop."""
    start = float(config.start)
    stop = float(config.stop)
    h = float(config.step)
    if stop == start:
        return [start]
    count = int((stop - start) / h + 1e-9)
    grid = [start + i * h for i in range(count + 1)]
    if abs(grid[-1] - stop) <= 1e-9 * h:
        grid[-1] = stop
    else:
        grid.append(stop)
    return grid


def _exact_grid(config: IntegratorConfig) -> list:
    """Rational grid on the same spacing; decimal steps are read exactly."""
    step = Fraction(repr(config.step)) if isinstance(config.step, float) \
        else Fraction(config.step)
    start, stop = Fraction(config.start), Fraction(config.stop)
    grid = []
    param = start
    while param < stop:
        grid.append(param)
        param += step
    grid.append(stop)
    return grid


def _rk4_step(rhs: Callable, state: tuple, h: float) -> tuple:
    k1 = rhs(state)
    k2 = rhs(tuple(s + h / 2 * d for s, d in zip(state, k1)))
    k3 = rhs(tuple(s + h / 2 * d for s, d in zip(state, k2)))
    k4 = rhs(tuple(s + h * d for s, d in zip(state, k3)))
    return tuple(s + h / 6 * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4))


_PICTURES = {
    "time": {
        "columns": ("t", "q", "p"),
        "invariant": "U",
    },
    "space": {
        "columns": ("x", "tau", "e"),
        "invariant": "pi",
    },
}


def _picture_rhs(picture: str, params: OrbitParams) -> Callable:
    if picture == "time":
        def rhs(state):
            return time_rhs(TimeState(q=state[0], p=state[1]), params)
    else:
        def rhs(state):
            return space_rhs(SpaceState(tau=state[0], e=state[1]), params)
    return rhs


def _picture_invariant(picture: str, params: OrbitParams) -> Callable:
    if picture == "time":
        return lambda state: chart_invariant_time(state[0], state[1], params)
    return lambda state: chart_invariant_space(state[0], state[1], params)


def _require_chart(picture: str, params: OrbitParams):
    # touching the slope raises ChartUndefinedError when the chart is gone
    _ = params.v if picture == "time" else params.s


def integrate(picture: str, state0: Sequence[Scalar], params: OrbitParams,
              config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Fixed-step RK4 over the derived rhs, in float arithmetic.

    Rows carry the chart invariant and its drift; the rhs is an affine
    polynomial field, so at h = 1e-3 the scheme tracks the closed forms
    to roundoff.
    """
    if picture not in _PICTURES:
        raise ValueError(f"unknown picture {picture!r}")
    config = config or IntegratorConfig()
    _require_chart(picture, params)
    float_params = OrbitParams(float(params.k), float(params.y))
    rhs = _picture_rhs(picture, float_params)
    invariant = _picture_invariant(picture, float_params)
    state = tuple(float(c) for c in state0)
    grid = _parameter_grid(config)

    rows = []
    inv0 = invariant(state)
    prev = grid[0]
    for i, param in enumerate(grid):
        if i > 0:
            state = _rk4_step(rhs, state, param - prev)
        prev = param
        inv = invariant(state)
        rows.append((param,) + state + (inv, abs(inv - inv0)))

    meta = _PICTURES[picture]
    return Trajectory(
        picture=picture,
        columns=meta["columns"] + (meta["invariant"], "drift"),
        invariant_name=meta["invariant"],
        method=f"rk4 h={float(config.step)!r}",
        params={"k": float_params.k, "y": float_params.y},
        rows=tuple(rows),
    )


def closed_form_trajectory(picture: str, state0: Sequence[Scalar],
                           params: OrbitParams,
                           config: Optional[IntegratorConfig] = None,
                           f0: Optional[Scalar] = None) -> Trajectory:
    """Exact solution sampled on the same grid the integrator would use.

    Backend-generic: rational inputs give exact rational rows.  For the
    space picture f0 defaults to the on-orbit value y*tau0.
    """
    if picture not in _PICTURES:
        raise ValueError(f"unknown picture {picture!r}")
    config = config or IntegratorConfig()
    _require_chart(picture, params)
    float_backed = (any(isinstance(c, float) for c in state0)
                    or isinstance(params.k, float) or isinstance(params.y, float))

    if float_backed:
        params = OrbitParams(float(params.k), float(params.y))
        state0 = tuple(float(c) for c in state0)
        grid = _parameter_grid(config)
        if f0 is not None:
            f0 = float(f0)
    else:
        grid = _exact_grid(config)

    if picture == "time":
        def sample(param):
            return time_closed_form(state0[0], state0[1], params, param)
    else:
        if f0 is None:
            f0 = params.y * state0[0]

        def sample(param):
            return space_closed_form(state0[0], state0[1], f0, params, param)

    invariant = _picture_invariant(picture, params)
    rows = []
    inv0 = None
    for param in grid:
        state = sample(param)
        inv = invariant(state)
        if inv0 is None:
            inv0 = inv
        rows.append((param,) + tuple(state) + (inv, abs(inv - inv0)))

    meta = _PICTURES[picture]
    return Trajectory(
        picture=picture,
        columns=meta["columns"] + (meta["invariant"], "drift"),
        invariant_name=meta["invariant"],
        method="closed-form",
        params={"k": params.k, "y": params.y},
        rows=tuple(rows),
    )


def dual_flow_trajectory(mu0: DualElement, picture: str,
                         config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Exact dual-space evolution of (p, e, f); total, any k and y.

    The carried invariant is psi = 2ke - f^2 + 2py, which is defined on
    every orbit, so this mode works where the charts do not.
    """
    if picture not in _PICTURES:
        raise ValueError(f"unknown picture {picture!r}")
    config = config or IntegratorConfig()
    flow = time_flow if picture == "time" else space_flow
    float_backed = any(isinstance(c, float) for c in mu0.as_tuple())

    if float_backed:
        mu0 = DualElement.from_seq(tuple(float(c) for c in mu0.as_tuple()))
        grid = _parameter_grid(config)
    else:
        grid = _exact_grid(config)

    def psi(mu):
        return 2 * mu.k * mu.e - mu.f * mu.f + 2 * mu.p * mu.y

    rows = []
    inv0 = None
    for param in grid:
        mu = flow(mu0, param)
        inv = psi(mu)
        if inv0 is None:
            inv0 = inv
        rows.append((param, mu.p, mu.e, mu.f, inv, abs(inv - inv0)))

    param_name = "t" if picture == "time" else "x"
    return Trajectory(
        picture=f"dual-{picture}",
        columns=(param_name, "p", "e", "f", "psi", "drift"),
        invariant_name="psi",
        method="closed-form",
        params={"k": mu0.k, "y": mu0.y},
        rows=tuple(rows),
    )
