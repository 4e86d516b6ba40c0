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

Every trajectory is a lazy stream of rows, so rows can be written as
they are produced: RK4 rows from one fused stepping loop, sampled rows
from one row generator over the grid.  Exact rows past the first three
are tabulated by integer forward differences, every column being
quadratic in the grid index, and the tabulation is checked against the
sampler before any row is produced; their output cells are read off the
same integer numerators as text.  A float trajectory with a non-finite
value anywhere in its range is refused when it is built.

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

from .backend import (
    NOT_FINITE, InputFormatError, Scalar, exact_div, is_float_backed,
)
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
    ``rows`` holds them all, built on first use.  ``cell_factory()``
    produces the same rows as output cells: on an exact trajectory each
    cell is the canonical text of its value (``format_scalar``), and
    otherwise it is ``row_factory``.  Fields are read-only.
    """

    def __init__(self, picture: str, columns: tuple, invariant_name: str,
                 method: str, params: dict,
                 row_factory: Callable[[], Iterator[tuple]],
                 cell_factory: Optional[Callable[[], Iterator[tuple]]] = None):
        vars(self).update(picture=picture, columns=columns,
                          invariant_name=invariant_name, method=method,
                          params=params, row_factory=row_factory,
                          cell_factory=cell_factory or row_factory)

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
                invariant: Callable) -> tuple:
    """Row and cell factories for exact rows on start + i*step for
    i < n = ceil((stop - start)/step), then stop; decimal steps are read
    exactly.

    The first three rows and the last come from ``sample``.  Every column
    is a polynomial of degree <= 2 in i, so the others are tabulated by
    forward differences (Knuth, TAOCP vol. 2, 4.6.4): one denominator per
    column, numerators advanced by two integer additions per row, each
    numerator read as a ``Fraction`` for a row and as text for a cell.  The
    tabulation is checked against ``sample`` at i = n-1 before any row.
    """
    step = Fraction(repr(config.step)) if isinstance(config.step, float) \
        else Fraction(config.step)
    start, stop = Fraction(config.start), Fraction(config.stop)
    n = math.ceil((stop - start) / step)
    *head, last = _rows([start + i * step for i in range(min(n, 3))] + [stop],
                        sample, invariant)
    *head_text, last_text = (tuple(map(str, row)) for row in (*head, last))
    if n <= 3:
        return (lambda: iter((*head, last)),
                lambda: iter((*head_text, last_text)))
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

    def factory(column: Callable, head: list, last: tuple) -> Callable:
        def produce():
            columns = (column(*table) for table in tables)
            return chain(head, islice(zip(*columns), n - 3), (last,))
        return produce
    return (factory(_column, head, last),
            factory(_text_column, head_text, last_text))


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


def _text_column(den: int, n0: int, d1: int, d2: int,
                 op: Callable = operator.pos) -> Iterator[str]:
    """str(Fraction(N, den)) for each numerator N of ``_column``, without
    the Fraction: N/den reduced by their gcd, "/den" left out at 1."""
    if d1 == d2 == 0:
        return repeat(str(Fraction(op(n0), den)))
    return _texts(map(op, _newton(n0, d1, d2, 3)), den)


def _texts(numerators: Iterator[int], den: int) -> Iterator[str]:
    """The text of each numerator over ``den``, as ``_text_column`` says."""
    gcd = math.gcd
    for num in numerators:
        g = gcd(num, den)
        yield str(num // g) if g == den else f"{num // g}/{den // g}"


def _rows(grid: Iterator, sample: Callable, invariant: Callable) -> Iterator:
    """(param, *coords, invariant, drift) for each parameter of the grid."""
    inv0 = None
    for param in grid:
        coords = sample(param)
        inv = invariant(*coords)
        if inv0 is None:
            inv0 = inv
        yield (param, *coords, inv, abs(inv - inv0))


def _require_finite(config: IntegratorConfig, sample: Callable,
                    invariant: Callable, forces: tuple, slope: float = 0.0):
    """Refuse a float trajectory holding a NaN or an infinity, before any row.

    Each column, and each product inside the invariant, is a polynomial of
    degree <= 2 in the parameter whose quadratic part is the square of a
    force line f0 + rate*param, or the integral of one.  Its extremes over
    the range lie at the ends or where a line of ``forces`` (pairs
    (f0, rate)) vanishes, so the rows there, with the chart ``slope``,
    bound every row; RK4 follows the closed form to roundoff.
    """
    if not math.isfinite(slope):
        raise InputFormatError(f"{NOT_FINITE}: the chart slope is {slope!r}")
    start, stop = float(config.start), float(config.stop)
    roots = (-f0 / rate for f0, rate in forces if rate)
    probes = [start, stop, *(root for root in roots if start < root < stop)]
    for row in _rows(probes, sample, invariant):
        if not all(map(math.isfinite, row)):
            raise InputFormatError(
                f"{NOT_FINITE}: the row at {row[0]!r} is {row[1:]!r}")


def _sampled_rows(float_backed: bool, config: IntegratorConfig,
                  sample: Callable, invariant: Callable, forces: tuple,
                  slope: Scalar = 0.0) -> tuple:
    """Row and cell factories: over a checked float grid whose rows are
    finite (see _require_finite), or exact."""
    if not float_backed:
        return _exact_rows(config, sample, invariant)
    grid = _float_grid(config)
    _require_finite(config, sample, invariant, forces, slope)
    rows = lambda: _rows(grid(), sample, invariant)  # noqa: E731
    return rows, rows


def _rk4_rows(grid: Iterator[float], state0: Sequence[float], rate: float,
              gain: float, slope: float, half_force: float) -> Iterator:
    """Rows of classical RK4 on (a, b)' = (rate, gain a), stepped to each
    parameter of ``grid`` in turn, with the chart invariant
    b slope - half_force a^2 and its drift.

    The float operations are the generic scheme's, in its order: the
    field ignores b and a moves at a constant rate, so k3 equals k2.
    """
    a, b = state0
    rate_sum = ((rate + 2 * rate) + 2 * rate) + rate
    grid = iter(grid)
    prev = next(grid)
    inv0 = b * slope - half_force * a * a
    yield prev, a, b, inv0, abs(inv0 - inv0)
    for param in grid:
        h = param - prev
        half, sixth = h / 2, h / 6
        k2 = gain * (a + half * rate)
        b = b + sixth * (((gain * a + 2 * k2) + 2 * k2)
                         + gain * (a + h * rate))
        a = a + sixth * rate_sum
        inv = b * slope - half_force * a * a
        yield param, a, b, inv, abs(inv - inv0)
        prev = param


def _chart_constants(picture: str, params: OrbitParams) -> tuple:
    """(slope, half_force) of the chart invariant: (v, k/2) or (s, y/2)."""
    return ((params.v, HALF * params.k) if picture == "time"
            else (params.s, HALF * params.y))


def _chart_invariant(picture: str, params: OrbitParams) -> Callable:
    """The chart invariant of a state (a, b), with its constants taken once.

    Time: U up to the inert energy offset, p v - k q^2/2 (e0 taken as 0).
    Space: pi up to the inert momentum offset, e s - y tau^2/2 (p0 taken
    as 0).
    """
    slope, half_force = _chart_constants(picture, params)
    return lambda a, b: b * slope - half_force * a * a


def _chart_closed_form(picture: str, state0: Sequence[Scalar],
                       params: OrbitParams, f0: Optional[Scalar]) -> tuple:
    """(sample, force lines) of the chart's closed form from state0.

    The force is f = k q = k q0 - y t in time and f0 + k x in space, where
    off the orbit (f0 != y tau0) y tau = y tau0 + k x is a second line.
    """
    a0, b0 = state0
    if picture == "time":
        v, kq0, half_y = params.v, params.k * a0, HALF * params.y

        def sample(t):
            return a0 - v * t, b0 - kq0 * t + half_y * t * t
        return sample, ((kq0, -params.y),)
    s, half_k = params.s, HALF * params.k
    if f0 is None:
        f0 = params.y * a0

    def sample(x):
        return a0 + s * x, b0 + f0 * x + half_k * x * x
    return sample, ((f0, params.k), (params.y * a0, params.k))


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
                row_factory: Callable,
                cell_factory: Optional[Callable] = None) -> Trajectory:
    columns, invariant = _LAYOUTS[picture]
    return Trajectory(picture, columns + (invariant, "drift"), invariant,
                      method, {"k": k, "y": y}, row_factory, cell_factory)


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
    slope, half_force = _chart_constants(picture, params)
    sample, forces = _chart_closed_form(picture, state, params, None)
    rate, gain = ((-params.v, -params.k) if picture == "time"
                  else (params.s, params.y))
    grid = _float_grid(config)
    _require_finite(config, sample, _chart_invariant(picture, params), forces,
                    slope)
    return _trajectory(
        picture, f"rk4 h={float(config.step)!r}", params.k, params.y,
        lambda: _rk4_rows(grid(), state, rate, gain, slope, half_force))


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
    float_backed = is_float_backed(*state0, params.k, params.y, f0)
    if float_backed:
        params = OrbitParams(float(params.k), float(params.y))
        state0 = tuple(float(c) for c in state0)
        if f0 is not None:
            f0 = float(f0)
    invariant = _chart_invariant(picture, params)
    sample, forces = _chart_closed_form(picture, state0, params, f0)
    return _trajectory(
        picture, "closed-form", params.k, params.y,
        *_sampled_rows(float_backed, config, sample, invariant, forces,
                       _chart_constants(picture, params)[0]))


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
    float_backed = is_float_backed(*mu0)
    if float_backed:
        p0, e0, f0, k, y = map(float, mu0)
    if picture == "time":
        half_y, ke = HALF * y, 2 * k * e0

        def sample(t):
            return p0 - f0 * t + half_y * t * t, e0, f0 - y * t

        def psi(p, e, f):
            return ke - f * f + 2 * p * y
        force = (f0, -y)
    else:
        half_k, py = HALF * k, 2 * p0 * y

        def sample(x):
            return p0, e0 + f0 * x + half_k * x * x, f0 + k * x

        def psi(p, e, f):
            return 2 * k * e - f * f + py
        force = (f0, k)
    return _trajectory(f"dual-{picture}", "closed-form", k, y,
                       *_sampled_rows(float_backed, config, sample, psi,
                                      (force,)))
