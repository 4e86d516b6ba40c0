"""The two dynamical pictures on a coadjoint orbit.

Time picture: evolution in the (q, p) chart, q = f/k, generated by the
flow of exp(-t E).  Space picture: evolution in the (tau, e) chart,
tau = f/y, generated by exp(-x P).  The negated-parameter convention is
load-bearing: it is the unique choice under which the dual-space action
reproduces the closed forms

    q(t) = q0 - v t,        p(t) = p0 - k q0 t + y t^2 / 2,
    tau(x) = tau0 + s x,    e(x) = e0 + f0 x + k x^2 / 2.

Written as (a, b)' = (rate, gain a), the space chart is the time chart
with k and y swapped and the motion reversed, so one chart table
(``_chart``) gives both closed forms, RK4's field and the chart
invariant.  The q-chart needs k != 0 and the tau-chart y != 0; outside
them the dual-space flows (``time_flow``/``space_flow``), polynomials in
the parameter checked against ``coadjoint_printed`` by the tests and
``verify``, are total, and ChartUndefinedError says so.

Every trajectory starts from its state at the range's start; its rows
are lazy.  RK4's come from one fused stepping loop.  The closed forms
and flows read their quadratic columns once, exactly, off the model on
a polynomial offset: exact cells by forward differences, float ones at
each row's exact offset, rounded once.  One function sets up a float
run, refused if a cell at the range ends or a vertex would overflow.

One exact RK4 step of either chart's field is the flow, so a float RK4
run differs from the flow of its own float constants by rounding alone.
``rk4_bound`` bounds that rounding exactly, in closed form in the step
count, operation by operation in the stepping loop's order, in the
standard model fl(x op y) = (x op y)(1 + delta), |delta| <= 2^-53, with
gradual underflow (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed. 2002, ch. 2-3).

``time_rhs``/``space_rhs`` are the derivatives of the verified flows.
The *_printed variants transcribe the source text's damping-form
right-hand sides, which disagree with the flows away from the initial
instant; they exist for the errata engine, not for simulation.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, islice, pairwise, repeat, starmap
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .backend import (
    HALF, NOT_FINITE, InputFormatError, Scalar, is_float_backed,
    parse_scalar, ratio_text,
)
from .orbits import DualElement, point_arithmetic, psi_value
from .poly import Poly, indeterminates

#: Most points of a float grid scanned to see that it advances (about 25 ms
#: on a 2-CPU Xeon); a longer grid whose step is not proved is refused.
SCAN_POINTS = 2**18


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
        """Invariant velocity y/k; the time chart's slope.  Whether k is
        zero is ``classify``'s test: exact, or relative on floats."""
        zero, div, _ = point_arithmetic(self)
        if zero(self.k):
            raise ChartUndefinedError("time (q, p)", "k != 0")
        return div(self.y, self.k)

    @property
    def s(self) -> Scalar:
        """Invariant slowness k/y; the space chart's slope (y != 0 as for v)."""
        zero, div, _ = point_arithmetic(self)
        if zero(self.y):
            raise ChartUndefinedError("space (tau, e)", "y != 0")
        return div(self.k, self.y)


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
    ``row_factory()`` produces the rows one at a time, afresh on each call.
    ``cell_chunks(size)`` produces the same rows as output cells, in lists
    of ``size`` rows (None: one list), each drawn as it is asked for, from
    ``cell_factory()`` (by default ``row_factory()``).  On an exact
    trajectory each cell is the canonical text of its value
    (``format_scalar``), on a float closed form or flow the exact cell
    rounded once (the parameter aside).  Fields are read-only.
    """

    def __init__(self, picture: str, columns: tuple, invariant_name: str,
                 method: str, params: dict,
                 row_factory: Callable[[], Iterator[tuple]],
                 cell_factory: Optional[Callable[[], Iterator[tuple]]] = None):
        vars(self).update(picture=picture, columns=columns,
                          invariant_name=invariant_name, method=method,
                          params=params, row_factory=row_factory,
                          cell_chunks=partial(_drawn_chunks,
                                              cell_factory or row_factory))

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is read-only; cannot set {name!r}")


def _drawn_chunks(factory: Callable, size: Optional[int]) -> Iterator:
    """Lists of ``size`` rows drawn in turn from one ``factory()``."""
    rows = factory()
    return iter(lambda: list(islice(rows, size)), [])


# ------------------------------------------------------------- dual flows

def _time_path(mu0: Sequence[Scalar]) -> Callable:
    """t -> (p, e, f) along the flow of exp(-t E); k and y stay."""
    p, e, f, _, y = mu0
    half_y = HALF * y
    return lambda t: (p - f * t + half_y * t * t, e, f - y * t)


def _space_path(mu0: Sequence[Scalar]) -> Callable:
    """x -> (p, e, f) along the flow of exp(-x P); k and y stay."""
    p, e, f, k, _ = mu0
    half_k = HALF * k
    return lambda x: (p, e + f * x + half_k * x * x, f + k * x)


def time_flow(mu0: DualElement, t: Scalar) -> DualElement:
    """Flow of exp(-t E), coadjoint_printed(0, -t, 0, mu0) without zeros."""
    return DualElement(*_time_path(mu0)(t), *mu0[3:])


def space_flow(mu0: DualElement, x: Scalar) -> DualElement:
    """Flow of exp(-x P), coadjoint_printed(-x, 0, 0, mu0) without zeros."""
    return DualElement(*_space_path(mu0)(x), *mu0[3:])


# ------------------------------------------------------------ closed forms

# picture -> (parameter, chart coordinates, chart invariant, dual path)
_PICTURES = {
    "time": ("t", ("q", "p"), "U", _time_path),
    "space": ("x", ("tau", "e"), "pi", _space_path),
}


def _picture(picture: str) -> tuple:
    """The picture's row of ``_PICTURES``; ValueError on an unknown name."""
    try:
        return _PICTURES[picture]
    except KeyError:
        raise ValueError(f"unknown picture {picture!r}") from None


def _chart(picture: str, params: OrbitParams) -> tuple:
    """(rate, gain, slope, half_force, half) of the picture's chart, whose
    invariant b slope - half_force a^2 is U or pi up to an inert offset;
    the tau-chart's is the q-chart's with k and y swapped, motion reversed."""
    if _picture(picture) is _PICTURES["space"]:
        s = params.s
        return s, params.y, s, HALF * params.y, HALF * params.k
    v = params.v
    return -v, -params.k, v, HALF * params.k, HALF * params.y


def time_closed_form(q0: Scalar, p0: Scalar, params: OrbitParams,
                     t: Scalar) -> tuple:
    """(q, p) at time t; requires the q-chart (k != 0)."""
    return _chart_model("time", *params, q0, p0)[0](t)


def space_closed_form(tau0: Scalar, e0: Scalar, f0: Scalar,
                      params: OrbitParams, x: Scalar) -> tuple:
    """(tau, e) after traversing x; requires the tau-chart (y != 0).

    f0 is the initial force.  On an actual orbit f0 = y*tau0; the formula
    is evaluated literally for any f0, but only the on-orbit case makes
    the internal momentum exactly constant.
    """
    return _chart_model("space", *params, tau0, e0, f0)[0](x)


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

def _float_grid(start: float, stop: float,
                h: float) -> Callable[[], Iterator[float]]:
    """Floating grid start, start+h, ...; the final point lands on stop.

    Rerunnable.  A range and step that give no advancing float grid are an
    input error, raised here, before any row exists.  The verdict is read
    off the grid's ends where it can be proved (``_grid_advances``); only
    in the band between its tests are the points scanned, at most
    SCAN_POINTS of them: a longer grid there is refused, with the step it
    would need.
    """
    if not (h > 0 and math.isfinite((stop - start) / h)):
        raise InputFormatError(f"no float grid spans {start!r}:{stop!r} "
                               f"by steps of {h!r}")
    count = _grid_count(start, stop, h)
    last = start if stop == start else stop  # [start] keeps a -0.0 start

    def grid():
        return chain((start + i * h for i in range(count)), (last,))

    advances = _grid_advances(start, h, count, last)
    if advances is None:
        if count >= SCAN_POINTS:  # the grid has count + 1 points
            bound = _grid_rounding(start, (count - 1) * h)
            raise InputFormatError(
                f"step {h!r} is too fine to prove that the float grid from "
                f"{start!r} to {stop!r} advances: a grid of more than "
                f"{SCAN_POINTS} points needs a step above {bound!r}")
        advances = all(starmap(operator.lt, pairwise(grid())))
    if not advances:
        raise InputFormatError(
            f"step {h!r} does not advance the float grid from {start!r} to "
            f"{stop!r}; the trajectory parameter must be strictly increasing")
    return grid


def _grid_count(start: float, stop: float, h: float) -> int:
    """The number of points start + i*h of the float grid, and so of its
    steps: ``stop`` follows them."""
    count = int((stop - start) / h + 1e-9)
    if abs(start + count * h - stop) > 1e-9 * h:
        count += 1
    return count


def _grid_advances(start: float, h: float, count: int,
                   last: float) -> Optional[bool]:
    """Whether start + i*h for i < count, then ``last``, strictly
    increases, where that is provable without scanning the points; else
    None.

    Past index 2**53 ``float(i)`` repeats (float(2**53 + 1) == 2**53), so
    two points coincide.  Up to it ``float(i)`` is exact, and the exact
    products i*h of neighbours are h apart.  Each is rounded by at most
    half of ulp(span), span the largest product (rounding to nearest
    keeps a value's binade or reaches the next power of two), so the
    rounded products differ by more than h - ulp(span).  Where start == 0
    a point is its product, so h > ulp(span) proves the points increase.
    Otherwise each sum start + fl(i*h) lies between start and start +
    span and is rounded by at most half of ulp(max(|start|, |top|)), top
    the largest point; so h > ulp(span) + ulp(max(|start|, |top|))
    proves it.  The last step, to ``last``, is checked as it is.

    Below that step, two equal points among the three highest regular
    ones prove that the grid does not advance, and the same bounds say
    when they must be equal.  Rounding is monotone, so the products
    fl(i*h) do not decrease with i, and those of the three span at most
    2h + ulp(span); so do the exact sums start + fl(i*h).  Where the
    three sums lie in one binade of spacing u and 2h + ulp(span) < u,
    they span less than u, so at most one midpoint between doubles lies
    among them: rounded to nearest, they give at most two doubles.  From
    1e6 to 1e6 + 1 by 1e-11, say, 2h + ulp(span) is about 2e-11 and u =
    ulp(1e6) is 1.16e-10.
    """
    if count - 1 > 2**53:
        return False
    span = (count - 1) * h
    if h > _grid_rounding(start, span):
        return start + span < last
    top = [start + i * h for i in range(max(count - 3, 0), count)]
    if not all(starmap(operator.lt, pairwise(top))):
        return False
    return None


def _grid_rounding(start: float, span: float) -> float:
    """The step above which the grid from ``start`` whose largest product
    is ``span`` is proved to advance (``_grid_advances``)."""
    rounding = math.ulp(span)
    if start != 0:
        rounding += math.ulp(max(abs(start), abs(start + span)))
    return rounding


def _quadratic_columns(offset: Poly, sample: Callable,
                       invariant: Callable) -> list:
    """(c0, c1, c2, op) of each column op(c0 + c1 o + c2 o^2) (*coords,
    invariant, |invariant - c0|) of the row sampled at ``offset`` = o, a
    polynomial of one variable; a higher power is an error."""
    coords = sample(offset)
    columns = []
    for value in (*coords, invariant(*coords)):
        terms = value.terms if isinstance(value, Poly) else {(0,): value}
        if any(power > 2 for power, in terms):
            raise ArithmeticError(f"a column is {value}, not quadratic")
        columns.append(tuple(terms.get((power,), 0) for power in range(3)))
    return [(*c, operator.pos) for c in columns] + [(0, *columns[-1][1:], abs)]


def _divided(num: int, den: int) -> float:
    """num / den (den > 0) rounded once, as int / int does; +-inf beyond."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _exact_rows(config: IntegratorConfig, sample: Callable,
                invariant: Callable) -> tuple:
    """(rows, cells), ``Trajectory``'s rerunnable factories, of exact rows
    over the grid start + i*step for i < n = ceil((stop - start)/step),
    then stop (a float step is read as its decimal text).  ``sample`` and
    ``invariant`` run once, on the polynomial offset step*i.  Each column
    is c0 + c1 i + c2 i^2, so its cells are tabulated by forward
    differences (Knuth, TAOCP vol. 2, 4.6.4): one denominator per column,
    numerators advanced by two integer additions per row.  The row at
    stop is read off the coefficients (``_rows_at``).
    """
    step = parse_scalar(config.step)
    start, stop = Fraction(config.start), Fraction(config.stop)
    at = (stop - start) / step  # the index of stop
    count = math.ceil(at)
    index, = indeterminates("i")
    columns = [(start, step, 0, operator.pos),
               *_quadratic_columns(step * index, sample, invariant)]
    # per column (param, coords, invariant, drift): den, N0, dN, d2N, op
    tables = []
    for c0, c1, c2, op in columns:
        differences = (c0, c1 + c2, 2 * c2)
        den = math.lcm(*(value.denominator for value in differences))
        tables.append((den, *(int(value * den) for value in differences),
                       op))
    stop_row = next(_rows_at([at], 0, columns, ratio_text))[1:]

    def cells() -> Iterator:
        return chain(islice(zip(*starmap(_column, tables)), count),
                     (stop_row,))
    return lambda: (tuple(map(Fraction, row)) for row in cells()), cells


def _column(den: int, n0: int, d1: int, d2: int, op: Callable) -> Iterator:
    """The texts (``ratio_text``) of op(N_i) / den for i = 0, 1, ...,
    where N_i = n0 + i*d1 + C(i, 2)*d2, by two additions a row.  A
    constant column's text is made once."""
    if d1 == d2 == 0:
        return repeat(str(Fraction(op(n0), den)))
    numerators = accumulate(accumulate(repeat(d2), initial=d1), initial=n0)
    return map(ratio_text, map(op, numerators), repeat(den))


def _rows_at(grid: Iterator, start: Scalar, columns: list,
             divide: Callable = operator.truediv) -> Iterator:
    """(param, *cells) at each ``param`` of ``grid``: each column at the
    exact offset m/d = param - start, divide(n0 d^2 + n1 m d + n2 m^2, den
    d^2) over one denominator per column; the default, int / int, rounds
    it once to a double.  A constant column's cell is made once."""
    cells, varying = [], []
    for c0, c1, c2, op in columns:
        den = math.lcm(c0.denominator, c1.denominator, c2.denominator)
        n0, n1, n2 = (int(c * den) for c in (c0, c1, c2))
        if n1 or n2:
            varying.append((len(cells), den, n0, n1, n2, op))
        cells.append(divide(op(n0), den))
    n_start, d_start = start.as_integer_ratio()
    for param in grid:
        n, d = param.as_integer_ratio()
        m, d = n * d_start - n_start * d, d * d_start
        dd, md, mm = d * d, m * d, m * m
        for i, den, n0, n1, n2, op in varying:
            cells[i] = divide(op(n0 * dd + n1 * md + n2 * mm), den * dd)
        yield (param, *cells)


def _float_setup(config: IntegratorConfig, model: Callable, inputs: tuple,
                 picture: Optional[str] = None) -> tuple:
    """((start, stop, step), grid, inputs, chart, columns, probed) of a
    float trajectory, each checked before any row, in this order: the
    float images of the range and of ``inputs`` (a value beyond the double
    range is an input error), the grid they span (``_float_grid``), the
    ``picture``'s chart constants by classify's zero test on the floats,
    and the columns read once off ``model`` on the inputs' exact images
    (offset from the range's start).  A quadratic is largest in magnitude
    at an end or its vertex, so the rows there (``probed``) bound all.
    """
    try:
        span = tuple(map(float, (config.start, config.stop, config.step)))
        inputs = tuple(map(float, inputs))
    except OverflowError as exc:
        raise InputFormatError(
            f"a value is beyond the float range: {exc}") from exc
    grid = _float_grid(*span)
    if not all(map(math.isfinite, inputs)):
        raise InputFormatError(f"{NOT_FINITE}: the inputs are {inputs!r}")
    chart = _chart(picture, OrbitParams(*inputs[:2])) if picture else None
    columns = _quadratic_columns(*indeterminates("s"),
                                 *model(*map(Fraction, inputs)))
    start, stop, _ = span
    vertices = (Fraction(start) - Fraction(c1) / (2 * c2)  # as parameters
                for _, c1, c2, _ in columns if c2)
    probes = [start, stop, *(v for v in vertices if start < v < stop)]
    probed = list(_rows_at(probes, start, columns, _divided))
    for row in probed:
        if not all(map(math.isfinite, row[1:])):
            raise InputFormatError(
                f"{NOT_FINITE}: the row at {float(row[0])!r} is {row[1:]!r}")
    return span, grid, inputs, chart, columns, probed


def _sampled_trajectory(picture: str, config: Optional[IntegratorConfig],
                        inputs: tuple, dual: bool = False) -> Trajectory:
    """The closed-form trajectory of the picture's chart or, with ``dual``,
    of its dual flow, from ``inputs`` led by the orbit labels k and y:
    exact rows, or floats over a checked grid if an input is a float."""
    config = config or IntegratorConfig()
    model = partial(_dual_model if dual else _chart_model, picture)
    if is_float_backed(*inputs):
        span, grid, inputs, _, columns, _ = _float_setup(
            config, model, inputs, None if dual else picture)
        rows, cells = lambda: _rows_at(grid(), span[0], columns), None
    else:
        rows, cells = _exact_rows(config, *model(*inputs))
    return _trajectory(picture, "closed-form", *inputs[:2], rows, cells, dual)


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


#: The unit roundoff of binary64 and half its subnormal spacing: a float
#: operation's result is (x op y)(1 + delta) + eta, |delta| <= U and
#: |eta| <= ETA, with eta = 0 for a sum or a doubling.
U = Fraction(1, 2**53)
ETA = Fraction(1, 2**1075)
U1 = 1 + U
# gamma_k = k U / (1 - k U) bounds k compounded roundings: the product of
# k factors (1 + delta)^(+-1) is 1 + theta, |theta| <= gamma_k
GAMMA_3, GAMMA_5, GAMMA_6, GAMMA_8 = (k * U / (1 - k * U)
                                      for k in (3, 5, 6, 8))


def _reach(a0: Scalar, rate: Scalar, length: Scalar) -> Scalar:
    """The largest |a| on a chart path over a parameter range of
    ``length``: a moves at a constant rate, so it is at an end."""
    return max(abs(a0), abs(a0 + rate * length))


class RK4Bound(NamedTuple):
    """An exact bound on the rounding of ``integrate``'s rows.

    ``end`` is the exact (a, b) at the range's stop of the flow of the
    run's own float constants; every row's (a, b) lies within ``coords``
    of that flow at the row's parameter, and every row's drift is at most
    ``drift``.  ``steps`` counts the run's RK4 steps.
    """

    steps: int
    end: tuple
    coords: tuple
    drift: Fraction


def _rk4_bound(steps: int, largest: Fraction, length: Fraction,
               a0: Fraction, b0: Fraction, rate: Fraction, gain: Fraction,
               slope: Fraction, half_force: Fraction) -> tuple:
    """((E_a, E_b), E_drift) of ``_rk4_rows`` over ``steps`` steps of at
    most ``largest`` summing to ``length``, in closed form.

    Each computed step is fl(param - prev): exact on a grid from 0 by
    Sterbenz's lemma, within U of it anyway, so the steps sum to a
    virtual length within U length of ``length``.  One exact RK4 step of
    the affine field is the flow (``verify`` proves it), so the scheme
    stepped exactly along the computed steps is the flow at the virtual
    parameters, and every error is the loop's rounding, operation by
    operation in its order.  With n steps, h <= H, reach A of the exact
    path and |b| <= B = |b0| + |gain| A length (1 + U):

    - a: the increment fl(sixth rate_sum) is h rate within d = gamma_5 H
      |rate| + ETA (7 |rate| + 1) (rate_sum has 3 roundings), and the sum
      adds U |a|, so e_{i+1} <= (1 + U) e_i + c, c = (1 + U) d + U A, and
      e_n <= c n / (1 - n U), as (1 + U)^n - 1 <= gamma_n.
    - b: each monomial of the increment h gain (a + h rate / 2) passes at
      most 8 roundings, so from a computed state the increment is within
      L = gamma_8 H |gain| (A' + H |rate| / 2) + zeta of exact RK4's,
      A' = A + E_a bounding |a| and zeta the underflows carried to it;
      the sum adds U (B + f_i + H |gain| e_i), and the exact step carries
      a's error on as h gain e_i: f_{i+1} <= (1 + U)(f_i + H |gain| e_i)
      + (1 + U) L + U B, which sums, with (1 + U)^n <= 1 / (1 - n U), to
      a term in n^2 and one in n.
    - drift: the invariant b slope - half_force a^2 is kept by the exact
      flow up to |gain slope - 2 half_force rate| A length (1 + U), zero
      when half_force is gain/2 exactly; the computed state moves it by
      |slope| E_b + |half_force| E_a (2 A + E_a), and its evaluation
      rounds by rho = gamma_3 (|slope| B' + |half_force| A'^2) + 2 ETA
      (2 + A'), B' = B + E_b, at each of the two rows, before a last
      subtraction.

    Against the flow at a row's own parameter each coordinate adds its
    derivative's largest size times U length.  Standard model with
    gradual underflow (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed. 2002, ch. 2-3), assuming no overflow, which
    ``integrate``'s row probes and stage check guard against; n U < 1 on
    every grid ``_float_grid`` accepts.
    """
    n, H, T = steps, largest, length
    R, G, S, F = map(abs, (rate, gain, slope, half_force))
    RT, HR = R * T, H * R
    A = _reach(a0, rate, T) + U * RT
    GAT = G * A * T
    B = abs(b0) + U1 * GAT
    inflation = 1 / (1 - n * U)  # bounds (1 + U)^n
    c = U1 * (GAMMA_5 * HR + ETA * (7 * R + 1)) + U * A
    e_a = c * n * inflation
    A1 = A + e_a
    HG = H * G
    # the underflows carried to the stage sum, then to the increment
    zeta = ETA * (4 * (H / 6 + ETA) * (6 + G * (5 + 4 * R))
                  + 2 * (1 + GAMMA_6) * G * (6 * A1 + 3 * HR) + 1)
    local = GAMMA_8 * HG * (A1 + HR / 2) + zeta
    e_b = (U1 * HG * c * (n * (n - 1) // 2) * inflation
           + n * (U1 * local + U * B)) * inflation
    rho = GAMMA_3 * (S * (B + e_b) + F * A1 * A1) + 2 * ETA * (2 + A1)
    kept = abs(gain * slope - 2 * half_force * rate) * U1 * A * T
    drift = U1 * (2 * rho + S * e_b + F * e_a * (A + A1) + kept)
    return (e_a + U * RT, e_b + U * GAT), drift


def _chart_model(picture: str, k: Scalar, y: Scalar, a0: Scalar, b0: Scalar,
                 f0: Optional[Scalar] = None) -> tuple:
    """(sample, invariant) of the chart's closed form from (a0, b0): s ->
    (a0 + rate s, b0 + f0 s + half s^2), the force growing at gain*rate = 2
    half from f0, by default the on-orbit gain*a0 (y*tau0 in space)."""
    rate, gain, slope, half_force, half = _chart(picture, OrbitParams(k, y))
    force = gain * a0 if f0 is None else f0
    return (lambda s: (a0 + rate * s, b0 + force * s + half * s * s),
            lambda a, b: b * slope - half_force * a * a)


def _dual_model(picture: str, k: Scalar, y: Scalar, *state: Scalar) -> tuple:
    """(sample, invariant) of the dual flow from (p, e, f): path and psi."""
    path = _picture(picture)[3]
    return path((*state, k, y)), lambda p, e, f: psi_value(p, e, f, k, y)


def _trajectory(picture: str, method: str, k: Scalar, y: Scalar,
                rows: Callable, cells: Optional[Callable] = None,
                dual: bool = False) -> Trajectory:
    param, coords, invariant, _ = _picture(picture)
    if dual:
        picture, coords, invariant = f"dual-{picture}", ("p", "e", "f"), "psi"
    return Trajectory(picture, (param, *coords, invariant, "drift"),
                      invariant, method, {"k": k, "y": y}, rows, cells)


def _rk4_setup(picture: str, state0: Sequence[Scalar], params: OrbitParams,
               config: Optional[IntegratorConfig]) -> tuple:
    """(span, grid, inputs, chart) of an RK4 run: the float set-up
    (``_float_setup``), with the stages and invariant products bounded
    as ``integrate`` says."""
    span, grid, inputs, chart, _, probed = _float_setup(
        config or IntegratorConfig(), partial(_chart_model, picture),
        (params.k, params.y, *state0), picture)
    start, stop, step = span
    length = stop - start
    reach = _reach(inputs[2], chart[0], length)
    largest = max(6.0, min(step, length)) * abs(chart[1]) * reach
    if length and not 2 * largest <= sys.float_info.max:
        raise InputFormatError(f"{NOT_FINITE}: an RK4 stage reaches "
                               f"{largest!r}, over half the largest double")
    a, b = (Fraction(max(abs(row[i]) for row in probed)) for i in (1, 2))
    slope, half_force = (abs(Fraction(value)) for value in chart[2:4])
    terms = {"time": ("p v", "k q^2/2"), "space": ("e s", "y tau^2/2")}
    for term, product in zip(terms[picture], (b * slope, half_force * a * a)):
        if not 2 * product <= sys.float_info.max:
            raise InputFormatError(
                f"{NOT_FINITE}: the RK4 invariant's product {term} reaches "
                f"{_divided(*product.as_integer_ratio())!r}, over half the "
                "largest double")
    return span, grid, inputs, chart


def integrate(picture: str, state0: Sequence[Scalar], params: OrbitParams,
              config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Float RK4 over the derived rhs, from state0 at the range's start.

    Rows carry the chart invariant and its drift; the rhs is an affine
    polynomial field, so the scheme is the flow up to rounding, which
    ``rk4_bound`` bounds.  Before the first row the closed form from the
    same state is checked finite (``_float_setup``, as for the float
    closed form).  a moves at a constant rate, so |a| is largest at an
    end of the range (``_reach``); each stage is at most |gain| reach,
    the stage sum 6 times that and b's increment h times it.  These, and
    the invariant's products b slope and half_force a^2 at the closed
    form's largest |b| and |a|, are kept under half the largest double, a
    binade of headroom for rounding.
    """
    (_, _, step), grid, inputs, chart = _rk4_setup(picture, state0, params,
                                                   config)
    return _trajectory(picture, f"rk4 h={step!r}", *inputs[:2],
                       lambda: _rk4_rows(grid(), inputs[2:], *chart[:4]))


def rk4_bound(picture: str, state0: Sequence[Scalar], params: OrbitParams,
              config: Optional[IntegratorConfig] = None) -> RK4Bound:
    """The exact bound (``_rk4_bound``) on the rounding of the run that
    ``integrate`` makes of these arguments, refused as it is refused;
    no row is stepped.

    The grid's regular steps are within ``_grid_rounding`` of the step
    (each point start + i*h is within half of it of its exact value), and
    the last one, to stop, is read off the grid's last regular point.
    """
    (start, stop, step), _, inputs, chart = _rk4_setup(picture, state0,
                                                       params, config)
    steps = _grid_count(start, stop, step)
    span = (steps - 1) * step
    largest = U1 * max(
        Fraction(step) + Fraction(_grid_rounding(start, span)),
        Fraction(stop) - Fraction(start + span)) if steps else Fraction(0)
    length = Fraction(stop) - Fraction(start)
    a0, b0 = map(Fraction, inputs[2:])
    rate, gain, slope, half_force = map(Fraction, chart[:4])
    end = (a0 + rate * length,
           b0 + gain * length * (a0 + rate * length / 2))
    return RK4Bound(steps, end, *_rk4_bound(
        steps, largest, length, a0, b0, rate, gain, slope, half_force))


def closed_form_trajectory(picture: str, state0: Sequence[Scalar],
                           params: OrbitParams,
                           config: Optional[IntegratorConfig] = None,
                           f0: Optional[Scalar] = None) -> Trajectory:
    """The closed form from state0 (and f0) at the range's start, on the
    integrator's grid (``_sampled_trajectory``): exact rows on exact
    inputs.  f0 defaults to the on-orbit y*tau0 in space; time takes none.
    """
    if f0 is not None and picture != "space":
        raise ValueError(f"f0 applies only to the space picture, "
                         f"not to {picture!r}")
    inputs = (params.k, params.y, *state0, *(() if f0 is None else (f0,)))
    return _sampled_trajectory(picture, config, inputs)


def dual_flow_trajectory(mu0: DualElement, picture: str,
                         config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Exact dual-space evolution of (p, e, f) from mu0 at the range's
    start, on any orbit: psi = 2ke - f^2 + 2py is defined on every one, so
    this works where the charts do not.  Rows are the paths of
    time_flow/space_flow (``_sampled_trajectory``).
    """
    return _sampled_trajectory(picture, config, (*mu0[3:], *mu0[:3]),
                               dual=True)
