"""Self-verification suite: every structural claim the package rests on.

Every check on rational claims runs the package's own code on
indeterminates (``poly.Poly``, and ``poly.Ratio`` where a formula
divides) and proves its identities for every input: a zero residual is a
proof, a nonzero one the counterexample itself.  Only orbit-dimension
draws its class representatives from a per-check counter-based stream,
so the seed determines the report; ``samples`` is reported and read by
no check.  integrator-tolerance proves that one RK4 step is the flow and
then measures the float integrator's rounding on four runs, the last
three of which a forked worker (``worker.shared``) runs from the suite's
start where a second CPU is free; the report is the same either way.

``MUTATIONS`` holds deliberately broken structure tensors for exercising
the suite's teeth: running under a mutation must flip the algebra checks
to failure (and is how the CLI's ``--mutate`` mode is wired).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from operator import mul
from typing import Callable, Iterator, NamedTuple, Optional

from . import linalg, poly
from .backend import exact_div, rel_err
from .dynamics import (
    IntegratorConfig, OrbitParams, SpaceState, TimeState,
    integrate, space_closed_form, space_flow, space_rhs,
    time_closed_form, time_flow, time_rhs,
)
from .lie_core import (
    DIM, AlgebraElement, BasisIndex, GroupElement, StructureTensor,
    adjoint_of_group, bracket, compose, compose_bch, inverse, jacobi_residual,
)
from .orbits import (
    OrbitClass, DualElement, classify, coadjoint, coadjoint_generators,
    coadjoint_matrix, coadjoint_printed, invariants, orbit_dimension,
)
from .rng import SplitMix64
from .worker import shared

HALF, SIXTH = Fraction(1, 2), Fraction(1, 6)


def _mutated_eq24() -> StructureTensor:
    # [F, E] = F instead of Y: breaks Jacobi and step-3 nilpotency
    B = BasisIndex
    return StructureTensor.from_brackets([
        (B.P, B.E, B.F, 1),
        (B.P, B.F, B.LAMBDA, 1),
        (B.F, B.E, B.F, 1),
    ])


MUTATIONS = {"Eq2.4": _mutated_eq24}


class _Context(NamedTuple):
    rng: SplitMix64
    tensor: StructureTensor
    float_runs: Iterator  # the results of FLOAT_RUNS, in order


def _check_jacobi(ctx: _Context):
    residual = jacobi_residual(ctx.tensor)
    return residual == 0, f"max cyclic residual {residual}"


def _check_nilpotency(ctx: _Context):
    basis = [AlgebraElement.basis(BasisIndex(i)) for i in range(DIM)]
    nested = basis
    for _ in range(2):  # [a, b], then [[a, b], c]; [[[a, b], c], d] streams
        nested = [bracket(value, d, ctx.tensor) for value in nested
                  for d in basis]
    worst = max(bracket(value, d, ctx.tensor).max_abs() for value in nested
                for d in basis)
    return worst == 0, f"{DIM ** 4} nested 4-letter brackets, max norm {worst}"


def _symbols(groups: int, dual: bool = False) -> tuple:
    """The first ``groups`` of g, h, w, then mu if ``dual``, whose
    coordinates are indeterminates over exactly those elements."""
    names = [name + prime for prime in ("", "'", "''")[:groups]
             for name in ("x", "t", "zeta", "a", "b")]
    v = poly.indeterminates(names + (["p", "e", "f", "k", "y"] if dual else []))
    elements = [GroupElement._make(v[i:i + 5]) for i in range(0, 5 * groups, 5)]
    if dual:
        elements.append(DualElement._make(v[-5:]))
    return tuple(elements)


def _prove(*identities) -> tuple:
    """Pass iff each (name, lhs, rhs) has a zero residual in every component.

    On the indeterminates of ``_symbols`` a zero residual proves the
    identity for all inputs; a nonzero one is the counterexample itself.
    """
    for name, lhs, rhs in identities:
        for index, (left, right) in enumerate(zip(lhs, rhs)):
            if left - right != 0:
                return False, (f"{name} fails: component {index} has "
                               f"residual {left - right}")
    return True, "proved on indeterminates: " + "; ".join(
        name for name, _lhs, _rhs in identities)


def _check_associativity(ctx: _Context):
    g, h, w = _symbols(3)
    return _prove(
        ("(g*h)*w = g*(h*w)", compose(compose(g, h), w),
         compose(g, compose(h, w))),
        ("compose = compose_bch", compose(g, h),
         compose_bch(g, h, ctx.tensor)))


def _check_group_axioms(_ctx: _Context):
    (g,) = _symbols(1)
    e, gi = GroupElement.identity(), inverse(g)
    return _prove(("e*g = g", compose(e, g), g), ("g*e = g", compose(g, e), g),
                  ("g*g^-1 = e", compose(g, gi), e),
                  ("g^-1*g = e", compose(gi, g), e))


def _check_adjoint(_ctx: _Context):
    g, h = _symbols(2)
    m = adjoint_of_group(g).rows
    cube = linalg.mat_pow(linalg.mat_sub(m, linalg.identity(DIM)), 3)
    # Ad(g) is lower triangular: det = 1 is a zero upper triangle and a
    # diagonal product of 1
    upper = [m[i][j] for i in range(DIM) for j in range(i + 1, DIM)]
    return _prove(
        ("Ad(g*h) = Ad(g) Ad(h)", sum(adjoint_of_group(compose(g, h)).rows, ()),
         sum((adjoint_of_group(g) @ adjoint_of_group(h)).rows, ())),
        ("(Ad(g) - I)^3 = 0", sum(cube, ()), repeat(0)),
        ("det Ad(g) = 1", upper + [reduce(mul, (m[i][i] for i in range(DIM)))],
         [0] * len(upper) + [1]))


def _check_coadjoint_action(_ctx: _Context):
    g, h, mu = _symbols(2, dual=True)
    return _prove(
        # a left action over the first-extension law on (x, t, zeta)
        ("coadjoint_printed is a left action",
         coadjoint_printed(h.x, h.t, h.zeta,
                           coadjoint_printed(g.x, g.t, g.zeta, mu)),
         coadjoint_printed(g.x + h.x, g.t + h.t, g.zeta + h.zeta + h.x * g.t,
                           mu)),
        ("coadjoint is a left action", coadjoint(compose(g, h), mu),
         coadjoint(g, coadjoint(h, mu))),
        ("the center acts trivially",
         coadjoint(GroupElement(0, 0, 0, g.a, g.b), mu), mu),
        ("coadjoint = coadjoint_matrix", coadjoint(g, mu),
         coadjoint_matrix(g, mu)))


# the presence strata of InvariantSet: which of k and y vanish
STRATA = (("k, y != 0", {}), ("k = 0", {"k": 0}), ("y = 0", {"y": 0}),
          ("k = y = 0", {"k": 0, "y": 0}))


def _kept(mu: DualElement) -> dict:
    """The invariants defined at mu, without the chart positions q, tau."""
    values = invariants(mu).as_dict()
    return {name: values[name] for name in values if name not in ("q", "tau")}


def _check_invariant_preservation(_ctx: _Context):
    g, mu = _symbols(1, dual=True)
    identities = []
    for stratum, zeros in STRATA:
        point = mu._replace(**zeros)
        before, after = _kept(point), _kept(coadjoint(g, point))
        if before.keys() != after.keys():
            return False, (f"where {stratum}, {', '.join(before)} are defined "
                           f"before the action and {', '.join(after)} after")
        identities.append((f"{', '.join(before)} kept where {stratum}",
                           before.values(), after.values()))
    return _prove(*identities)


def _check_u_equals_pi_v(_ctx: _Context):
    (mu,) = _symbols(0, dual=True)
    inv = invariants(mu)
    return _prove(("U = pi v where k, y != 0", [inv.u], [inv.pi * inv.v]))


def _check_orbit_dimension(ctx: _Context):
    r = ctx.rng
    reps = [
        (DualElement(r.rational(), r.rational(), r.rational(),
                     r.nonzero_rational(), r.nonzero_rational()),
         OrbitClass.GENERIC, 2),
        (DualElement(r.rational(), r.rational(), r.rational(),
                     r.nonzero_rational(), 0), OrbitClass.HOOKE_ONLY, 2),
        (DualElement(r.rational(), r.rational(), r.rational(), 0,
                     r.nonzero_rational()), OrbitClass.YANK_ONLY, 2),
        (DualElement(r.rational(), r.rational(), r.nonzero_rational(), 0, 0),
         OrbitClass.FORCE_ONLY, 2),
        (DualElement(r.rational(), r.rational(), 0, 0, 0),
         OrbitClass.FIXED_POINT, 0),
        (DualElement(0, 0, 0, 0, 0), OrbitClass.FIXED_POINT, 0),
    ]
    failures = 0
    for mu, expected_class, expected_dim in reps:
        if classify(mu) is not expected_class:
            failures += 1
        elif orbit_dimension(mu) != expected_dim:
            failures += 1
        elif linalg.rank(coadjoint_generators(mu)) != expected_dim:
            failures += 1
    return failures == 0, (f"{len(reps)} seeded class representatives, "
                           f"{failures} failures")


def _pictures(params: OrbitParams, a0, b0) -> tuple:
    """Per picture: its name, its parameter's name, its closed form from
    (a0, b0) as a function of the parameter, and its rhs at a state and
    a parameter."""
    return (("time", "t", partial(time_closed_form, a0, b0, params),
             lambda state, t: time_rhs(TimeState(*state, t), params)),
            ("space", "x", partial(space_closed_form, a0, b0, params.y * a0,
                                   params),
             lambda state, x: space_rhs(SpaceState(*state, x), params)))


def _chart_symbols(*names: str) -> tuple:
    """Orbit labels (k, y) as OrbitParams, then indeterminates ``names``."""
    k, y, *rest = poly.indeterminates(("k", "y") + names)
    return (OrbitParams(k, y), *rest)


def _check_closed_form_flow(_ctx: _Context):
    params, q0, p0, e0, t, tau0, x = _chart_symbols(
        "q0", "p0", "e0", "t", "tau0", "x")
    k, y = params
    mu0, nu0 = (DualElement(p0, e0, k * q0, k, y),
                DualElement(p0, e0, y * tau0, k, y))
    mu, nu = time_flow(mu0, t), space_flow(nu0, x)
    return _prove(
        ("(f/k, p) of time_flow = time_closed_form",
         (exact_div(mu.f, k), mu.p), time_closed_form(q0, p0, params, t)),
        ("time_flow = coadjoint_printed(0, -t, 0)", mu,
         coadjoint_printed(0, -t, 0, mu0)),
        ("(f/y, e) of space_flow = space_closed_form",
         (exact_div(nu.f, y), nu.e),
         space_closed_form(tau0, e0, y * tau0, params, x)),
        ("space_flow = coadjoint_printed(-x, 0, 0)", nu,
         coadjoint_printed(-x, 0, 0, nu0)))


def _check_rhs_consistency(_ctx: _Context):
    # the closed forms are quadratic in the parameter, so the centered
    # difference with a symbolic step h is their exact derivative
    params, a0, b0, at, h = _chart_symbols("a0", "b0", "at", "h")
    return _prove(*(
        (f"d/d{var} {name}_closed_form = {name}_rhs",
         [exact_div(a - b, 2 * h)
          for a, b in zip(solution(at + h), solution(at - h))],
         rhs(solution(at), at))
        for name, var, solution, rhs in _pictures(params, a0, b0)))


def _rk4_step(rhs: Callable, state: tuple, h) -> list:
    """One classical RK4 step of size h from parameter 0 on the field
    ``rhs(state, parameter)``."""
    k1 = rhs(state, 0)
    k2 = rhs([s + HALF * h * d for s, d in zip(state, k1)], HALF * h)
    k3 = rhs([s + HALF * h * d for s, d in zip(state, k2)], HALF * h)
    k4 = rhs([s + h * d for s, d in zip(state, k3)], h)
    return [s + SIXTH * h * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)]


# the integrator check's float runs over [0, 10] at h = 1e-3: picture,
# chart state and exact orbit labels
FLOAT_RUNS = (("time", (0.0, 0.0), OrbitParams(1, 1)),
              ("time", (0.5, -1.0), OrbitParams(2, 3)),
              ("space", (0.0, 0.0), OrbitParams(1, 1)),
              ("space", (-0.5, 1.0), OrbitParams(3, 2)))


def _float_run(run: tuple) -> tuple:
    """A float run's final relative errors in both coordinates against its
    flow, and its largest drift, in one pass over its rows."""
    picture, state0, params = run
    float_params = OrbitParams(float(params.k), float(params.y))
    solution = _pictures(float_params, *state0)[picture == "space"][2]
    config = IntegratorConfig(step=1e-3, start=0.0, stop=10.0)
    drift = 0.0
    for row in integrate(picture, state0, params, config).row_factory():
        if row[-1] > drift:
            drift = row[-1]
    return (*map(rel_err, row[1:3], solution(10.0)), drift)


def _check_integrator(ctx: Optional[_Context]):
    # the fields are affine with a nilpotent linear part, so RK4's
    # order-4 Taylor truncation is the flow itself
    params, a0, b0, h = _chart_symbols("a0", "b0", "h")
    exact, proof = _prove(*(
        (f"one RK4 step of {name}_rhs = {name}_closed_form",
         _rk4_step(rhs, (a0, b0), h), solution(h))
        for name, _var, solution, rhs in _pictures(params, a0, b0)))
    if not exact:
        return exact, proof
    worst_err, worst_drift = 0.0, 0.0
    for *errs, drift in (ctx.float_runs if ctx
                         else map(_float_run, FLOAT_RUNS)):
        if drift > worst_drift:
            worst_drift = drift
        worst_err = max(worst_err, *errs)
    passed = worst_err <= 1e-8 and worst_drift <= 1e-8
    return passed, (f"{proof}; so 4 float trajectories over [0, 10] at "
                    f"h=1e-3 differ from the flow by rounding only: max final "
                    f"rel err {worst_err:.3e}, max drift {worst_drift:.3e}")


CHECKS: "tuple[tuple[str, Callable], ...]" = (
    ("jacobi", _check_jacobi),
    ("nilpotency", _check_nilpotency),
    ("associativity", _check_associativity),
    ("group-axioms", _check_group_axioms),
    ("adjoint-homomorphism", _check_adjoint),
    ("coadjoint-action-laws", _check_coadjoint_action),
    ("invariant-preservation", _check_invariant_preservation),
    ("u-equals-pi-v", _check_u_equals_pi_v),
    ("orbit-dimension", _check_orbit_dimension),
    ("closed-form-flow", _check_closed_form_flow),
    ("rhs-consistency", _check_rhs_consistency),
    ("integrator-tolerance", _check_integrator),
)


def hash_name(name: str) -> int:
    """Stable 64-bit stream offset for a check name (not Python's hash)."""
    value = 0
    for ch in name.encode():
        value = (value * 131 + ch) & 0xFFFFFFFFFFFFFFFF
    return value


def run_suite(seed: int = 0, samples: int = 1000,
              mutation: Optional[str] = None) -> dict:
    """Run every check; the report is fully determined by the arguments."""
    if mutation is not None and mutation not in MUTATIONS:
        raise KeyError(f"unknown mutation id: {mutation}")
    tensor = MUTATIONS[mutation]() if mutation else StructureTensor.default()
    checks = []
    # the float runs start on a second core, if any, before the first
    # check; a wrapped integrate (a tracer's timer, say) sees the calls of
    # its own process only, so then they all stay here
    fork = ("integrator-tolerance" in dict(CHECKS)
            and not hasattr(integrate, "__wrapped__"))
    with shared(iter(FLOAT_RUNS), _float_run, lambda index: fork and index > 0,
                "the integrator worker ended before its last run") as runs:
        for name, func in CHECKS:
            # each check gets its own stream: reordering one never shifts
            # another
            try:
                passed, detail = func(_Context(
                    SplitMix64(seed ^ hash_name(name)), tensor, runs))
            except ArithmeticError as exc:
                # a derivation that breaks down (a mutated tensor, say)
                # fails its check; the rest of the report still runs
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            checks.append({"name": name, "passed": passed, "detail": detail})
    return {
        "backend": "rational",
        "seed": seed,
        "samples": samples,
        "mutation": mutation,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def render_text(report: dict) -> str:
    lines = [
        "verification report",
        "===================",
        f"backend: {report['backend']}   seed: {report['seed']}   "
        f"samples: {report['samples']}",
    ]
    if report["mutation"]:
        lines.append(f"mutation: {report['mutation']}")
    lines.append("")
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        lines.append(f"[{mark}] {check['name']}: {check['detail']}")
    lines.append("")
    lines.append("all checks passed" if report["all_passed"]
                 else "FAILURES PRESENT")
    return "\n".join(lines)
