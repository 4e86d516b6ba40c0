"""Self-verification suite: every structural claim the package rests on.

Every check on rational claims runs the package's own code on
indeterminates (``poly.Poly``, and ``poly.Ratio`` where a formula
divides) and proves its identities for every input: a zero residual is a
proof, a nonzero one the counterexample itself.  Nothing is sampled, so
the report is determined by the mutation alone; ``symbols`` and
``chart_symbols`` make the indeterminates, for the errata audit too.
integrator-tolerance proves that one RK4 step is the flow, so that
float RK4 differs from it by rounding alone; it bounds that rounding
exactly on four runs (``dynamics.rk4_bound``) and measures each run's
first steps within their bound.

``MUTATIONS`` holds deliberately broken structure tensors for exercising
the suite's teeth: running under a mutation must flip the algebra checks
to failure (and is how the CLI's ``--mutate`` mode is wired).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, repeat
from operator import mul
from typing import Callable, Optional

from . import linalg, poly
from .backend import HALF, exact_div
from .dynamics import (
    IntegratorConfig, OrbitParams, SpaceState, TimeState,
    integrate, rk4_bound, space_closed_form, space_flow, space_rhs,
    time_closed_form, time_flow, time_rhs,
)
from .lie_core import (
    DIM, AlgebraElement, BasisIndex, GroupElement, StructureTensor,
    adjoint_of_group, bracket, compose, compose_bch, inverse, jacobi_residual,
)
from .orbits import (
    OrbitClass, DualElement, classify, coadjoint, coadjoint_generators,
    coadjoint_matrix, coadjoint_printed, invariants,
)

SIXTH = Fraction(1, 6)


def _mutated_eq24() -> StructureTensor:
    # [F, E] = F instead of Y: breaks Jacobi and step-3 nilpotency
    B = BasisIndex
    return StructureTensor.from_brackets([
        (B.P, B.E, B.F, 1),
        (B.P, B.F, B.LAMBDA, 1),
        (B.F, B.E, B.F, 1),
    ])


MUTATIONS = {"Eq2.4": _mutated_eq24}


def _check_jacobi(tensor: StructureTensor):
    residual = jacobi_residual(tensor)
    return residual == 0, f"max cyclic residual {residual}"


def _check_nilpotency(tensor: StructureTensor):
    basis = [AlgebraElement.basis(BasisIndex(i)) for i in range(DIM)]
    nested = basis
    for _ in range(2):  # [a, b], then [[a, b], c]; [[[a, b], c], d] streams
        nested = [bracket(value, d, tensor) for value in nested
                  for d in basis]
    worst = max(bracket(value, d, tensor).max_abs() for value in nested
                for d in basis)
    return worst == 0, f"{DIM ** 4} nested 4-letter brackets, max norm {worst}"


def symbols(groups: int, dual: bool = False) -> tuple:
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

    On the indeterminates of ``symbols`` a zero residual proves the
    identity for all inputs; a nonzero one is the counterexample itself.
    """
    for name, lhs, rhs in identities:
        for index, (left, right) in enumerate(zip(lhs, rhs)):
            if left - right != 0:
                return False, (f"{name} fails: component {index} has "
                               f"residual {left - right}")
    return True, "proved on indeterminates: " + "; ".join(
        name for name, _lhs, _rhs in identities)


def _check_associativity(tensor: StructureTensor):
    g, h, w = symbols(3)
    return _prove(
        ("(g*h)*w = g*(h*w)", compose(compose(g, h), w),
         compose(g, compose(h, w))),
        ("compose = compose_bch", compose(g, h),
         compose_bch(g, h, tensor)))


def _check_group_axioms(_tensor: StructureTensor):
    (g,) = symbols(1)
    e, gi = GroupElement.identity(), inverse(g)
    return _prove(("e*g = g", compose(e, g), g), ("g*e = g", compose(g, e), g),
                  ("g*g^-1 = e", compose(g, gi), e),
                  ("g^-1*g = e", compose(gi, g), e))


def _check_adjoint(_tensor: StructureTensor):
    g, h = symbols(2)
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


def _check_coadjoint_action(_tensor: StructureTensor):
    g, h, mu = symbols(2, dual=True)
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


def _check_invariant_preservation(_tensor: StructureTensor):
    g, mu = symbols(1, dual=True)
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


def _check_u_equals_pi_v(_tensor: StructureTensor):
    (mu,) = symbols(0, dual=True)
    inv = invariants(mu)
    return _prove(("U = pi v where k, y != 0", [inv.u], [inv.pi * inv.v]))


# classify's strata: the class, its conditions, the zeros that cut it out
# and a coordinate it holds nonzero
CLASS_STRATA = (
    (OrbitClass.GENERIC, "k, y != 0", {}, "k"),
    (OrbitClass.HOOKE_ONLY, "y = 0, k != 0", {"y": 0}, "k"),
    (OrbitClass.YANK_ONLY, "k = 0, y != 0", {"k": 0}, "y"),
    (OrbitClass.FORCE_ONLY, "k = y = 0, f != 0", {"k": 0, "y": 0}, "f"),
    (OrbitClass.FIXED_POINT, "f = k = y = 0", dict.fromkeys("fky", 0), None))


def _check_orbit_dimension(_tensor: StructureTensor):
    (mu,) = symbols(0, dual=True)
    rows = coadjoint_generators(mu)
    m = [row[:3] for row in rows]
    pairs = tuple(combinations(range(3), 2))
    minors = [m[r][i] * m[s][j] - m[r][j] * m[s][i]
              for r, s in pairs for i, j in pairs]
    norm = mu.f * mu.f + mu.k * mu.k + mu.y * mu.y
    passed, proof = _prove(
        ("the generators fix k and y", [c for row in rows for c in row[3:]],
         repeat(0)),
        ("det of their (p, e, f) block = 0",  # along its last row
         [m[2][0] * minors[2] - m[2][1] * minors[1] + m[2][2] * minors[0]],
         [0]),
        ("its squared 2x2 minors sum to (f^2 + k^2 + y^2)^2",
         [sum(minor * minor for minor in minors)], [norm * norm]),
        ("its squared entries sum to 2(f^2 + k^2 + y^2)",
         [sum(c * c for row in m for c in row)], [2 * norm]))
    if not passed:
        return passed, proof
    for cls, where, zeros, nonzero in CLASS_STRATA:
        point = mu._replace(**zeros)
        # a sum of squares: 0 if it is the zero polynomial, else > 0 if it
        # has the square of a coordinate the stratum holds nonzero
        squares = point.f * point.f + point.k * point.k + point.y * point.y
        held = nonzero and getattr(mu, nonzero) * getattr(mu, nonzero)
        rank = (0 if squares == 0 else 2 if nonzero and held.terms.keys()
                <= squares.terms.keys() else "undetermined")
        got = classify(point)
        if got is not cls or got.dimension != rank:
            return False, (f"{cls.value} where {where}: classify gives "
                           f"{got.value} of dimension {got.dimension}, but "
                           f"the generators have rank {rank}")
    return True, (f"{proof}; so the generators have rank 2 where f^2 + k^2 "
                  f"+ y^2 != 0, else 0, classify's dimension on " + "; ".join(
                      f"{cls.value} where {where}"
                      for cls, where, *_ in CLASS_STRATA))


def _pictures(params: OrbitParams, a0, b0) -> tuple:
    """Per picture: its name, its parameter's name, its closed form from
    (a0, b0) as a function of the parameter, and its rhs at a state and
    a parameter."""
    return (("time", "t", partial(time_closed_form, a0, b0, params),
             lambda state, t: time_rhs(TimeState(*state, t), params)),
            ("space", "x", partial(space_closed_form, a0, b0, params.y * a0,
                                   params),
             lambda state, x: space_rhs(SpaceState(*state, x), params)))


def chart_symbols(*names: str) -> tuple:
    """Orbit labels (k, y) as OrbitParams, then indeterminates ``names``."""
    k, y, *rest = poly.indeterminates(("k", "y") + names)
    return (OrbitParams(k, y), *rest)


def _check_closed_form_flow(_tensor: StructureTensor):
    params, q0, p0, e0, t, tau0, x = chart_symbols(
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


def _check_rhs_consistency(_tensor: StructureTensor):
    # the closed forms are quadratic in the parameter, so the centered
    # difference with a symbolic step h is their exact derivative
    params, a0, b0, at, h = chart_symbols("a0", "b0", "at", "h")
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


# the integrator check's float runs: picture, chart state, exact orbit
# labels and range, [0, 10] at h = 1e-3; the rounding of each is bounded,
# and its first WITNESS_STEPS steps are stepped and measured
FLOAT_RANGE = IntegratorConfig(step=1e-3, start=0.0, stop=10.0)
FLOAT_RUNS = (("time", (0.0, 0.0), OrbitParams(1, 1), FLOAT_RANGE),
              ("time", (0.5, -1.0), OrbitParams(2, 3), FLOAT_RANGE),
              ("space", (0.0, 0.0), OrbitParams(1, 1), FLOAT_RANGE),
              ("space", (-0.5, 1.0), OrbitParams(3, 2), FLOAT_RANGE))
WITNESS_STEPS = 100
WITNESS_MEASURES = ("a error", "b error", "drift")
TOLERANCE = 1e-8


def _float_run(run: tuple) -> tuple:
    """(name, bounds, measured, limits) of a float run: its name with
    its step count; the exact bounds on its final relative error
    (relative above 1, absolute below) and on its drift; and the final
    (a, b) errors and largest drift of its first WITNESS_STEPS steps,
    stepped, against the exact flow, beside their bounds."""
    picture, state0, params, config = run
    bound = rk4_bound(*run)
    witness = config._replace(stop=min(
        config.stop, config.start + WITNESS_STEPS * config.step))
    short = rk4_bound(picture, state0, params, witness)
    drift = 0.0
    for row in integrate(picture, state0, params, witness).row_factory():
        if row[-1] > drift:
            drift = row[-1]
    name = (f"{picture} {state0} k={params.k} y={params.y}, "
            f"{bound.steps} steps of h={config.step!r}")
    return (name,
            (max(e / max(1, abs(x)) for e, x in zip(bound.coords, bound.end)),
             bound.drift),
            (*(abs(Fraction(value) - x) for value, x in zip(row[1:3],
                                                            short.end)),
             Fraction(drift)),
            (*short.coords, short.drift))


def _check_integrator(_tensor: StructureTensor):
    # the fields are affine with a nilpotent linear part, so RK4's
    # order-4 Taylor truncation is the flow itself
    params, a0, b0, h = chart_symbols("a0", "b0", "h")
    exact, proof = _prove(*(
        (f"one RK4 step of {name}_rhs = {name}_closed_form",
         _rk4_step(rhs, (a0, b0), h), solution(h))
        for name, _var, solution, rhs in _pictures(params, a0, b0)))
    if not exact:
        return exact, proof
    bounds, worst = [], 0
    for name, (rel, drift), measured, limits in map(_float_run, FLOAT_RUNS):
        if rel > TOLERANCE or drift > TOLERANCE:
            witness = ", ".join(f"{what} {float(value):.3e}" for what, value
                                in zip(WITNESS_MEASURES, measured))
            return False, (f"{proof}; but {name} has bounds {float(rel):.3e} "
                           f"on its final rel err and {float(drift):.3e} on "
                           f"its drift, over {TOLERANCE}; its first "
                           f"{WITNESS_STEPS} steps measure {witness}")
        for what, value, limit in zip(WITNESS_MEASURES, measured, limits):
            if value > limit:
                return False, (f"{proof}; but {name}: its first "
                               f"{WITNESS_STEPS} steps measure {what} "
                               f"{float(value):.3e}, over their bound "
                               f"{float(limit):.3e}")
            if limit:
                worst = max(worst, value / limit)
        bounds.append(f"{name}: {float(rel):.2e}, {float(drift):.2e}")
    return True, (f"{proof}; so float RK4 differs from the flow by rounding "
                  f"only, bounded exactly in the standard model (final rel "
                  f"err, drift): {'; '.join(bounds)}; the first "
                  f"{WITNESS_STEPS} steps of each, stepped, measure at most "
                  f"{float(worst):.1%} of their bounds")


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


def run_suite(mutation: Optional[str] = None) -> dict:
    """Run every check; the report is fully determined by the mutation."""
    tensor = (StructureTensor.default() if mutation is None
              else MUTATIONS[mutation]())  # an unknown id is a KeyError
    checks = []
    for name, func in CHECKS:
        try:
            passed, detail = func(tensor)
        except ArithmeticError as exc:
            # a derivation that breaks down (a mutated tensor, say) fails
            # its check; the rest of the report still runs
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": passed, "detail": detail})
    return {
        "backend": "rational",
        "mutation": mutation,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def render_text(report: dict) -> str:
    lines = [
        "verification report",
        "===================",
        f"backend: {report['backend']}",
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
