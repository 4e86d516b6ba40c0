"""Self-verification suite: every structural claim the package rests on.

The four group-law checks run the kernel on indeterminates and prove
their identities for every input.  The others draw their own samples from
a shared counter-based generator, so a (seed, samples) pair fully
determines the report.  All arithmetic is exact; a failure is a genuine
counterexample, not a tolerance artifact.

``MUTATIONS`` holds deliberately broken structure tensors for exercising
the suite's teeth: running under a mutation must flip the algebra checks
to failure (and is how the CLI's ``--mutate`` mode is wired).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product, repeat
from operator import mul
from typing import Callable, Optional

from . import linalg, poly
from .backend import rel_err
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
    coadjoint_printed, invariants, orbit_dimension,
)
from .rng import SplitMix64


def _mutated_eq24() -> StructureTensor:
    # [F, E] = F instead of Y: breaks Jacobi and step-3 nilpotency
    B = BasisIndex
    return StructureTensor.from_brackets([
        (B.P, B.E, B.F, 1),
        (B.P, B.F, B.LAMBDA, 1),
        (B.F, B.E, B.F, 1),
    ])


MUTATIONS = {"Eq2.4": _mutated_eq24}


class _Context:
    def __init__(self, rng: SplitMix64, samples: int, tensor: StructureTensor):
        self.rng = rng
        self.samples = samples
        self.tensor = tensor

    @property
    def heavy(self) -> int:
        """Sample count for checks dominated by full matrix coadjoints."""
        return max(20, self.samples // 5)

    def group(self) -> GroupElement:
        return GroupElement._make(self.rng.rationals(5))

    def dual(self) -> DualElement:
        return DualElement._make(self.rng.rationals(5))

    def generic_dual(self) -> DualElement:
        return DualElement(self.rng.rational(), self.rng.rational(),
                           self.rng.rational(), self.rng.nonzero_rational(),
                           self.rng.nonzero_rational())


def _check_jacobi(ctx: _Context):
    residual = jacobi_residual(ctx.tensor)
    return residual == 0, f"max cyclic residual {residual}"


def _check_nilpotency(ctx: _Context):
    basis = [AlgebraElement.basis(BasisIndex(i)) for i in range(DIM)]
    worst = 0
    for a, b, c, d in product(basis, repeat=4):
        value = bracket(bracket(bracket(a, b, ctx.tensor), c, ctx.tensor),
                        d, ctx.tensor)
        worst = max(worst, value.max_abs())
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


def _check_associativity(_ctx: _Context):
    g, h, w = _symbols(3)
    return _prove(
        ("(g*h)*w = g*(h*w)", compose(compose(g, h), w),
         compose(g, compose(h, w))),
        ("compose = compose_bch", compose(g, h), compose_bch(g, h)))


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
        ("coadjoint = coadjoint_printed", coadjoint(g, mu),
         coadjoint_printed(g.x, g.t, g.zeta, mu)))


def _check_invariant_preservation(ctx: _Context):
    failures = 0
    for _ in range(ctx.heavy):
        mu = ctx.dual()
        g = ctx.group()
        for image in (coadjoint_printed(g.x, g.t, g.zeta, mu),
                      coadjoint(g, mu)):
            before, after = invariants(mu), invariants(image)
            if (before.k, before.y, before.psi) != (after.k, after.y, after.psi):
                failures += 1
            elif before.u != after.u or before.pi != after.pi:
                # None compares equal to None: presence itself must agree
                failures += 1
    return failures == 0, (f"{ctx.heavy} points under both actions, "
                           f"{failures} failures")


def _check_u_equals_pi_v(ctx: _Context):
    failures = 0
    for _ in range(ctx.samples):
        inv = invariants(ctx.generic_dual())
        if inv.u != inv.pi * inv.v:
            failures += 1
    return failures == 0, f"{ctx.samples} generic points, {failures} failures"


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


def _check_closed_form_flow(ctx: _Context):
    failures = 0
    for _ in range(ctx.samples):
        k = ctx.rng.nonzero_rational()
        y = ctx.rng.nonzero_rational()
        params = OrbitParams(k, y)
        q0, p0, e0, t = ctx.rng.rationals(4)
        mu0 = DualElement(p0, e0, k * q0, k, y)
        mu = time_flow(mu0, t)
        q, p = time_closed_form(q0, p0, params, t)
        if (mu.f / k != q or mu.p != p
                or mu != coadjoint_printed(0, -t, 0, mu0)):
            failures += 1
            continue
        tau0, e0, p0, x = ctx.rng.rationals(4)
        mu0 = DualElement(p0, e0, y * tau0, k, y)
        mu = space_flow(mu0, x)
        tau, e = space_closed_form(tau0, e0, y * tau0, params, x)
        if (mu.f / y != tau or mu.e != e
                or mu != coadjoint_printed(-x, 0, 0, mu0)):
            failures += 1
    return failures == 0, (f"{ctx.samples} flow/closed-form comparisons "
                           f"per picture, {failures} failures")


def _check_rhs_consistency(ctx: _Context):
    # closed forms are quadratic in the parameter, so centered differences
    # at rational step h are exact
    h = Fraction(1, 3)
    failures = 0
    for _ in range(ctx.samples):
        params = OrbitParams(ctx.rng.nonzero_rational(),
                             ctx.rng.nonzero_rational())
        q0, p0, t = ctx.rng.rationals(3)
        qp, pp = time_closed_form(q0, p0, params, t + h)
        qm, pm = time_closed_form(q0, p0, params, t - h)
        q, p = time_closed_form(q0, p0, params, t)
        dq, dp = time_rhs(TimeState(q=q, p=p, t=t), params)
        if (qp - qm) / (2 * h) != dq or (pp - pm) / (2 * h) != dp:
            failures += 1
            continue
        tau0, e0, x = ctx.rng.rationals(3)
        f0 = params.y * tau0
        tp, ep = space_closed_form(tau0, e0, f0, params, x + h)
        tm, em = space_closed_form(tau0, e0, f0, params, x - h)
        tau, e = space_closed_form(tau0, e0, f0, params, x)
        dtau, de = space_rhs(SpaceState(tau=tau, e=e, x=x), params)
        if (tp - tm) / (2 * h) != dtau or (ep - em) / (2 * h) != de:
            failures += 1
    return failures == 0, (f"{ctx.samples} exact centered-difference checks "
                           f"per picture, {failures} failures")


def _check_integrator(ctx: _Context):
    config = IntegratorConfig(step=1e-3, start=0.0, stop=10.0)
    cases = [
        ("time", (0.0, 0.0), OrbitParams(1, 1)),
        ("time", (0.5, -1.0), OrbitParams(2, 3)),
        ("space", (0.0, 0.0), OrbitParams(1, 1)),
        ("space", (-0.5, 1.0), OrbitParams(3, 2)),
    ]
    worst_err, worst_drift = 0.0, 0.0
    for picture, state0, params in cases:
        float_params = OrbitParams(float(params.k), float(params.y))
        if picture == "time":
            exact = time_closed_form(state0[0], state0[1], float_params, 10.0)
        else:
            f0 = float(params.y) * state0[0]
            exact = space_closed_form(state0[0], state0[1], f0, float_params,
                                      10.0)
        # one pass over the rows: keep the last one and the largest drift
        for row in integrate(picture, state0, params, config).row_factory():
            worst_drift = max(worst_drift, row[-1])
        worst_err = max(worst_err, rel_err(row[1], exact[0]),
                        rel_err(row[2], exact[1]))
    passed = worst_err <= 1e-8 and worst_drift <= 1e-8
    return passed, (f"4 trajectories over [0, 10] at h=1e-3: max final "
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
    for name, func in CHECKS:
        # each check gets its own stream: reordering one never shifts another
        ctx = _Context(rng=SplitMix64(seed ^ hash_name(name)),
                       samples=samples, tensor=tensor)
        passed, detail = func(ctx)
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
