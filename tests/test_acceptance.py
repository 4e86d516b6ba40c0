"""Acceptance gate: the ten top-level criteria, one test and one line each.

Every test enforces its stated sample counts, tolerances, and wall-clock
budget, and prints a single ``[PASS] criterion N`` line (visible under
``pytest -s``; under plain ``-v`` the test name itself is the line).
"""

import json
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from jsonschema import Draft202012Validator

from aristotle_orbits.cli import main
from aristotle_orbits.derive_law import reconstruct_law, verify_reconstruction
from aristotle_orbits.dynamics import (
    IntegratorConfig, OrbitParams, SpaceState, TimeState, integrate,
    space_closed_form, space_flow, space_rhs, time_closed_form, time_flow,
    time_rhs,
)
from aristotle_orbits.errata import CONTRADICTS, build_report
from aristotle_orbits.lie_core import (
    DIM, AlgebraElement, BasisIndex, GroupElement, bracket, compose,
    compose_printed, inverse, jacobi_residual,
)
from aristotle_orbits.orbits import (
    PRINTED_ACTION_CONVENTION, DualElement, OrbitClass, classify, coadjoint,
    coadjoint_matrix, coadjoint_printed, invariants, orbit_dimension,
)
from aristotle_orbits.rng import SplitMix64

HERE = Path(__file__).parent


def rel_err(a, b) -> float:
    """|a - b| / max(1, |a|, |b|), in floats."""
    return abs(float(a) - float(b)) / max(1.0, abs(float(a)), abs(float(b)))


def _finish(number: int, started: float, budget: float, description: str):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, (f"criterion {number} blew its {budget:.0f}s "
                              f"budget: {elapsed:.2f}s")
    print(f"[PASS] criterion {number} ({elapsed:.2f}s < {budget:.0f}s): "
          f"{description}")


def _nonzero(rng) -> Fraction:
    """The next of rng's rationals that is not zero."""
    while True:
        value = rng.rational()
        if value != 0:
            return value


def _random_group(rng) -> GroupElement:
    return GroupElement._make(rng.rationals(5))


def _random_dual(rng) -> DualElement:
    return DualElement._make(rng.rationals(5))


def _random_generic(rng) -> DualElement:
    return DualElement(rng.rational(), rng.rational(), rng.rational(),
                       _nonzero(rng), _nonzero(rng))


def test_criterion_01_algebra_validity():
    started = time.perf_counter()
    assert jacobi_residual() == 0
    basis = [AlgebraElement.basis(BasisIndex(i)) for i in range(DIM)]
    for a, b, c, d in product(basis, repeat=4):
        assert bracket(bracket(bracket(a, b), c), d).max_abs() == 0
    _finish(1, started, 1.0,
            "Jacobi residual 0, all 625 4-letter brackets vanish")


def test_criterion_02_group_law():
    started = time.perf_counter()
    rng = SplitMix64(202)
    for _ in range(1000):
        g, h, w = _random_group(rng), _random_group(rng), _random_group(rng)
        assert compose(compose(g, h), w) == compose(g, compose(h, w))
    e = GroupElement.identity()
    for _ in range(100):
        g = _random_group(rng)
        assert compose(e, g) == g == compose(g, e)
        gi = inverse(g)
        assert compose(g, gi) == e == compose(gi, g)
    # the printed law fails associativity on a concrete triple, and the
    # errata report says so
    g1 = GroupElement(1, 0, 0, 0, 0)
    g2 = GroupElement(0, 0, 1, 0, 0)
    g3 = GroupElement(0, 1, 0, 0, 0)
    assert compose_printed(compose_printed(g1, g2), g3) \
        != compose_printed(g1, compose_printed(g2, g3))
    finding = [f for f in build_report()["findings"]
               if f["id"] == "Eq2.6-associativity"][0]
    assert finding["verdict"] == CONTRADICTS
    assert any(r != "0" for r in finding["residual"])
    _finish(2, started, 5.0,
            "derived law associative on 1000 triples, axioms exact, "
            "printed defect reported")


def test_criterion_03_action_laws():
    started = time.perf_counter()
    rng = SplitMix64(303)
    for _ in range(1000):
        mu = _random_dual(rng)
        x1, t1, z1, x2, t2, z2 = rng.rationals(6)
        stepwise = coadjoint_printed(x2, t2, z2,
                                     coadjoint_printed(x1, t1, z1, mu))
        merged = coadjoint_printed(x1 + x2, t1 + t2, z1 + z2 + x2 * t1, mu)
        assert stepwise == merged
    assert PRINTED_ACTION_CONVENTION == "identity"
    for _ in range(150):
        g, h, mu = _random_group(rng), _random_group(rng), _random_dual(rng)
        assert coadjoint(compose(g, h), mu) == coadjoint(g, coadjoint(h, mu))
        central = GroupElement(0, 0, 0, rng.rational(), rng.rational())
        assert coadjoint(central, mu) == mu
        assert coadjoint(g, mu) == coadjoint_matrix(g, mu)
        assert coadjoint_matrix(g, mu) == coadjoint_printed(g.x, g.t, g.zeta,
                                                            mu)
    _finish(3, started, 5.0,
            "printed action is a left action on 1000 pairs; derived action "
            "is a center-trivial homomorphism matching it under the frozen "
            "identity convention")


def test_criterion_04_invariants():
    started = time.perf_counter()
    rng = SplitMix64(404)
    for _ in range(150):
        mu, g = _random_dual(rng), _random_group(rng)
        before = invariants(mu)
        for image in (coadjoint_printed(g.x, g.t, g.zeta, mu),
                      coadjoint(g, mu)):
            after = invariants(image)
            assert (before.k, before.y, before.psi) == \
                (after.k, after.y, after.psi)
            assert before.u == after.u and before.pi == after.pi
    for _ in range(1000):
        inv = invariants(_random_generic(rng))
        assert inv.u == inv.pi * inv.v
    # float backend: preservation and U = pi v within 1e-12 relative
    for _ in range(200):
        mu = DualElement._make(float(c) for c in _random_generic(rng))
        g = _random_group(rng)
        before = invariants(mu)
        after = invariants(coadjoint_printed(float(g.x), float(g.t),
                                             float(g.zeta), mu))
        for name in ("k", "y", "psi", "u", "pi"):
            assert rel_err(getattr(before, name), getattr(after, name)) \
                <= 1e-12
        assert rel_err(before.u, before.pi * before.v) <= 1e-12
    _finish(4, started, 5.0,
            "k, y, psi, U, pi preserved exactly; U = pi v on 1000 generic "
            "points; float backend within 1e-12 relative")


def test_criterion_05_orbit_geometry():
    started = time.perf_counter()
    rng = SplitMix64(505)
    reps = [
        (DualElement(rng.rational(), rng.rational(), rng.rational(),
                     _nonzero(rng), _nonzero(rng)),
         OrbitClass.GENERIC),
        (DualElement(rng.rational(), rng.rational(), rng.rational(),
                     _nonzero(rng), 0), OrbitClass.HOOKE_ONLY),
        (DualElement(rng.rational(), rng.rational(), rng.rational(), 0,
                     _nonzero(rng)), OrbitClass.YANK_ONLY),
        (DualElement(rng.rational(), rng.rational(),
                     _nonzero(rng), 0, 0), OrbitClass.FORCE_ONLY),
    ]
    for mu, expected in reps:
        assert classify(mu) is expected
        assert orbit_dimension(mu) == 2
    assert orbit_dimension(DualElement(0, 0, 0, 0, 0)) == 0
    _finish(5, started, 1.0,
            "all four orbit classes two dimensional, zero point fixed")


def test_criterion_06_dynamics_consistency():
    started = time.perf_counter()
    rng = SplitMix64(606)
    h = Fraction(1, 3)
    for _ in range(300):
        k, y = _nonzero(rng), _nonzero(rng)
        params = OrbitParams(k, y)
        q0, p0, e0, t = rng.rationals(4)
        mu = time_flow(DualElement(p0, e0, k * q0, k, y), t)
        q, p = time_closed_form(q0, p0, params, t)
        assert mu.f / k == q and mu.p == p
        qp, pp = time_closed_form(q0, p0, params, t + h)
        qm, pm = time_closed_form(q0, p0, params, t - h)
        dq, dp = time_rhs(TimeState(q=q, p=p, t=t), params)
        assert (qp - qm) / (2 * h) == dq and (pp - pm) / (2 * h) == dp

        tau0, e0, p0, x = rng.rationals(4)
        mu = space_flow(DualElement(p0, e0, y * tau0, k, y), x)
        tau, e = space_closed_form(tau0, e0, y * tau0, params, x)
        assert mu.f / y == tau and mu.e == e
        tp, ep = space_closed_form(tau0, e0, y * tau0, params, x + h)
        tm, em = space_closed_form(tau0, e0, y * tau0, params, x - h)
        dtau, de = space_rhs(SpaceState(tau=tau, e=e, x=x), params)
        assert (tp - tm) / (2 * h) == dtau and (ep - em) / (2 * h) == de
    # float central differences at h_fd = 1e-4 agree within 1e-6
    h_fd = 1e-4
    for _ in range(50):
        params = OrbitParams(float(_nonzero(rng)),
                             float(_nonzero(rng)))
        q0, p0, t = (float(c) for c in rng.rationals(3))
        qp, pp = time_closed_form(q0, p0, params, t + h_fd)
        qm, pm = time_closed_form(q0, p0, params, t - h_fd)
        q, p = time_closed_form(q0, p0, params, t)
        dq, dp = time_rhs(TimeState(q=q, p=p, t=t), params)
        assert abs((qp - qm) / (2 * h_fd) - dq) <= 1e-6
        assert abs((pp - pm) / (2 * h_fd) - dp) <= 1e-6
    _finish(6, started, 5.0,
            "closed forms equal flows exactly; rhs is the exact derivative; "
            "float finite differences within 1e-6")


def test_criterion_07_integration():
    started = time.perf_counter()
    config = IntegratorConfig(step=1e-3, start=0.0, stop=10.0)
    cases = [
        ("time", (0.0, 0.0), OrbitParams(1.0, 1.0)),
        ("time", (0.5, -1.0), OrbitParams(2.0, 3.0)),
        ("space", (0.0, 0.0), OrbitParams(1.0, 1.0)),
        ("space", (-0.5, 1.0), OrbitParams(3.0, 2.0)),
    ]
    for picture, state0, params in cases:
        trajectory = integrate(picture, state0, params, config)
        if picture == "time":
            exact = time_closed_form(state0[0], state0[1], params, 10.0)
        else:
            exact = space_closed_form(state0[0], state0[1],
                                      params.y * state0[0], params, 10.0)
        rows = list(trajectory.row_factory())
        final = rows[-1]
        assert rel_err(final[1], exact[0]) <= 1e-8
        assert rel_err(final[2], exact[1]) <= 1e-8
        assert max(row[-1] for row in rows) <= 1e-8
    _finish(7, started, 10.0,
            "RK4 at h=1e-3 over [0,10] within 1e-8 of closed forms, "
            "invariant drift <= 1e-8, both pictures")


def test_criterion_08_errata_deliverable():
    started = time.perf_counter()
    report = build_report()
    ids = {f["id"] for f in report["findings"]}
    required = {
        "Eq2.5-exp-xK", "Eq2.6-b-component", "Eq2.6-associativity",
        "Eq3.5b-rhs", "Eq3.13b-rhs", "Eq3.6-hamilton-residual",
        "Eq3.17-hamilton-residual", "Table-tau-sign", "Table-O-y-U-header",
    }
    confirms_required = {
        "Eq2.3-quotient-law", "Eq2.8-invariants", "Eq3.1-realization",
        "Eq3.3-closed-form", "Eq3.8-realization", "Eq3.11-closed-form",
    }
    assert required <= ids and confirms_required <= ids
    for finding in report["findings"]:
        assert finding["sample"]
        if finding["id"] in confirms_required:
            assert finding["verdict"] == "CONFIRMS"
    golden = (HERE / "goldens" / "errata.json").read_bytes().decode("utf-8")
    assert json.dumps(report, indent=2) + "\n" == golden
    _finish(8, started, 5.0,
            "errata covers every required formula with evaluated samples "
            "and matches the golden file")


def test_criterion_09_cli_contract(capsys):
    started = time.perf_counter()

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    first = run("errata", "--format", "json")
    second = run("errata", "--format", "json")
    assert first == second and first[0] == 0
    schema = json.loads((HERE.parent / "docs" / "schemas" /
                         "errata.schema.json").read_text(encoding="utf-8"))
    Draft202012Validator(schema).validate(json.loads(first[1]))
    assert run("verify", "--samples", "10")[0] == 0
    assert run("verify", "--samples", "10", "--mutate", "Eq2.4")[0] == 2
    assert run("classify", "not-a-point")[0] == 1
    _finish(9, started, 5.0,
            "byte-identical seeded reruns, schema-valid JSON, "
            "exit codes 0/1/2")


def test_criterion_10_derive_law():
    started = time.perf_counter()
    polys = reconstruct_law()
    assert verify_reconstruction(polys, samples=1000, seed=1010) == 1000
    _finish(10, started, 5.0,
            "exact degree-3 reconstruction reproduces the composition "
            "on 1000 fresh points")
