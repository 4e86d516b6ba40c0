"""Verification suite: registry shape, mutation teeth, determinism."""

import tracemalloc
from types import SimpleNamespace

import pytest

from aristotle_orbits import verify
from aristotle_orbits.cli import main
from aristotle_orbits.dynamics import (
    IntegratorConfig, OrbitParams, rk4_bound, time_rhs_printed,
)
from aristotle_orbits.lie_core import compose_printed
from aristotle_orbits.orbits import OrbitClass, classify, invariants
from aristotle_orbits.poly import monomial_name
from aristotle_orbits.verify import CHECKS, MUTATIONS, render_text, run_suite

CHECK_NAMES = (
    "jacobi",
    "nilpotency",
    "associativity",
    "group-axioms",
    "adjoint-homomorphism",
    "coadjoint-action-laws",
    "invariant-preservation",
    "u-equals-pi-v",
    "orbit-dimension",
    "closed-form-flow",
    "rhs-consistency",
    "integrator-tolerance",
)


@pytest.fixture(scope="module")
def report():
    return run_suite()


def test_registry_names(report):
    assert tuple(name for name, _ in CHECKS) == CHECK_NAMES
    assert tuple(c["name"] for c in report["checks"]) == CHECK_NAMES


def test_default_suite_passes(report):
    assert report["all_passed"]
    for check in report["checks"]:
        assert check["passed"], check


def test_report_shape(report):
    assert report["backend"] == "rational"
    assert report["mutation"] is None
    assert set(report) == {"backend", "mutation", "checks", "all_passed"}
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "detail"}
        assert check["detail"]


def test_mutation_breaks_algebra_checks():
    report = run_suite(mutation="Eq2.4")
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["jacobi"]["passed"]
    assert "residual 1" in by_name["jacobi"]["detail"]
    assert not by_name["nilpotency"]["passed"]
    assert not report["all_passed"]
    # the BCH derivation runs on the mutated tensor and leaves the closed law
    detail = by_name["associativity"]["detail"]
    assert not by_name["associativity"]["passed"]
    assert detail.startswith("compose = compose_bch fails: component ")
    # checks that never read the tensor still pass
    assert by_name["group-axioms"]["passed"]
    assert by_name["closed-form-flow"]["passed"]


def test_mutation_registry():
    assert set(MUTATIONS) == {"Eq2.4"}
    with pytest.raises(KeyError):
        run_suite(mutation="Eq9.9")


def test_determinism():
    assert run_suite() == run_suite()


def test_render_text(report):
    text = render_text(report)
    assert text.startswith("verification report")
    assert "[PASS] jacobi" in text
    assert text.endswith("all checks passed")
    mutated = render_text(run_suite(mutation="Eq2.4"))
    assert "[FAIL] jacobi" in mutated
    assert "mutation: Eq2.4" in mutated
    assert mutated.endswith("FAILURES PRESENT")


def test_integrator_check_streams_its_rows():
    # 4 bounds in closed form and 4 witnesses of 101 streamed RK4 rows
    check = dict(CHECKS)["integrator-tolerance"]  # draws no samples
    tracemalloc.start()
    try:
        passed, _ = check(None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < 0.5 * 2 ** 20, peak


def test_integrator_check_steps_only_its_witnesses(monkeypatch):
    # one integrate call a float run, for its first WITNESS_STEPS steps:
    # 4 x 101 rows in all, where the runs have 4 x 10001
    real, runs, rows = verify.integrate, [], []

    def counted(*args):
        runs.append(args)
        trajectory = real(*args)
        return SimpleNamespace(row_factory=lambda: map(
            lambda row: rows.append(row) or row, trajectory.row_factory()))

    monkeypatch.setattr(verify, "integrate", counted)
    assert run_suite()["all_passed"]
    assert len(runs) == len(verify.FLOAT_RUNS) == 4
    assert len(rows) <= 4 * (verify.WITNESS_STEPS + 1) == 4 * 101


def _verify_lines(capsys) -> tuple:
    code = main(["verify"])
    out, err = capsys.readouterr()
    assert err == ""
    return code, out.splitlines()


LONG_RUN = ("time", (0.5, -1.0), OrbitParams(2, 3),
            IntegratorConfig(step=1e-11, start=0.0, stop=10.0))


def test_integrator_failure_names_its_run(monkeypatch, capsys):
    # a run of 10**12 steps is bounded at once, over the tolerance: verify
    # exits 2, and only the check's line and the verdict change
    _, passing = _verify_lines(capsys)
    monkeypatch.setattr(verify, "FLOAT_RUNS",
                        verify.FLOAT_RUNS[:1] + (LONG_RUN,))
    code, failing = _verify_lines(capsys)
    assert code == 2
    changed = [(a, b) for a, b in zip(passing, failing) if a != b]
    assert len(passing) == len(failing) and len(changed) == 2
    (_, line), verdict = changed
    assert verdict == ("all checks passed", "FAILURES PRESENT")
    assert line.startswith("[FAIL] integrator-tolerance: proved on "
                           "indeterminates: ")
    assert ("; but time (0.5, -1.0) k=2 y=3, 1000000000000 steps of "
            "h=1e-11 has bounds ") in line
    assert "over 1e-08; its first 100 steps measure a error " in line


def test_integrator_fails_when_a_witness_passes_its_bound(monkeypatch):
    # a witness whose b is off by 1e-9 measures far over its bound
    real = verify.integrate

    def nudged(*args):
        trajectory = real(*args)
        return SimpleNamespace(row_factory=lambda: (
            (*row[:2], row[2] + 1e-9, *row[3:])
            for row in trajectory.row_factory()))

    monkeypatch.setattr(verify, "integrate", nudged)
    passed, detail = dict(CHECKS)["integrator-tolerance"](None)
    assert not passed
    assert ("; but time (0.0, 0.0) k=1 y=1, 10000 steps of h=0.001: its "
            "first 100 steps measure b error 1.000e-09, over their bound "
            "1.788e-16") in detail


def test_integrator_detail_states_each_runs_bound(report):
    detail = {c["name"]: c["detail"]
              for c in report["checks"]}["integrator-tolerance"]
    for picture, state0, params, _ in verify.FLOAT_RUNS:
        assert (f"{picture} {state0} k={params.k} y={params.y}, 10000 "
                f"steps of h=0.001: ") in detail
    for run in verify.FLOAT_RUNS:
        bound = rk4_bound(*run)
        assert bound.drift <= verify.TOLERANCE
        for error, value in zip(bound.coords, bound.end):
            assert error <= verify.TOLERANCE * abs(value)


PROVED = ("associativity", "group-axioms", "adjoint-homomorphism",
          "coadjoint-action-laws", "invariant-preservation", "u-equals-pi-v",
          "orbit-dimension", "closed-form-flow", "rhs-consistency",
          "integrator-tolerance")


def test_group_law_checks_are_proofs(report):
    checks = {c["name"]: c for c in report["checks"]}
    for name in PROVED:
        assert checks[name]["passed"]
        assert checks[name]["detail"].startswith("proved on indeterminates: ")
    strata = checks["invariant-preservation"]["detail"]
    for stratum in ("k, y != 0", "k = 0", "y = 0", "k = y = 0"):
        assert f"kept where {stratum};" in strata + ";"


def test_arithmetic_error_in_a_proof_fails_only_its_check(monkeypatch):
    def breaks_down(g, h, tensor):
        raise ArithmeticError("conjugation by exp(x*P) produced a P component")

    monkeypatch.setattr(verify, "compose_bch", breaks_down)
    report = run_suite()
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["associativity"] == {
        "name": "associativity", "passed": False,
        "detail": "raised ArithmeticError: conjugation by exp(x*P) produced "
                  "a P component"}
    assert not report["all_passed"]
    assert all(c["passed"] for c in report["checks"]
               if c["name"] != "associativity")


def test_invariant_preservation_fails_on_a_chart_coordinate(monkeypatch):
    # q = f/k moves along the orbit; a check that kept it must say so
    monkeypatch.setattr(verify, "_kept", lambda mu: invariants(mu).as_dict())
    passed, detail = dict(CHECKS)["invariant-preservation"](None)
    assert not passed
    assert detail.startswith("k, y, psi, v, s, q, tau, u, pi kept where "
                             "k, y != 0 fails: component 5 has residual ")


def test_failed_proof_prints_its_residual_polynomial(monkeypatch):
    # the printed law is not associative; its b'' residual is the witness
    monkeypatch.setattr(verify, "compose", compose_printed)
    g, h, w = verify.symbols(3)
    residual = (compose_printed(compose_printed(g, h), w).b
                - compose_printed(g, compose_printed(h, w)).b)
    assert residual != 0
    check = {c["name"]: c for c in run_suite()["checks"]}
    assert not check["associativity"]["passed"]
    detail = check["associativity"]["detail"]
    assert detail.startswith("(g*h)*w = g*(h*w) fails: component 4")
    assert detail.endswith(f"residual {residual}")
    for alpha in residual.terms:
        assert monomial_name(alpha, residual.names) in detail


def test_printed_damping_rhs_fails_the_flow_proofs(monkeypatch):
    # dp/dt = -kq - yt is not the flow's derivative, and RK4 on it is not
    # the flow; the proofs must see the parameter the rhs depends on
    monkeypatch.setattr(verify, "time_rhs", time_rhs_printed)
    checks = dict(CHECKS)
    passed, detail = checks["rhs-consistency"](None)
    assert not passed
    assert detail.startswith("d/dt time_closed_form = time_rhs fails: "
                             "component 1 has residual ")
    passed, detail = checks["integrator-tolerance"](None)
    assert not passed
    assert detail.startswith("one RK4 step of time_rhs = time_closed_form "
                             "fails: component 1 has residual ")


def test_orbit_dimension_proves_the_rank_on_every_stratum():
    passed, detail = dict(CHECKS)["orbit-dimension"](None)
    assert passed
    assert ("det of their (p, e, f) block = 0; its squared 2x2 minors sum "
            "to (f^2 + k^2 + y^2)^2") in detail
    for stratum in ("GENERIC where k, y != 0", "HOOKE_ONLY where y = 0, k != 0",
                    "YANK_ONLY where k = 0, y != 0",
                    "FORCE_ONLY where k = y = 0, f != 0",
                    "FIXED_POINT where f = k = y = 0"):
        assert stratum in detail


@pytest.mark.parametrize("stratum, wrong", [
    (OrbitClass.GENERIC, OrbitClass.FIXED_POINT),
    (OrbitClass.FORCE_ONLY, OrbitClass.YANK_ONLY),
    (OrbitClass.FIXED_POINT, OrbitClass.FORCE_ONLY),
])
def test_orbit_dimension_fails_on_a_misclassified_stratum(monkeypatch,
                                                          stratum, wrong):
    # classify is right on every stratum but one
    def misclassify(mu, tol=0.0):
        cls = classify(mu)
        return wrong if cls is stratum else cls

    monkeypatch.setattr(verify, "classify", misclassify)
    passed, detail = dict(CHECKS)["orbit-dimension"](None)
    assert not passed
    assert detail.startswith(f"{stratum.value} where ")
    assert f"classify gives {wrong.value} of dimension {wrong.dimension}" \
        in detail


def test_orbit_dimension_fails_on_a_wrong_generator(monkeypatch):
    # a generator block of rank 3 contradicts the 2-dimensional orbits
    monkeypatch.setattr(verify, "coadjoint_generators", lambda mu: (
        (mu.k, -mu.f, -mu.k, 0, 0), (mu.f, 0, mu.y, 0, 0),
        (mu.k, -mu.y, 0, 0, 0)))
    passed, detail = dict(CHECKS)["orbit-dimension"](None)
    assert not passed
    assert detail.startswith("det of their (p, e, f) block = 0 fails: ")
