"""Verification suite: registry shape, mutation teeth, determinism."""

import tracemalloc

import pytest

from aristotle_orbits import verify
from aristotle_orbits.dynamics import time_rhs_printed
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
    # 4 RK4 trajectories of 10001 rows; held in memory they peak at ~2 MiB
    check = dict(CHECKS)["integrator-tolerance"]  # draws no samples
    tracemalloc.start()
    try:
        passed, _ = check(None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < 0.5 * 2 ** 20, peak


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
