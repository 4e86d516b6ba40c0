"""Errata engine: fixed finding order, symbolic residuals, determinism."""

import pytest

from aristotle_orbits import errata
from aristotle_orbits.errata import (
    ASSUMPTION, CONFIRMS, CONTRADICTS, build_report, render_text,
)
from aristotle_orbits.lie_core import compose, compose_printed
from aristotle_orbits.verify import symbols

EXPECTED_IDS = (
    "Eq2.3-quotient-law",
    "Eq2.5-exp-xK",
    "Eq2.6-b-component",
    "Eq2.6-associativity",
    "Eq2.7-pairing-labels",
    "Eq2.8-action-law",
    "Eq2.8-derived-agreement",
    "Eq2.8-invariants",
    "Eq3.1-realization",
    "Eq3.3-closed-form",
    "Eq3.5b-rhs",
    "Eq3.6-hamilton-residual",
    "Eq3.8-realization",
    "Eq3.11-closed-form",
    "Eq3.12-vector-field",
    "Eq3.13b-rhs",
    "Eq3.17-hamilton-residual",
    "Table-tau-sign",
    "Table-O-y-U-header",
)

EXPECTED_VERDICTS = {
    "Eq2.3-quotient-law": CONFIRMS,
    "Eq2.5-exp-xK": CONFIRMS,
    "Eq2.6-b-component": CONTRADICTS,
    "Eq2.6-associativity": CONTRADICTS,
    "Eq2.7-pairing-labels": CONFIRMS,
    "Eq2.8-action-law": CONFIRMS,
    "Eq2.8-derived-agreement": CONFIRMS,
    "Eq2.8-invariants": CONFIRMS,
    "Eq3.1-realization": CONFIRMS,
    "Eq3.3-closed-form": CONFIRMS,
    "Eq3.5b-rhs": CONTRADICTS,
    "Eq3.6-hamilton-residual": CONTRADICTS,
    "Eq3.8-realization": CONFIRMS,
    "Eq3.11-closed-form": CONFIRMS,
    "Eq3.12-vector-field": CONFIRMS,
    "Eq3.13b-rhs": CONTRADICTS,
    "Eq3.17-hamilton-residual": CONTRADICTS,
    "Table-tau-sign": CONTRADICTS,
    "Table-O-y-U-header": CONTRADICTS,
}


@pytest.fixture(scope="module")
def report():
    return build_report()


def by_id(report, finding_id):
    matches = [f for f in report["findings"] if f["id"] == finding_id]
    assert len(matches) == 1
    return matches[0]


def test_finding_order_and_counts(report):
    assert tuple(f["id"] for f in report["findings"]) == EXPECTED_IDS
    assert report["counts"] == {"findings": 19, "contradicts": 8,
                                "confirms": 11}
    assert report["backend"] == "rational"
    assert report["assumption"] == ASSUMPTION


def test_verdicts(report):
    for finding in report["findings"]:
        assert finding["verdict"] == EXPECTED_VERDICTS[finding["id"]]


def test_verdicts_follow_residuals(report):
    # verdicts are computed, never stored: zero residual iff CONFIRMS
    for finding in report["findings"]:
        if finding["residual"] is None:
            continue
        clean = all(r == "0" for r in finding["residual"])
        assert clean == (finding["verdict"] == CONFIRMS), finding["id"]


def test_every_finding_has_a_sample(report):
    for finding in report["findings"]:
        assert finding["sample"], finding["id"]


def test_b_component_residual(report):
    # the printed b'' minus the derived one, for all g and h
    g, h = symbols(2)
    residual = compose_printed(g, h).b - compose(g, h).b
    finding = by_id(report, "Eq2.6-b-component")
    assert finding["residual"] == ["0", "0", "0", "0", str(residual)]
    assert finding["sample"]["g"] == "(x, t, zeta, a, b)"
    assert finding["sample"]["h"] == "(x', t', zeta', a', b')"
    assert finding["sample"]["printed_product"].endswith(
        ", b' + b + t'*zeta' + 1/2*x*t'^2)")


def test_associativity_defect(report):
    g1, g2, g3 = symbols(3)
    residual = (compose_printed(compose_printed(g1, g2), g3).b
                - compose_printed(g1, compose_printed(g2, g3)).b)
    finding = by_id(report, "Eq2.6-associativity")
    assert finding["residual"] == ["0", "0", "0", "0", str(residual)]
    assert residual != 0
    assert finding["note"].endswith("yes")


def test_time_rhs_residual(report):
    finding = by_id(report, "Eq3.5b-rhs")
    assert finding["residual"] == ["-y*t"]
    assert finding["sample"]["printed_dp"] == "-y*t - k*q"
    assert finding["sample"]["derived_dp"] == "-k*q"


def test_hamilton_finding_tabulates_all_three(report):
    finding = by_id(report, "Eq3.6-hamilton-residual")
    assert finding["sample"]["flow_rhs"] == "(-y/k, -k*q)"
    assert finding["sample"]["printed_3_5b_rhs"] == "(-y/k, -y*t - k*q)"
    assert finding["sample"]["hamilton_rhs"] == "(-y/k, y*t - k*q)"
    assert finding["residual"] == ["0", "y*t"]


def test_space_rhs_and_hamilton(report):
    assert by_id(report, "Eq3.13b-rhs")["residual"] == ["k*x"]
    hamilton = by_id(report, "Eq3.17-hamilton-residual")
    assert hamilton["residual"] == ["0", "k*x"]
    assert hamilton["sample"]["hamilton_rhs"] == \
        hamilton["sample"]["printed_3_13b_rhs"]


def test_tau_sign(report):
    finding = by_id(report, "Table-tau-sign")
    assert finding["residual"] == ["-2*k*x/y"]
    assert finding["sample"]["table_tau"] == "(y*tau0 - k*x)/y"
    assert finding["sample"]["derived_tau"] == "(y*tau0 + k*x)/y"
    assert finding["sample"]["flow_readout"] == "(y*tau0 + k*x)/y"


def test_table_header_finding(report):
    finding = by_id(report, "Table-O-y-U-header")
    assert finding["residual"] is None
    assert finding["sample"]["mu"] == "(p, e, f, 0, y)"
    assert finding["sample"]["pi"] == "(-1/2*f^2 + p*y)/y"
    assert finding["sample"]["U"].startswith("undefined")


def test_exp_xk_assumption_in_header_and_finding(report):
    assert "exp(xK)" in report["assumption"]
    assert "K = P" in report["assumption"]
    finding = by_id(report, "Eq2.5-exp-xK")
    assert finding["residual"] == ["0"] * 5


def test_determinism(report):
    assert build_report() == report
    assert "seed" not in report


def test_printed_law_bound_to_the_derived_one_confirms(monkeypatch):
    # the two contradictions of the printed law are its own, not the
    # audit's: with the derived law in its place both findings confirm
    monkeypatch.setattr(errata, "compose_printed", compose)
    report = build_report()
    for finding_id in ("Eq2.6-b-component", "Eq2.6-associativity"):
        finding = by_id(report, finding_id)
        assert finding["verdict"] == CONFIRMS, finding_id
        assert finding["residual"] == ["0"] * 5
    assert report["counts"] == {"findings": 19, "contradicts": 6,
                                "confirms": 13}


def test_render_text(report):
    text = render_text(report)
    assert text.startswith("errata report\n=============\n")
    assert f"assumption: {ASSUMPTION}" in text
    assert "findings: 19 (8 contradict, 11 confirm)" in text
    for finding_id in EXPECTED_IDS:
        assert finding_id in text
    assert "[CONTRADICTS] Eq2.6-b-component" in text
    assert "residual: 0, 0, 0, 0, t'*zeta' - 1/2*zeta*t' + " in text
    assert "\n  residual: -2*k*x/y\n" in text
