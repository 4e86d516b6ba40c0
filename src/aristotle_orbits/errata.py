"""Printed-formula audit: evaluate the text's displays against the engine.

Every finding pairs a transcribed printed expression with the derived
counterpart, evaluates both on indeterminates (``verify.symbols`` and
``verify.chart_symbols``), and records the component-wise residual.  A
zero residual proves the display for every input, and a nonzero one is
the exact discrepancy, printed as its polynomial (``poly``).  Verdicts
are computed from the residuals at report time, never hardcoded, so a
change anywhere in the engine shows up here before it shows up in a
user's results.  Nothing is sampled: the report is the same on every run.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .backend import HALF, exact_div
from .dynamics import (
    SpaceState, TimeState,
    hamiltonian_space, hamiltonian_time,
    realization_space, realization_time,
    space_closed_form, space_flow, space_rhs, space_rhs_printed,
    time_closed_form, time_flow, time_rhs, time_rhs_printed,
)
from .lie_core import (
    AlgebraElement, BasisIndex,
    compose, compose_printed, from_single_exponential, to_single_exponential,
)
from .orbits import (
    PRINTED_ACTION_CONVENTION, DualElement,
    coadjoint_matrix, coadjoint_printed, invariants, pair,
)
from .verify import chart_symbols, symbols

ASSUMPTION = ('the factorization\'s final factor is printed "exp(xK)" with K '
              'never defined; this report reads K = P throughout')

CONFIRMS = "CONFIRMS"
CONTRADICTS = "CONTRADICTS"


class ErrataFinding(NamedTuple):
    """One audited display: printed text, derived text, symbolic sample."""

    id: str
    verdict: str
    printed: str
    derived: str
    sample: dict
    residual: Optional[list]
    note: str = ""


def _text(value) -> str:
    """A sample value as text: a tuple as ``(a, b, ...)``, anything else
    (text, a number, a polynomial, a quotient) as ``str`` prints it."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(str, value)) + ")"
    return str(value)


def _finding(id: str, lhs: tuple, rhs: tuple, printed: str, derived: str,
             sample: dict, note: str = "") -> ErrataFinding:
    """The residual lhs - rhs, component-wise, with its verdict: CONFIRMS
    iff every component is the zero polynomial."""
    residual = [a - b for a, b in zip(lhs, rhs, strict=True)]
    verdict = CONFIRMS if all(r == 0 for r in residual) else CONTRADICTS
    return ErrataFinding(id, verdict, printed, derived,
                         {key: _text(v) for key, v in sample.items()},
                         list(map(_text, residual)), note)


def _finding_quotient_law() -> ErrataFinding:
    g, h = symbols(2)
    got = compose(g, h)[:3]
    return _finding(
        "Eq2.3-quotient-law", got,
        (g.x + h.x, g.t + h.t, g.zeta + h.zeta + g.x * h.t),
        printed="first-extension law (x+x', t+t', zeta+zeta'+x t')",
        derived="center quotient of the BCH-derived product",
        sample={"g": g, "h": h, "quotient": got},
    )


def _finding_exp_xk() -> ErrataFinding:
    (g,) = symbols(1)
    single = to_single_exponential(g)
    return _finding(
        "Eq2.5-exp-xK", from_single_exponential(single), g,
        printed='factorization exp(a L + b Y) exp(t E + zeta F) exp(x K), K undefined',
        derived="K = P: coordinates of the second kind, exact exp/log round trip",
        sample={"g": g, "single_exponential": single.coeffs},
        note="K = P is the only undefined-symbol reading that leaves a "
             "generator for space translations and reproduces the "
             "first-extension law in the center quotient",
    )


def _finding_b_component() -> ErrataFinding:
    g, h = symbols(2)
    printed, derived = compose_printed(g, h), compose(g, h)
    return _finding(
        "Eq2.6-b-component", printed, derived,
        printed="b'' = b + b' + zeta' t' + x t'^2 / 2",
        derived="b'' = b + b' + (zeta t' - t zeta' - x t t') / 2",
        sample={"g": g, "h": h, "printed_product": printed,
                "derived_product": derived},
        note="the printed zeta' t' depends on the second factor only, "
             "where the derived (zeta t' - t zeta')/2 is antisymmetric",
    )


def _finding_associativity() -> ErrataFinding:
    g1, g2, g3 = symbols(3)
    left = compose_printed(compose_printed(g1, g2), g3)
    right = compose_printed(g1, compose_printed(g2, g3))
    derived_left = compose(compose(g1, g2), g3)
    derived_right = compose(g1, compose(g2, g3))
    return _finding(
        "Eq2.6-associativity", left, right,
        printed="printed multiplication law, both associations",
        derived="BCH-derived law is associative on the same triple",
        sample={"g1": g1, "g2": g2, "g3": g3, "printed_left": left,
                "printed_right": right, "derived_both": derived_left},
        note="derived law agrees on both associations: "
             + ("yes" if derived_left == derived_right else "no"),
    )


def _finding_pairing_labels() -> ErrataFinding:
    (mu,) = symbols(0, dual=True)
    basis = [AlgebraElement.basis(BasisIndex(i)) for i in range(5)]
    got = tuple(pair(mu, b) for b in basis)
    return _finding(
        "Eq2.7-pairing-labels", got, mu,
        printed='displacement labelled "(dv, dt, dx, dzeta, dzeta)" (garbled)',
        derived="pairing reads (p, e, f, k, y) against the (x, t, zeta, a, b) "
                "directions",
        sample={"mu": mu, "pair_with_basis": got},
        note="labels inferred from the right-hand side; no further "
             "interpretation attempted",
    )


def _finding_action_law() -> ErrataFinding:
    g, h, mu = symbols(2, dual=True)
    first, second = (g.x, g.t, g.zeta), (h.x, h.t, h.zeta)
    stepwise = coadjoint_printed(*second, coadjoint_printed(*first, mu))
    return _finding(
        "Eq2.8-action-law", stepwise,
        coadjoint_printed(g.x + h.x, g.t + h.t, g.zeta + h.zeta + h.x * g.t,
                          mu),
        printed="closed-form action p' = p + ft + k(zeta - xt) + y t^2/2, ...",
        derived="left-action law over the first-extension composition",
        sample={"mu": mu, "first": first, "second": second,
                "result": stepwise},
    )


def _finding_action_agreement() -> ErrataFinding:
    g, mu = symbols(1, dual=True)
    derived = coadjoint_matrix(g, mu)
    return _finding(
        "Eq2.8-derived-agreement", coadjoint_printed(g.x, g.t, g.zeta, mu),
        derived,
        printed="closed-form action at (x, t, zeta)",
        derived="mu . Ad_{g^-1} from the group adjoint matrices",
        sample={"g": g, "mu": mu, "image": derived},
        note=f"convention map: {PRINTED_ACTION_CONVENTION}",
    )


def _finding_action_invariants() -> ErrataFinding:
    g, mu = symbols(1, dual=True)  # k, y != 0: every invariant is defined
    before = invariants(mu)
    after = invariants(coadjoint_printed(g.x, g.t, g.zeta, mu))
    return _finding(
        "Eq2.8-invariants",
        (after.k, after.y, after.psi, after.u, after.pi, before.u),
        (before.k, before.y, before.psi, before.u, before.pi,
         before.pi * before.v),
        printed="k, y invariant; 2ke - f^2 + 2py invariant; U = pi v",
        derived="same quantities transported along the printed action",
        sample={"mu": mu, "g": g, "U": before.u, "pi": before.pi,
                "psi": before.psi},
        note="residual components: delta k, delta y, delta psi, delta U, "
             "delta pi, U - pi v",
    )


def _finding_time_realization() -> ErrataFinding:
    params, q0, p0, t = chart_symbols("q0", "p0", "t")
    realized = realization_time(0, t, 0, (p0, q0), params)
    q, p = time_closed_form(q0, p0, params, t)
    return _finding(
        "Eq3.1-realization", realized, (p, q),
        printed="realization p -> p - kqt - k zeta + y t^2/2, q -> q + x - vt",
        derived="restriction to (0, t, 0) is the time-evolution closed form",
        sample={"params": params, "state": (p0, q0), "t": t,
                "image": realized},
    )


def _finding_time_closed_form() -> ErrataFinding:
    params, q0, p0, e0, t = chart_symbols("q0", "p0", "e0", "t")
    mu = time_flow(DualElement(p0, e0, params.k * q0, *params), t)
    q_p = time_closed_form(q0, p0, params, t)
    return _finding(
        "Eq3.3-closed-form", (exact_div(mu.f, params.k), mu.p), q_p,
        printed="q(t) = q0 - vt, p(t) = p0 - f0 t + y t^2/2",
        derived="dual-space flow of exp(-tE), read out through q = f/k",
        sample={"params": params, "state": (q0, p0), "t": t, "q_p": q_p},
        note="negated-parameter convention: the flow parameter enters the "
             "action as -t",
    )


def _finding_time_rhs() -> ErrataFinding:
    params, q, p, t = chart_symbols("q", "p", "t")
    state = TimeState(q, p, t)
    printed_dp = time_rhs_printed(state, params)[1]
    derived_dp = time_rhs(state, params)[1]
    return _finding(
        "Eq3.5b-rhs", (printed_dp,), (derived_dp,),
        printed="dp/dt = -kq + c(t) dq/dt with c(t) = kt   (= -kq - yt)",
        derived="dp/dt = -kq (derivative of the verified flow)",
        sample={"state": state, "params": params, "printed_dp": printed_dp,
                "derived_dp": derived_dp},
        note="the residual is the printed damping term -yt; dq/dt = -v "
             "agrees on both sides",
    )


def _finding_time_hamilton() -> ErrataFinding:
    params, q, p, t = chart_symbols("q", "p", "t")
    # H is quadratic in q and linear in p: unit centered differences are exact
    hamilton = ((hamiltonian_time(p + 1, q, t, params)
                 - hamiltonian_time(p - 1, q, t, params)) * HALF,
                -(hamiltonian_time(p, q + 1, t, params)
                  - hamiltonian_time(p, q - 1, t, params)) * HALF)
    state = TimeState(q, p, t)
    derived = time_rhs(state, params)
    return _finding(
        "Eq3.6-hamilton-residual", hamilton, derived,
        printed="H = k q^2/2 - (p + c(t) q) v; Hamilton gives dp/dt = -kq + yt",
        derived="flow rhs dp/dt = -kq",
        sample={"state": state, "params": params, "hamilton_rhs": hamilton,
                "flow_rhs": derived,
                "printed_3_5b_rhs": time_rhs_printed(state, params)},
        note="three candidate momentum equations disagree pairwise: "
             "flow -kq, damping form -kq - yt, Hamilton -kq + yt",
    )


def _finding_space_realization() -> ErrataFinding:
    params, tau0, e0, t = chart_symbols("tau0", "e0", "t")
    realized = realization_space(0, t, 0, (e0, tau0), params)
    return _finding(
        "Eq3.8-realization", realized, (e0, tau0 - t),
        printed="realization e -> e + y tau x + y(zeta - xt) + k x^2/2, "
                "tau -> tau - t + sx",
        derived="restriction to (0, t, 0) shifts tau by -t and fixes e",
        sample={"params": params, "state": (e0, tau0), "t": t,
                "image": realized},
    )


def _finding_space_closed_form() -> ErrataFinding:
    params, tau0, e0, p0, x = chart_symbols("tau0", "e0", "p0", "x")
    mu = space_flow(DualElement(p0, e0, params.y * tau0, *params), x)
    tau_e = space_closed_form(tau0, e0, params.y * tau0, params, x)
    return _finding(
        "Eq3.11-closed-form", (exact_div(mu.f, params.y), mu.e), tau_e,
        printed="e(x) = e0 + f0 x + k x^2/2, tau(x) = tau0 + sx",
        derived="dual-space flow of exp(-xP), read out through tau = f/y",
        sample={"params": params, "state": (tau0, e0), "x": x,
                "tau_e": tau_e},
        note="negated-parameter convention: the flow parameter enters the "
             "action as -x",
    )


def _finding_space_vector_field() -> ErrataFinding:
    (k, _y), f0, x = chart_symbols("f0", "x")
    q = exact_div(f0, k)
    printed_coeff, derived_coeff = k * (q + x), f0 + k * x
    return _finding(
        "Eq3.12-vector-field", (printed_coeff,), (derived_coeff,),
        printed='P vector field with energy coefficient "k(q + x)"',
        derived="de/dx along the flow is f0 + kx",
        sample={"k": k, "q": q, "x": x, "printed_coefficient": printed_coeff,
                "derived_coefficient": derived_coeff},
        note="q is the time-chart symbol; the display only makes sense "
             "through f = kq, and then it matches",
    )


def _finding_space_rhs() -> ErrataFinding:
    params, tau, e, x = chart_symbols("tau", "e", "x")
    state = SpaceState(tau, e, x)
    printed_de = space_rhs_printed(state, params)[1]
    derived_de = space_rhs(state, params)[1]
    return _finding(
        "Eq3.13b-rhs", (printed_de,), (derived_de,),
        printed="de/dx = y tau + W(x) dtau/dx with W(x) = yx   (= y tau + kx)",
        derived="de/dx = y tau (derivative of the verified flow)",
        sample={"state": state, "params": params, "printed_de": printed_de,
                "derived_de": derived_de},
        note="the residual is the printed power term W(x) s = kx; "
             "dtau/dx = s agrees on both sides",
    )


def _finding_space_hamilton() -> ErrataFinding:
    params, tau, e, x = chart_symbols("tau", "e", "x")
    hamilton = (-(hamiltonian_space(e + 1, tau, x, params)
                  - hamiltonian_space(e - 1, tau, x, params)) * HALF,
                (hamiltonian_space(e, tau + 1, x, params)
                 - hamiltonian_space(e, tau - 1, x, params)) * HALF)
    state = SpaceState(tau, e, x)
    derived = space_rhs(state, params)
    return _finding(
        "Eq3.17-hamilton-residual", hamilton, derived,
        printed="Pi = y tau^2/2 - (e - W(x) tau) s; Hamilton gives "
                "de/dx = y tau + kx",
        derived="flow rhs de/dx = y tau",
        sample={"state": state, "params": params, "hamilton_rhs": hamilton,
                "flow_rhs": derived,
                "printed_3_13b_rhs": space_rhs_printed(state, params)},
        note="Hamilton equations taken as dtau/dx = -dPi/de, de/dx = "
             "dPi/dtau; under this sign choice the Hamilton rhs equals the "
             "printed power form, and both disagree with the flow",
    )


def _finding_table_tau_sign() -> ErrataFinding:
    params, tau0, e0, p0, x = chart_symbols("tau0", "e0", "p0", "x")
    table_tau = tau0 - params.s * x
    derived_tau, _ = space_closed_form(tau0, e0, params.y * tau0, params, x)
    mu = space_flow(DualElement(p0, e0, params.y * tau0, *params), x)
    return _finding(
        "Table-tau-sign", (table_tau,), (derived_tau,),
        printed="summary table: tau(x) = tau0 - sx",
        derived="tau(x) = tau0 + sx (travel time grows with distance; "
                "matches the flow readout f/y)",
        sample={"params": params, "tau0": tau0, "x": x,
                "table_tau": table_tau, "derived_tau": derived_tau,
                "flow_readout": exact_div(mu.f, params.y)},
    )


def _finding_table_header() -> ErrataFinding:
    (mu,) = symbols(0, dual=True)
    mu = mu._replace(k=0)
    inv = invariants(mu)
    contradicted = inv.u is None and inv.pi is not None
    return ErrataFinding(
        id="Table-O-y-U-header",
        verdict=CONTRADICTS if contradicted else CONFIRMS,
        printed='summary table column headed "O_(y,U)"',
        derived="the k = 0, y != 0 family carries pi, not U (U needs k != 0)",
        sample={"mu": _text(mu), "pi": _text(inv.pi),
                "U": "undefined (k = 0)"},
        residual=None,
        note="treated as O_(y,pi) per the surrounding text",
    )


_BUILDERS = (
    _finding_quotient_law,
    _finding_exp_xk,
    _finding_b_component,
    _finding_associativity,
    _finding_pairing_labels,
    _finding_action_law,
    _finding_action_agreement,
    _finding_action_invariants,
    _finding_time_realization,
    _finding_time_closed_form,
    _finding_time_rhs,
    _finding_time_hamilton,
    _finding_space_realization,
    _finding_space_closed_form,
    _finding_space_vector_field,
    _finding_space_rhs,
    _finding_space_hamilton,
    _finding_table_tau_sign,
    _finding_table_header,
)


def build_report() -> dict:
    """All findings, in fixed document order."""
    findings = [builder() for builder in _BUILDERS]
    contradicts = sum(1 for f in findings if f.verdict == CONTRADICTS)
    return {
        "assumption": ASSUMPTION,
        "backend": "rational",
        "counts": {
            "findings": len(findings),
            "contradicts": contradicts,
            "confirms": len(findings) - contradicts,
        },
        "findings": [f._asdict() for f in findings],
    }


def render_text(report: dict) -> str:
    """Human-readable form of the report; same information as the JSON."""
    lines = [
        "errata report",
        "=============",
        f"assumption: {report['assumption']}",
        f"backend: {report['backend']}",
        "findings: {findings} ({contradicts} contradict, {confirms} confirm)"
        .format(**report["counts"]),
        "",
    ]
    for finding in report["findings"]:
        lines.append(f"[{finding['verdict']}] {finding['id']}")
        lines.append(f"  printed:  {finding['printed']}")
        lines.append(f"  derived:  {finding['derived']}")
        for key, value in finding["sample"].items():
            lines.append(f"  sample {key}: {value}")
        if finding["residual"] is not None:
            lines.append("  residual: " + ", ".join(finding["residual"]))
        if finding["note"]:
            lines.append(f"  note:     {finding['note']}")
        lines.append("")
    return "\n".join(lines)
