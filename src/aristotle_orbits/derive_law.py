"""Read the group law off as explicit polynomials, then audit the text.

The law's coordinates are polynomials in the ten input coordinates
(total degree at most 3, the algebra being step-3 nilpotent), and the
kernel needs only ``+ - *``.  Composing two group elements whose
coordinates are indeterminates (``poly.Poly``) therefore returns the
coefficient table itself: nothing is interpolated or sampled.

``build_report`` reads off the BCH derivation ``compose_bch`` and the
law printed in the source text, compares them monomial by monomial, and
checks the table independently against the closed ``compose`` on fresh
random points; ``render_text`` lays the report out as text.
"""

from __future__ import annotations

from fractions import Fraction

from . import poly
from .backend import format_scalar
from .lie_core import GroupElement, compose, compose_bch, compose_printed
from .rng import SplitMix64

# input coordinate names in evaluation order: first factor, then second
VARIABLES = ("x", "t", "zeta", "a", "b", "x'", "t'", "zeta'", "a'", "b'")

OUTPUT_NAMES = ("x''", "t''", "zeta''", "a''", "b''")


def monomial_name(alpha: tuple) -> str:
    """Readable form like "x^2*t'"; the empty product is "1"."""
    return poly.monomial_name(alpha, VARIABLES)


def _evaluate_law(law, point) -> tuple:
    return law(GroupElement._make(point[:5]), GroupElement._make(point[5:]))


def reconstruct_law(law=compose) -> dict:
    """{output name: {exponent vector: Fraction coefficient}}: ``law`` on
    indeterminates."""
    product = _evaluate_law(law, poly.indeterminates(VARIABLES))
    return {name: {alpha: Fraction(coeff) for alpha, coeff in c.terms.items()}
            for name, c in zip(OUTPUT_NAMES, product)}


def evaluate_polynomial(terms: dict, point: tuple):
    """The value of one coefficient table at a 10-coordinate point."""
    return poly.Poly(terms, VARIABLES).evaluate(point)


def verify_reconstruction(polys: dict, samples: int = 1000, seed: int = 0,
                          law=compose) -> int:
    """Exact agreement with ``law`` on fresh random rational points.

    Returns the number of points checked; raises on the first mismatch
    (which would mean the read-off or the polynomial scalar is wrong).
    """
    rng = SplitMix64(seed)
    for i in range(samples):
        point = rng.rationals(len(VARIABLES))
        expected = _evaluate_law(law, point)
        for idx, name in enumerate(OUTPUT_NAMES):
            got = evaluate_polynomial(polys[name], point)
            if got != expected[idx]:
                raise ArithmeticError(
                    f"reconstruction of {name} disagrees at point {i}: "
                    f"{got} != {expected[idx]}")
    return samples


def printed_law_polynomials() -> dict:
    """The text's multiplication law, read off the same way.

    Both sides of the comparison are monomial tables produced by one
    read-off, which keeps it symmetric.
    """
    return reconstruct_law(compose_printed)


def comparison_table(derived: dict, printed: dict) -> list:
    """Per coordinate: whether it agrees, and per monomial the exact derived
    and printed coefficients as text with a verdict each."""
    table = []
    for name in OUTPUT_NAMES:
        monomials = sorted(set(derived[name]) | set(printed[name]),
                           key=lambda a: (sum(a), a))
        rows = []
        for alpha in monomials:
            d = derived[name].get(alpha, 0)
            p = printed[name].get(alpha, 0)
            rows.append({
                "monomial": monomial_name(alpha),
                "derived": format_scalar(d),
                "printed": format_scalar(p),
                "verdict": "CONFIRMS" if d == p else "CONTRADICTS",
            })
        table.append({
            "coordinate": name,
            "agrees": all(r["verdict"] == "CONFIRMS" for r in rows),
            "monomials": rows,
        })
    return table


def build_report(seed: int = 0, samples: int = 1000) -> dict:
    """The law read off ``compose_bch``, checked on ``samples`` fresh points
    of stream ``seed``, against the printed law."""
    derived = reconstruct_law(law=compose_bch)
    verified = verify_reconstruction(derived, samples=samples, seed=seed)
    return {
        "backend": "rational",
        "seed": seed,
        "samples_verified": verified,
        "coordinates": comparison_table(derived, printed_law_polynomials()),
    }


def render_text(report: dict) -> str:
    """Human-readable form of the report; same information as the JSON."""
    lines = [
        "derived group law, exact polynomial reconstruction",
        "==================================================",
        f"verified against the composition on {report['samples_verified']} "
        "fresh points",
        "",
    ]
    for entry in report["coordinates"]:
        status = "agrees with printed form" if entry["agrees"] \
            else "DISAGREES with printed form"
        lines.append(f"{entry['coordinate']}   [{status}]")
        width = max(len(row["monomial"]) for row in entry["monomials"])
        for row in entry["monomials"]:
            lines.append(
                f"  {row['monomial']:<{width}}   derived {row['derived']:>6}"
                f"   printed {row['printed']:>6}   {row['verdict']}")
        lines.append("")
    return "\n".join(lines)
