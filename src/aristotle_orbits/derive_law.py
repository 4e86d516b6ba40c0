"""Reconstruct the group law as explicit polynomials, then audit the text.

Step-3 nilpotency bounds every coordinate of the product g*h by total
degree 3 in the ten input coordinates, so the law is recoverable from
finitely many evaluations with no symbolic machinery.  The reconstruction
uses iterated forward differences on the integer simplex:

    for |alpha| = 3,  Delta^alpha f(0) = alpha! * c_alpha,

and lower-degree coefficients follow after subtracting the already-known
higher monomials through the Stirling expansion of Delta^alpha on powers.
Every evaluation point has at most three nonzero coordinates, so the
whole table costs 286 product evaluations.

The command line reconstructs the BCH derivation ``compose_bch``, compares
it monomial by monomial with the law printed in the source text, and
verifies it against the closed ``compose`` on fresh random points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

from .lie_core import GroupElement, compose, compose_printed
from .rng import SplitMix64

NUM_VARS = 10
DEGREE = 3

# input coordinate names in evaluation order: first factor, then second
VARIABLES = ("x", "t", "zeta", "a", "b", "x'", "t'", "zeta'", "a'", "b'")

OUTPUT_NAMES = ("x''", "t''", "zeta''", "a''", "b''")


def _exponent_vectors(degree: int = DEGREE) -> list:
    """All exponent 10-vectors of total degree <= degree, graded order."""
    out = [(0,) * NUM_VARS]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(NUM_VARS), d):
            alpha = [0] * NUM_VARS
            for idx in combo:
                alpha[idx] += 1
            out.append(tuple(alpha))
    return out


def monomial_name(alpha: tuple) -> str:
    """Readable form like "x^2*t'"; the empty product is "1"."""
    parts = []
    for name, power in zip(VARIABLES, alpha):
        if power == 1:
            parts.append(name)
        elif power > 1:
            parts.append(f"{name}^{power}")
    return "*".join(parts) if parts else "1"


def _stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    total = 0
    for j in range(k + 1):
        total += (-1) ** (k - j) * comb(k, j) * j ** n
    return total // factorial(k)


def _box_points(alpha: tuple):
    """Integer points beta <= alpha componentwise."""
    support = [i for i, a in enumerate(alpha) if a]
    def rec(pos, current):
        if pos == len(support):
            yield tuple(current)
            return
        i = support[pos]
        for value in range(alpha[i] + 1):
            current[i] = value
            yield from rec(pos + 1, current)
        current[i] = 0
    yield from rec(0, [0] * NUM_VARS)


def _evaluate_law(law, point: tuple) -> tuple:
    g = GroupElement.from_seq([Fraction(c) for c in point[:5]])
    h = GroupElement.from_seq([Fraction(c) for c in point[5:]])
    return law(g, h).as_tuple()


def reconstruct_law(law=compose) -> dict:
    """{output name: {exponent vector: coefficient}} for any degree<=3 law."""
    exponents = _exponent_vectors()
    # one product evaluation per simplex point serves all five outputs
    values = {}
    for alpha in exponents:
        for beta in _box_points(alpha):
            if beta not in values:
                values[beta] = _evaluate_law(law, beta)

    coeffs = [dict() for _ in OUTPUT_NAMES]
    for alpha in sorted(exponents, key=sum, reverse=True):
        weight = sum(alpha)
        alpha_factorial = 1
        for a in alpha:
            alpha_factorial *= factorial(a)
        for out in range(len(OUTPUT_NAMES)):
            delta = Fraction(0)
            for beta in _box_points(alpha):
                sign = (-1) ** (weight - sum(beta))
                binom = 1
                for a, b in zip(alpha, beta):
                    binom *= comb(a, b)
                delta += sign * binom * values[beta][out]
            # strip contributions of already-known higher monomials
            for gamma, c in coeffs[out].items():
                if sum(gamma) <= weight or any(g < a for g, a in zip(gamma, alpha)):
                    continue
                shift = c
                for g, a in zip(gamma, alpha):
                    shift *= factorial(a) * _stirling2(g, a)
                delta -= shift
            value = delta / alpha_factorial
            if value != 0:
                coeffs[out][alpha] = value
    return dict(zip(OUTPUT_NAMES, coeffs))


def evaluate_polynomial(poly: dict, point: tuple):
    total = Fraction(0)
    for alpha, coeff in poly.items():
        term = coeff
        for value, power in zip(point, alpha):
            for _ in range(power):
                term *= value
        total += term
    return total


def verify_reconstruction(polys: dict, samples: int = 1000, seed: int = 0) -> int:
    """Exact agreement with `compose` on fresh random rational points.

    Returns the number of points checked; raises on the first mismatch
    (which would mean the degree bound or the difference engine is wrong).
    """
    rng = SplitMix64(seed)
    for i in range(samples):
        point = tuple(rng.rational() for _ in range(NUM_VARS))
        expected = _evaluate_law(compose, point)
        for idx, name in enumerate(OUTPUT_NAMES):
            got = evaluate_polynomial(polys[name], point)
            if got != expected[idx]:
                raise ArithmeticError(
                    f"reconstruction of {name} disagrees at point {i}: "
                    f"{got} != {expected[idx]}")
    return samples


def printed_law_polynomials() -> dict:
    """The text's multiplication law, reconstructed the same way.

    Running the identical difference engine on the transcribed law keeps
    the comparison symmetric: both sides are monomial tables produced by
    one algorithm.
    """
    return reconstruct_law(compose_printed)


def comparison_table(derived: dict, printed: dict) -> list:
    """Per-coordinate, per-monomial comparison with a verdict each."""
    table = []
    for name in OUTPUT_NAMES:
        monomials = sorted(set(derived[name]) | set(printed[name]),
                           key=lambda a: (sum(a), a))
        rows = []
        for alpha in monomials:
            d = derived[name].get(alpha, Fraction(0))
            p = printed[name].get(alpha, Fraction(0))
            rows.append({
                "monomial": monomial_name(alpha),
                "derived": d,
                "printed": p,
                "verdict": "CONFIRMS" if d == p else "CONTRADICTS",
            })
        table.append({
            "coordinate": name,
            "monomials": rows,
            "agrees": all(r["verdict"] == "CONFIRMS" for r in rows),
        })
    return table
