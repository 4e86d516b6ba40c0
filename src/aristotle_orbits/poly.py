"""Sparse polynomials with exact rational coefficients, used as a scalar.

``Poly`` has ``+ - * ==`` with itself and with ``int``/``Fraction`` on
either side, so the group law, ``Ad`` and the coadjoint action run on it
unchanged.  On indeterminates they return their own coefficients, and an
identity holds for every input iff its residual is the zero polynomial.
``Ratio``, a quotient of two such scalars, adds ``/`` for the formulas
that divide (``backend.exact_div`` returns one), so identities through
y/k or f/y are proved the same way: by a zero numerator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, sub


def monomial_name(alpha: tuple, names) -> str:
    """Readable form like "x^2*t'"; the empty product is "1"."""
    return "*".join(name if power == 1 else f"{name}^{power}"
                    for name, power in zip(names, alpha) if power) or "1"


class Poly:
    """{exponent tuple: nonzero coefficient} over the variables ``names``.

    A coefficient is an ``int`` until arithmetic makes it fractional, then
    a ``Fraction``, so integer terms multiply and add as plain ints.
    """

    __slots__ = ("terms", "names")
    __hash__ = None

    def __init__(self, terms: dict, names: tuple):
        self.terms, self.names = terms, names

    def _lift(self, other):
        """``other`` as a polynomial, or None if it is no exact scalar."""
        if isinstance(other, (int, Fraction)):
            zero = (0,) * len(self.names)
            return Poly({zero: other} if other else {}, self.names)
        return other if isinstance(other, Poly) else None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for alpha, coeff in other.terms.items():
            terms[alpha] = terms.get(alpha, 0) + coeff
        return Poly({a: c for a, c in terms.items() if c}, self.names)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = {}
        for alpha, a in self.terms.items():
            for beta, b in other.terms.items():
                gamma = tuple(map(add, alpha, beta))
                terms[gamma] = terms.get(gamma, 0) + a * b
        return Poly({g: c for g, c in terms.items() if c}, self.names)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __eq__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self.terms == other.terms

    def evaluate(self, point) -> Fraction:
        """The value at ``point``, one exact scalar per variable.

        Each term is an integer numerator over an integer denominator, the
        sum is kept as one such pair, and a single ``Fraction`` reduces it.
        """
        num, den = 0, 1
        for alpha, coeff in self.terms.items():
            n, d = coeff.numerator, coeff.denominator
            for value, power in zip(point, alpha):
                if power:
                    n *= value.numerator ** power
                    d *= value.denominator ** power
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        return Fraction(num, den)

    def __str__(self) -> str:
        text = ""
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            coeff, name = self.terms[alpha], monomial_name(alpha, self.names)
            body = (str(abs(coeff)) if name == "1" else name if abs(coeff) == 1
                    else f"{abs(coeff)}*{name}")
            text += (" - " if coeff < 0 else " + ") + body
        return (text[3:] if text[1] == "+" else "-" + text[3:]) if text else "0"

    __repr__ = __str__


def _on_parts(method):
    """``method(self, num, den)`` on the other operand's numerator and
    denominator; NotImplemented if it is no exact scalar."""
    def operation(self, other):
        if isinstance(other, Ratio):
            return method(self, other.num, other.den)
        if isinstance(other, (int, Fraction, Poly)):
            return method(self, other, 1)
        return NotImplemented
    return operation


class Ratio:
    """num/den for exact scalars or polynomials num and den != 0; floats
    are refused, as by ``Poly``.  No gcd is taken: ``==`` cross-multiplies,
    so a Ratio is zero exactly when its numerator is."""

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num, den=1):
        if den == 0:
            raise ZeroDivisionError(f"({num})/({den}) has a zero denominator")
        self.num, self.den = num, den

    @_on_parts
    def __add__(self, num, den):
        return Ratio(self.num * den + num * self.den, self.den * den)

    @_on_parts
    def __mul__(self, num, den):
        return Ratio(self.num * num, self.den * den)

    @_on_parts
    def __truediv__(self, num, den):
        return Ratio(self.num * den, self.den * num)

    @_on_parts
    def __eq__(self, num, den):
        return self.num * den == num * self.den

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Ratio(-self.num, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __str__(self) -> str:
        """num/den with the monomial common to both divided out and "/1"
        left out; a part in parentheses unless it is one term (num) or one
        factor (den)."""
        num, den = self.num, self.den
        if not isinstance(num, Poly) and not isinstance(den, Poly):
            return str(Fraction(num, den))
        num, den = map((num if isinstance(num, Poly) else den)._lift,
                       (num, den))
        common = tuple(map(min, zip(*num.terms, *den.terms)))
        num, den = (Poly({tuple(map(sub, alpha, common)): coeff
                          for alpha, coeff in part.terms.items()}, part.names)
                    for part in (num, den))
        if den == 1 or num == 0:
            return str(num)
        top, bottom = str(num), str(den)
        return (f"({top})" if len(num.terms) > 1 else top) + "/" + (
            bottom if re.fullmatch(r"[\w'^]+", bottom) else f"({bottom})")

    __repr__ = __str__


def indeterminates(names) -> tuple:
    """One polynomial per name: the variables themselves."""
    names = tuple(names)
    return tuple(Poly({tuple(int(i == j) for j in range(len(names))): 1},
                      names) for i in range(len(names)))
