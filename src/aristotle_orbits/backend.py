"""Numeric backends.

Every operation in this package is generic over two interchangeable scalar
backends:

* ``rational`` -- :class:`fractions.Fraction` (arbitrary-precision, exact;
  equality is decidable).  Mandatory for all law-adjudication checks,
  because coefficients such as 1/2 and 1/12 are not exact in binary
  floating point.
* ``float`` -- IEEE double.  Used only for simulation and reporting.

Plain ints count as exact scalars; mixing a Fraction constant into float
arithmetic degrades to float, which is exactly the genericity we rely on.
The proofs of ``verify`` run the same code on a third, symbolic kind of
exact scalar: ``poly.Poly`` indeterminates, divided by ``exact_div`` into
``poly.Ratio`` quotients.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .poly import Poly, Ratio

Scalar = Union[Fraction, int, float]

RATIONAL = "rational"
FLOAT = "float"
BACKENDS = (RATIONAL, FLOAT)

#: One half, exact; in float arithmetic it is 0.5.
HALF = Fraction(1, 2)

#: Message of the input error for a computed NaN or infinity.
NOT_FINITE = "a computed value is not finite"

#: Largest decimal exponent a scalar's text may carry, in magnitude: an
#: exact ``1e999999999`` would be a billion digits.  Doubles end near 1e±324.
MAX_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

#: Most digits of an integer in exact text (a numerator, a denominator, a
#: part of a decimal): Python's default text-to-int limit, made explicit
#: so that the CLI can lift that limit for its output.
MAX_DIGITS = 4300
_DIGITS = re.compile(r"\d+(?:_\d+)*")
#: Longest text an error message quotes whole.
QUOTE_CHARS = 24
_CANONICAL = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)

#: Relative tolerance used for zero tests in orbit classification on the
#: float backend (overridable via the CLI ``--tol`` flag).
EPS_CLASS = 1e-12


class InputFormatError(ValueError):
    """An input failed to parse or cannot be used; carries diagnostics."""


def quoted(text) -> str:
    """``repr(text)``, or a long text's first QUOTE_CHARS and its length."""
    if isinstance(text, str) and len(text) > QUOTE_CHARS:
        return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"
    return repr(text)


def parse_scalar(text: "str | int | float", backend: str = RATIONAL) -> Scalar:
    """Parse one scalar in the requested backend.

    Accepts numbers, plain integer strings, ``"n/d"`` fractions and
    decimal strings; a bool, None or any other type is an input error.
    On the rational backend decimal text is read exactly (``"0.1"``
    becomes 1/10); an integer in it of more than MAX_DIGITS digits, or
    text ending in an exponent beyond MAX_EXPONENT in magnitude, is an
    input error.  The float backend rejects NaN, infinities and values
    that overflow a double.  A message quotes the text by ``quoted``.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if isinstance(text, bool):  # JSON true and false are not 1 and 0
        raise InputFormatError(f"cannot parse scalar {text!r}: not a number")
    try:
        if backend == FLOAT:
            value = (_fraction(text, to_float=True)
                     if isinstance(text, str) and "/" in text else float(text))
            if not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        if isinstance(text, float):
            # exact decimal meaning, not the binary expansion
            return Fraction(repr(text))
        return _fraction(text) if isinstance(text, str) else Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        # Python's own reasons end by quoting the whole text, named above
        reason = str(exc).removesuffix(f": {text!r}")
        raise InputFormatError(
            f"cannot parse scalar {quoted(text)}: {reason}") from exc


def _fraction(text: str, to_float: bool = False) -> Scalar:
    """``Fraction(text)``, or its float.  Canonical ``[-]digits`` and
    ``[-]digits/digits`` text with a nonzero denominator is read by two
    ``int`` calls instead of the literal regex, and its float is their
    quotient, correctly rounded without the reduction.  An integer of
    more than MAX_DIGITS digits, or text ending in an exponent beyond
    MAX_EXPONENT, is a ValueError, raised before ``int`` would read it or
    ``Fraction`` would build the power of ten."""
    if len(text) > MAX_DIGITS and any(
            len(run) - run.count("_") > MAX_DIGITS
            for run in _DIGITS.findall(text)):
        raise ValueError(f"an integer of more than {MAX_DIGITS} digits")
    canonical = _CANONICAL.fullmatch(text)
    if canonical:
        num, den = int(canonical[1]), int(canonical[2] or 1)
        if den:
            return num / den if to_float else Fraction(num, den)
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"exponent beyond ±{MAX_EXPONENT}")
    value = Fraction(text)
    return float(value) if to_float else value


def format_scalar(value: Scalar) -> str:
    """Canonical text form: ``"3/2"``, ``"-2"``, or the float repr."""
    if isinstance(value, float):
        return repr(value)
    return str(value if isinstance(value, Fraction) else Fraction(value))


def ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` without the ``Fraction``: num/den reduced
    by one gcd, the sign on the numerator, "/1" left out.  ``den != 0``."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def json_scalar(value: Scalar) -> "str | float":
    """JSON form: rationals as strings (exact), floats as numbers."""
    if isinstance(value, float):
        return value
    return str(value if isinstance(value, Fraction) else Fraction(value))


def json_text(value: "Scalar | str") -> str:
    """``json.dumps(json_scalar(value), allow_nan=False)``: ``"3/2"`` or a
    float's repr.  A string is taken as ``json_scalar``'s text already (an
    exact output cell); a NaN or infinity is an input error."""
    cell = value if isinstance(value, str) else json_scalar(value)
    if isinstance(cell, str):
        return '"%s"' % cell
    if math.isfinite(cell):
        return repr(cell)
    raise InputFormatError(f"{NOT_FINITE}: {cell!r}")


def is_float_backed(*values: Scalar) -> bool:
    """True when any of ``values`` is a float, so arithmetic on them is float."""
    return any(isinstance(value, float) for value in values)


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """a/b; stays rational unless either operand is a float, and is a
    ``poly.Ratio`` if either is symbolic (a ``Poly`` or a ``Ratio``)."""
    if is_float_backed(a, b):
        return a / b
    if isinstance(a, (Poly, Ratio)) or isinstance(b, (Poly, Ratio)):
        return Ratio(1) * a / b
    return Fraction(a) / Fraction(b)


def is_zero(value: Scalar, tol: float = 0.0, scale: Scalar = 1) -> bool:
    """Zero test; exact unless ``value`` is a float, then relative to ``scale``.

    An exact ``scale`` beyond the double range bounds the value exactly."""
    if isinstance(value, float):
        try:
            return abs(value) <= tol * max(1.0, abs(scale))
        except OverflowError:
            return abs(value) <= Fraction(tol) * abs(scale)
    return value == 0
