"""Scalar parsing against Fraction(text); JSON text against json.dumps."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aristotle_orbits.backend import (
    BACKENDS, FLOAT, MAX_DIGITS, MAX_EXPONENT, QUOTE_CHARS, InputFormatError,
    format_scalar, json_scalar, json_text, parse_scalar, ratio_text,
)


def _reference_fraction(text):
    """Fraction(text), but two texts are refused first: one with an integer
    of more than MAX_DIGITS digits (a run of decimal digits and
    underscores), and one ending in an exponent beyond MAX_EXPONENT: after
    its last e or E, trailing space aside, a sign and groups of decimal
    digits joined by single underscores."""
    runs = "".join(c if c.isdecimal() or c == "_" else " " for c in text)
    if any(sum(map(str.isdecimal, run)) > MAX_DIGITS for run in runs.split()):
        raise ValueError(f"an integer of more than {MAX_DIGITS} digits")
    tail = text[max(text.rfind("e"), text.rfind("E")) + 1:].rstrip()
    groups = (tail[1:] if tail[:1] in ("+", "-") else tail).split("_")
    if (len(tail) < len(text.rstrip()) and all(g.isdecimal() for g in groups)
            and abs(int(tail)) > MAX_EXPONENT):
        raise ValueError(f"exponent beyond ±{MAX_EXPONENT}")
    return Fraction(text)


def _reference_quote(text):
    # a long text is quoted by a prefix and its length
    if isinstance(text, str) and len(text) > QUOTE_CHARS:
        return repr(text[:QUOTE_CHARS]) + f"... ({len(text)} characters)"
    return repr(text)


def _reference_parse(text, backend):
    # every string through Fraction(text), kept as the oracle
    try:
        if backend == FLOAT:
            value = float(_reference_fraction(text) if isinstance(text, str)
                          and "/" in text else text)
            if not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        if isinstance(text, float):
            return Fraction(repr(text))
        return _reference_fraction(text) if isinstance(text, str) \
            else Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # Python's own reasons end by quoting the text, which the message
        # names once, bounded
        reason = str(exc).removesuffix(f": {text!r}")
        raise InputFormatError(
            f"cannot parse scalar {_reference_quote(text)}: {reason}") from exc


def _outcome(parse, text, backend):
    """(type name, value), or ("error", the message); a float by its repr,
    so that -0.0 and 0.0 differ."""
    try:
        value = parse(text, backend)
    except InputFormatError as exc:
        return "error", str(exc)
    return (type(value).__name__,
            repr(value) if isinstance(value, float) else value)


EDGE_TEXTS = ["1/0", "0/0", "+1/2", "1/-2", " 1/2 ", "1 / 2", "1_000/3",
              "--1/2", "-0/7", "007/010", "-12/8", "1/", "/2", "-/2", "1//2",
              "1/2/3", "١/2", "²/2", "1e3/2", "0.5/2", "10", "-3",
              "1" * 5000 + "/3", "-" + "1" * 5000 + "/3", "3/" + "1" * 5000,
              "1" * 400 + "/3",
              # unreduced: the quotient fits a double only after cancelling
              "1" + "0" * 400 + "/1" + "0" * 100,
              "1" + "0" * 400 + "/1" + "0" * 80, "1/1" + "0" * 330,
              "9007199254740993/1", "-6/4", "4503599627370497/2",
              # the exponent bound: a power of ten is not built past it
              "1e400", "-2.5E-400", "1e10000", "1e-10_000 ", "1e10001",
              "1e+999999999", "1e-999999999", "e99999", "1e 99999",
              "1e99999/2", "1e1" + "0" * 4500,
              # canonical integers and fractions, and texts just outside
              "0", "-0", "1/00", "-007", "+3/4", " 3/4", "3/4 ", "1_0/3",
              "٣/٤", "1e5", "-" + "1" * 5000, "0" * 5000 + "1",
              "1" * 5000 + "/0",
              # the digit bound: each integer in the text, not the text
              "1" * 4300, "1" * 4301, "-" + "1" * 4300 + "/" + "3" * 4300,
              "1_" * 4300 + "1", "1" * 3000 + "." + "1" * 3000,
              "0." + "1" * 4301, "1" * 4301 + "x"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("text", EDGE_TEXTS,
                         ids=[t if len(t) < 20 else f"{len(t)}-chars"
                              for t in EDGE_TEXTS])
def test_parse_scalar_matches_fraction_text_on_edge_cases(text, backend):
    assert (_outcome(parse_scalar, text, backend)
            == _outcome(_reference_parse, text, backend))


scalar_texts = st.one_of(
    st.text(alphabet="0123456789-+/._eE \t١²", max_size=12),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-10**40, 10**40),
              st.integers(0, 10**40)))


@given(scalar_texts, st.sampled_from(BACKENDS))
@settings(max_examples=500)
def test_parse_scalar_matches_fraction_text(text, backend):
    assert (_outcome(parse_scalar, text, backend)
            == _outcome(_reference_parse, text, backend))


@given(st.one_of(st.floats(), st.fractions(), st.integers()))
def test_json_text_is_json_dumps_of_json_scalar(value):
    if isinstance(value, float) and not math.isfinite(value):
        with pytest.raises(InputFormatError, match="not finite"):
            json_text(value)
        return
    text = json.dumps(json_scalar(value), allow_nan=False)
    assert json_text(value) == text
    if not isinstance(value, float):
        # an exact output cell is its canonical text already
        assert json_text(format_scalar(value)) == text


@given(st.integers(-10**40, 10**40),
       st.integers(-10**40, 10**40).filter(bool))
@settings(max_examples=500)
def test_ratio_text_is_the_reduced_fraction_text(num, den):
    # any sign on either side, and unreduced pairs
    assert ratio_text(num, den) == str(Fraction(num, den))
    assert ratio_text(6 * num, 6 * den) == str(Fraction(num, den))


def test_ratio_text_edge_cases():
    assert ratio_text(0, -7) == "0"
    assert ratio_text(4, -2) == "-2"
    assert ratio_text(-3, -6) == "1/2"
    assert ratio_text(3, -6) == "-1/2"
    assert ratio_text(5, 1) == "5"
