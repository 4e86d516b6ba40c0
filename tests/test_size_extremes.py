"""Size-extreme inputs on every subcommand, run in process through ``main``.

Exact integers at and past the 4300-digit bound, long denominators,
decimal exponents at and past ±10000, doubles near overflow and
subnormal ones, and long command-line tokens, raw, after their flag or
inline (``--flag=value``).  Each run exits 0 with JSON that validates
against its schema under ``docs/schemas/``, or exits 1 with exactly one
error line of under 200 bytes, within BUDGET_S.  Grids have at most three
rows, and ``derive-law --samples`` stays small: its cost is linear in the
samples asked for.
"""

import io
import json
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from aristotle_orbits.cli import ECHO_CHARS, main

SCHEMAS = Path(__file__).parent.parent / "docs" / "schemas"
BUDGET_S = 10

EXACT = [
    "9" * 4300, "-" + "9" * 4300, "9" * 4301, "1" + "0" * 4300,
    "1/" + "7" * 4300, "-3/" + "7" * 4301, "1." + "3" * 4300,
    "1e10000", "-1e-10000", "1E+10001", "2.5e-10001",
]
FLOATS = [
    "1.7976931348623157e308", "-1.7976931348623157e308", "1.8e308",
    "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-310",
]
# half of the values drawn are ordinary, so that most points and orbits
# hold an extreme value or two, not five
SCALARS = st.one_of(st.sampled_from(EXACT + FLOATS),
                    st.sampled_from(["0", "1", "2", "-3/2", "0.5"]))
# tokens longer than the CLI echoes whole: digits, a point of long fields,
# both quote kinds, a backslash and letters beyond ASCII
LONG = st.sampled_from([
    "9" * (ECHO_CHARS + 1), "9" * 5000, ",".join(["7" * 1000] * 5),
    "'" + "9" * 200 + '"', "\\" * 300, "é" * 400,
])
BACKENDS = st.sampled_from(["rational", "float"])
# --samples as int reads it: small counts, and spellings that are not the
# integer's own text (leading zeros, "_" separators, "+"), long ones too
SAMPLES = st.sampled_from([
    "-1", "0", "1", "2", "02", "+2", "1_0", "-0_1", "+0", "0_0",
    "-0" + "9" * 4299, "0" + "_0" * 100, "+" + "0" * 200 + "1",
])
SCHEMA = {"classify": "classify", "invariants": "invariants",
          "simulate": "trajectory", "verify": "verify", "errata": "errata",
          "derive-law": "derive-law"}


@st.composite
def _points(draw) -> list:
    command = draw(st.sampled_from(["classify", "invariants"]))
    points = draw(st.lists(st.lists(SCALARS, min_size=5, max_size=5).map(
        ",".join), min_size=1, max_size=2))
    return [command, "--format=json", "--backend", draw(BACKENDS), "--",
            *points]


@st.composite
def _simulate(draw) -> list:
    mode = draw(st.sampled_from(["rk4", "closed-form", "dual"]))
    argv = ["simulate", "--format=json", "--picture",
            draw(st.sampled_from(["time", "space"])), "--backend",
            draw(BACKENDS)]
    if mode == "dual":
        argv += ["--dual", "--mu=" + ",".join(
            draw(st.lists(SCALARS, min_size=5, max_size=5)))]
    else:
        state = ",".join(draw(st.lists(SCALARS, min_size=2, max_size=2)))
        argv += [f"--state={state}", f"--k={draw(SCALARS)}",
                 f"--y={draw(SCALARS)}"]
        if mode == "closed-form":
            argv.append("--closed-form")
    # at most three rows: 0, 1/2, 1; 0 and x; or x alone
    x = draw(SCALARS)
    grid = draw(st.sampled_from([("0:1", "1/2"), (f"0:{x}", x),
                                 (f"{x}:{x}", "1")]))
    return [*argv, f"--range={grid[0]}", f"--step={grid[1]}"]


@st.composite
def _adjudicate(draw) -> list:
    command = draw(st.sampled_from(["verify", "errata", "derive-law"]))
    argv = [command, "--format=json", "--seed", draw(SCALARS)]
    if command == "verify":  # ignored, but parsed as an int from 1 to 100000
        argv += ["--samples", draw(st.one_of(SCALARS, SAMPLES))]
    elif command == "derive-law":
        argv += ["--samples", draw(SAMPLES)]
    return argv


@st.composite
def _long_token(draw, argv: list) -> list:
    """``argv`` with a long token: raw, after a flag, or inline."""
    token = draw(LONG)
    flag = draw(st.sampled_from(
        ["--in", "--tol", "--k", "--range", "--picture", "--mutate",
         "--seed", "--samples", "--format", "--frobnicate"]))
    if flag == "--in" and argv[0] not in ("classify", "invariants"):
        flag = "--out"
    if flag in ("--in", "--out"):
        token = "/nonexistent/" + token  # nothing is read or made
    place = draw(st.sampled_from(["raw", "after", "inline"]))
    extra = {"raw": [token], "after": [flag, token],
             "inline": [f"{flag}={token}"]}[place]
    at = draw(st.integers(1, len(argv)))
    return argv[:at] + extra + argv[at:] if place != "raw" else argv + extra


@lru_cache(maxsize=None)
def _validator(name: str) -> Draft202012Validator:
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text(
        encoding="utf-8"))
    return Draft202012Validator(schema)


@contextmanager
def _within(seconds: float):
    """Fail a run that takes longer than ``seconds`` of wall time."""
    def expire(_signum, _frame):
        raise TimeoutError(f"a run took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _outcome(argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``; a usage error's
    ``SystemExit`` is its code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with _within(BUDGET_S), redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def _check(argv: list):
    code, out, err = _outcome(argv)
    if code == 0:
        event(f"{argv[0]}: written")
        assert err == ""
        _validator(SCHEMA[argv[0]]).validate(json.loads(out))
        return
    event(f"{argv[0]}: refused")
    assert code == 1, err[-2000:]
    assert out == ""
    errors = [line for line in err.splitlines() if " error: " in line]
    assert len(errors) == 1 and err.endswith(errors[0] + "\n"), err[-2000:]
    assert errors[0].startswith("aristotle-orbits")
    assert len(errors[0].encode("utf-8")) < 200, errors[0]


COMMANDS = pytest.mark.parametrize("command", [_points, _simulate,
                                                _adjudicate],
                                   ids=["points", "simulate", "adjudicate"])


@COMMANDS
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_size_extreme_values_end_in_output_or_one_short_error(command, data):
    _check(data.draw(command()))


@COMMANDS
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_long_tokens_end_in_output_or_one_short_error(command, data):
    _check(data.draw(command().flatmap(_long_token)))
