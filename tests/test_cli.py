"""CLI contract: exit codes, schemas, goldens, byte determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import aristotle_orbits
from aristotle_orbits import cli, dynamics, orbits
from aristotle_orbits import verify as verify_module
from aristotle_orbits.backend import (
    format_scalar, json_scalar, parse_scalar,
)
from aristotle_orbits.cli import (
    INVARIANT_COLUMNS, INVARIANT_HEADERS, POINT_FIELDS, main,
)
from aristotle_orbits.dynamics import (
    IntegratorConfig, OrbitParams, closed_form_trajectory,
    dual_flow_trajectory, integrate,
)
from aristotle_orbits.orbits import (
    DualElement, classify, invariants, orbit_dimension,
)
from aristotle_orbits.rng import SplitMix64

HERE = Path(__file__).parent
GOLDENS = HERE / "goldens"
SCHEMAS = HERE.parent / "docs" / "schemas"


def golden(name: str) -> str:
    # read_text would translate the CSV "\r\n" line endings
    return (GOLDENS / name).read_bytes().decode("utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv) -> str:
    """The error line of ``main(argv)``'s usage error: exit 1, nothing on
    stdout, and the subcommand's usage before the line."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err[:-1].rsplit("\n", 1)
    assert usage.startswith(f"usage: aristotle-orbits {argv[0]} ")
    return error


@lru_cache(maxsize=None)
def _validator(schema_name: str) -> Draft202012Validator:
    schema = json.loads((SCHEMAS / schema_name).read_text(encoding="utf-8"))
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def validate(schema_name: str, payload: dict):
    _validator(schema_name).validate(payload)


# ------------------------------------------------------------- classify

def test_classify_generic_point(capsys):
    code, out, _ = run(capsys, "classify", "1,1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    validate("classify.schema.json", payload)
    point = payload["points"][0]
    assert point["class"] == "GENERIC"
    assert point["orbit_dimension"] == 2
    assert point["invariants"]["u"] == "3/2"
    assert point["invariants"]["pi"] == "3/2"
    assert point["invariants"]["psi"] == "3"


def test_classify_zero_point(capsys):
    code, out, _ = run(capsys, "classify", "0,0,0,0,0")
    assert code == 0
    point = json.loads(out)["points"][0]
    assert point["class"] == "FIXED_POINT"
    assert point["orbit_dimension"] == 0
    assert point["invariants"] == {"k": "0", "y": "0", "psi": "0", "f": "0"}


GOLDEN_POINTS = ("1,1,1,1,1", "0,1,0,2,0", "1,2,3,0,2", "0,0,5,0,0",
                 "3,0,0,0,0", "0,0,0,0,0")


def test_classify_golden(capsys):
    code, out, _ = run(capsys, "classify", *GOLDEN_POINTS)
    assert code == 0
    assert out == golden("classify.json")
    classes = [p["class"] for p in json.loads(out)["points"]]
    assert classes == ["GENERIC", "HOOKE_ONLY", "YANK_ONLY", "FORCE_ONLY",
                       "FIXED_POINT", "FIXED_POINT"]


def test_invariants_golden(capsys):
    code, out, err = run(capsys, "invariants", *GOLDEN_POINTS)
    assert code == 0, err
    assert out == golden("invariants.json")


def seeded_points_csv(seed: int = 8, per_class: int = 40) -> str:
    """A point file of ``per_class`` points for each of the five classes.

    Numerators reach 10^6 and denominators 10^3; one coordinate in four
    is an integer.  The generator is the package's own splitmix64, so
    the file is the same on every platform.
    """
    rng = SplitMix64(seed)

    def coordinate(zero: bool) -> Fraction:
        if zero:
            return Fraction(0)
        den = 1 if rng.randint(0, 3) == 0 else rng.randint(1, 10**3)
        while True:
            num = rng.randint(-10**6, 10**6)
            if num:
                return Fraction(num, den)

    # zero pattern of (f, k, y): GENERIC, HOOKE_ONLY, YANK_ONLY,
    # FORCE_ONLY, FIXED_POINT
    patterns = [(False, False, False), (False, False, True),
                (False, True, False), (False, True, True),
                (True, True, True)]
    lines = ["p,e,f,k,y"]
    for index in range(per_class * len(patterns)):
        zeros = (False, False) + patterns[index % len(patterns)]
        lines.append(",".join(str(coordinate(zero)) for zero in zeros))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, argv", [
    ("classify-seeded.json", ()),
    ("classify-seeded.csv", ("--backend", "float", "--format", "csv")),
    ("classify-seeded-float.json", ("--backend", "float")),
])
def test_classify_seeded_goldens(tmp_path, capsys, name, argv):
    path = tmp_path / "points.csv"
    path.write_text(seeded_points_csv(), encoding="utf-8")
    code, out, err = run(capsys, "classify", "--in", str(path), *argv)
    assert code == 0, err
    assert out == golden(name)


def test_classify_csv_layout(capsys):
    code, out, _ = run(capsys, "classify", "1,1,1,1,1", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == ("p,e,f,k,y,class,dimension,"
                       "psi,v,s,q,tau,u,pi,f_invariant")
    assert lines[1] == "1,1,1,1,1,GENERIC,2,3,1,1,1,1,3/2,3/2,"


# empty invariant cells, signed zero, tiny and huge inputs, FIXED_POINT rows
CSV_ORACLE_POINTS = ("1,1,1,1,1", "1,2,3,0,0", "1,2,0,0,0", "0,0,0,0,0",
                     "5,-3,0,0,0", "3/7,-2,1/9,0,4", "-0.0,1,-0.0,1,1",
                     "0,-0.0,0,-0.0,0", "1e-300,1e-300,1e-300,1e-300,1e-300",
                     "1e-300,1,1,1e-300,1", "1e300,1,1e-300,1,1",
                     "0.1,0.2,0.3,0.4,0.5")


def _reference_csv(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_point_csv_equals_csv_module_over_formatted_cells(capsys, backend,
                                                          command):
    header = list(POINT_FIELDS) + (["class", "dimension"]
                                   if command == "classify" else [])
    rows = [header + list(INVARIANT_HEADERS)]
    for text in CSV_ORACLE_POINTS:
        mu = DualElement._make([parse_scalar(c, backend)
                                for c in text.split(",")])
        inv = invariants(mu)
        cells = [format_scalar(c) for c in mu]
        if command == "classify":
            cells += [classify(mu).value, str(orbit_dimension(mu))]
        cells += ["" if getattr(inv, name) is None
                  else format_scalar(getattr(inv, name))
                  for name in INVARIANT_COLUMNS]
        rows.append(cells)
    code, out, err = run(capsys, command, "--backend", backend,
                         "--format", "csv", *CSV_ORACLE_POINTS)
    assert code == 0, err
    assert out == _reference_csv(rows)
    if command == "classify":
        assert ",FIXED_POINT,0," in out and ",," in out


def test_classify_float_backend_schema(capsys):
    code, out, _ = run(capsys, "classify", "1,1,1,1,1", "--backend", "float")
    assert code == 0
    payload = json.loads(out)
    validate("classify.schema.json", payload)
    # float backend serializes as JSON numbers, not strings
    assert payload["points"][0]["invariants"]["u"] == 1.5


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("command", ["classify", "invariants"])
@pytest.mark.parametrize("point", ["-1,2,3,4,5", "-0.0,1,1,1,1",
                                   "-.5,1,-1,1,1", "-3/2,0,0,0,0"])
def test_negative_first_coordinate_is_a_point(capsys, backend, command,
                                              point):
    code, out, err = run(capsys, command, "--backend", backend, point,
                         "1,1,1,1,1")
    assert code == 0, err
    assert (out, err) == run(capsys, command, "--backend", backend, "--",
                             point, "1,1,1,1,1")[1:]


def test_negative_flag_value_is_a_value(capsys):
    argv = ("simulate", "--picture", "time", "--state", "-1,1", "--y", "1",
            "--range", "-1:1", "--step", "1/2", "--closed-form")
    code, out, err = run(capsys, *argv, "--k", "-3/2")
    assert code == 0, err
    # --state is the state at the range's start, t = -1
    assert out.splitlines()[1] == "-1,-1,1,1/12,0"
    assert (code, out, err) == run(capsys, *argv, "--k=-3/2")


def test_each_point_is_classified_once(capsys, monkeypatch):
    calls = []
    original = orbits.classify

    def counting_classify(mu, tol=orbits.EPS_CLASS):
        calls.append(mu)
        return original(mu, tol)

    # orbit_dimension reaches classify through the orbits module
    monkeypatch.setattr(cli, "classify", counting_classify)
    monkeypatch.setattr(orbits, "classify", counting_classify)
    code, out, _ = run(capsys, "classify", "1,1,1,1,1", "0,0,0,0,0")
    assert code == 0
    assert len(calls) == 2
    assert [p["orbit_dimension"] for p in json.loads(out)["points"]] == [2, 0]


def test_malformed_inline_point(capsys):
    code, out, err = run(capsys, "classify", "1,2,3")
    assert code == 1
    assert out == ""
    assert "expected 5" in err


def test_malformed_file_row(tmp_path, capsys):
    bad = tmp_path / "points.csv"
    bad.write_text("1,1,1,1,1\n1,bogus,3,4,5\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", "--in", str(bad))
    assert code == 1
    assert out == ""  # no partial output
    assert "line 2" in err and "field 2" in err


@pytest.mark.parametrize("suffix", [".JSON", ".Json"])
def test_json_file_suffix_is_case_insensitive(tmp_path, capsys, suffix):
    lower = tmp_path / "p.json"
    lower.write_text("[[1,2,3,4,5]]", encoding="utf-8")
    other = tmp_path / f"p{suffix}"
    other.write_text("[[1,2,3,4,5]]", encoding="utf-8")
    _, expected, _ = run(capsys, "classify", "--in", str(lower))
    code, out, err = run(capsys, "classify", "--in", str(other))
    assert code == 0, err
    assert out == expected and '"GENERIC"' in out


_BATCH = "".join(f"{i},1/2,-3,{i % 7},5/{i}\n" for i in range(1, 1000))


def _refused_without_output(tmp_path, capsys, argv) -> str:
    """stderr of ``argv``, checked to exit 1 with nothing written to stdout
    or to --out."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    out_path = tmp_path / "never-written"
    assert run(capsys, *argv, "--out", str(out_path))[0] == 1
    assert not out_path.exists()
    return err


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_malformed_last_line_of_a_long_file_writes_nothing(
        tmp_path, capsys, backend, output_format):
    path = tmp_path / "points.csv"
    path.write_text(_BATCH + "1,2,3,4,five\n", encoding="utf-8")
    err = _refused_without_output(tmp_path, capsys, (
        "classify", "--in", str(path), "--backend", backend,
        "--format", output_format))
    assert "line 1000, field 5" in err


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_non_finite_last_point_writes_nothing_and_names_it(
        tmp_path, capsys, command, output_format):
    # psi = 2ke - f^2 + 2py = 2 - inf + inf
    path = tmp_path / "points.csv"
    path.write_text(_BATCH + "1e200,1e200,1e200,1e-200,1e200\n",
                    encoding="utf-8")
    err = _refused_without_output(tmp_path, capsys, (
        command, "--in", str(path), "--backend", "float",
        "--format", output_format))
    assert f"{path}: line 1000: a computed value is not finite: nan" in err
    json_path = tmp_path / "points.json"
    json_path.write_text("[[1, 1, 1, 1, 1], [1e200, 1e200, 1e200, 1e-200, "
                         "1e200]]", encoding="utf-8")
    err = _refused_without_output(tmp_path, capsys, (
        command, "--in", str(json_path), "--backend", "float",
        "--format", output_format))
    assert f"{json_path}: entry 2: a computed value is not finite" in err
    err = _refused_without_output(tmp_path, capsys, (
        command, "--backend", "float", "--format", output_format,
        "1,1,1,1,1", "1e200,1e200,1e200,1e-200,1e200"))
    assert "point 2: a computed value is not finite" in err


def test_first_failing_point_is_the_one_reported(tmp_path, capsys):
    # points are read, labelled and rendered in order: a refusal at line 2
    # comes before a parse error at line 4, and the other way round
    path = tmp_path / "points.csv"
    path.write_text("1,1,1,1,1\n1e200,1e200,1e200,1e-200,1e200\n"
                    "1,1,1,1,1\nbogus,1,1,1,1\n", encoding="utf-8")
    argv = ("classify", "--in", str(path), "--backend", "float")
    err = _refused_without_output(tmp_path, capsys, argv)
    assert "line 2: a computed value is not finite" in err
    assert "bogus" not in err
    path.write_text("1,1,1,1,1\nbogus,1,1,1,1\n"
                    "1e200,1e200,1e200,1e-200,1e200\n", encoding="utf-8")
    err = _refused_without_output(tmp_path, capsys, argv)
    assert "line 2, field 1: cannot parse scalar 'bogus'" in err
    assert "not finite" not in err


def test_file_inputs_json_and_csv_agree(tmp_path, capsys):
    as_json = tmp_path / "points.json"
    as_json.write_text('[["1/2", 0, 1, 2, 3], [0, 0, 0, 0, 0]]',
                       encoding="utf-8")
    as_csv = tmp_path / "points.csv"
    as_csv.write_text("p,e,f,k,y\n1/2,0,1,2,3\n0,0,0,0,0\n", encoding="utf-8")
    _, from_json, _ = run(capsys, "classify", "--in", str(as_json))
    _, from_csv, _ = run(capsys, "classify", "--in", str(as_csv))
    assert from_json == from_csv


def test_csv_with_byte_order_mark(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    plain.write_text("p,e,f,k,y\n1,1,1,1,1\n", encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_text("p,e,f,k,y\n1,1,1,1,1\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    _, expected, _ = run(capsys, "classify", "--in", str(plain))
    code, out, err = run(capsys, "classify", "--in", str(marked))
    assert code == 0, err
    assert out == expected


@pytest.mark.parametrize("point", ["nan,1,1,1,1", "inf,1,1,1e-300,1",
                                   "1,-inf,1,1,1", "1e400,1,1,1,1",
                                   f"1,1,1,1,{10 ** 400}/3"])
def test_non_finite_float_point_is_input_error(capsys, point):
    code, out, err = run(capsys, "classify", "--backend", "float", point)
    assert code == 1
    assert out == ""
    assert "aristotle-orbits: error:" in err


@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_json_entry_is_input_error(tmp_path, capsys, backend,
                                              entry):
    path = tmp_path / "points.json"
    path.write_text(f"[[{entry}, 1, 1, 1, 1]]", encoding="utf-8")
    code, out, err = run(capsys, "classify", "--in", str(path),
                         "--backend", backend)
    assert code == 1
    assert out == ""
    assert "entry 1" in err


@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize("entry", ["true", "false", "null", "{}"])
def test_non_numeric_json_entry_is_input_error(tmp_path, capsys, backend,
                                               entry):
    # JSON booleans are not the numbers 1 and 0, and null or an object is
    # no scalar at all
    path = tmp_path / "points.json"
    path.write_text(f"[{entry}, 1, 1, 2, 3]", encoding="utf-8")
    code, out, err = run(capsys, "classify", "--in", str(path),
                         "--backend", backend)
    assert code == 1
    assert out == ""
    assert "entry 1" in err and "Traceback" not in err


OVERFLOWING_POINT = "1e200,1e200,1e200,1e200,1e200"  # psi is inf - inf
# p = p0 - k q0 t + y t^2/2, e = e0 + f0 x + k x^2/2 and the dual's
# p = p0 - f0 t + y t^2/2 overflow only at the range's end, 2e154 (a chart
# slope y/k or k/y cannot overflow: classify's zero test keeps it below
# 1/EPS_CLASS)
OVERFLOWING_SIMULATIONS = [
    ("--picture", "time", "--backend", "float", "--state", "1,1",
     "--k", "1", "--y", "1", "--range", "0:2e154", "--step", "1e154"),
    ("--picture", "space", "--backend", "float", "--state", "1,1",
     "--k", "1", "--y", "1", "--range", "0:2e154", "--step", "1e154",
     "--closed-form"),
    ("--picture", "time", "--backend", "float", "--dual",
     "--mu=1,1,1,1,1", "--range", "0:2e154", "--step", "1e154"),
]
NON_FINITE_RESULTS = [
    ("classify", "--backend", "float", OVERFLOWING_POINT),
    *(("simulate", *argv, "--format", output_format)
      for argv in OVERFLOWING_SIMULATIONS for output_format in ("json", "csv")),
    ("classify", "--backend", "float", "--format", "csv", OVERFLOWING_POINT),
    ("invariants", "--backend", "float", "--format", "csv", OVERFLOWING_POINT),
    ("invariants", "--backend", "float", OVERFLOWING_POINT),
]


# exact inputs whose float images lie beyond the double range: RK4 and its
# grid run on floats, so these are input errors, not adjudication failures
BEYOND_FLOAT = [
    ("--state=1,1", "--k=1e400", "--y=1", "--range", "0:1", "--step", "0.5"),
    ("--state=1,1", "--k=1", "--y=1", "--range", "0:1e400",
     "--step", "1e399"),
]


@pytest.mark.parametrize("argv", BEYOND_FLOAT)
def test_exact_input_beyond_the_float_range_is_input_error(capsys, argv):
    code, out, err = run(capsys, "simulate", "--picture", "time", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("aristotle-orbits: error: a value is beyond the "
                          "float range")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", NON_FINITE_RESULTS)
@pytest.mark.parametrize("to_file", [False, True])
def test_non_finite_result_is_input_error_not_json(tmp_path, capsys, argv,
                                                   to_file):
    # finite input whose computed values overflow to inf/nan: JSON has no
    # spelling for them, and CSV refuses them alike, so nothing is written
    out_path = tmp_path / "result.json"
    extra = ("--out", str(out_path)) if to_file else ()
    code, out, err = run(capsys, *argv, *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("aristotle-orbits: error: ")
    assert err.count("\n") == 1 and "not finite" in err
    assert not out_path.exists()


# RK4's stage sum is about 6|k q| (time) or 6|y tau| (space), so it
# overflows where every row of the closed form is finite
OVERFLOWING_STAGES = [
    ("--picture", "time", "--state=0.5,0", "--k=1.7976931348623157e308",
     "--y=1"),
    ("--picture", "space", "--state=1,0", "--k=1",
     "--y=1.7976931348623157e308"),
]


@pytest.mark.parametrize("argv", OVERFLOWING_STAGES, ids=["time", "space"])
@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_rk4_run_whose_stages_overflow_writes_nothing(capsys, argv,
                                                      output_format):
    code, out, err = run(capsys, "simulate", "--backend", "float", *argv,
                         "--range=0:1", "--step=1/2",
                         f"--format={output_format}")
    assert (code, out) == (1, "")
    assert err == ("aristotle-orbits: error: a computed value is not finite: "
                   "an RK4 stage reaches inf, over half the largest double\n")


# U = p v - k q^2/2 is about 8.75e307, but its product p v is 2e308
OVERFLOWING_PRODUCT = ("--picture", "time", "--backend", "float",
                       "--state=1.5e154,5e307", "--k=1", "--y=4",
                       "--range=0:0", "--step=1/2")


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_rk4_run_whose_invariant_product_overflows_writes_nothing(
        capsys, output_format):
    # RK4 evaluates its invariant in floats, so a product beyond the
    # doubles is refused before any row; the closed form's U is the exact
    # invariant rounded once, so it is written
    code, out, err = run(capsys, "simulate", *OVERFLOWING_PRODUCT,
                         f"--format={output_format}")
    assert (code, out) == (1, "")
    assert err == ("aristotle-orbits: error: a computed value is not finite: "
                   "the RK4 invariant's product p v reaches inf, over half "
                   "the largest double\n")
    code, out, err = run(capsys, "simulate", *OVERFLOWING_PRODUCT,
                         "--closed-form", f"--format={output_format}")
    assert code == 0, err
    if output_format == "json":
        (row,) = json.loads(out, parse_constant=_refuse)["rows"]
    else:
        (row,) = [line.split(",") for line in out.splitlines()[1:]]
    assert float(row[3]) == 8.749999999999998e+307
    assert float(row[3]) == float(Fraction(5e307) * 4
                                  - Fraction(1.5e154) ** 2 / 2)


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("argv", [
    ("--picture", "time", "--state", "1,1", "--k", "1e100", "--y", "1e100"),
    ("--picture", "time", "--state", "1,1", "--k", "1e100", "--y", "1e100",
     "--closed-form"),
    ("--picture", "space", "--state", "1,1", "--k", "1", "--y", "1",
     "--closed-form", "--f0", "1e308"),
    ("--picture", "time", "--dual", "--mu=1e150,1e150,1e150,1e-150,1e-150"),
    # f^2 and 2ke alone pass the largest double, but psi is -6.5e307
    ("--picture", "time", "--dual", "--mu=0,8e307,1.5e154,1,4"),
])
@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_huge_finite_simulation_is_written(capsys, argv, output_format):
    code, out, err = run(capsys, "simulate", "--backend", "float", *argv,
                         "--range", "0:1", "--step", "0.5",
                         "--format", output_format)
    assert code == 0, err
    if output_format == "json":
        rows = json.loads(out, parse_constant=_refuse)["rows"]
    else:
        rows = [line.split(",") for line in out.splitlines()[1:]]
    cells = [float(cell) for row in rows for cell in row]
    assert len(rows) == 3 and max(map(abs, cells)) >= 1e99
    assert all(map(math.isfinite, cells))


# huge and tiny finite floats, signed zeros, doubles and exact fractions
_coordinates = st.one_of(
    st.sampled_from(["0", "-0.0", "1e300", "-1e300", "1e-300", "-1e-300",
                     "1.7976931348623157e308", "5e-324"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.fractions(max_denominator=10**6).map(str),
)
_points = st.lists(st.lists(_coordinates, min_size=5, max_size=5).map(
    ",".join), min_size=1, max_size=4)


@given(_points, st.sampled_from(["rational", "float"]),
       st.sampled_from(["classify", "invariants"]))
@settings(max_examples=150, deadline=None)
def test_point_json_is_strict_or_refused(points, backend, command):
    # every JSON the point commands write is RFC 8259 and matches its
    # schema; a result JSON cannot spell is exit 1 with nothing written
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([command, "--backend", backend, "--", *points])
    if code == 1:
        event("refused")
        assert stdout.getvalue() == ""
        assert "not finite" in stderr.getvalue()
        return
    assert code == 0, stderr.getvalue()
    payload = json.loads(stdout.getvalue(), parse_constant=_refuse)
    validate(f"{command}.schema.json", payload)
    assert len(payload["points"]) == len(points)


_simulate_modes = st.sampled_from(["rk4", "closed-form", "off-orbit", "dual"])


@given(_simulate_modes, st.sampled_from(["time", "space"]),
       st.sampled_from(["rational", "float"]),
       st.lists(_coordinates, min_size=5, max_size=5),
       st.lists(_coordinates, min_size=2, max_size=2))
@settings(max_examples=150, deadline=None)
def test_simulate_json_is_strict_or_refused(mode, picture, backend, values,
                                            ends):
    # every trajectory JSON is RFC 8259 and matches its schema, over huge,
    # tiny and signed-zero states, orbits and ranges; a refused input (a
    # value JSON cannot spell, a chart that does not exist, a grid that
    # does not advance) is exit 1 with nothing written.  Each grid has at
    # most five rows.
    start, stop = sorted(ends, key=Fraction)
    step = (Fraction(stop) - Fraction(start)) / 4 or 1
    if mode == "dual":
        inputs = ["--dual", "--mu=" + ",".join(values)]
    else:
        inputs = [f"--state={values[0]},{values[1]}", f"--k={values[2]}",
                  f"--y={values[3]}"]
        if mode != "rk4":
            inputs.append("--closed-form")
        if mode == "off-orbit" and picture == "space":
            inputs.append(f"--f0={values[4]}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["simulate", "--picture", picture, "--backend", backend,
                     *inputs, f"--range={start}:{stop}", f"--step={step}",
                     "--format", "json"])
    if code == 1:
        event("refused")
        assert stdout.getvalue() == ""
        assert stderr.getvalue().startswith("aristotle-orbits: error: ")
        return
    assert code == 0, stderr.getvalue()
    payload = json.loads(stdout.getvalue(), parse_constant=_refuse)
    validate("trajectory.schema.json", payload)
    assert 1 <= len(payload["rows"]) <= 5


@pytest.mark.parametrize("command", ["classify", "invariants"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_tol_must_be_finite_and_non_negative(capsys, command, tol):
    # a NaN tolerance would make every zero nonzero and divide by zero, and
    # an infinite one would make every point a fixed point
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--backend", "float", f"--tol={tol}",
              "1,1,1,1e-300,1"])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --tol: " in captured.err
    assert "not a finite number >= 0" in captured.err


def test_tol_zero_is_accepted(capsys):
    code, out, err = run(capsys, "classify", "--backend", "float",
                         "--tol", "0", "1,1,1,1e-300,0")
    assert code == 0, err
    assert json.loads(out)["points"][0]["class"] == "HOOKE_ONLY"


def test_missing_input_is_usage_error(capsys):
    code, out, err = run(capsys, "classify")
    assert code == 1
    assert "no input points" in err


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "0,1,0,2,0")
    assert code == 0
    payload = json.loads(out)
    validate("invariants.schema.json", payload)
    inv = payload["points"][0]["invariants"]
    assert inv["v"] == "0"
    assert "s" not in inv and "pi" not in inv


# ------------------------------------------------------------- simulate

def test_simulate_closed_form_golden(capsys):
    code, out, _ = run(capsys, "simulate", "--picture", "time",
                       "--state", "0,0", "--k", "1", "--y", "1",
                       "--range", "0:2", "--step", "0.5", "--closed-form")
    assert code == 0
    assert out == golden("simulate.csv")
    lines = out.rstrip("\r\n").split("\r\n")
    assert lines[0] == "t,q,p,U,drift"
    assert len(lines) == 6  # header + 5 samples
    assert lines[-1] == "2,-2,2,0,0"


@pytest.mark.parametrize("name, argv", [
    ("simulate.json", ("--picture", "time", "--state", "0,0", "--k", "1",
                       "--y", "1", "--range", "0:2", "--step", "0.5",
                       "--closed-form")),
    ("simulate-rk4.json", ("--picture", "space", "--backend", "float",
                           "--state", "0.25,-1.75", "--k", "1.5",
                           "--y", "-1.25", "--range", "0:1",
                           "--step", "0.125")),
])
def test_simulate_json_goldens(capsys, name, argv):
    code, out, err = run(capsys, "simulate", *argv, "--format", "json")
    assert code == 0, err
    assert out == golden(name)


def test_simulate_integrator_tracks_closed_form(capsys):
    code, out, _ = run(capsys, "simulate", "--picture", "time",
                       "--state", "0,0", "--k", "1", "--y", "1",
                       "--range", "0:2", "--step", "0.001")
    assert code == 0
    last = out.rstrip("\r\n").split("\r\n")[-1].split(",")
    assert abs(float(last[1]) - (-2.0)) <= 1e-10
    assert abs(float(last[2]) - 2.0) <= 1e-10
    assert float(last[4]) <= 1e-8


def test_simulate_json_schema(capsys):
    code, out, _ = run(capsys, "simulate", "--picture", "space",
                       "--state", "1,0", "--k", "2", "--y", "1",
                       "--range", "0:1", "--step", "0.25",
                       "--closed-form", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("trajectory.schema.json", payload)
    assert payload["picture"] == "space"
    assert payload["columns"] == ["x", "tau", "e", "pi", "drift"]
    assert payload["invariant"] == "pi"


def test_simulate_chart_undefined_guides_to_dual(capsys):
    code, out, err = run(capsys, "simulate", "--picture", "time",
                         "--state", "0,0", "--k", "0", "--y", "1",
                         "--range", "0:1", "--closed-form")
    assert code == 1
    assert out == ""
    assert "--dual" in err


# labels classify calls zero on floats: |k| (time) or |y| (space) is at
# most EPS_CLASS * max(1, |k|, |y|)
CHARTLESS_FLOAT_LABELS = [
    ("--picture", "time", "--k", "1e-300", "--y", "1"),
    ("--picture", "space", "--k", "1", "--y", "1e-300"),
    ("--picture", "time", "--k", "1e-170", "--y", "1e170"),
    ("--picture", "space", "--k", "1e170", "--y", "1e-170"),
]


@pytest.mark.parametrize("argv", CHARTLESS_FLOAT_LABELS)
@pytest.mark.parametrize("method", [(), ("--closed-form",)])
def test_float_chart_needs_a_label_classify_calls_nonzero(capsys, argv,
                                                          method):
    code, out, err = run(capsys, "simulate", "--backend", "float", *argv,
                         *method, "--state", "1,1", "--range", "0:1",
                         "--step", "0.5")
    assert code == 1
    assert out == ""
    assert "--dual" in err


def test_simulate_dual_succeeds_where_chart_fails(capsys):
    code, out, _ = run(capsys, "simulate", "--picture", "time",
                       "--dual", "--mu", "1,2,3,0,1",
                       "--range", "0:1", "--step", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("trajectory.schema.json", payload)
    assert payload["picture"] == "dual-time"
    assert payload["columns"] == ["t", "p", "e", "f", "psi", "drift"]
    assert all(row[-1] == "0" for row in payload["rows"])


def test_simulate_dual_requires_mu(capsys):
    code, _, err = run(capsys, "simulate", "--picture", "time", "--dual",
                       "--range", "0:1")
    assert code == 1
    assert "--mu" in err


def test_simulate_f0_misuse(capsys):
    code, _, err = run(capsys, "simulate", "--picture", "time",
                       "--state", "0,0", "--k", "1", "--y", "1",
                       "--f0", "2", "--range", "0:1", "--closed-form")
    assert code == 1
    assert "--f0" in err


@pytest.mark.parametrize("bounds", ["0:inf", "-inf:0", "nan:1"])
def test_simulate_non_finite_range_is_input_error(capsys, bounds):
    code, out, err = run(capsys, "simulate", "--picture", "time",
                         "--state", "0,0", "--k", "1", "--y", "1",
                         f"--range={bounds}", "--backend", "float")
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("--state=nan,1", "--k=1", "--y=1"),
    ("--state=1,1", "--k=inf", "--y=1"),
    ("--dual", "--mu=1,1,1,inf,1"),
    ("--dual", "--mu=1,nan,1,1,1"),
])
def test_simulate_non_finite_input_is_input_error(capsys, argv):
    code, out, err = run(capsys, "simulate", "--picture", "time",
                         "--backend", "float", "--range", "0:1",
                         "--step", "0.5", *argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("backend", ("rational", "float"))
@pytest.mark.parametrize("flag, value", [
    ("--k", "inf"), ("--y", "nan"), ("--step", "abc"), ("--f0", "x"),
])
def test_simulate_scalar_flag_errors_name_the_flag(capsys, backend, flag,
                                                   value):
    argv = {"--k": "1", "--y": "1", "--step": "0.5", "--f0": "1"}
    argv[flag] = value
    code, out, err = run(capsys, "simulate", "--picture", "space",
                         "--closed-form", "--backend", backend,
                         "--state=1,1", "--range", "0:1",
                         *(f"{name}={text}" for name, text in argv.items()))
    assert code == 1
    assert out == ""
    assert err.startswith(
        f"aristotle-orbits: error: {flag}: cannot parse scalar {value!r}")


def test_simulate_non_quadratic_rows_fail_before_output(capsys, monkeypatch):
    # a cubic invariant cannot be tabulated by second differences
    chart_model = dynamics._chart_model
    monkeypatch.setattr(dynamics, "_chart_model", lambda *args: (
        chart_model(*args)[0], lambda a, b: a * a * a))
    code, out, err = run(capsys, "simulate", "--picture", "time",
                         "--closed-form", "--state=1,1", "--k=1", "--y=1",
                         "--range", "0:2", "--step", "0.25")
    assert code == 2
    assert out == ""
    assert "not quadratic" in err


NON_ADVANCING = ("simulate", "--picture", "time", "--backend", "float",
                 "--state=1,1", "--k=1", "--y=1",
                 "--range", "1e16:10000000000000004", "--step", "1")


@pytest.mark.parametrize("mode", [(), ("--closed-form",), ("--format", "json")])
def test_simulate_non_advancing_grid_is_input_error(tmp_path, capsys, mode):
    out_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, *NON_ADVANCING, *mode)
    assert code == 1
    assert out == ""
    assert err.startswith("aristotle-orbits: error:")
    assert "strictly increasing" in err
    code, _, _ = run(capsys, *NON_ADVANCING, *mode, "--out", str(out_path))
    assert code == 1
    assert not out_path.exists()


# inputs refused before any row by a check that RK4 and the float closed
# form share: a value beyond the double range (on the float backend, when
# it is parsed), a range no float grid spans, a grid that does not
# advance, and a row that is not finite (p, or e, overflows at the
# range's end, whose offset from the start is 2e154)
SHARED_FLOAT_REFUSALS = [
    ("--state=1,1", "--k=1e400", "--y=1", "--range=0:1", "--step=0.5"),
    ("--state=0,1", "--k=1", "--y=1e-320", "--range=-1e308:1e308",
     "--step=1e307"),
    ("--state=1,1", "--k=1", "--y=1", "--range", "1e16:10000000000000004",
     "--step", "1"),
    ("--state=1,1", "--k=1", "--y=1", "--range=-1e154:1e154",
     "--step=1e154"),
]


@pytest.mark.parametrize("picture", ("time", "space"))
@pytest.mark.parametrize("argv", SHARED_FLOAT_REFUSALS)
def test_rk4_and_float_closed_form_refuse_alike(capsys, picture, argv):
    rk4 = ("simulate", "--picture", picture, "--backend", "float", *argv)
    code, out, err = run(capsys, *rk4)
    assert (code, out) == (1, "")
    assert err.startswith("aristotle-orbits: error: ")
    assert err.count("\n") == 1
    assert run(capsys, *rk4, "--closed-form") == (code, out, err)


@pytest.mark.parametrize("argv", [
    # the range is wider than the largest float; every row is finite
    ("--backend", "float", "--state=0,1", "--k=1", "--y=1e-320",
     "--range=-1e308:1e308", "--step=1e307"),
    # a valid exact step that rounds to 0.0 for the float integrator
    ("--state=1,1", "--k=1", "--y=1", "--range=0:1", "--step=1e-400"),
    # a step so small that the number of steps overflows a float
    ("--state=1,1", "--k=1", "--y=1", "--range=0:1", "--step=1e-320"),
])
def test_simulate_without_a_float_grid_is_input_error(capsys, argv):
    code, out, err = run(capsys, "simulate", "--picture", "time", *argv)
    assert code == 1
    assert out == ""
    assert "no float grid spans" in err


def _fresh_interpreter(*argv, **kwargs):
    """Run ``python *argv`` in a new process that imports this package."""
    src = str(Path(aristotle_orbits.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60,
                          **kwargs)


@pytest.mark.parametrize("argv", [
    ("classify", "--backend", "float", "nan,1,1,1,1"),
    NON_ADVANCING,
])
def test_input_checks_survive_optimized_mode(argv):
    # validation must not rely on ``assert``, which ``python -O`` strips
    result = _fresh_interpreter("-O", "-m", "aristotle_orbits", *argv)
    assert result.returncode == 1, result.stderr
    assert result.stdout == b""
    assert b"aristotle-orbits: error:" in result.stderr


def test_huge_exponent_is_refused_at_once():
    # an exact 1e999999999 would be a billion digits; the parser refuses it
    # before building it
    began = time.monotonic()
    result = _fresh_interpreter("-m", "aristotle_orbits", "classify",
                                "1e999999999,0,0,0,0")
    assert time.monotonic() - began < 10
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr.decode() == (
        "aristotle-orbits: error: point 1, field 1: cannot parse scalar "
        "'1e999999999': exponent beyond ±10000\n")


# an integer of 2200 digits is accepted; psi's numerator, about 4400
# digits, is beyond Python's default int-to-text limit of 4300
HUGE = "7" * 2200


def _unlimited_fraction(text: str) -> Fraction:
    """Fraction(text) with Python's int-from-text digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command, output_format", [
    ("classify", "json"), ("classify", "csv"), ("invariants", "csv")])
def test_huge_exact_point_prints_exactly(capsys, command, output_format):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, command, ",".join([HUGE] * 5),
                         "--format", output_format)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # restored after the run
    if output_format == "json":
        psi = json.loads(out)["points"][0]["invariants"]["psi"]
    else:
        psi = next(csv.DictReader(io.StringIO(out)))["psi"]
    b = Fraction(int(HUGE))
    assert _unlimited_fraction(psi) == 2 * b * b - b * b + 2 * b * b


def test_huge_exact_closed_form_prints_exactly(capsys):
    q0, k = HUGE + "1", HUGE
    code, out, err = run(capsys, "simulate", "--picture", "time",
                         "--closed-form", f"--state={q0},1", f"--k={k}",
                         "--y=1", "--range", "0:1", "--step", "1/2")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["t"] for row in rows] == ["0", "1/2", "1"]
    # p(t) = p0 - k q0 t + y t^2 / 2
    expected = 1 - Fraction(int(k)) * int(q0) + Fraction(1, 2)
    assert _unlimited_fraction(rows[-1]["p"]) == expected


def test_huge_exact_point_in_a_fresh_interpreter():
    result = _fresh_interpreter("-m", "aristotle_orbits", "classify",
                                ",".join([HUGE] * 5))
    assert (result.returncode, result.stderr) == (0, b"")
    assert json.loads(result.stdout)["points"][0]["class"] == "GENERIC"


@pytest.mark.parametrize("field", ["1" * 5000, "1" * 4301 + "/3",
                                   "x" * 5000, "0." + "1" * 5000],
                         ids=["digits", "numerator", "letters", "decimal"])
def test_overlong_field_is_one_bounded_error_line(capsys, field):
    code, out, err = run(capsys, "classify", f"{field},0,0,0,0")
    assert (code, out) == (1, "")
    assert err.count("aristotle-orbits: error:") == 1
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith("aristotle-orbits: error: point 1, field 1: "
                          "cannot parse scalar ")
    assert f"... ({len(field)} characters)" in err


def test_overlong_json_integer_is_one_bounded_error_line(tmp_path, capsys,
                                                         monkeypatch):
    # JSON integers are read as text, under the same digit bound; the path
    # is relative, so the line's length does not depend on tmp_path's
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.json").write_text(f"[[{'9' * 5000}, 0, 0, 0, 0]]",
                                          encoding="utf-8")
    code, out, err = run(capsys, "classify", "--in", "points.json")
    assert (code, out) == (1, "")
    assert err == (f"aristotle-orbits: error: points.json: entry 1: cannot "
                   f"parse scalar '{'9' * 24}'... (5000 characters): an "
                   f"integer of more than 4300 digits\n")


def test_json_integers_parse_as_before(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text('[[1, -2, "3/4", 0.5, 7]]', encoding="utf-8")
    for backend, value in (("rational", "-2"), ("float", -2.0)):
        code, out, _ = run(capsys, "classify", "--in", str(path),
                           "--backend", backend)
        assert code == 0
        assert json.loads(out)["points"][0]["input"][1] == value


def test_float_grid_of_too_many_points_is_refused_at_once(capsys, deadline):
    # 1e300 points cannot strictly increase (float(i) repeats past 2**53):
    # refused before a point is scanned
    began = time.monotonic()
    code, out, err = run(capsys, "simulate", "--picture", "time", "--state",
                         "1,1", "--k", "1", "--y", "1", "--backend", "float",
                         "--range", "0:1", "--step", "1e-300")
    assert time.monotonic() - began < 1
    assert (code, out) == (1, "")
    assert err == ("aristotle-orbits: error: step 1e-300 does not advance "
                   "the float grid from 0.0 to 1.0; the trajectory parameter "
                   "must be strictly increasing\n")


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("argv", [
    ("classify", "1,1,1,1,1"),
    ("simulate", "--picture", "time", "--state=1,1", "--k=1", "--y=1"),
    ("verify", "--samples", "1"),
], ids=["classify", "simulate", "verify"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, argv, target):
    path = (tmp_path / "absent" / "out.txt" if target == "missing"
            else tmp_path)
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"aristotle-orbits: error: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_import_leaves_out_code_generating_modules():
    # dataclasses imports inspect, ast, dis and tokenize, and its decorator
    # execs fresh source on every start; csv is not needed for unquoted cells
    absent = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv")
    result = _fresh_interpreter(
        "-c", "import sys, aristotle_orbits.cli; "
        "print(' '.join(sorted(set(sys.argv[1:]) & set(sys.modules))))",
        *absent, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


# every simulate mode: (argv, the same trajectory built by the library)
_K, _Y = Fraction(3, 2), Fraction(-5, 4)
_EXACT = IntegratorConfig(step=Fraction(1, 8), start=Fraction(-1, 2),
                          stop=Fraction(2))
_FLOAT = IntegratorConfig(step=0.125, start=-0.5, stop=2.0)
_MU = (Fraction(1, 4), Fraction(-3, 4), Fraction(5, 4), _K, _Y)
_CHART = ("--k=3/2", "--y=-5/4", "--range=-1/2:2", "--step=1/8")
_DUAL = ("--mu=1/4,-3/4,5/4,3/2,-5/4", "--range=-1/2:2", "--step=1/8")
SIMULATE_MODES = []
for _picture in ("time", "space"):
    SIMULATE_MODES += [
        (("--picture", _picture, "--state=1/4,-7/4", *_CHART),
         lambda p=_picture: integrate(p, (0.25, -1.75), OrbitParams(1.5, -1.25),
                                      _FLOAT)),
        (("--picture", _picture, "--state=1/4,-7/4", *_CHART, "--closed-form"),
         lambda p=_picture: closed_form_trajectory(
             p, (Fraction(1, 4), Fraction(-7, 4)), OrbitParams(_K, _Y),
             _EXACT)),
        (("--picture", _picture, "--state=1/4,-7/4", *_CHART, "--closed-form",
          "--backend", "float"),
         lambda p=_picture: closed_form_trajectory(
             p, (0.25, -1.75), OrbitParams(1.5, -1.25), _FLOAT)),
        (("--picture", _picture, "--dual", *_DUAL),
         lambda p=_picture: dual_flow_trajectory(DualElement(*_MU), p,
                                                 _EXACT)),
        (("--picture", _picture, "--dual", *_DUAL, "--backend", "float"),
         lambda p=_picture: dual_flow_trajectory(
             DualElement(*(float(c) for c in _MU)), p, _FLOAT)),
    ]
SIMULATE_MODES.append(
    (("--picture", "space", "--state=1/4,-7/4", *_CHART, "--closed-form",
      "--f0=2/3"),
     lambda: closed_form_trajectory(
         "space", (Fraction(1, 4), Fraction(-7, 4)), OrbitParams(_K, _Y),
         _EXACT, f0=Fraction(2, 3))))
# off the orbit pi moves by 1e-12 x, under half its ulp: the rows share one
# float pi, but each drift is its own exact value rounded
SIMULATE_MODES.append(
    (("--picture", "space", "--state=0,1e6", "--k=1", "--y=1", "--f0=1e-12",
      "--range=0:1", "--step=1/4", "--closed-form", "--backend", "float"),
     lambda: closed_form_trajectory(
         "space", (0.0, 1e6), OrbitParams(1.0, 1.0),
         IntegratorConfig(step=0.25, start=0.0, stop=1.0), f0=1e-12)))


@pytest.mark.parametrize("argv, build", SIMULATE_MODES)
def test_streamed_csv_equals_formatted_rows(tmp_path, capsys, argv, build):
    trajectory = build()
    expected = "".join(",".join(cells) + "\r\n" for cells in (
        [trajectory.columns]
        + [[format_scalar(c) for c in row]
           for row in trajectory.row_factory()]))
    code, out, err = run(capsys, "simulate", *argv)
    assert code == 0, err
    assert out == expected
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "simulate", *argv, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_bytes() == expected.encode("utf-8")


def _trajectory_payload(trajectory) -> dict:
    # the whole document, built before any of it is written
    return {
        "picture": trajectory.picture,
        "columns": list(trajectory.columns),
        "invariant": trajectory.invariant_name,
        "method": trajectory.method,
        "params": {name: json_scalar(value)
                   for name, value in trajectory.params.items()},
        "rows": [[json_scalar(c) for c in row]
                 for row in trajectory.row_factory()],
    }


def _points_payload(backend: str, points, classified: bool) -> dict:
    entries = []
    for mu in points:
        entry = {"input": [json_scalar(c) for c in mu]}
        if classified:
            entry["class"] = classify(mu).value
            entry["orbit_dimension"] = orbit_dimension(mu)
        entry["invariants"] = {name: json_scalar(value) for name, value
                               in invariants(mu).as_dict().items()}
        entries.append(entry)
    return {"backend": backend, "points": entries}


def _assert_written(tmp_path, capsys, argv, expected: str):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("argv, build", SIMULATE_MODES)
def test_streamed_json_equals_dumped_payload(tmp_path, capsys, argv, build):
    expected = json.dumps(_trajectory_payload(build()), indent=2,
                          allow_nan=False) + "\n"
    _assert_written(tmp_path, capsys,
                    ("simulate", *argv, "--format", "json"), expected)


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_point_json_equals_dumped_payload(tmp_path, capsys, backend,
                                          command):
    points = [DualElement._make([parse_scalar(c, backend)
                                 for c in text.split(",")])
              for text in CSV_ORACLE_POINTS]
    payload = _points_payload(backend, points, command == "classify")
    expected = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    _assert_written(tmp_path, capsys,
                    (command, "--backend", backend, *CSV_ORACLE_POINTS),
                    expected)


# 20001 rows of RK4, exact closed form and exact dual flow
STREAMED_MODES = (
    ("--picture", "time", "--backend", "float", "--state=0.25,-1.75",
     "--k=1.5", "--y=-1.25"),
    ("--picture", "space", "--closed-form", "--state=1/4,-7/4",
     "--k=3/2", "--y=-5/4"),
    ("--picture", "time", "--dual", "--mu=1/4,-3/4,5/4,3/2,-5/4"),
)


def _streamed_peak(out_path, mode, output_format) -> int:
    argv = ("simulate", *mode, "--range", "0:2", "--step", "0.0001",
            "--format", output_format, "--out", str(out_path))
    tracemalloc.start()
    try:
        code = main(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_streamed_csv_memory_stays_below_its_size(tmp_path, capsys):
    # streaming must not hold the rows, nor their text
    for mode in STREAMED_MODES:
        out_path = tmp_path / "rows.csv"
        peak = _streamed_peak(out_path, mode, "csv")
        size = out_path.stat().st_size
        assert out_path.read_bytes().count(b"\r\n") == 1 + 20001
        assert peak < size, (mode, peak, size)


def test_streamed_json_memory_stays_below_its_size(tmp_path, capsys):
    for mode in STREAMED_MODES:
        out_path = tmp_path / "rows.json"
        peak = _streamed_peak(out_path, mode, "json")
        size = out_path.stat().st_size
        rows = json.loads(out_path.read_bytes(), parse_constant=_refuse)
        assert len(rows["rows"]) == 20001
        assert peak < size, (mode, peak, size)


@pytest.mark.parametrize("mode", [
    ("--picture", "space", "--closed-form", "--state=1/4,-7/4", "--k=3/2",
     "--y=-5/4"),
    ("--picture", "space", "--closed-form", "--state=1/4,-7/4", "--k=3/2",
     "--y=-5/4", "--f0=2/3"),
    ("--picture", "time", "--dual", "--mu=1/4,-3/4,5/4,3/2,-5/4"),
], ids=["closed-form", "off-orbit", "dual"])
def test_exact_csv_builds_no_fraction_per_row(tmp_path, capsys, monkeypatch,
                                              mode):
    # exact cells are read off integer numerators: the Fractions built
    # (parsing, the column coefficients, the row at stop) do not grow with
    # rows
    calls = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    counts = {}
    for rows, step in ((101, "1/100"), (5001, "1/5000")):
        calls.clear()
        out_path = tmp_path / f"rows-{rows}.csv"
        code = main(["simulate", *mode, "--range", "0:1", "--step", step,
                     "--out", str(out_path)])
        assert code == 0
        assert out_path.read_bytes().count(b"\r\n") == 1 + rows
        counts[rows] = len(calls)
    assert counts[101] == counts[5001], counts


def test_simulate_bad_range(capsys):
    assert usage_error(capsys, "simulate", "--picture", "time",
                       "--state", "0,0", "--k", "1", "--y", "1",
                       "--range", "5") == (
        "aristotle-orbits simulate: error: argument --range: expected A:B, "
        "got '5'")


# ------------------------------------------------- verify and mutation

def test_verify_passes_and_validates(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "20",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("verify.schema.json", payload)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 12


@pytest.mark.parametrize("fmt, name", [("text", "verify.txt"),
                                       ("json", "verify.json")])
def test_verify_matches_golden(capsys, fmt, name):
    code, out, err = run(capsys, "verify", "--samples", "50", "--seed", "0",
                         "--format", fmt)
    assert code == 0, err
    assert out == golden(name)


def test_verify_mutation_exits_2(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "10",
                       "--mutate", "Eq2.4", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    validate("verify.schema.json", payload)
    assert len(payload["checks"]) == 12
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["jacobi"]["passed"] is False


@pytest.mark.parametrize("command", ["verify", "derive-law"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_usage_error(capsys, command, samples):
    assert usage_error(capsys, command, "--samples", samples) == (
        f"aristotle-orbits {command}: error: argument --samples: "
        f"{samples!r}: not an integer from 1 to 100000")


@pytest.mark.parametrize("command", ["verify", "derive-law"])
def test_samples_above_the_bound_is_usage_error(capsys, command):
    # derive-law's cost is linear in its samples, so a count is bounded;
    # verify parses the flag by the same rule
    assert cli.MAX_SAMPLES == 100_000
    assert cli._samples("100000") == 100_000
    assert usage_error(capsys, command, "--samples", "100001") == (
        f"aristotle-orbits {command}: error: argument --samples: "
        f"'100001': not an integer from 1 to 100000")


def test_verify_mutation_fails_the_group_law_proof(capsys):
    code, out, err = run(capsys, "verify", "--samples", "20",
                         "--mutate", "Eq2.4")
    assert code == 2, err
    failed = [line.split(":")[0] for line in out.splitlines()
              if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] jacobi", "[FAIL] nilpotency",
                      "[FAIL] associativity"]


def test_verify_arithmetic_error_is_a_failed_check(capsys, monkeypatch):
    def breaks_down(g, h, tensor):
        raise ArithmeticError("peeling exp(x*P) left a P component")

    monkeypatch.setattr(verify_module, "compose_bch", breaks_down)
    code, out, err = run(capsys, "verify", "--samples", "3")
    assert code == 2
    assert err == ""
    assert ("[FAIL] associativity: raised ArithmeticError: peeling exp(x*P) "
            "left a P component\n") in out
    assert out.count("[PASS]") == 11
    assert out.endswith("FAILURES PRESENT\n")


def test_verify_unknown_mutation_is_usage_error(capsys):
    assert usage_error(capsys, "verify", "--mutate", "Eq9.9") == (
        "aristotle-orbits verify: error: argument --mutate: invalid choice: "
        "'Eq9.9' (choose from 'Eq2.4')")


def test_verify_rejects_float_backend(capsys):
    assert usage_error(capsys, "verify", "--backend", "float") == (
        "aristotle-orbits verify: error: argument --backend: invalid choice: "
        "'float' (choose from 'rational')")


# --------------------------------------------------------------- errata

def test_errata_goldens(capsys):
    code, out, _ = run(capsys, "errata", "--format", "json")
    assert code == 0
    assert out == golden("errata.json")
    validate("errata.schema.json", json.loads(out))

    code, out, _ = run(capsys, "errata", "--format", "text")
    assert code == 0
    assert out == golden("errata.txt")


def test_errata_rejects_float_backend(capsys):
    assert usage_error(capsys, "errata", "--backend", "float") == (
        "aristotle-orbits errata: error: argument --backend: invalid choice: "
        "'float' (choose from 'rational')")


# ----------------------------------------------------------- derive-law

def test_derive_law_rejects_float_backend(capsys):
    assert usage_error(capsys, "derive-law", "--backend", "float") == (
        "aristotle-orbits derive-law: error: argument --backend: invalid "
        "choice: 'float' (choose from 'rational')")


def test_derive_law_json(capsys):
    code, out, _ = run(capsys, "derive-law", "--samples", "50",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("derive-law.schema.json", payload)
    assert payload["samples_verified"] == 50
    agrees = {c["coordinate"]: c["agrees"] for c in payload["coordinates"]}
    assert agrees == {"x''": True, "t''": True, "zeta''": True, "a''": True,
                      "b''": False}


def test_derive_law_text_flags_b(capsys):
    code, out, _ = run(capsys, "derive-law", "--samples", "20")
    assert code == 0
    assert "b''   [DISAGREES with printed form]" in out


@pytest.mark.parametrize("fmt, name", [("text", "derive-law.txt"),
                                       ("json", "derive-law.json")])
def test_derive_law_matches_golden(capsys, fmt, name):
    code, out, err = run(capsys, "derive-law", "--samples", "50",
                         "--seed", "0", "--format", fmt)
    assert code == 0, err
    assert out == golden(name)


# ------------------------------------------------- determinism and misc

def test_seed_and_samples_are_accepted_and_ignored(capsys):
    # every check and finding is a proof on indeterminates
    assert run(capsys, "verify", "--seed", "1", "--samples", "3") == \
        run(capsys, "verify", "--seed", "2")
    assert run(capsys, "errata", "--seed", "1") == run(capsys, "errata")


def test_seeded_outputs_are_byte_identical(capsys):
    first = run(capsys, "errata", "--seed", "3", "--format", "json")
    second = run(capsys, "errata", "--seed", "3", "--format", "json")
    assert first == second
    first = run(capsys, "verify", "--samples", "15", "--seed", "9",
                "--format", "json")
    second = run(capsys, "verify", "--samples", "15", "--seed", "9",
                 "--format", "json")
    assert first == second


def test_out_flag_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "errata", "--format", "json",
                     "--out", str(out_path))
    assert code == 0
    _, stdout, _ = run(capsys, "errata", "--format", "json")
    assert out_path.read_text(encoding="utf-8") == stdout


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["classify", "1,1,1,1,1", "--frobnicate"])
    assert excinfo.value.code == 1
