"""CLI contract: exit codes, schemas, goldens, byte determinism."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from aristotle_orbits.cli import main

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


def validate(schema_name: str, payload: dict):
    schema = json.loads((SCHEMAS / schema_name).read_text(encoding="utf-8"))
    Draft202012Validator.check_schema(schema)
    Draft202012Validator(schema).validate(payload)


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


def test_classify_golden(capsys):
    code, out, _ = run(capsys, "classify", "1,1,1,1,1", "0,1,0,2,0",
                       "1,2,3,0,2", "0,0,5,0,0", "3,0,0,0,0", "0,0,0,0,0")
    assert code == 0
    assert out == golden("classify.json")
    classes = [p["class"] for p in json.loads(out)["points"]]
    assert classes == ["GENERIC", "HOOKE_ONLY", "YANK_ONLY", "FORCE_ONLY",
                       "FIXED_POINT", "FIXED_POINT"]


def test_classify_csv_layout(capsys):
    code, out, _ = run(capsys, "classify", "1,1,1,1,1", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == ("p,e,f,k,y,class,dimension,"
                       "psi,v,s,q,tau,u,pi,f_invariant")
    assert lines[1] == "1,1,1,1,1,GENERIC,2,3,1,1,1,1,3/2,3/2,"


def test_classify_float_backend_schema(capsys):
    code, out, _ = run(capsys, "classify", "1,1,1,1,1", "--backend", "float")
    assert code == 0
    payload = json.loads(out)
    validate("classify.schema.json", payload)
    # float backend serializes as JSON numbers, not strings
    assert payload["points"][0]["invariants"]["u"] == 1.5


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


def test_simulate_bad_range(capsys):
    code, _, err = run(capsys, "simulate", "--picture", "time",
                       "--state", "0,0", "--k", "1", "--y", "1",
                       "--range", "5")
    assert code == 1
    assert "A:B" in err


# ------------------------------------------------- verify and mutation

def test_verify_passes_and_validates(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "20",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate("verify.schema.json", payload)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 12


def test_verify_mutation_exits_2(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "10",
                       "--mutate", "Eq2.4", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    validate("verify.schema.json", payload)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["jacobi"]["passed"] is False


@pytest.mark.parametrize("command", ["verify", "derive-law"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_usage_error(capsys, command, samples):
    code, out, err = run(capsys, command, "--samples", samples)
    assert code == 1
    assert out == ""
    assert "--samples" in err


def test_verify_unknown_mutation_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--mutate", "Eq9.9")
    assert code == 1
    assert "unknown mutation" in err


def test_verify_rejects_float_backend(capsys):
    code, _, err = run(capsys, "verify", "--backend", "float")
    assert code == 1
    assert "rational" in err


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
    code, _, err = run(capsys, "errata", "--backend", "float")
    assert code == 1
    assert "rational" in err


# ----------------------------------------------------------- derive-law

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


# ------------------------------------------------- determinism and misc

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
