"""Tests of the benchmark itself: inputs, output checks, spans, wrappers.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from aristotle_orbits import cli  # noqa: E402


def run_cli(argv) -> str:
    code, stdout = measure._call_main(cli, argv)
    assert code == 0
    return stdout.decode("utf-8")


def small_spec(seed: int = 4) -> inputs.SimulateSpec:
    return dataclasses.replace(
        inputs.simulate_spec(seed), rk4_stop=1, rk4_step=Fraction(1, 100),
        exact_stop=1, exact_step=Fraction(1, 50))


# ---------------------------------------------------------------- inputs

def test_inputs_are_deterministic_per_seed(tmp_path):
    def argvs(name, seed):
        build = workloads.WORKLOADS[name].build
        return [leg.argv for leg in build(seed, tmp_path)]

    for name in workloads.WORKLOADS:
        assert argvs(name, 7) == argvs(name, 7)
    assert argvs("simulate-long", 7) != argvs("simulate-long", 8)
    assert argvs("audit", 7) != argvs("audit", 8)
    # classify-batch sees its seed only through the point file
    assert inputs.points_csv(inputs.classify_points(7)) \
        == inputs.points_csv(inputs.classify_points(7))
    assert inputs.classify_points(7) != inputs.classify_points(8)


def test_classify_batch_has_fixed_class_mix():
    counts = {}
    for name, _mu in inputs.classify_points(3):
        counts[name] = counts.get(name, 0) + 1
    total = sum(weight for _name, weight in inputs.CLASS_MIX)
    assert counts == {name: inputs.POINTS * weight // total
                      for name, weight in inputs.CLASS_MIX}
    assert max(counts, key=counts.get) == "GENERIC"


def test_grid_length_matches_the_exact_grid():
    assert inputs.grid_length(20, Fraction(1, 1000)) == 20001
    assert inputs.grid_length(1, Fraction(1, 3)) == 4
    assert inputs.grid_length(1, Fraction(2, 5)) == 4


# ---------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def classify_outputs(tmp_path_factory):
    points = inputs.classify_points(5, count=40)
    legs = workloads.classify_legs(points, tmp_path_factory.mktemp("pts"))
    return points, [run_cli(leg.argv) for leg in legs]


def test_classify_json_check_rejects_corruption(classify_outputs):
    points, (text, _csv) = classify_outputs
    checks.check_classify_json(text, points)

    data = json.loads(text)
    entry = data["points"][3]
    entry["class"] = "FIXED_POINT" if entry["class"] != "FIXED_POINT" \
        else "GENERIC"
    with pytest.raises(checks.CheckFailed, match="class"):
        checks.check_classify_json(json.dumps(data), points)

    data = json.loads(text)
    data["points"][5]["invariants"]["psi"] += "1"
    with pytest.raises(checks.CheckFailed, match="psi"):
        checks.check_classify_json(json.dumps(data), points)

    nan = text.replace('"orbit_dimension": 2', '"orbit_dimension": NaN', 1)
    assert nan != text
    with pytest.raises(checks.CheckFailed, match="NaN"):
        checks.check_classify_json(nan, points)
    with pytest.raises(checks.CheckFailed, match="Infinity"):
        checks.strict_json('{"a": -Infinity}')


def _corrupt_cell(text: str, row: int, column: int) -> str:
    lines = text.split("\r\n")
    cells = lines[row].split(",")
    cells[column] = str(float(cells[column]) + 0.5) if "." in cells[column] \
        else str(Fraction(cells[column]) + Fraction(1, 7))
    lines[row] = ",".join(cells)
    return "\r\n".join(lines)


def _drop_row(text: str, row: int) -> str:
    lines = text.split("\r\n")
    return "\r\n".join(lines[:row] + lines[row + 1:])


def test_classify_csv_check_rejects_corruption(classify_outputs):
    points, (_json, text) = classify_outputs
    checks.check_classify_csv(text, points)
    with pytest.raises(checks.CheckFailed, match="psi"):
        checks.check_classify_csv(_corrupt_cell(text, 7, 7), points)
    with pytest.raises(checks.CheckFailed, match="input echo"):
        checks.check_classify_csv(_corrupt_cell(text, 2, 0), points)
    with pytest.raises(checks.CheckFailed):
        checks.check_classify_csv(_drop_row(text, 9), points)
    flipped = text.replace("HOOKE_ONLY", "YANK_ONLY", 1)
    with pytest.raises(checks.CheckFailed, match="class"):
        checks.check_classify_csv(flipped, points)


@pytest.mark.parametrize("leg_index", [0, 1, 2])
def test_simulate_checks_reject_corruption(leg_index):
    spec = small_spec()
    leg = workloads.simulate_legs(spec)[leg_index]
    text = run_cli(leg.argv)
    leg.check(text)
    assert len(text.split("\r\n")) - 2 == leg.items
    with pytest.raises(checks.CheckFailed):
        leg.check(_corrupt_cell(text, 20, 2))
    with pytest.raises(checks.CheckFailed, match="rows"):
        leg.check(_drop_row(text, 20))
    with pytest.raises(checks.CheckFailed, match="rows"):
        leg.check(_drop_row(text, leg.items))


def test_rk4_check_rejects_drift_over_tolerance():
    spec = small_spec()
    text = run_cli(workloads.simulate_legs(spec)[0].argv)
    lines = text.split("\r\n")
    cells = lines[30].split(",")
    cells[4] = "2e-08"
    lines[30] = ",".join(cells)
    with pytest.raises(checks.CheckFailed, match="drift"):
        checks.check_rk4("\r\n".join(lines), spec)


def test_audit_checks_reject_failures():
    text = run_cli(["verify", "--samples", "3"])
    checks.check_verify(text)
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(text.replace("[PASS] jacobi", "[FAIL] jacobi"))
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(text.replace("all checks passed", ""))
    errata = run_cli(["errata"])
    checks.check_errata(errata)
    with pytest.raises(checks.CheckFailed):
        checks.check_errata(errata.replace("[CONFIRMS] ", "", 1))
    law = run_cli(["derive-law", "--samples", "5"])
    checks.check_derive_law(law, samples=5)
    with pytest.raises(checks.CheckFailed):
        checks.check_derive_law(law, samples=6)


# ----------------------------------------------------------------- spans

def test_self_time_subtracts_covered_child_time():
    # root [0, 10] with children [1, 4] and [5, 9]; [2, 3] inside [1, 4]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == 10 - 5 - 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(999) == 90.0
    assert tracing.tail_percentile(100_000) == 99.99
    ordered = list(range(1, 101))
    assert tracing.nearest_rank(ordered, 50) == 50
    assert tracing.nearest_rank(ordered, 90) == 90


def _package_state() -> dict:
    state = {}
    for module in tracing._package_modules():
        for attr, value in vars(module).items():
            state[(module.__name__, attr)] = value
            if callable(value) and getattr(value, "__defaults__", None):
                state[(module.__name__, attr, "defaults")] = value.__defaults__
    return state


def test_installer_wraps_every_binding_and_restores_all(tmp_path):
    from aristotle_orbits import derive_law, lie_core, orbits, verify
    before = _package_state()
    recorder = tracing.Recorder()
    with tracing.installed(recorder) as patched:
        assert cli.classify is orbits.classify is not before[
            ("aristotle_orbits.orbits", "classify")]
        assert verify.compose is lie_core.compose
        assert derive_law.reconstruct_law.__wrapped__.__defaults__[0] \
            is lie_core.compose
        for invocation, argv in enumerate((
                ["derive-law", "--samples", "2"], ["verify", "--samples", "2"],
                ["classify", "1,2,3,4,5", "0,0,1,0,0"])):
            recorder.current_invocation = invocation
            run_cli(argv)
    assert len(patched) > len(tracing.FUNCTIONS)
    assert _package_state() == before
    for key, value in before.items():
        module = sys.modules[key[0]]
        current = getattr(module, key[1])
        assert (current.__defaults__ if len(key) == 3 else current) is value

    metrics = tracing.layer_metrics(recorder, {})
    names = {name for name, _unit, _better in tracing.per_layer_spec()}
    assert names - {"cli.cold_start_s", "cli.output_bytes",
                    "trace.overhead"} == set(metrics)
    # reconstruct_law's default-argument compose calls are counted too
    assert metrics["lie_core.compose.calls"] > 2 + 2 * 4
    assert metrics["cli.main.calls"] == 3
    classify_id = recorder.names.index("orbits.classify")
    assert [i for n, i in zip(recorder.name, recorder.invocation)
            if n == classify_id].count(2) == 2
    assert metrics["verify.associativity.s"] > 0
    assert metrics["dynamics.integrate.calls"] == 4


# ------------------------------------------------------ harness and config

def test_benchmark_json_matches_the_harness():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(
        workloads.WORKLOADS)
    for entry in config["end_to_end"]:
        assert measure.END_TO_END[entry["name"]] == (entry["unit"],
                                                     entry["better"])
        assert 0 < entry["bound"] <= 0.25
    assert [(m["name"], m["unit"], m["better"])
            for m in config["per_layer"]] == tracing.per_layer_spec()


def test_compare_marks_metrics_against_bounds():
    def metric(value, spread=0.0, better="lower"):
        return {"value": value, "q1": value * (1 - spread / 2),
                "q3": value * (1 + spread / 2), "better": better}
    assert compare.verdict(metric(1.0), metric(1.05), 0.1) == "unchanged"
    assert compare.verdict(metric(1.0), metric(1.2), 0.1) == "worse"
    assert compare.verdict(metric(1.0), metric(0.8), 0.1) == "improved"
    assert compare.verdict(metric(1.0, better="higher"),
                           metric(0.8, better="higher"), 0.1) == "worse"
    assert compare.verdict(metric(1.0, 0.3), metric(1.2), 0.1) == "unresolved"
    assert compare.verdict(metric(0.0), metric(0.01), 0.1) == "worse"


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    ballast = bytearray(100 * 1024 * 1024)
    for offset in range(0, len(ballast), 4096):
        ballast[offset] = 1
    with measure.Invocations(ROOT) as runs:
        child = runs.run_child("warm-up", measure.WARM_UP)
    assert child.code == 0 and runs.failed == 0
    assert child.rss_mib < 60
    del ballast
