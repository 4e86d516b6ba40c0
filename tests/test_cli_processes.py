"""The CLI's one process: a trajectory's bytes whatever its chunks,
classify's and invariants' points rendered in input order, verify's
float RK4 runs in the suite's own process, no fork by any command, the
console script's exit without interpreter teardown, a reader that closes
standard output early, the modules a fresh interpreter imports, and
bounded usage errors.

Every wait is bounded: subprocesses by a timeout, in-process runs by the
``deadline`` fixture's timer.
"""

import functools
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import aristotle_orbits
from aristotle_orbits import backend, cli, dynamics, verify
from aristotle_orbits.cli import CHUNK_TEXTS, main

TIMEOUT_S = 60
LINUX = sys.platform.startswith("linux")

# float trajectories: RK4 on both pictures and both backends, and the
# float closed form and dual flow
_CHART = ("--state=1/4,-7/4", "--k=3/2", "--y=-5/4")
FLOAT_MODES = {
    **{f"rk4-{picture}-{backend}": ("--picture", picture, *_CHART,
                                    "--backend", backend)
       for picture in ("time", "space") for backend in ("rational", "float")},
    "closed-form-float": ("--picture", "space", *_CHART, "--closed-form",
                          "--backend", "float"),
    "dual-float": ("--picture", "time", "--dual",
                   "--mu=1/4,-3/4,5/4,3/2,-5/4", "--backend", "float"),
}
# exact trajectories, whose cells are tabulated by differences: the closed
# form on and off the orbit, and the dual flow
EXACT_MODES = {
    "closed-form": ("--picture", "space", *_CHART, "--closed-form"),
    "off-orbit": ("--picture", "space", *_CHART, "--closed-form",
                  "--f0=2/3"),
    "dual": ("--picture", "time", "--dual", "--mu=1/4,-3/4,5/4,3/2,-5/4"),
}
MODES = {**FLOAT_MODES, **EXACT_MODES}
# one chunk short, one chunk, one row into the second, two chunks and a
# row, eight chunks and a row
BOUNDARY_ROWS = (255, 256, 257, 513, 2049)
LONG_RK4 = ("simulate", "--picture", "time", "--backend", "float",
            "--state=0.25,-1.75", "--k=1.5", "--y=-1.25", "--range", "0:30",
            "--step", "0.001")


def _grid(rows: int) -> tuple:
    """--range and --step of a grid of ``rows`` points, step 1/64."""
    return ("--range", f"0:{rows - 1}/64", "--step", "1/64")


def _run(capsys, argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cpus(monkeypatch, count: int):
    """Report ``count`` CPUs to this process, as a host with them would."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda _pid: set(range(count)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _one_chunk_and_many(tmp_path, capsys, monkeypatch, argv) -> str:
    """What ``argv`` writes in chunks of CHUNK_TEXTS rows, checked to be
    the bytes it writes in one chunk, to standard output and to --out."""
    written = []
    for size in (CHUNK_TEXTS, None):
        monkeypatch.setattr(cli, "CHUNK_TEXTS", size)
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        out_path = tmp_path / f"{size}.out"
        assert _run(capsys, (*argv, "--out", str(out_path))) == (0, "", "")
        assert out_path.read_bytes() == out.encode("utf-8")
        written.append(out)
    assert written[0] == written[1]
    return written[0]


# ----------------------------------------------------------- byte identity

@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("mode", MODES.values(), ids=MODES.keys())
def test_one_chunk_writes_the_bytes_of_many(tmp_path, capsys, monkeypatch,
                                            deadline, forks, mode,
                                            output_format, rows):
    argv = ("simulate", *mode, *_grid(rows), "--format", output_format)
    out = _one_chunk_and_many(tmp_path, capsys, monkeypatch, argv)
    rows_written = (out.count("\r\n") - 1 if output_format == "csv"
                    else out.count("\n    ]"))
    assert rows_written == rows
    assert forks == []


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("mode", MODES.values(), ids=MODES.keys())
def test_stop_off_the_step_grid_ends_the_last_chunk(
        tmp_path, capsys, monkeypatch, deadline, forks, mode, output_format):
    # 301 rows on the grid, then the stop: row 301, in the second chunk
    argv = ("simulate", *mode, "--range", "0:601/128", "--step", "1/64",
            "--format", output_format)
    out = _one_chunk_and_many(tmp_path, capsys, monkeypatch, argv)
    if output_format == "csv":
        lines = out.split("\r\n")
        assert len(lines) == 1 + 302 + 1
        assert lines[-2].split(",")[0] in ("601/128", repr(601 / 128))
    else:
        rows = json.loads(out)["rows"]
        assert len(rows) == 302 and rows[-1][0] in ("601/128", 601 / 128)
    assert forks == []


@pytest.mark.parametrize("rows", (256, 257, 2049))
@pytest.mark.parametrize("mode", MODES.values(), ids=MODES.keys())
def test_cells_stream_once_in_chunks_of_chunk_texts(capsys, monkeypatch,
                                                   deadline, forks, mode,
                                                   rows):
    # one stream of cells from row 0, cut into chunks of CHUNK_TEXTS rows
    # by the chunker of every trajectory, exact and float alike
    entered, sizes = [], []
    real = dynamics._drawn_chunks

    def watched(factory, size):
        def counted():
            entered.append(size)
            return factory()
        for chunk in real(counted, size):
            sizes.append(len(chunk))
            yield chunk

    monkeypatch.setattr(dynamics, "_drawn_chunks", watched)
    code, out, err = _run(capsys, ("simulate", *mode, *_grid(rows)))
    assert (code, err) == (0, "") and out.count("\r\n") == 1 + rows
    assert entered == [CHUNK_TEXTS]
    assert sizes == [CHUNK_TEXTS] * (rows // CHUNK_TEXTS) + (
        [rows % CHUNK_TEXTS] if rows % CHUNK_TEXTS else [])
    assert forks == []


ZERO_INVARIANT = ("simulate", "--picture", "time", "--state", "0,0", "--k",
                  "1", "--y", "-1", "--backend", "float")
# argv, and the trajectory it writes, built directly
PLAIN_CASES = {
    "zero-invariant": (ZERO_INVARIANT, lambda config: dynamics.integrate(
        "time", (0.0, 0.0), dynamics.OrbitParams(1.0, -1.0), config)),
    "zero-closed-form": ((*ZERO_INVARIANT, "--closed-form"),
                         lambda config: dynamics.closed_form_trajectory(
                             "time", (0.0, 0.0),
                             dynamics.OrbitParams(1.0, -1.0), config)),
    "rk4": (LONG_RK4[:-4], lambda config: dynamics.integrate(
        "time", (0.25, -1.75), dynamics.OrbitParams(1.5, -1.25), config)),
}


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("argv, build", PLAIN_CASES.values(),
                         ids=PLAIN_CASES.keys())
def test_float_rows_are_the_plain_row_template(capsys, deadline, forks, argv,
                                               build, output_format):
    # a conserved tail is rendered once per invariant value in a chunk;
    # RK4's invariant -0.0 (first row) and 0.0 (second) print differently,
    # and the closed form's is the exact 0, rounded: 0.0 in every row
    argv = (*argv, "--range", "0:10", "--format", output_format)
    trajectory = build(dynamics.IntegratorConfig(step=0.001, start=0.0,
                                                 stop=10.0))
    rows = list(trajectory.row_factory())
    if argv == (*ZERO_INVARIANT, "--closed-form", *argv[-4:]):
        assert {repr(row[-2]) for row in rows} == {"0.0"}
    elif argv[:len(ZERO_INVARIANT)] == ZERO_INVARIANT:
        assert [repr(row[-2]) for row in rows[:2]] == ["-0.0", "0.0"]
    else:
        assert len({row[-2] for row in rows}) < len(rows) / 2  # repeats
    if output_format == "csv":
        template = cli._csv_line(["%s"] * len(trajectory.columns))
        plain = cli._csv_line(trajectory.columns) + "".join(
            template % row for row in rows)
    else:
        plain = json.dumps(
            {"picture": trajectory.picture,
             "columns": list(trajectory.columns),
             "invariant": trajectory.invariant_name,
             "method": trajectory.method,
             "params": trajectory.params,
             "rows": [list(row) for row in rows]}, indent=2) + "\n"
    assert _run(capsys, argv) == (0, plain, "")
    assert forks == []


@pytest.mark.parametrize("chunk", [
    [(0.0, 1.0, 2.0, -0.0, 0.0), (0.5, 1.0, 2.0, 0.0, 0.0),
     (1.0, 1.0, 2.0, -0.0, 0.0), (1.5, 3.0, 2.5, 0.25, 0.25),
     (2.0, 3.0, 2.5, 0.25, 0.25), (2.5, 1e300, -2e-300, 0.25, 0.25),
     (3.0, 1.0, 2.0, -0.25, 0.25), (3.5, 1.0, 2.0, 0.0, 0.0)],
    [(0.0, 0.1, 0.2, 0.30000000000000004, 0.0)],
    [("0", "1/2", "-3", "7/4", "0"), ("1/8", "5/8", "-3", "7/4", "0"),
     ("1/4", "3/4", "-3", "-1/4", "2"), ("3/8", "7/8", "-3", "7/4", "0")],
], ids=["signed-zeros", "one-row", "exact"])
@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_chunk_renderer_is_the_row_template(chunk, output_format):
    if output_format == "csv":
        template, texts, separator = cli._csv_line(["%s"] * 5), tuple, ""
    else:
        template = cli._item_template(["%s"] * 5)
        separator = ",\n    "

        def texts(cells):
            return tuple(map(backend.json_text, cells))
    render = cli._chunk_renderer(template, texts, separator)
    assert render(chunk) == separator.join(template % texts(row)
                                           for row in chunk)


# ------------------------------------------------------------- lifecycle

class _FailingStdout(io.StringIO):
    """A standard output whose second write fails, as a closed pipe's does."""

    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
def test_lifecycle_success_leaves_no_child_and_no_fd(capsys, deadline,
                                                     forks):
    before = _open_fds()
    code, out, _ = _run(capsys, ("simulate", *FLOAT_MODES["rk4-time-float"],
                                 *_grid(2049), "--format", "json"))
    assert code == 0 and forks == []
    _no_child_left()
    assert _open_fds() == before


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
@pytest.mark.parametrize("mode", ["rk4-space-float", "closed-form"])
def test_lifecycle_write_error_leaves_no_child_and_no_fd(deadline, forks,
                                                         mode):
    before = _open_fds()
    with redirect_stdout(_FailingStdout()), pytest.raises(BrokenPipeError):
        main(["simulate", *MODES[mode], *_grid(2049)])
    assert forks == []
    _no_child_left()
    assert _open_fds() == before


# ------------------------------------------- classify's and invariants' points

# one point, a point past 64, and many
POINT_COUNTS = (1, 65, 1000)


def _point(index: int) -> list:
    """The coordinates of a point, as texts; every class turns up, and
    exact zeros."""
    return [f"{index % 13 - 6}/{index % 5 + 1}", f"{3 * index - 500}/7",
            "0" if index % 3 == 0 else f"{index % 11 - 5}/3",
            "0" if index % 4 == 0 else f"-{index % 9 + 1}/2",
            "0" if index % 5 == 0 else f"{index % 7 + 1}/4"]


def _point_input(tmp_path, kind: str, points: list,
                 name: str = "points") -> tuple:
    """argv that gives ``points`` (texts of 5 fields) inline, as a CSV file
    or as a JSON file named ``name``."""
    if kind == "inline":
        return tuple(map(",".join, points))
    if kind == "csv":
        path = tmp_path / f"{name}.csv"
        lines = ["p,e,f,k,y", *map(",".join, points)]
        lines.insert(2, "")  # a blank line is skipped, and counted
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(points), encoding="utf-8")
    return "--in", str(path)


@pytest.mark.parametrize("count", POINT_COUNTS)
@pytest.mark.parametrize("kind", ["inline", "csv", "json"])
@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_points_write_the_bytes_of_their_parts(
        tmp_path, capsys, deadline, forks, command, output_format, backend,
        kind, count):
    # each point's item or line is its own: the points written at once are
    # those of the first part and the rest, written apart
    points = list(map(_point, range(count)))
    cut = count // 2

    def written(part: list, name: str) -> str:
        argv = (command, *_point_input(tmp_path, kind, part, name),
                "--backend", backend, "--format", output_format)
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        out_path = tmp_path / f"{name}.out"
        assert _run(capsys, (*argv, "--out", str(out_path))) == (0, "", "")
        assert out_path.read_bytes() == out.encode("utf-8")
        return out

    whole = written(points, "whole")
    parts = [written(part, name) for part, name in (
        (points[:cut], "head"), (points[cut:], "tail")) if part]
    if output_format == "csv":
        header = whole.split("\r\n", 1)[0] + "\r\n"
        assert whole == header + "".join(part[len(header):]
                                         for part in parts)
        assert whole.count("\r\n") - 1 == count
    else:
        items = json.loads(whole)["points"]
        assert items == [item for part in parts
                         for item in json.loads(part)["points"]]
        assert len(items) == count
    assert forks == []


_PARSE_ERROR = "1,2,3,4,bogus"
_NOT_FINITE = "1e200,1e200,1e200,1e-200,1e200"  # psi = 2 - inf + inf


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
@pytest.mark.parametrize("later", [73, 129, 194],
                         ids=["near", "farther", "far"])
@pytest.mark.parametrize("kind", ["inline", "csv", "json"])
@pytest.mark.parametrize("bad, message", [
    (_PARSE_ERROR, ", field 5: cannot parse scalar 'bogus'"),
    (_NOT_FINITE, ": a computed value is not finite: nan"),
], ids=["parse-error", "not-finite"])
def test_first_error_in_input_order_is_the_one_reported(
        tmp_path, capsys, deadline, forks, bad, message, kind, later):
    # the first failing point is the 68th of 256; a later one fails too
    first = 67
    points = list(map(_point, range(256)))
    points[first] = bad.split(",")
    points[later] = _PARSE_ERROR.split(",")
    if kind == "json" and bad == _NOT_FINITE:
        points[first] = [1e200, 1e200, 1e200, 1e-200, 1e200]
    argv = ("classify", *_point_input(tmp_path, kind, points), "--backend",
            "float")
    where = {"inline": f"point {first + 1}",
             "csv": f"{tmp_path / 'points.csv'}: line {first + 3}",
             "json": f"{tmp_path / 'points.json'}: entry {first + 1}"}[kind]
    if kind == "json" and bad == _PARSE_ERROR:
        message = ": cannot parse scalar 'bogus'"  # an entry has no fields
    expected = f"aristotle-orbits: error: {where}{message}"
    before = _open_fds()
    out_path = tmp_path / "never-written"
    for out in ((), ("--out", str(out_path))):
        code, stdout, err = _run(capsys, (*argv, *out))
        assert (code, stdout) == (1, "")
        assert err.startswith(expected) and err.count("\n") == 1
    assert not out_path.exists()
    assert forks == []
    _no_child_left()
    assert _open_fds() == before


@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_a_wrapped_classify_sees_every_point(tmp_path, capsys, monkeypatch,
                                             deadline, command):
    # a tracer wraps classify and counts its calls: one per point
    argv = (command, *_point_input(tmp_path, "json",
                                   list(map(_point, range(1000)))))
    whole = _run(capsys, argv)
    calls = []

    @functools.wraps(cli.classify)
    def counted(*args, **kwargs):
        calls.append(args)
        return counted.__wrapped__(*args, **kwargs)

    monkeypatch.setattr(cli, "classify", counted)
    assert _run(capsys, argv) == whole
    assert len(calls) == (1000 if command == "classify" else 0)


# ------------------------------------------------- verify's float runs

def _wrapped(checks):
    """``checks`` with each function wrapped, as a tracer wraps them."""
    def wrap(func):
        return lambda tensor: func(tensor)
    return tuple((name, wrap(func)) for name, func in checks)


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
def test_verify_lifecycle_leaves_no_child_and_no_fd(monkeypatch, deadline,
                                                    forks):
    before = _open_fds()
    checks = verify.CHECKS
    whole = verify.run_suite()
    # checks replaced by wrappers, as the benchmark's tracer does
    monkeypatch.setattr(verify, "CHECKS", _wrapped(checks))
    assert verify.run_suite() == whole
    monkeypatch.setattr(verify, "CHECKS", checks)
    # integrate wrapped as the tracer wraps it: it sees all four runs
    real = verify.integrate
    runs = []

    @functools.wraps(real)
    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "integrate", counted)
    assert verify.run_suite() == whole
    assert len(runs) == len(verify.FLOAT_RUNS) == 4
    # checks without the integrator's: no run
    monkeypatch.setattr(verify, "CHECKS", checks[:-1])
    assert verify.run_suite()["checks"] == whole["checks"][:-1]
    monkeypatch.setattr(verify, "CHECKS", checks)
    # the RK4-step proof fails, so no float run is made
    monkeypatch.setattr(verify, "_rk4_step", lambda _rhs, state, _h: state)
    report = verify.run_suite()
    assert report["checks"][-1]["passed"] is False
    assert "one RK4 step of time_rhs = time_closed_form fails" in \
        report["checks"][-1]["detail"]
    assert len(runs) == 4
    # a check raises, and the suite with it
    monkeypatch.setattr(verify, "jacobi_residual", _raise_runtime_error)
    with pytest.raises(RuntimeError, match="a check broke"):
        verify.run_suite()
    assert forks == []
    _no_child_left()
    assert _open_fds() == before


@pytest.mark.parametrize("mutation", [(), ("--mutate", "Eq2.4")],
                         ids=["default", "mutated"])
@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("seed", ["0", "7"])
def test_verify_writes_the_same_bytes_on_one_cpu_and_two(
        capsys, monkeypatch, deadline, forks, seed, output_format, mutation):
    # the float runs are the suite's own on any host; a failed check is
    # exit 2, the only meaning that code keeps
    argv = ("verify", "--seed", seed, "--samples", "50", "--format",
            output_format, *mutation)
    written = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        written[cpus] = _run(capsys, argv)
    assert written[1] == written[2]
    assert written[1][0] == (2 if mutation else 0)
    assert written[1][2] == ""
    assert "integrator-tolerance" in written[1][1]
    assert forks == []
    _no_child_left()


def _raise_runtime_error(*_args):
    raise RuntimeError("a check broke")


# ------------------------------------------------------------- no fork

NO_FORK = {
    **{f"{command}-{backend}": (command, *map(",".join, map(
        _point, range(200))), "--backend", backend)
       for command in ("classify", "invariants")
       for backend in ("rational", "float")},
    **{f"simulate-{name}": ("simulate", *mode, *_grid(600))
       for name, mode in MODES.items()},
    "verify": ("verify",),
    "errata": ("errata",),
    "derive-law": ("derive-law", "--samples", "50"),
}


@pytest.mark.parametrize("argv", NO_FORK.values(), ids=NO_FORK.keys())
@pytest.mark.parametrize("cpus", [1, 2])
def test_nothing_forks(capsys, monkeypatch, deadline, forks, cpus, argv):
    # inputs of more than one chunk of 64 points or 256 rows, where a
    # second process once took a share when a second CPU was free
    _cpus(monkeypatch, cpus)
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "") and out
    assert forks == []
    _no_child_left()


def test_new_tests_pass_in_development_mode():
    # -X dev turns on the warnings for files never closed; make them errors
    result = _fresh_interpreter(
        "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest", "-q",
        "-p", "no:cacheprovider", __file__, "-k",
        "lifecycle or closed_stdout or error_in_input_order "
        "or bytes_of_many and 2049 or off_the_step_grid or nothing_forks "
        "or plain_row_template or first_row_at_once or bounded_error_line "
        "or off_zero_is_refused_at_once",
        timeout=TIMEOUT_S * 4)
    assert result.returncode == 0, result.stdout[-3000:]
    assert b"passed" in result.stdout and b"Warning" not in result.stdout


# ------------------------------------------------------- the console script

def _environment() -> dict:
    """This environment, importing this package, with standard output
    buffered: an exit that skipped a flush would lose bytes."""
    src = str(Path(aristotle_orbits.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _fresh_interpreter(*argv, timeout=TIMEOUT_S, **kwargs):
    """Run ``python *argv`` in a new process that imports this package."""
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          env=_environment(), timeout=timeout, **kwargs)


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True], ids=["pipe", "out"])
def test_console_script_writes_the_bytes_of_main(tmp_path, capsys, deadline,
                                                 to_file, output_format):
    # 30001 RK4 rows, all flushed before the exit that skips teardown
    argv = (*LONG_RK4, "--format", output_format)
    code, expected, _ = _run(capsys, argv)
    assert code == 0 and expected.count("\n") > 30001
    out_path = tmp_path / "rows.out"
    argv = (*argv, "--out", str(out_path)) if to_file else argv
    result = _fresh_interpreter("-m", "aristotle_orbits", *argv)
    assert (result.returncode, result.stderr) == (0, b"")
    written = out_path.read_bytes() if to_file else result.stdout
    assert written == expected.encode("utf-8")


@pytest.mark.parametrize("argv, code", [
    (("classify", "1,2"), 1),
    (("classify", "--backend", "float", "1e200,1e200,1e200,1e200,1e200"), 1),
    (("simulate", "--picture", "time", "--state=1,1", "--k=0", "--y=1"), 1),
    (("verify", "--mutate", "Eq2.4"), 2),
    (("classify", "1,2,3,4,5"), 0),
    (("errata", "--format", "json"), 0),
], ids=["short-point", "non-finite", "no-chart", "mutated", "classify",
        "errata"])
def test_console_script_keeps_exit_codes_and_messages(capsys, deadline,
                                                      argv, code):
    expected = _run(capsys, argv)
    assert expected[0] == code
    result = _fresh_interpreter("-m", "aristotle_orbits", *argv)
    assert (result.returncode, result.stdout.decode(),
            result.stderr.decode()) == expected


def test_console_script_usage_error_is_exit_1():
    result = _fresh_interpreter("-m", "aristotle_orbits", "simulate")
    assert result.returncode == 1
    assert result.stderr.decode().endswith(
        "error: the following arguments are required: --picture\n")


@pytest.mark.parametrize("argv", [
    LONG_RK4,
    (*LONG_RK4, "--format", "json"),
    ("simulate", "--picture", "time", "--dual", "--mu=1/4,-3/4,5/4,3/2,-5/4",
     "--range", "0:30", "--step", "1/1000"),
], ids=["rk4-csv", "rk4-json", "exact-dual"])
def test_closed_stdout_is_a_quiet_exit_1_that_leaves_no_process(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "aristotle_orbits", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_environment(),
        start_new_session=True)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()  # the reader goes away, as ``| head -1`` does
        _, err = proc.communicate(timeout=TIMEOUT_S)
        assert (proc.returncode, err) == (1, b"")
        # the session holds the run and anything it started: none is left
        ends = time.monotonic() + TIMEOUT_S
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < ends, "a process of the run is left"
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(TIMEOUT_S)


FINE_GRID = ("simulate", "--picture", "time", "--state", "1,1", "--k", "1",
             "--y", "1", "--backend", "float", "--range", "0:1", "--step",
             "2e-16")


def test_fine_grid_from_zero_writes_its_first_row_at_once():
    # about 5e15 rows, proved to advance without a scan: the header and the
    # first row come at once, and a reader that closes early ends the run
    began = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "aristotle_orbits", *FINE_GRID],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_environment(),
        start_new_session=True)
    try:
        assert proc.stdout.readline() == b"t,q,p,U,drift\r\n"
        assert proc.stdout.readline() == b"0.0,1.0,1.0,0.5,0.0\r\n"
        assert time.monotonic() - began < 1
        proc.stdout.close()
        _, err = proc.communicate(timeout=TIMEOUT_S)
        assert (proc.returncode, err) == (1, b"")
        _no_session_left(proc.pid)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(TIMEOUT_S)


BAND_GRID = ("simulate", "--picture", "time", "--state", "1,1", "--k", "1",
             "--y", "1", "--backend", "float", "--range", "1:1.001",
             "--step", "2.221556272274938e-16")


def test_fine_grid_off_zero_is_refused_at_once():
    # about 4.5e12 points whose step neither bound decides: refused before
    # a point is scanned, naming the step that would prove the grid
    began = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "aristotle_orbits", *BAND_GRID],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_environment(),
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
        assert time.monotonic() - began < 1
        assert (proc.returncode, out) == (1, b"")
        assert err == (
            b"aristotle-orbits: error: step 2.221556272274938e-16 is too fine "
            b"to prove that the float grid from 1.0 to 1.001 advances: a grid "
            b"of more than 262144 points needs a step above "
            b"2.222614453595284e-16\n")
        _no_session_left(proc.pid)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(TIMEOUT_S)


def _no_session_left(pid: int):
    """Wait until no process of the session led by ``pid`` is left."""
    ends = time.monotonic() + TIMEOUT_S
    while True:
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < ends, "a process of the run is left"
        time.sleep(0.05)


# ------------------------------------------------------- json on demand

_MODULES_AFTER = """
import sys
assert "json" not in sys.modules
from aristotle_orbits.cli import main
imported = "json" in sys.modules
code = main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stdout.flush()
sys.stderr.write(f"{code} {imported} {'json' in sys.modules}")
"""


@pytest.mark.parametrize("argv, imports_json", [
    ((), False),
    (("verify",), False),
    (("errata",), False),
    (("derive-law", "--samples", "5"), False),
    (("simulate", *FLOAT_MODES["rk4-time-float"], *_grid(600)), False),
    (("simulate", *EXACT_MODES["dual"], *_grid(600)), False),
    (("classify", "1,2,3,4,5", "--format", "csv"), False),
    (("classify", "1,2,3,4,5"), True),
    (("simulate", *EXACT_MODES["dual"], "--format", "json"), True),
], ids=["import", "verify", "errata", "derive-law", "simulate-rk4",
        "simulate-exact", "classify-csv", "classify-json", "simulate-json"])
def test_json_is_imported_only_to_read_or_write_json(argv, imports_json):
    result = _fresh_interpreter("-S", "-c", _MODULES_AFTER, *argv)
    assert result.stderr.decode() == f"0 False {imports_json}"


# ------------------------------------------------- bounded usage errors

_NINES = "9" * 5000


@pytest.mark.parametrize("argv", [
    ("verify", "--seed", _NINES),
    ("classify", "1,1,1,1,1", "--tol", _NINES),
    ("simulate", "--picture", _NINES),
    ("simulate", "--picture", "'" + _NINES + '"'),
    ("classify", "1,1,1,1,1", f"--tol={_NINES}e9"),
], ids=["int", "tolerance", "choice", "quotes", "tolerance-inline"])
def test_usage_error_quotes_a_long_value_by_its_prefix(capsys, argv):
    # the usage is the one a short bad value gets; the error line quotes
    # the value by its first characters and its length
    usage, error = _usage_error(capsys, argv)
    short = [arg.replace(_NINES, "x") for arg in argv]
    assert usage == _usage_error(capsys, short)[0]
    assert usage.startswith(f"usage: aristotle-orbits {argv[0]} ")
    assert error.startswith(f"aristotle-orbits {argv[0]}: error: argument ")
    assert len(error) < 200 and " characters)" in error


@pytest.mark.parametrize("argv, expected", [
    (("verify", '"ab"'),
     'aristotle-orbits: error: unrecognized arguments: "ab"'),
    (("verify", r"'\x41'"),
     r"aristotle-orbits: error: unrecognized arguments: '\x41'"),
    (("verify", "'ab'", '"'),
     "aristotle-orbits: error: unrecognized arguments: 'ab' \""),
    (("simulate", "--picture", '"ab"'),
     """aristotle-orbits simulate: error: argument --picture: invalid """
     """choice: '"ab"' (choose from 'time', 'space')"""),
    (("classify", "1,1,1,1,1", "--tol", r"'\x41'"),
     "aristotle-orbits classify: error: argument --tol: invalid "
     "_tolerance value: " + repr(r"'\x41'")),
], ids=["raw-double", "raw-escape", "raw-apostrophes", "choice", "tolerance"])
def test_usage_error_keeps_a_short_value_as_typed(capsys, argv, expected):
    # a quoted span of the message that is no repr is the user's raw
    # token, kept as it was typed
    assert _usage_error(capsys, argv)[1] == expected


def _usage_error(capsys, argv) -> tuple:
    """(usage, error line) that ``main(argv)`` writes as it exits 1."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err[:-1].rsplit("\n", 1)
    assert "error:" not in usage
    return usage, error


_LONG_TOKENS = {
    "unrecognized": ("verify", _NINES),
    "in": ("classify", "--in", _NINES),
    "out": ("simulate", "--picture", "time", "--state", "1,1", "--k", "1",
            "--y", "1", "--out", "/nonexistent/" + _NINES),
    "in-inline": ("classify", f"--in={_NINES}"),
    "mutation": ("verify", "--mutate", _NINES),
    # --samples is echoed as typed, not as the integer it reads as
    "samples-leading-zero": ("verify", "--samples", "-0" + "9" * 4299),
    "samples-separators": ("derive-law", "--samples", "0" + "_0" * 100),
}


@pytest.mark.parametrize("argv", _LONG_TOKENS.values(), ids=_LONG_TOKENS)
def test_long_token_is_one_bounded_error_line(capsys, argv):
    # a path, an unrecognized argument or a value of over ECHO_CHARS
    # characters is echoed by its prefix and its length: exit 1 with one
    # error line of under 200 bytes, in process and from the console
    # script; a usage error's line names its subcommand
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error
        code = exc.code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if " error: " in line]
    assert (code, captured.out, len(errors)) == (1, "", 1)
    assert captured.err.endswith(errors[0] + "\n")
    assert errors[0].startswith(("aristotle-orbits: error: ",
                                 f"aristotle-orbits {argv[0]}: error: "))
    assert len(errors[0].encode("utf-8")) < 200
    long = argv[-1].partition("=")[2] or argv[-1]
    assert f"{long[:cli.ECHO_CHARS]!r}" not in errors[0]
    assert f"{long[:24]!r}... ({len(long)} characters)" in errors[0]
    result = _fresh_interpreter("-m", "aristotle_orbits", *argv)
    assert (result.returncode, result.stdout.decode(),
            result.stderr.decode()) == (code, captured.out, captured.err)


@pytest.mark.skipif(not LINUX, reason="the reasons are Linux's strerror")
def test_unreadable_in_names_its_path_once(tmp_path, capsys, monkeypatch):
    # the reason is the error's own, without the path it would repeat; a
    # file that is not UTF-8 is an input error too, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.d").mkdir()
    (tmp_path / "latin1.csv").write_bytes(b"1,2,3,4,\xe9\n")
    for path, reason in [
            ("absent.csv", "No such file or directory"),
            ("points.d", "Is a directory"),
            ("latin1.csv", "'utf-8' codec can't decode byte 0xe9 in "
                           "position 8: invalid continuation byte")]:
        assert _run(capsys, ("classify", "--in", path)) == (
            1, "", f"aristotle-orbits: error: cannot read {path}: {reason}\n")


@pytest.mark.parametrize("length", [cli.ECHO_CHARS, cli.ECHO_CHARS + 1])
@pytest.mark.parametrize("argv, line, typed", [
    (("verify",), "aristotle-orbits: error: unrecognized arguments: {}", str),
    (("verify", "--mutate"), "aristotle-orbits verify: error: argument "
     "--mutate: invalid choice: {} (choose from 'Eq2.4')", repr),
], ids=["raw", "repr"])
def test_a_token_is_echoed_whole_up_to_echo_chars(capsys, argv, line, typed,
                                                  length):
    # as typed or as its repr, a token of ECHO_CHARS characters is echoed
    # whole, and one of a character more by its first 24 and its length
    token = "9" * length
    shown = (f"'{'9' * 24}'... ({length} characters)"
             if length > cli.ECHO_CHARS else typed(token))
    assert _usage_error(capsys, (*argv, token))[1] == line.format(shown)


@pytest.mark.parametrize("argv, line", [
    (("simulate", "--picture", "9" * 100),
     "aristotle-orbits simulate: error: argument --picture: invalid choice: "
     "'{}'... (100 characters) (choose from 'time', 'space')".format(
         "9" * 24)),
    (("x" * 100,), "aristotle-orbits: error: argument command: invalid "
     "choice: '{}'... (100 characters) (choose from 'classify', "
     "'invariants', 'simulate', 'verify', 'errata', 'derive-law')".format(
         "x" * 24)),
    (("verify", "a" * 80, "b" * 60, "c" * 24), "aristotle-orbits: error: "
     "unrecognized arguments: '{}'... (80 characters) '{}'... (60 "
     "characters) {}".format("a" * 24, "b" * 24, "c" * 24)),
], ids=["choice", "subcommand", "unrecognized"])
def test_a_line_of_line_bytes_echoes_no_token_past_quote_chars(capsys, argv,
                                                               line):
    # a token of up to ECHO_CHARS that would take the line to LINE_BYTES,
    # alone or beside others, is echoed by its first 24 and its length
    error = _usage_error(capsys, argv)[1]
    assert error == line and len(error.encode("utf-8")) < cli.LINE_BYTES
