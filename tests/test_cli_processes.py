"""The CLI's processes: float trajectory rows rendered by two processes,
classify's and invariants' point chunks labelled by two, verify's float
RK4 runs shared with a forked worker, the console script's exit without
interpreter teardown, and a reader that closes standard output early.

Every wait is bounded: subprocesses by a timeout, in-process runs by the
``deadline`` fixture's timer.
"""

import functools
import io
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

import aristotle_orbits
from aristotle_orbits import cli, verify, worker
from aristotle_orbits.cli import CHUNK_POINTS, CHUNK_TEXTS, main

TIMEOUT_S = 60
LINUX = sys.platform.startswith("linux")

# float trajectories, whose rows two processes render: RK4 on both
# pictures and both backends, and the float closed form and dual flow
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
# one chunk short, one chunk, one row into the second, two chunks and a
# row, eight chunks and a row
BOUNDARY_ROWS = (255, 256, 257, 513, 2049)
LONG_RK4 = ("simulate", "--picture", "time", "--backend", "float",
            "--state=0.25,-1.75", "--k=1.5", "--y=-1.25", "--range", "0:30",
            "--step", "0.001")


def _grid(rows: int) -> tuple:
    """--range and --step of a grid of ``rows`` points, step 1/64."""
    return ("--range", f"0:{rows - 1}/64", "--step", "1/64")


def _cpus(monkeypatch, count: int):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda _pid: set(range(count)), raising=False)


def _run(capsys, argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


# ----------------------------------------------------------- byte identity

@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("mode", FLOAT_MODES.values(), ids=FLOAT_MODES.keys())
def test_two_processes_write_the_bytes_of_one(tmp_path, capsys, monkeypatch,
                                              deadline, forks, mode,
                                              output_format, rows):
    argv = ("simulate", *mode, *_grid(rows), "--format", output_format)
    written = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        forks.clear()
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        out_path = tmp_path / f"{cpus}.out"
        assert _run(capsys, (*argv, "--out", str(out_path))) == (0, "", "")
        assert out_path.read_bytes() == out.encode("utf-8")
        written[cpus] = out
        # a worker only where there is a second chunk for it
        assert len(forks) == (2 if cpus == 2 and rows > CHUNK_TEXTS else 0)
    assert written[1] == written[2]
    rows_written = (written[1].count("\r\n") - 1 if output_format == "csv"
                    else written[1].count("\n    ]"))
    assert rows_written == rows
    _no_child_left()


@pytest.mark.parametrize("mode", [
    ("--picture", "space", *_CHART, "--closed-form"),
    ("--picture", "time", "--dual", "--mu=1/4,-3/4,5/4,3/2,-5/4"),
], ids=["closed-form", "dual"])
def test_exact_trajectories_stay_in_one_process(capsys, monkeypatch,
                                                deadline, forks, mode):
    # an exact trajectory's cost is its cells: a worker would repeat it
    _cpus(monkeypatch, 2)
    code, out, _ = _run(capsys, ("simulate", *mode, *_grid(2049)))
    assert code == 0 and out.count("\r\n") == 2050
    assert forks == []


def test_no_worker_beside_another_thread(capsys, monkeypatch, deadline,
                                         forks):
    # a fork copies only the calling thread
    _cpus(monkeypatch, 2)
    argv = ("simulate", *FLOAT_MODES["rk4-time-float"], *_grid(2049))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(TIMEOUT_S,))
    other.start()
    try:
        code, out, _ = _run(capsys, argv)
    finally:
        release.set()
        other.join(TIMEOUT_S)
    assert not other.is_alive()
    assert forks == []
    assert (code, out) == _run(capsys, argv)[:2]
    assert len(forks) == 1


# ------------------------------------------------------------- lifecycle

class _FailingStdout(io.StringIO):
    """A standard output whose second write fails, as a closed pipe's does."""

    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def _worker_dies(*_args):
    os._exit(3)


def _worker_dies_mid_frame(write_end, *_args):
    os.write(write_end, (1000).to_bytes(4, "little") + b"0.0,")
    os._exit(3)


_SERVE = worker._serve  # the worker's loop, before a test replaces it


def _dies_before_its_frame(_write_end, items, work, theirs):
    # the work of the first item it takes, and no frame
    work(next(item for index, item in enumerate(items) if theirs(index)))
    os._exit(3)


def _dies_mid_frame(write_end, items, work, theirs):
    # the whole frame of the first item it takes, then part of the next one
    _SERVE(os.dup(write_end), islice(items, 2), work, theirs)
    os.write(write_end, (25).to_bytes(4, "little") + b"\x00")
    os._exit(3)


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
def test_lifecycle_success_leaves_no_child_and_no_fd(capsys, monkeypatch,
                                                     deadline, forks):
    _cpus(monkeypatch, 2)
    before = _open_fds()
    code, out, _ = _run(capsys, ("simulate", *FLOAT_MODES["rk4-time-float"],
                                 *_grid(2049), "--format", "json"))
    assert code == 0 and len(forks) == 1
    _no_child_left()
    assert _open_fds() == before


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
def test_lifecycle_parent_write_error_leaves_no_child_and_no_fd(
        monkeypatch, deadline, forks):
    _cpus(monkeypatch, 2)
    before = _open_fds()
    with redirect_stdout(_FailingStdout()), pytest.raises(BrokenPipeError):
        main(["simulate", *FLOAT_MODES["rk4-time-float"], *_grid(2049)])
    assert len(forks) == 1
    _no_child_left()
    assert _open_fds() == before


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
@pytest.mark.parametrize("death", [_worker_dies, _worker_dies_mid_frame])
def test_lifecycle_dead_worker_is_exit_2_and_keeps_what_was_written(
        capsys, monkeypatch, deadline, forks, death):
    argv = ("simulate", *FLOAT_MODES["rk4-space-float"], *_grid(2049))
    _cpus(monkeypatch, 1)
    whole = _run(capsys, argv)[1]
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(worker, "_serve", death)
    before = _open_fds()
    code, out, err = _run(capsys, argv)
    assert code == 2 and len(forks) == 1
    assert err == ("aristotle-orbits: error: the rendering worker ended "
                   "before its last chunk\n")
    # the header and the first chunk, which this process rendered
    assert out.count("\r\n") == 1 + CHUNK_TEXTS
    assert whole.startswith(out)
    _no_child_left()
    assert _open_fds() == before


# ------------------------------------------- classify's and invariants' points

# one chunk, one chunk and a point, and many chunks
POINT_COUNTS = (CHUNK_POINTS, CHUNK_POINTS + 1, 1000)


def _point(index: int) -> list:
    """The coordinates of a point, as texts; every class turns up, and
    exact zeros."""
    return [f"{index % 13 - 6}/{index % 5 + 1}", f"{3 * index - 500}/7",
            "0" if index % 3 == 0 else f"{index % 11 - 5}/3",
            "0" if index % 4 == 0 else f"-{index % 9 + 1}/2",
            "0" if index % 5 == 0 else f"{index % 7 + 1}/4"]


def _point_input(tmp_path, kind: str, points: list) -> tuple:
    """argv that gives ``points`` (texts of 5 fields) inline, as a CSV file
    or as a JSON file."""
    if kind == "inline":
        return tuple(map(",".join, points))
    if kind == "csv":
        path = tmp_path / "points.csv"
        lines = ["p,e,f,k,y", *map(",".join, points)]
        lines.insert(2, "")  # a blank line is skipped, and counted
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points), encoding="utf-8")
    return "--in", str(path)


@pytest.mark.parametrize("count", POINT_COUNTS)
@pytest.mark.parametrize("kind", ["inline", "csv", "json"])
@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_point_chunks_on_two_processes_write_the_bytes_of_one(
        tmp_path, capsys, monkeypatch, deadline, forks, command,
        output_format, backend, kind, count):
    argv = (command, *_point_input(tmp_path, kind,
                                   list(map(_point, range(count)))),
            "--backend", backend, "--format", output_format)
    written = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        forks.clear()
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        out_path = tmp_path / f"{cpus}.out"
        assert _run(capsys, (*argv, "--out", str(out_path))) == (0, "", "")
        assert out_path.read_bytes() == out.encode("utf-8")
        written[cpus] = out
        # a worker only where there is a second chunk for it
        assert len(forks) == (2 if cpus == 2 and count > CHUNK_POINTS
                              else 0)
    assert written[1] == written[2]
    points_written = (written[1].count("\r\n") - 1 if output_format == "csv"
                      else len(json.loads(written[1])["points"]))
    assert points_written == count
    _no_child_left()


_PARSE_ERROR = "1,2,3,4,bogus"
_NOT_FINITE = "1e200,1e200,1e200,1e-200,1e200"  # psi = 2 - inf + inf


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
@pytest.mark.parametrize("later", [CHUNK_POINTS + 9, 2 * CHUNK_POINTS + 1,
                                   3 * CHUNK_POINTS + 2],
                         ids=["same-chunk", "next-chunk", "worker-chunk"])
@pytest.mark.parametrize("kind", ["inline", "csv", "json"])
@pytest.mark.parametrize("bad, message", [
    (_PARSE_ERROR, ", field 5: cannot parse scalar 'bogus'"),
    (_NOT_FINITE, ": a computed value is not finite: nan"),
], ids=["parse-error", "not-finite"])
def test_first_error_in_a_worker_chunk_is_the_one_reported(
        tmp_path, capsys, monkeypatch, deadline, forks, bad, message, kind,
        later):
    # the first failing point is in the worker's first chunk; a later one
    # fails too, in the same chunk, the next (this process's) or the
    # worker's next
    first = CHUNK_POINTS + 3
    points = list(map(_point, range(4 * CHUNK_POINTS)))
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
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        forks.clear()
        out_path = tmp_path / "never-written"
        for out in ((), ("--out", str(out_path))):
            code, stdout, err = _run(capsys, (*argv, *out))
            assert (code, stdout) == (1, "")
            assert err.startswith(expected) and err.count("\n") == 1
        assert not out_path.exists()
        assert len(forks) == 2 * (cpus - 1)
        _no_child_left()
    assert _open_fds() == before


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
@pytest.mark.parametrize("death", [_worker_dies, _dies_before_its_frame,
                                   _dies_mid_frame])
def test_dead_point_worker_is_exit_2_and_writes_nothing(
        tmp_path, capsys, monkeypatch, deadline, forks, death):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(worker, "_serve", death)
    argv = ("invariants", *_point_input(tmp_path, "csv",
                                        list(map(_point, range(1000)))))
    before = _open_fds()
    out_path = tmp_path / "points.out"
    for out in ((), ("--out", str(out_path))):
        code, stdout, err = _run(capsys, (*argv, *out))
        assert (code, stdout) == (2, "")
        assert err == ("aristotle-orbits: error: the rendering worker ended "
                       "before its last chunk\n")
    assert len(forks) == 2 and not out_path.exists()
    _no_child_left()
    assert _open_fds() == before


def test_points_stay_in_one_process_beside_another_thread(
        tmp_path, capsys, monkeypatch, deadline, forks):
    # a fork copies only the calling thread
    _cpus(monkeypatch, 2)
    argv = ("classify", *_point_input(tmp_path, "csv",
                                      list(map(_point, range(1000)))))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(TIMEOUT_S,))
    other.start()
    try:
        result = _run(capsys, argv)
    finally:
        release.set()
        other.join(TIMEOUT_S)
    assert not other.is_alive()
    assert forks == []
    assert result == _run(capsys, argv)
    assert len(forks) == 1
    _no_child_left()


@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_points_stay_in_one_process_when_classify_is_wrapped(
        tmp_path, capsys, monkeypatch, deadline, forks, command):
    # a tracer wraps classify and sees the calls of its own process only
    _cpus(monkeypatch, 2)
    argv = (command, *_point_input(tmp_path, "json",
                                   list(map(_point, range(1000)))))
    whole = _run(capsys, argv)
    assert len(forks) == 1
    calls = []

    @functools.wraps(cli.classify)
    def counted(*args, **kwargs):
        calls.append(args)
        return counted.__wrapped__(*args, **kwargs)

    monkeypatch.setattr(cli, "classify", counted)
    assert _run(capsys, argv) == whole
    assert len(forks) == 1
    assert len(calls) == (1000 if command == "classify" else 0)
    _no_child_left()


# ------------------------------------------------- verify's float runs

@pytest.mark.parametrize("mutation", [(), ("--mutate", "Eq2.4")],
                         ids=["default", "mutated"])
@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("seed", ["0", "7"])
def test_verify_with_a_worker_writes_the_bytes_of_one(
        capsys, monkeypatch, deadline, forks, seed, output_format, mutation):
    argv = ("verify", "--seed", seed, "--samples", "50", "--format",
            output_format, *mutation)
    written = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        forks.clear()
        written[cpus] = _run(capsys, argv)
        assert len(forks) == cpus - 1
        _no_child_left()
    assert written[1] == written[2]
    assert written[1][0] == (2 if mutation else 0)
    assert "integrator-tolerance" in written[1][1]


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
@pytest.mark.parametrize("death", [_dies_before_its_frame, _dies_mid_frame])
def test_dead_verify_worker_is_exit_2_and_writes_nothing(
        tmp_path, capsys, monkeypatch, deadline, forks, death):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(worker, "_serve", death)
    before = _open_fds()
    out_path = tmp_path / "report.txt"
    for out in ((), ("--out", str(out_path))):
        code, stdout, err = _run(capsys, ("verify", "--samples", "1", *out))
        assert (code, stdout) == (2, "")
        assert err == ("aristotle-orbits: error: the integrator worker "
                       "ended before its last run\n")
    assert len(forks) == 2 and not out_path.exists()
    _no_child_left()
    assert _open_fds() == before


def _wrapped(checks):
    """``checks`` with each function wrapped, as a tracer wraps them."""
    def wrap(func):
        return lambda ctx: func(ctx)
    return tuple((name, wrap(func)) for name, func in checks)


@pytest.mark.skipif(not LINUX, reason="counts /proc/self/fd")
def test_verify_lifecycle_leaves_no_child_and_no_fd(monkeypatch, deadline,
                                                    forks):
    _cpus(monkeypatch, 2)
    before = _open_fds()
    checks = verify.CHECKS
    whole = verify.run_suite(seed=7, samples=50)
    assert len(forks) == 1
    _no_child_left()
    # checks replaced by wrappers, as the benchmark's tracer does
    monkeypatch.setattr(verify, "CHECKS", _wrapped(verify.CHECKS))
    assert verify.run_suite(seed=7, samples=50) == whole
    assert len(forks) == 2
    _no_child_left()
    # integrate wrapped as the tracer wraps it: it sees all four runs, so
    # no worker takes one
    real = verify.integrate
    runs = []

    @functools.wraps(real)
    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "integrate", counted)
    assert verify.run_suite(seed=7, samples=50) == whole
    assert (len(runs), len(forks)) == (4, 2)
    monkeypatch.setattr(verify, "integrate", real)
    # checks without the integrator's: no worker
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:-1])
    assert verify.run_suite(seed=7, samples=50)["checks"] == \
        whole["checks"][:-1]
    assert len(forks) == 2
    _no_child_left()
    monkeypatch.setattr(verify, "CHECKS", checks)
    # the RK4-step proof fails, so no float run's result is read
    monkeypatch.setattr(verify, "_rk4_step", lambda _rhs, state, _h: state)
    report = verify.run_suite(seed=7, samples=50)
    assert report["checks"][-1]["passed"] is False
    assert "one RK4 step of time_rhs = time_closed_form fails" in \
        report["checks"][-1]["detail"]
    assert len(forks) == 3
    _no_child_left()
    # a check raises, and the suite with it
    monkeypatch.setattr(verify, "jacobi_residual", _raise_runtime_error)
    with pytest.raises(RuntimeError, match="a check broke"):
        verify.run_suite(seed=7, samples=50)
    assert len(forks) == 4
    _no_child_left()
    assert _open_fds() == before


def _raise_runtime_error(*_args):
    raise RuntimeError("a check broke")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="sets a child's CPU affinity")
@pytest.mark.parametrize("output_format", ["text", "json"])
def test_verify_on_one_cpu_writes_the_bytes_of_two(capsys, deadline,
                                                   output_format):
    argv = ("verify", "--seed", "7", "--samples", "50", "--format",
            output_format)
    one_cpu = min(os.sched_getaffinity(0))
    results = [_fresh_interpreter(
        "-m", "aristotle_orbits", *argv,
        preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu}))]
    results.append(_fresh_interpreter("-m", "aristotle_orbits", *argv))
    code, expected, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    for result in results:
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == expected.encode("utf-8")


def test_new_tests_pass_in_development_mode():
    # -X dev turns on the warnings for files never closed; make them errors
    result = _fresh_interpreter(
        "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest", "-q",
        "-p", "no:cacheprovider", __file__, "-k",
        "lifecycle or closed_stdout or dead_verify_worker "
        "or dead_point_worker or error_in_a_worker_chunk "
        "or two_processes and 2049",
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
def test_closed_stdout_is_a_quiet_exit_1_with_no_worker_left(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "aristotle_orbits", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_environment(),
        start_new_session=True)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()  # the reader goes away, as ``| head -1`` does
        _, err = proc.communicate(timeout=TIMEOUT_S)
        assert (proc.returncode, err) == (1, b"")
        # the session holds the run and any worker it forked: none is left
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
