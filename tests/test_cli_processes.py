"""The CLI's processes: float trajectory rows rendered by two processes, the
console script's exit without interpreter teardown, and a reader that
closes standard output early.

Every wait is bounded: subprocesses by a timeout, in-process runs by the
``deadline`` fixture's timer.
"""

import io
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import aristotle_orbits
from aristotle_orbits import cli
from aristotle_orbits.cli import CHUNK_TEXTS, main

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


@pytest.fixture
def deadline():
    """Fail a test that runs longer than TIMEOUT_S (main thread only)."""
    def expire(_signum, _frame):
        raise TimeoutError(f"test ran over {TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """Counts the os.fork calls made in this process."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


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
    monkeypatch.setattr(cli, "_render_odd_chunks", death)
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


def test_new_tests_pass_in_development_mode():
    # -X dev turns on the warnings for files never closed; make them errors
    result = _fresh_interpreter(
        "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest", "-q",
        "-p", "no:cacheprovider", __file__, "-k",
        "lifecycle or closed_stdout or two_processes and 2049",
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
