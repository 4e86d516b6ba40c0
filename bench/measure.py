"""Running workloads: untraced cold-process passes and the traced run.

Untraced runs start one ``python -m aristotle_orbits`` child at a time
(a closed loop with a single client).  ``launcher.py`` starts each child
and times it with ``time.perf_counter`` from spawn to reap and with the
child's ``os.wait4`` rusage.  The traced run calls
``aristotle_orbits.cli.main`` in this process, alternating passes without
and with the wrappers of ``tracing``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
from workloads import LEG_METRICS, Workload

OUT_DIR = Path(".bench_out")
PYCACHE = OUT_DIR / "pycache"
SETUPS = 9
MIN_PASSES = 3
COLD_STARTS = 5
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 150
# the reference child's time on the development machine when it is quiet
REFERENCE_S = 0.15
WARM_UP = ("classify", "0,0,0,0,0")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "error_rate": ("ratio", "lower"),
    **LEG_METRICS,
}


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float


class Invocations:
    """Runs children, counts attempted and failed invocations, checks output.

    Children are started by ``launcher.py`` so that their peak RSS is
    their own.  The first output of each leg is checked in full; every
    later output of the same leg must be byte-identical to it.
    """

    def __init__(self, root: Path):
        self.root = root
        self.attempted = 0
        self.failed = 0
        self.counts = {}
        self._digests = {}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONPYCACHEPREFIX=str(root / PYCACHE))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=root, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self._launcher.stdin.close()
        self._launcher.wait()

    def record(self, name: str, code: int, stdout: bytes, check=None):
        self.attempted += 1
        self.counts[name] = self.counts.get(name, 0) + 1
        error = None
        digest = hashlib.sha256(stdout).hexdigest()
        if code != 0:
            error = f"exit code {code}"
        elif name not in self._digests:
            self._digests[name] = digest
            if check is not None:
                try:
                    check(stdout.decode("utf-8"))
                except checks.CheckFailed as exc:
                    error = str(exc)
        elif self._digests[name] != digest:
            error = "stdout differs from the first run with the same inputs"
        if error:
            self.failed += 1
            print(f"bench: {name}: {error}", file=sys.stderr)

    def _launch(self, request: dict) -> dict:
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        return json.loads(reply)

    def run_child(self, name: str, argv, check=None) -> Child:
        out_path, err_path = OUT_DIR / "stdout.txt", OUT_DIR / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "aristotle_orbits", *argv],
                   "stdout": str(out_path), "stderr": str(err_path),
                   "timeout_s": CHILD_TIMEOUT_S}
        reply = self._launch(request)
        stdout = out_path.read_bytes()
        if reply["code"] != 0:
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        self.record(name, reply["code"], stdout, check)
        return Child(reply["code"], reply["wall_s"], reply["cpu_s"],
                     reply["rss_kib"] / 1024)

    def run_reference(self) -> float:
        """Wall time of one reference child; see reference.py."""
        request = {"argv": [sys.executable,
                            str(Path(__file__).with_name("reference.py"))],
                   "stdout": str(OUT_DIR / "reference.txt"),
                   "stderr": str(OUT_DIR / "stderr.txt"),
                   "timeout_s": CHILD_TIMEOUT_S}
        reply = self._launch(request)
        if reply["code"] != 0:
            raise RuntimeError(f"reference child exited {reply['code']}")
        return reply["wall_s"]

    def clear_bytecode(self):
        """Drop the package's compiled bytecode so the next child compiles."""
        package = (self.root / "src" / "aristotle_orbits").resolve()
        compiled = self.root / PYCACHE / package.relative_to(package.anchor)
        shutil.rmtree(compiled, ignore_errors=True)


def _summary(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values), "values": values}


def _metric(name: str, values: list) -> dict:
    unit, better = END_TO_END[name]
    return {**_summary(values), "unit": unit, "better": better}


def measure(workload: Workload, seed: int, seconds: float,
            root: Path) -> dict:
    """Set up, then run passes for ``seconds``; medians over passes.

    A reference child runs before every set-up and every pass.  Timings
    are scaled by REFERENCE_S / (median reference time of the run), so a
    host that runs slower for minutes at a time moves them much less
    than the raw seconds, which the result keeps under ``raw``.
    """
    workdir = OUT_DIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    references, setups, passes = [], [], []
    with Invocations(root) as runs:
        for _ in range(SETUPS):
            references.append(runs.run_reference())
            begin = perf_counter()
            legs = workload.build(seed, workdir)
            runs.clear_bytecode()
            runs.run_child("warm-up", WARM_UP)
            setups.append(perf_counter() - begin)
        begin = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - begin < seconds:
            references.append(runs.run_reference())
            passes.append([runs.run_child(leg.name, leg.argv, leg.check)
                           for leg in legs])

    scale = REFERENCE_S / statistics.median(references)
    raw = {"reference_s": references, "setup_s": setups,
           "wall_s": [sum(c.wall_s for c in p) for p in passes],
           "cpu_s": [sum(c.cpu_s for c in p) for p in passes]}
    metrics = {name: _metric(name, [v * scale for v in raw[name]])
               for name in ("setup_s", "wall_s", "cpu_s")}
    for index, leg in enumerate(legs):
        raw[f"{leg.name}_s"] = [p[index].wall_s for p in passes]
        scaled = [v * scale for v in raw[f"{leg.name}_s"]]
        if leg.items:
            scaled = [leg.items / v for v in scaled]
        metrics[leg.metric] = _metric(leg.metric, scaled)
    # memory is not scaled; the largest child peak, not a median
    metrics["peak_rss_mib"] = _metric(
        "peak_rss_mib", [max(c.rss_mib for c in p) for p in passes])
    metrics["peak_rss_mib"]["value"] = max(
        c.rss_mib for p in passes for c in p)
    metrics["error_rate"] = _metric("error_rate",
                                    [runs.failed / runs.attempted])
    return {"seed": seed, "trace": 0, "attempted": runs.attempted,
            "failed": runs.failed, "invocations": runs.counts,
            "end_to_end": metrics,
            "raw": {name: _summary(values) for name, values in raw.items()}}


def _call_main(cli, argv) -> tuple:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue().encode("utf-8")


def trace_run(workload: Workload, seed: int, root: Path) -> dict:
    """Untraced and traced in-process passes in turn, then cold starts.

    Layer metrics come from the last traced pass; ``trace.overhead`` is
    the median ratio of each traced pass to the untraced one before it.
    """
    workdir = OUT_DIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    legs = workload.build(seed, workdir)
    sys.pycache_prefix = str(root / PYCACHE)
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("aristotle_orbits.cli")

    def one_pass(recorder=None):
        seconds = 0.0
        total_bytes = 0
        for index, leg in enumerate(legs):
            if recorder is not None:
                recorder.current_invocation = index
            begin = perf_counter()
            code, stdout = _call_main(cli, leg.argv)
            seconds += perf_counter() - begin
            runs.record(leg.name, code, stdout, leg.check)
            total_bytes += len(stdout)
        return seconds, total_bytes

    with Invocations(root) as runs:
        one_pass()  # first calls pay one-off costs
        overheads = []
        for _ in range(TRACE_PAIRS):
            untraced_s, output_bytes = one_pass()
            recorder = tracing.Recorder()
            with tracing.installed(recorder):
                traced_s, _ = one_pass(recorder)
            overheads.append(traced_s / untraced_s)
        cold = [runs.run_child("cold-start", WARM_UP).wall_s
                for _ in range(COLD_STARTS)]

    metrics = tracing.layer_metrics(
        recorder, {leg.rows_of: leg.items for leg in legs if leg.rows_of})
    metrics["cli.cold_start_s"] = statistics.median(cold)
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead"] = statistics.median(overheads)
    units = {name: unit for name, unit, _better in tracing.per_layer_spec()}
    spans = OUT_DIR / "spans" / f"{workload.name}-seed{seed}"
    spans.parent.mkdir(parents=True, exist_ok=True)
    recorder.write(spans)
    return {"seed": seed, "trace": 1, "attempted": runs.attempted,
            "failed": runs.failed, "invocations": runs.counts,
            "spans": str(spans) + ".{json,bin}",
            "per_layer": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path, *args) -> str:
    result = subprocess.run(["git", "-C", str(root), *args],
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def provenance(root: Path) -> dict:
    commit, dirty = "unknown", None
    # only a checkout that is itself a repository; never a parent's
    if (root / ".git").exists():
        try:
            commit = _git(root, "rev-parse", "HEAD")
            dirty = bool(_git(root, "status", "--porcelain"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": commit,
        "dirty": dirty,
        "timers": "time.perf_counter in the benchmark's own processes and "
                  "os.wait4 rusage of its own child processes only; no "
                  "machine-wide tracing, no cache drops, no scheduler "
                  "changes",
        "client": "closed loop, one client: one child process at a time",
    }
