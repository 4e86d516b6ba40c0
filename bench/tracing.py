"""Spans around the program's public functions, installed from outside.

``installed`` wraps each function in ``FUNCTIONS`` (and each of verify's
checks) with a timer and binds the wrapper to every module attribute of
the package that holds the same function object, so names imported with
``from .orbits import classify`` are caught too, as are default
arguments such as ``reconstruct_law(law=compose)``.  Leaving the context
puts every original back.  Spans stay in flat arrays in memory and are
written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

PACKAGE = "aristotle_orbits"

# (module, function); the first LATENCY_COUNT run >= 1000 times per pass
# on some workload and also report latency percentiles.
FUNCTIONS = (
    ("backend", "parse_scalar"),
    ("backend", "format_scalar"),
    ("backend", "json_scalar"),
    ("lie_core", "compose"),
    ("lie_core", "inverse"),
    ("lie_core", "adjoint_of_group"),
    ("lie_core", "bch"),
    ("lie_core", "exp_ad"),
    ("linalg", "mat_mul"),
    ("linalg", "rank"),
    ("orbits", "coadjoint"),
    ("orbits", "coadjoint_printed"),
    ("orbits", "orbit_dimension"),
    ("orbits", "invariants"),
    ("orbits", "classify"),
    ("dynamics", "integrate"),
    ("dynamics", "closed_form_trajectory"),
    ("dynamics", "dual_flow_trajectory"),
    ("verify", "run_suite"),
    ("derive_law", "reconstruct_law"),
    ("derive_law", "verify_reconstruction"),
    ("errata", "build_report"),
    ("cli", "main"),
)
LATENCY_COUNT = 15
LATENCY_MIN_CALLS = 1000

# verify.CHECKS names; a check the program no longer has reports 0 s
VERIFY_CHECKS = (
    "jacobi", "nilpotency", "associativity", "group-axioms",
    "adjoint-homomorphism", "coadjoint-action-laws",
    "invariant-preservation", "u-equals-pi-v", "orbit-dimension",
    "closed-form-flow", "rhs-consistency", "integrator-tolerance",
)
ROWS_OF = ("dynamics.integrate", "dynamics.closed_form_trajectory",
           "dynamics.dual_flow_trajectory")

# (percentile, samples beyond it per million); the tail percentile is the
# highest one with at least 10 samples beyond it
TAIL_LADDER = ((99.999, 10), (99.99, 100), (99.9, 1000), (99.0, 10000),
               (90.0, 100000), (50.0, 500000))


def per_layer_spec() -> list:
    """[(metric, unit, better)] reported by every traced run."""
    spec = []
    for index, (module, fn) in enumerate(FUNCTIONS):
        name = f"{module}.{fn}"
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.self_s", "s", "lower")]
        if index < LATENCY_COUNT:
            spec += [(f"{name}.p50_us", "us", "lower"),
                     (f"{name}.tail_us", "us", "lower")]
    spec += [(f"verify.{check}.s", "s", "lower") for check in VERIFY_CHECKS]
    spec += [(f"{name}.rows", "count", "higher") for name in ROWS_OF]
    spec += [("cli.cold_start_s", "s", "lower"),
             ("cli.output_bytes", "bytes", "lower"),
             ("trace.overhead", "ratio", "lower")]
    return spec


class Recorder:
    """Spans as parallel arrays: name id, parent index, invocation, times."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("q")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_invocation = 0
        self._stack = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.invocation.append(self.current_invocation)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            begin = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.start[index] = begin
                stack.pop()
        return timed

    def write(self, path: Path):
        """``path``.json names the columns; ``path``.bin holds the arrays."""
        columns = ("name", "parent", "invocation", "start", "end")
        header = {"names": self.names, "count": len(self.start),
                  "columns": [[c, getattr(self, c).typecode]
                              for c in columns]}
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)


def _package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


@contextmanager
def installed(recorder: Recorder):
    """Wrap FUNCTIONS and verify's checks; restore everything on exit."""
    wrappers = {}
    for module, fn in FUNCTIONS:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], fn)
        wrappers[id(original)] = (original,
                                  recorder.wrap(f"{module}.{fn}", original))

    def wrapper_of(value):
        entry = wrappers.get(id(value))
        return entry[1] if entry and entry[0] is value else None

    patched = []  # (object, attribute, original value, wrapped value)
    seen = set()
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if wrapper_of(value) is not None:
                patched.append((module, attr, value, wrapper_of(value)))
            if (isinstance(value, types.FunctionType) and value.__defaults__
                    and id(value) not in seen):
                seen.add(id(value))
                old = value.__defaults__
                new = tuple(wrapper_of(d) or d for d in old)
                if any(a is not b for a, b in zip(new, old)):
                    patched.append((value, "__defaults__", old, new))
    verify = sys.modules[f"{PACKAGE}.verify"]
    patched.append((verify, "CHECKS", verify.CHECKS, tuple(
        (name, recorder.wrap(f"verify.{name}", fn))
        for name, fn in verify.CHECKS)))
    try:
        for target, attr, _original, wrapped in patched:
            setattr(target, attr, wrapped)
        yield patched
    finally:
        for target, attr, original, _wrapped in reversed(patched):
            setattr(target, attr, original)


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, start
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            lo, hi = max(starts[child], reach), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def nearest_rank(ordered: list, percentile: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it."""
    for percentile, beyond_ppm in TAIL_LADDER:
        if samples * beyond_ppm >= 10 * 1_000_000:
            return percentile
    return 0.0


def layer_metrics(recorder: Recorder, rows: dict) -> dict:
    """The per-function part of per_layer_spec(), from one traced pass.

    ``rows`` maps each ROWS_OF function to the rows its leg printed.
    """
    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    durations = defaultdict(list)
    self_sum = defaultdict(float)
    for name_id, start, end, own in zip(recorder.name, recorder.start,
                                        recorder.end, selfs):
        name = recorder.names[name_id]
        durations[name].append(end - start)
        self_sum[name] += own
    metrics = {}
    for index, (module, fn) in enumerate(FUNCTIONS):
        name = f"{module}.{fn}"
        spans = sorted(durations.get(name, ()))
        metrics[f"{name}.calls"] = len(spans)
        metrics[f"{name}.self_s"] = self_sum.get(name, 0.0)
        if index < LATENCY_COUNT:
            hot = len(spans) >= LATENCY_MIN_CALLS
            metrics[f"{name}.p50_us"] = \
                nearest_rank(spans, 50) * 1e6 if hot else 0.0
            metrics[f"{name}.tail_us"] = nearest_rank(
                spans, tail_percentile(len(spans))) * 1e6 if hot else 0.0
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}.s"] = sum(durations.get(f"verify.{check}",
                                                         ()))
    for name in ROWS_OF:
        metrics[f"{name}.rows"] = rows.get(name, 0)
    return metrics
