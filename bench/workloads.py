"""The three workloads: which CLI invocations run, and how each is checked.

A workload is a list of legs.  A leg is one ``python -m aristotle_orbits``
invocation with its output check and the end-to-end metric it feeds.
One pass runs every leg once, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import inputs


@dataclass(frozen=True)
class Leg:
    name: str
    argv: tuple
    check: Callable[[str], None]
    # end-to-end metric: items / leg seconds when items > 0, else seconds
    metric: str
    items: int = 0
    # the dynamics function whose rows this leg prints (traced run)
    rows_of: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list]


def classify_legs(points: list, workdir: Path) -> list:
    path = workdir / "points.csv"
    path.write_text(inputs.points_csv(points), encoding="utf-8")
    return [
        Leg("rational", ("classify", "--in", str(path)),
            partial(checks.check_classify_json, points=points),
            "rational_points_per_s", len(points)),
        Leg("float", ("classify", "--in", str(path), "--backend", "float",
                      "--format", "csv"),
            partial(checks.check_classify_csv, points=points),
            "float_points_per_s", len(points)),
    ]


def simulate_legs(spec: inputs.SimulateSpec) -> list:
    chart = (f"--k={spec.k}", f"--y={spec.y}")
    exact_grid = ("--range", f"0:{spec.exact_stop}", "--step",
                  str(spec.exact_step))
    exact_rows = inputs.grid_length(spec.exact_stop, spec.exact_step)
    return [
        Leg("rk4", ("simulate", "--picture", "time", "--backend", "float",
                    f"--state={spec.q0},{spec.p0}", *chart,
                    "--range", f"0:{spec.rk4_stop}",
                    "--step", str(spec.rk4_step)),
            partial(checks.check_rk4, spec=spec), "rk4_rows_per_s",
            inputs.grid_length(spec.rk4_stop, spec.rk4_step),
            "dynamics.integrate"),
        Leg("closed-form", ("simulate", "--picture", "space", "--closed-form",
                            f"--state={spec.tau0},{spec.e0}", *chart,
                            *exact_grid),
            partial(checks.check_closed_form, spec=spec),
            "closed_form_rows_per_s", exact_rows,
            "dynamics.closed_form_trajectory"),
        Leg("dual", ("simulate", "--picture", "time", "--dual",
                     "--mu=" + ",".join(str(c) for c in spec.mu),
                     *exact_grid),
            partial(checks.check_dual, spec=spec), "dual_rows_per_s",
            exact_rows, "dynamics.dual_flow_trajectory"),
    ]


def audit_legs(seed: int, _workdir: Path) -> list:
    return [
        Leg("verify", ("verify", "--seed", str(seed),
                       "--samples", str(inputs.VERIFY_SAMPLES)),
            checks.check_verify, "verify_s"),
        Leg("derive-law", ("derive-law", "--seed", str(seed), "--samples",
                           str(inputs.DERIVE_LAW_SAMPLES)),
            partial(checks.check_derive_law,
                    samples=inputs.DERIVE_LAW_SAMPLES), "derive_law_s"),
        Leg("errata", ("errata", "--seed", str(seed)),
            checks.check_errata, "errata_s"),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("classify-batch",
             "bulk rational and float classification; exercises backend, "
             "orbits and linalg.rank, bypasses the lie_core kernel",
             lambda seed, workdir: classify_legs(
                 inputs.classify_points(seed), workdir)),
    Workload("simulate-long",
             "long float RK4, exact closed-form and dual trajectories held "
             "in memory; exercises dynamics and formatting, no lie_core",
             lambda seed, _workdir: simulate_legs(
                 inputs.simulate_spec(seed))),
    Workload("audit",
             "exact verify, derive-law and errata; exercises the lie_core "
             "group law and coadjoint, bypasses trajectories and bulk output",
             audit_legs),
)}

# Throughput and per-leg metrics beyond BENCHMARK.json, reported in the
# result file and by the all-workload run: (unit, better).
LEG_METRICS = {
    "rational_points_per_s": ("1/s", "higher"),
    "float_points_per_s": ("1/s", "higher"),
    "rk4_rows_per_s": ("1/s", "higher"),
    "closed_form_rows_per_s": ("1/s", "higher"),
    "dual_rows_per_s": ("1/s", "higher"),
    "verify_s": ("s", "lower"),
    "derive_law_s": ("s", "lower"),
    "errata_s": ("s", "lower"),
}
