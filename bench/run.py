"""Benchmark of the aristotle-orbits command line.

    python3 bench/run.py                      # every workload, every metric
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare BASE.json NEW.json

With ``--workload`` the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, which holds the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``).  Every run also writes a full result file under
``.bench_out/results``; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per untraced run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    return parser


def _run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    if traced:
        return measure.trace_run(workload, seed, ROOT)
    return measure.measure(workload, seed, seconds, ROOT)


def _write(result: dict, stem: str) -> Path:
    path = measure.OUT_DIR / "results" / f"{stem}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def _table(workloads: dict) -> list:
    lines = []
    for name, result in workloads.items():
        lines.append(f"{name} (seed {result['seed']}, "
                     f"{result['attempted']} invocations, "
                     f"{result['failed']} failed)")
        for metric, entry in result["end_to_end"].items():
            spread = (f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
                      f"n {entry['samples']}" if entry["samples"] > 1 else "")
            lines.append(f"  {metric:<24} {entry['value']:>12.6g} "
                         f"{entry['unit']:<5}{spread}")
        for metric, entry in result["raw"].items():
            lines.append(f"  raw {metric:<20} {entry['value']:>12.6g} s")
    return lines


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "aristotle_orbits" / "__main__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare.main(*args.compare, config)
    seconds = args.seconds or config["run_seconds"]
    provenance = measure.provenance(ROOT)
    provenance["seed"] = args.seed

    if args.workload is None:
        workloads = {}
        for name in WORKLOADS:
            result = _run(name, args.seed, seconds, traced=False)
            traced = _run(name, args.seed, seconds, traced=True)
            result["per_layer"] = traced["per_layer"]
            for key in ("attempted", "failed"):
                result[key] += traced[key]
            result["end_to_end"]["error_rate"]["value"] = \
                result["failed"] / result["attempted"]
            workloads[name] = result
        provenance["invocations"] = {
            name: r["attempted"] for name, r in workloads.items()}
        path = _write({"provenance": provenance, "workloads": workloads},
                      f"all-seed{args.seed}")
        print(f"provenance: {json.dumps(provenance)}")
        print("\n".join(_table(workloads)))
        print(f"result file: {path}")
        return 0

    result = _run(args.workload, args.seed, seconds, bool(args.trace))
    provenance["invocations"] = {args.workload: result["attempted"]}
    path = _write({"provenance": provenance,
                   "workloads": {args.workload: result}},
                  f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(f"provenance: {json.dumps(provenance)}")
    print(f"result file: {path}")
    declared = config["per_layer" if args.trace else "end_to_end"]
    measured = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
