"""Compare two result files workload by workload.

Each end-to-end metric is marked against the benchmark's bounds:
``unresolved`` when either side's quartile spread exceeds the bound,
``worse`` or ``improved`` when the median moved by more than the bound,
``unchanged`` otherwise.  Per-layer metrics have no bound and show only
their values and ratio.
"""

from __future__ import annotations

import json
from pathlib import Path


def _spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"] \
        if metric["value"] else 0.0


def verdict(base: dict, new: dict, bound: float) -> str:
    if base["value"] == 0 or new["value"] == 0:
        # error_rate: any change is beyond noise
        if new["value"] == base["value"]:
            return "unchanged"
        worse = (new["value"] > base["value"]) == (base["better"] == "lower")
        return "worse" if worse else "improved"
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    change = new["value"] / base["value"] - 1
    if base["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "improved"
    return "unchanged"


def _ratio(base: float, new: float) -> str:
    return f"x{new / base:.3f}" if base else "n/a"


def compare(base: dict, new: dict, bounds: dict, default_bound: float) -> list:
    """Lines of the report; ``bounds`` are BENCHMARK.json's end-to-end ones."""
    lines = []
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        old, cur = base["workloads"][name], new["workloads"][name]
        rows, tally = [], {}
        for metric in sorted(set(old.get("end_to_end", {}))
                             & set(cur.get("end_to_end", {}))):
            a, b = old["end_to_end"][metric], cur["end_to_end"][metric]
            mark = verdict(a, b, bounds.get(metric, default_bound))
            tally[mark] = tally.get(mark, 0) + 1
            rows.append(f"  {metric:<28} {a['value']:>12.6g} -> "
                        f"{b['value']:<12.6g} {a['unit']:<6} "
                        f"{_ratio(a['value'], b['value']):>8}  {mark}")
        for metric in sorted(set(old.get("per_layer", {}))
                             & set(cur.get("per_layer", {}))):
            a, b = old["per_layer"][metric], cur["per_layer"][metric]
            rows.append(f"  {metric:<44} {a['value']:>12.6g} -> "
                        f"{b['value']:<12.6g} {a['unit']:<6} "
                        f"{_ratio(a['value'], b['value']):>8}")
        summary = ", ".join(f"{count} {mark}"
                            for mark, count in sorted(tally.items()))
        lines.append(f"{name}: {summary or 'no end-to-end metrics'}")
        lines += rows
    return lines


def main(base_path: str, new_path: str, config: dict) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"base {base_path}: commit {base['provenance']['commit']}")
    print(f"new  {new_path}: commit {new['provenance']['commit']}")
    for line in compare(base, new, bounds, bounds["wall_s"]):
        print(line)
    return 0
