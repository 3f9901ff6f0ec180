"""Regression gate for the full-flow benchmark.

Compares two records written by ``bench_flow.py --out`` with the metric
names, directions and bounds of ``BENCHMARK.json``: one row per workload
and end-to-end metric.  A metric regresses when the current value is
worse than the baseline by more than its bound.  The quality metrics
(literals, area and delay ratios) and the two fractions carry bounds
far below one unit of change, so they compare exactly.

A time metric whose own samples (flow rounds, set-up spawns) spread
wider than its bound on either side cannot resolve a change of that
size: it is reported as ``unresolved`` rather than ``ok``, unless every
current sample beats every baseline sample.

Usage::

    python3 flowbench/compare.py BASELINE.json CURRENT.json

Exit status 1 when any metric regressed or is missing from the current
record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFINITION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def samples(record: dict, name: str) -> list[float]:
    """The per-round or per-spawn samples behind a time metric."""
    if name == "flow_s" and record.get("flow_s"):
        return record["flow_s"]["rounds"]
    if name == "setup_s" and record.get("setup_s"):
        return record["setup_s"]["samples"]
    return []


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(spec: dict, base: dict, current: dict) -> tuple[str, float]:
    """(status, relative worsening) of one metric on one workload."""
    name = spec["name"]
    if name not in current["values"]:
        return "MISSING", float("nan")
    if name not in base["values"]:
        return "new", float("nan")
    old, new = base["values"][name], current["values"][name]
    lower = spec["better"] == "lower"
    worse = (new - old) / old if lower else (old - new) / old
    bound = spec["bound"]
    old_samples, new_samples = samples(base, name), samples(current, name)
    if max(spread(old_samples), spread(new_samples)) > bound:
        if old_samples and new_samples and (
            max(new_samples) < min(old_samples)
            if lower
            else min(new_samples) > max(old_samples)
        ):
            return "better", worse
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    return ("better" if worse < 0 else "ok"), worse


def compare(base: dict, current: dict, specs: list[dict]) -> int:
    print(f"{'workload':<10} {'metric':<18} {'baseline':>12} {'current':>12} "
          f"{'worse':>8} {'bound':>7}  verdict")
    failed = 0
    for workload in sorted(set(base["workloads"]) | set(current["workloads"])):
        if workload not in current["workloads"]:
            print(f"{workload:<10} absent from the current record")
            failed += 1
            continue
        if workload not in base["workloads"]:
            print(f"{workload:<10} new in the current record (skipped)")
            continue
        old, new = base["workloads"][workload], current["workloads"][workload]
        for spec in specs:
            status, worse = verdict(spec, old, new)
            before = old["values"].get(spec["name"], float("nan"))
            after = new["values"].get(spec["name"], float("nan"))
            print(f"{workload:<10} {spec['name']:<18} {before:>12.6g} {after:>12.6g} "
                  f"{worse:>+8.2%} {spec['bound']:>7.2%}  {status}")
            failed += status in ("REGRESSION", "MISSING")
    if failed:
        print(f"\nFAIL: {failed} metric(s) regressed or went missing")
        return 1
    print("\nOK: no metric worse than its bound")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    args = parser.parse_args(argv)
    specs = json.loads(DEFINITION.read_text())["end_to_end"]
    return compare(
        json.loads(args.baseline.read_text()),
        json.loads(args.current.read_text()),
        specs,
    )


if __name__ == "__main__":
    sys.exit(main())
