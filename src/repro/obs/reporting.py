"""Rendering and persistence of observability snapshots.

:func:`write_report` serialises an :func:`repro.obs.report` snapshot to
JSON; :func:`render_profile` turns one into the human-readable
phase-time / cache-efficiency table printed by ``repro profile`` and the
``--profile`` CLI flag.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from repro.obs.registry import report as _snapshot

#: Cache name -> (hit counter, miss counter) suffixes under the ``bdd.``
#: namespace, as emitted by ``repro.bdd.manager``.
_CACHE_OPS = (
    "ite",
    "and",
    "or",
    "xor",
    "not",
    "exists",
    "forall",
    "and_exists",
)


def write_report(
    path: str | Path,
    report: Optional[dict[str, Any]] = None,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Write ``report`` (default: a fresh snapshot) as JSON to ``path``.

    ``extra`` entries are merged under the top-level ``"run"`` key —
    CLI commands use it for workload identification and headline results.
    Returns the written dictionary.
    """
    if report is None:
        report = _snapshot()
    if extra:
        run = dict(report.get("run") or {})
        run.update(extra)
        report = {**report, "run": run}
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return report


def cache_efficiency(report: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Per-operation cache hit/miss/rate extracted from the ``bdd``
    family of a snapshot (empty when no manager was tracked)."""
    counters = report.get("counters", {})
    result: dict[str, dict[str, float]] = {}
    for op in _CACHE_OPS:
        hits = counters.get(f"bdd.cache.{op}.hits", 0)
        misses = counters.get(f"bdd.cache.{op}.misses", 0)
        lookups = hits + misses
        if lookups == 0:
            continue
        result[op] = {
            "hits": hits,
            "misses": misses,
            "rate": hits / lookups,
        }
    return result


def pipeline_passes(report: dict[str, Any]) -> list[dict[str, Any]]:
    """The ``pipeline.pass`` events of a snapshot, in execution order —
    one row per completed pass with its wall time and whether a resource
    budget was exhausted at that boundary."""
    return [
        event
        for event in report.get("events", [])
        if event.get("ev") == "pipeline.pass"
    ]


def render_profile(report: dict[str, Any]) -> str:
    """Phase-time and cache-efficiency table for one snapshot."""
    lines: list[str] = []
    spans = report.get("spans", {})
    if spans:
        lines.append("phase timings")
        lines.append(f"  {'span':<48} {'count':>7} {'total(s)':>9} {'mean(ms)':>9}")
        grand_total = sum(
            stat["total"] for path, stat in spans.items() if "/" not in path
        )
        for path, stat in sorted(
            spans.items(), key=lambda item: -item[1]["total"]
        ):
            depth = path.count("/")
            label = ("  " * depth) + path.split("/")[-1]
            share = (
                f" {100 * stat['total'] / grand_total:5.1f}%"
                if grand_total and depth == 0
                else ""
            )
            lines.append(
                f"  {label:<48} {stat['count']:>7} {stat['total']:>9.3f} "
                f"{1000 * stat['mean']:>9.3f}{share}"
            )
    passes = pipeline_passes(report)
    if passes:
        lines.append("")
        lines.append("pipeline passes")
        with_sizes = any("literals" in row for row in passes)
        header = f"  {'#':>3} {'pass':<16} {'elapsed(s)':>11}"
        if with_sizes:
            header += f" {'nodes':>8} {'Δnodes':>8} {'lits':>8} {'Δlits':>8}"
        header += f" {'budget':>10}"
        lines.append(header)
        for row in passes:
            status = "EXHAUSTED" if row.get("exhausted") else "ok"
            line = (
                f"  {int(row['index']):>3} {row['pass_name']:<16} "
                f"{row['elapsed']:>11.3f}"
            )
            if with_sizes:
                def cell(key: str, signed: bool = False) -> str:
                    value = row.get(key)
                    if value is None:
                        return f"{'-':>8}"
                    return f"{int(value):>+8d}" if signed else f"{int(value):>8d}"

                line += (
                    f" {cell('nodes')} {cell('nodes_delta', True)}"
                    f" {cell('literals')} {cell('literals_delta', True)}"
                )
            lines.append(line + f" {status:>10}")
    efficiency = cache_efficiency(report)
    if efficiency:
        lines.append("")
        lines.append("BDD cache efficiency")
        lines.append(f"  {'op':<6} {'hits':>12} {'misses':>12} {'hit rate':>9}")
        for op, row in efficiency.items():
            lines.append(
                f"  {op:<6} {int(row['hits']):>12} {int(row['misses']):>12} "
                f"{100 * row['rate']:>8.1f}%"
            )
        gauges = report.get("gauges", {})
        if "bdd.managers.total" in gauges:
            lines.append(
                f"  managers={int(gauges['bdd.managers.total'])} "
                f"live={int(gauges.get('bdd.managers.live', 0))} "
                f"max_manager_nodes={int(gauges.get('bdd.nodes.peak', 0))} "
                f"live_nodes={int(gauges.get('bdd.nodes.live', 0))}"
            )
    families = report.get("families", {})
    interesting = {
        family: data
        for family, data in sorted(families.items())
        if family != "bdd" and data.get("counters")
    }
    if interesting:
        lines.append("")
        lines.append("counters")
        for family, data in interesting.items():
            for name, value in data["counters"].items():
                lines.append(f"  {name:<48} {value:>12g}")
    dropped = report.get("counters", {}).get("obs.events_dropped")
    if dropped:
        lines.append("")
        lines.append(
            f"WARNING: event buffer wrapped — {int(dropped)} oldest "
            f"event(s) dropped (obs.events_dropped)"
        )
    if not lines:
        lines.append("(no metrics collected — was instrumentation enabled?)")
    return "\n".join(lines)
