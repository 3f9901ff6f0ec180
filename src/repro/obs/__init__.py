"""Observability substrate: metrics, phase-scoped tracing and run reports.

Usage pattern::

    from repro import obs

    obs.enable()                       # before building managers
    with obs.span("myphase"):
        obs.inc("myfamily.widgets")
        obs.observe("myfamily.size", 42)
    report = obs.report()              # JSON-serialisable dict

Everything is a no-op while disabled (the default), so library code is
instrumented unconditionally.  See :mod:`repro.obs.registry` for the
data model and :mod:`repro.obs.reporting` for rendering/persistence.

Run facts also reach the *sinks* installed with :func:`install` and
removed with :func:`uninstall` — the one install API: a
:class:`TraceRecorder`, a :class:`repro.obs.logging.StructuredLogger`,
a :class:`repro.obs.bus.TelemetryBus`, a
:class:`repro.obs.ledger.LedgerRun`.  Each fact (a span, an
``obs.event`` such as a pass boundary or a committed cone) is emitted
once and reaches every installed sink, whether or not metrics are on;
an event is one versioned :func:`record` that the registry and every
sink read.  The
live-telemetry and ledger modules are deliberately **not** re-exported
here: only the CLI imports them, when their flags are given, so a run
without the flags never loads them at all.
"""

from repro.obs.registry import (
    ENVELOPE,
    Histogram,
    Registry,
    SpanStat,
    current_span_path,
    disable,
    enable,
    enabled,
    event,
    inc,
    install,
    log,
    observe,
    record,
    registry,
    report,
    reset,
    run_id,
    scope,
    set_gauge,
    sinks,
    span,
    track_bdd_manager,
    uninstall,
)
from repro.obs.reporting import cache_efficiency, render_profile, write_report
from repro.obs.trace import TraceRecorder, tracing
from repro.obs.monitor import RuntimeMonitor
from repro.obs.crashdump import set_crash_context, write_crash_bundle

__all__ = [
    "ENVELOPE",
    "Histogram",
    "Registry",
    "RuntimeMonitor",
    "SpanStat",
    "TraceRecorder",
    "cache_efficiency",
    "current_span_path",
    "disable",
    "enable",
    "enabled",
    "event",
    "inc",
    "install",
    "log",
    "observe",
    "record",
    "registry",
    "render_profile",
    "report",
    "reset",
    "run_id",
    "scope",
    "set_crash_context",
    "set_gauge",
    "sinks",
    "span",
    "track_bdd_manager",
    "tracing",
    "uninstall",
    "write_crash_bundle",
    "write_report",
]
