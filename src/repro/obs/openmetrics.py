"""OpenMetrics text exposition of the registry, monitor and bus state.

Renders the process-wide observability aggregate in the OpenMetrics
text format (the Prometheus exposition dialect with typed metadata and
a terminating ``# EOF``), each quantity once: registry counters, gauges
(the live BDD totals and ``parallel.*`` progress among them),
histograms and span stats; what the latest
:class:`~repro.obs.monitor.RuntimeMonitor` sample adds (RSS, its clock,
the governor); and the :class:`~repro.obs.bus.TelemetryBus` worker
view.  Two transports:

* **textfile** (``--metrics-file``): :meth:`MetricsExporter.export`
  atomically rewrites the file (temp + rename) on every monitor sample,
  for node-exporter-style textfile collectors and for the CI watcher;
* **scrape endpoint** (``--metrics-port``): a localhost-only
  ``ThreadingHTTPServer`` on a daemon thread renders a fresh exposition
  per ``GET /metrics``.

Metric naming: dotted registry names become underscore OpenMetrics
names under a ``repro_`` prefix; counters gain the mandated ``_total``
suffix; histograms and spans are exposed as summaries (``_count`` +
``_sum``), spans carrying their nesting path as a ``span`` label.

:func:`parse_openmetrics` is the deliberately minimal validating parser
the test-suite and the CI telemetry-smoke job use to check scrape
output — it accepts exactly what :func:`render` produces plus the
format's comment/escaping rules, nothing fancier.

Like every module in the live-telemetry layer this one is only imported
by the CLI when its flags are given; the engine never touches it.
"""

from __future__ import annotations

import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Iterable, Optional

CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_NAME_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(raw: str, prefix: str = "repro") -> str:
    """Map a dotted registry name to a legal OpenMetrics name:
    ``bdd.cache.and.hits`` → ``repro_bdd_cache_and_hits``."""
    name = _SANITIZE.sub("_", raw.strip())
    if prefix:
        name = f"{prefix}_{name}"
    if not _NAME_OK.match(name):
        name = "_" + name
    return name


def escape_label(value: Any) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "0"
    if number != number:  # NaN
        return "NaN"
    return repr(number)


class _Lines:
    """Accumulates exposition lines, emitting each ``# TYPE`` header
    exactly once per metric family."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._typed: set[str] = set()

    def typed(self, name: str, kind: str, help_text: str = "") -> None:
        if name in self._typed:
            return
        self._typed.add(name)
        self.lines.append(f"# TYPE {name} {kind}")
        if help_text:
            self.lines.append(f"# HELP {name} {help_text}")

    def sample(
        self, name: str, value: Any, labels: Optional[dict[str, Any]] = None
    ) -> None:
        if labels:
            body = ",".join(
                f'{key}="{escape_label(val)}"'
                for key, val in sorted(labels.items())
            )
            self.lines.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")


def _render_registry(out: _Lines, snapshot: dict[str, Any]) -> None:
    for raw, value in sorted(snapshot.get("counters", {}).items()):
        name = metric_name(raw)
        if not name.endswith("_total"):
            name += "_total"
        out.typed(name, "counter")
        out.sample(name, value)
    for raw, value in sorted(snapshot.get("gauges", {}).items()):
        name = metric_name(raw)
        out.typed(name, "gauge")
        out.sample(name, value)
    for raw, hist in sorted(snapshot.get("histograms", {}).items()):
        name = metric_name(raw)
        out.typed(name, "summary")
        out.sample(name + "_count", hist.get("count", 0))
        out.sample(name + "_sum", hist.get("total", 0.0))
    spans = snapshot.get("spans", {})
    if spans:
        name = metric_name("span.seconds")
        out.typed(name, "summary",
                  "Aggregated span wall time keyed by nesting path")
        for path, stat in sorted(spans.items()):
            labels = {"span": path}
            out.sample(name + "_count", stat.get("count", 0), labels)
            out.sample(name + "_sum", stat.get("total", 0.0), labels)


def _render_monitor(out: _Lines, sample: dict[str, Any]) -> None:
    """What the registry lacks: RSS, the monitor's own clock and sample
    count, and the governor (the live BDD and ``parallel.*`` gauges are
    the registry's already)."""
    gauge_map = {
        "repro_monitor_elapsed_seconds": sample.get("elapsed"),
        "repro_monitor_samples": sample.get("sample_index"),
        "repro_process_rss_kilobytes": sample.get("rss_kb"),
    }
    governor = sample.get("governor") or {}
    if "nodes_allocated" in governor:
        gauge_map["repro_governor_nodes_allocated"] = (
            governor["nodes_allocated"]
        )
    if governor.get("remaining_time") is not None:
        gauge_map["repro_governor_remaining_time_seconds"] = (
            governor["remaining_time"]
        )
    for name, value in gauge_map.items():
        if value is None:
            continue
        out.typed(name, "gauge")
        out.sample(name, value)


def _render_bus(out: _Lines, bus_snapshot: dict[str, Any]) -> None:
    events = bus_snapshot.get("events") or {}
    name = "repro_bus_events_total"
    out.typed(name, "counter", "Telemetry bus records by event type")
    for event, count in sorted(events.items()):
        out.sample(name, count, {"event": event})
    dropped = "repro_bus_events_dropped_total"
    out.typed(dropped, "counter",
              "Records lost to back-pressure or torn lines")
    out.sample(dropped, bus_snapshot.get("events_dropped", 0))
    busy = "repro_bus_worker_busy"
    stalled = "repro_bus_worker_stalled"
    in_flight = "repro_bus_worker_in_flight_seconds"
    out.typed(busy, "gauge", "1 while the worker has a cone in flight")
    out.typed(stalled, "gauge", "1 when liveness checks flag the worker")
    out.typed(in_flight, "gauge")
    for worker in bus_snapshot.get("workers") or []:
        labels = {"pid": worker.get("pid")}
        out.sample(busy, 1 if worker.get("state") == "busy" else 0, labels)
        out.sample(stalled, 1 if worker.get("stalled") else 0, labels)
        if worker.get("in_flight_s") is not None:
            sink_labels = dict(labels)
            if worker.get("sink"):
                sink_labels["sink"] = worker["sink"]
            out.sample(in_flight, worker["in_flight_s"], sink_labels)


def render(
    registry_snapshot: Optional[dict[str, Any]] = None,
    monitor_sample: Optional[dict[str, Any]] = None,
    bus_snapshot: Optional[dict[str, Any]] = None,
) -> str:
    """One complete OpenMetrics exposition (``# EOF``-terminated)."""
    out = _Lines()
    out.typed("repro_exposition_time_seconds", "gauge",
              "Unix time this exposition was rendered")
    out.sample("repro_exposition_time_seconds", time.time())
    if registry_snapshot:
        _render_registry(out, registry_snapshot)
    if monitor_sample:
        _render_monitor(out, monitor_sample)
    if bus_snapshot:
        _render_bus(out, bus_snapshot)
    out.lines.append("# EOF")
    return "\n".join(out.lines) + "\n"


# ---------------------------------------------------------------------------
# Minimal validating parser (tests + CI watcher)
# ---------------------------------------------------------------------------

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)(?: [^ ]+)?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_openmetrics(text: str) -> dict[str, dict[str, Any]]:
    """Parse (and thereby validate) an OpenMetrics exposition.

    Returns ``{family_name: {"type": ..., "samples": [(labels, value)]}}``.
    Raises ``ValueError`` on any malformed line, a missing ``# EOF``
    terminator, a sample for a family with no ``# TYPE``, or a repeated
    sample (the same name and labels twice).
    """
    families: dict[str, dict[str, Any]] = {}
    seen: set[tuple[str, frozenset[tuple[str, str]]]] = set()
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if not line.strip():
            raise ValueError(f"line {lineno}: blank line")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "summary", "histogram", "info",
                "unknown", "stateset", "gaugehistogram",
            ):
                raise ValueError(f"line {lineno}: bad TYPE line: {line!r}")
            families[parts[2]] = {"type": parts[3], "samples": []}
            continue
        if line.startswith("# HELP "):
            if len(line.split(" ", 3)) != 4:
                raise ValueError(f"line {lineno}: bad HELP line: {line!r}")
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment: {line!r}")
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        family = name
        for suffix in ("_total", "_count", "_sum", "_bucket", "_created"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(f"line {lineno}: sample {name!r} has no # TYPE")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for label_match in _LABEL.finditer(raw_labels):
                labels[label_match.group(1)] = (
                    label_match.group(2)
                    .replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
                consumed = label_match.end()
            leftover = raw_labels[consumed:].strip(", ")
            if leftover:
                raise ValueError(
                    f"line {lineno}: malformed labels: {raw_labels!r}"
                )
        series = (name, frozenset(labels.items()))
        if series in seen:
            raise ValueError(f"line {lineno}: repeated sample {line!r}")
        seen.add(series)
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {raw_value!r}"
            ) from None
        families[family]["samples"].append((labels, value))
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


# ---------------------------------------------------------------------------
# Exporter (textfile + optional HTTP scrape endpoint)
# ---------------------------------------------------------------------------


class MetricsExporter:
    """Owns the two exposition transports for one run.

    ``export(monitor_sample)`` renders a fresh exposition and atomically
    rewrites ``path`` (when given); the HTTP endpoint (when ``port`` is
    given; ``0`` picks a free port, see :attr:`bound_port`) renders its
    own fresh exposition per scrape so it never serves a stale file.
    Binds 127.0.0.1 only — this is an operator's local scrape target,
    not a public service.
    """

    def __init__(
        self,
        path: Optional[str | Path] = None,
        port: Optional[int] = None,
        bus: Optional[Any] = None,
    ) -> None:
        from repro.obs.registry import registry as _global_registry

        self.path = Path(path) if path else None
        self.bus = bus
        self._registry = _global_registry()
        self._last_monitor_sample: Optional[dict[str, Any]] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self.bound_port: Optional[int] = None
        if port is not None:
            self._start_server(port)

    # -- rendering ------------------------------------------------------

    def render_now(self) -> str:
        try:
            registry_snapshot = self._registry.snapshot()
        except Exception:
            registry_snapshot = None
        bus_snapshot = None
        if self.bus is not None:
            try:
                bus_snapshot = self.bus.snapshot(recent=0)
            except Exception:
                bus_snapshot = None
        return render(
            registry_snapshot=registry_snapshot,
            monitor_sample=self._last_monitor_sample,
            bus_snapshot=bus_snapshot,
        )

    def export(self, monitor_sample: Optional[dict[str, Any]] = None) -> None:
        """Refresh the textfile (atomic temp + rename).  Called from the
        monitor's sampler thread; never raises into it."""
        if monitor_sample is not None:
            self._last_monitor_sample = monitor_sample
        if self.path is None:
            return
        try:
            text = self.render_now()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            scratch = self.path.with_suffix(
                self.path.suffix + f".tmp{os.getpid()}"
            )
            scratch.write_text(text)
            scratch.replace(self.path)
        except Exception:
            pass

    # -- HTTP endpoint --------------------------------------------------

    def _start_server(self, port: int) -> None:
        exporter = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?")[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                body = exporter.render_now().encode()
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the run's stderr

        self._server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self._server.daemon_threads = True
        self.bound_port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._server_thread.start()

    def close(self) -> None:
        """Final textfile refresh, then shut the scrape endpoint down."""
        self.export()
        server = self._server
        if server is not None:
            self._server = None
            server.shutdown()
            server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=2.0)
                self._server_thread = None

    def __enter__(self) -> "MetricsExporter":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False
