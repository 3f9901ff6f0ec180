"""Per-instance trace recording: span timelines you can replay.

The :mod:`repro.obs.registry` keeps *aggregates* (one
:class:`~repro.obs.registry.SpanStat` per span path) — great for a
profile table, useless for answering "when did the run stall?" or "which
pass was live when the governor latched?".  This module adds an opt-in
:class:`TraceRecorder`: a bounded ring buffer of begin/end/instant/
counter records with monotonic microsecond timestamps and thread ids,
exportable as

* **Chrome trace-event JSON** — loadable directly in Perfetto or
  ``chrome://tracing`` (``{"traceEvents": [...]}`` with ``B``/``E``
  duration events, ``i`` instants and ``C`` counter tracks), and
* **JSONL** — one record per line, streaming-friendly for external
  tooling (convert back with ``repro trace FILE --convert OUT``).

Install a recorder as an obs sink (``obs.install(recorder)``, or the
:func:`tracing` context manager) and every span begin/end and obs event
is mirrored into it: an event record becomes an instant whose ``args``
are the record's fields without the obs envelope (the trace has its own
``ts``/``pid``/``tid``).  The :class:`~repro.obs.monitor.RuntimeMonitor`
feeds counter samples the same way.  A cone decomposed in a forked
parallel worker is drawn from its ``cone`` record, on a track per
worker pid.  Recording costs one lock acquisition per record and
nothing when no recorder is installed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

# NB: ``from repro.obs import registry`` would resolve to the accessor
# *function* the package re-exports, not the module — import the needed
# names straight from the submodule instead.
from repro.obs.registry import ENVELOPE, Ring
from repro.obs.registry import install as _install
from repro.obs.registry import scope as _obs_scope
from repro.obs.registry import uninstall as _uninstall

#: Ring-buffer capacity (records, oldest dropped first).
DEFAULT_CAPACITY = 200_000

#: Trailing records a crash bundle embeds.
CRASH_TAIL = 500


class TraceRecorder:
    """Bounded in-memory recorder of trace-event records.

    Records are plain dicts in Chrome trace-event shape (``ph``/``ts``/
    ``pid``/``tid``/``name`` plus optional ``args``); timestamps are
    microseconds on a monotonic clock whose zero is the recorder's
    construction time.  The buffer is a :class:`Ring` of
    :data:`DEFAULT_CAPACITY`: once it is full the oldest records are
    dropped and :attr:`dropped` counts them, so a multi-hour run keeps
    its *tail* — the part you need when it dies.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._records = Ring(DEFAULT_CAPACITY)
        self._epoch_perf = time.perf_counter()
        self._epoch_wall = time.time()

    # -- recording ------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Records the ring displaced."""
        return self._records.dropped

    def now_us(self) -> float:
        """Microseconds since the recorder was created (monotonic)."""
        return (time.perf_counter() - self._epoch_perf) * 1e6

    def begin(self, name: str, args: Optional[dict[str, Any]] = None) -> None:
        """Record the opening edge of a duration span on this thread."""
        record = {
            "ph": "B",
            "ts": round(self.now_us(), 3),
            "pid": self.pid,
            "tid": threading.get_ident(),
            "name": name,
        }
        if args:
            record["args"] = args
        self._records.append(record)

    def end(self, name: str) -> None:
        """Record the closing edge of the innermost ``name`` span."""
        self._records.append(
            {
                "ph": "E",
                "ts": round(self.now_us(), 3),
                "pid": self.pid,
                "tid": threading.get_ident(),
                "name": name,
            }
        )

    def instant(self, name: str, args: Optional[dict[str, Any]] = None) -> None:
        """Record a point-in-time event (rendered as an arrow/marker)."""
        record = {
            "ph": "i",
            "ts": round(self.now_us(), 3),
            "pid": self.pid,
            "tid": threading.get_ident(),
            "name": name,
            "s": "t",
        }
        if args:
            record["args"] = args
        self._records.append(record)

    def event(self, record: dict[str, Any]) -> None:
        """Sink method: an obs event record becomes an instant, and a
        ``cone`` record from a forked worker also draws the worker's
        step."""
        args = {k: v for k, v in record.items() if k not in ENVELOPE}
        self.instant(record["ev"], args or None)
        if record["ev"] == "cone" and record.get("worker_pid") not in (
            None, self.pid,
        ):
            self._worker_cone(record)

    def _worker_cone(self, cone: dict[str, Any]) -> None:
        """Draw a forked worker's cone on the track of its pid: a
        ``parallel.cone`` span holding the step's phases, laid end to
        end, as ``algorithm1.<phase>`` spans.  The records go in nesting
        order.  The worker's wall-clock ``started`` is aligned to this
        recorder's timeline via the wall clock captured at construction
        (clock skew is negligible on one host).  An inline cone's spans
        are recorded live instead."""
        started = cone.get("started")
        if started is None:
            return
        tid = int(cone["worker_pid"])

        def edge(ph: str, name: str, ts: float) -> dict[str, Any]:
            return {"ph": ph, "ts": round(ts, 3), "pid": self.pid,
                    "tid": tid, "name": name}

        begin = max(0.0, (started - self._epoch_wall) * 1e6)
        records = [edge("B", "parallel.cone", begin)]
        records[0]["args"] = {
            "sink": cone.get("signal"), "action": cone.get("action"),
        }
        offset = begin
        for phase, seconds in (cone.get("phases") or {}).items():
            records.append(edge("B", f"algorithm1.{phase}", offset))
            offset += seconds * 1e6
            records.append(edge("E", f"algorithm1.{phase}", offset))
        elapsed = cone.get("elapsed") or 0.0
        records.append(edge("E", "parallel.cone", begin + elapsed * 1e6))
        self._records.append(*records)

    def crash_keys(self) -> dict[str, Any]:
        """Sink method: the buffer's tail for a crash bundle."""
        return {
            "trace": {"dropped": self.dropped, "tail": self.tail(CRASH_TAIL)}
        }

    def counter(self, name: str, values: dict[str, float]) -> None:
        """Record a sample on counter track ``name`` (one series per
        key) — Perfetto renders these as stacked area charts."""
        self._records.append(
            {
                "ph": "C",
                "ts": round(self.now_us(), 3),
                "pid": self.pid,
                "tid": threading.get_ident(),
                "name": name,
                "args": dict(values),
            }
        )

    # -- access / export ------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Snapshot of the buffered records, oldest first."""
        return self._records.tail()

    def tail(self, count: int = 200) -> list[dict[str, Any]]:
        """The most recent ``count`` records (crash-bundle fodder)."""
        return self._records.tail(count)

    def metadata(self) -> dict[str, Any]:
        """Recorder provenance embedded in exports."""
        return {
            "pid": self.pid,
            "capacity": self._records.maxlen,
            "dropped": self.dropped,
            "epoch_unix": self._epoch_wall,
        }

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace-event JSON object for this buffer."""
        return records_to_chrome(self.records(), metadata=self.metadata())

    def write(self, path: str | Path) -> Path:
        """Write the buffer to ``path``: JSONL when the suffix is
        ``.jsonl``, Chrome trace-event JSON otherwise."""
        target = Path(path)
        if target.suffix == ".jsonl":
            return self.write_jsonl(target)
        return self.write_chrome(target)

    def write_chrome(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as handle:
            json.dump(self.to_chrome(), handle)
            handle.write("\n")
        return target

    def write_jsonl(self, path: str | Path) -> Path:
        """One JSON record per line; the first line is a ``repro.trace``
        metadata record so converters can recover provenance."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as handle:
            meta = {
                "ph": "M",
                "ts": 0,
                "pid": self.pid,
                "tid": 0,
                "name": "repro.trace",
                "args": self.metadata(),
            }
            handle.write(json.dumps(meta) + "\n")
            for record in self.records():
                handle.write(json.dumps(record) + "\n")
        return target


@contextmanager
def tracing() -> Iterator[TraceRecorder]:
    """Install a recorder and enable obs for a block, uninstalling the
    recorder on exit::

        with obs.tracing() as recorder:
            run_workload()
        recorder.write("run.trace")
    """
    recorder = TraceRecorder()
    _install(recorder)
    try:
        with _obs_scope():
            yield recorder
    finally:
        _uninstall(recorder)


# ---------------------------------------------------------------------------
# Loading, conversion and summarisation (the `repro trace` subcommand)
# ---------------------------------------------------------------------------


def records_to_chrome(
    records: Iterable[dict[str, Any]],
    metadata: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Wrap raw records in the Chrome trace-event envelope, prepending
    process/thread-name metadata events so viewers label the tracks."""
    records = [r for r in records if r.get("ph") != "M"]
    events: list[dict[str, Any]] = []
    pid = records[0]["pid"] if records else os.getpid()
    events.append(
        {
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro"},
        }
    )
    for tid in sorted({r["tid"] for r in records}):
        events.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": f"thread-{tid}"},
            }
        )
    events.extend(records)
    payload: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["otherData"] = metadata
    return payload


def load_trace(path: str | Path) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Read a trace file in either format.

    Returns ``(records, metadata)`` where ``records`` excludes ``M``
    metadata events.  Chrome files are detected by their ``{`` first
    byte + ``traceEvents`` key; everything else is parsed as JSONL.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    metadata: dict[str, Any] = {}
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "traceEvents" in payload:
            metadata = dict(payload.get("otherData") or {})
            records = [
                r for r in payload["traceEvents"] if r.get("ph") != "M"
            ]
            return records, metadata
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("ph") == "M":
            if record.get("name") == "repro.trace":
                metadata = dict(record.get("args") or {})
            continue
        records.append(record)
    return records, metadata


def summarize(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Timeline statistics for a record list.

    Walks each thread's ``B``/``E`` stream with an explicit stack and
    accumulates per-name totals, *self time* (duration minus nested
    children), instant-event and counter-sample counts.  ``B`` records
    whose ``E`` never arrived (the run died inside them) are reported
    under ``"unclosed"``; ``E`` records whose ``B`` was dropped by the
    ring buffer count as ``"orphan_ends"``.
    """
    spans: dict[str, dict[str, Any]] = {}
    stacks: dict[int, list[dict[str, Any]]] = {}
    counters: dict[str, int] = {}
    instants: dict[str, int] = {}
    orphan_ends = 0
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    for record in records:
        ts = float(record.get("ts", 0.0))
        if first_ts is None or ts < first_ts:
            first_ts = ts
        if last_ts is None or ts > last_ts:
            last_ts = ts
        ph = record.get("ph")
        tid = record.get("tid", 0)
        name = record.get("name", "?")
        if ph == "B":
            stacks.setdefault(tid, []).append(
                {"name": name, "start": ts, "child": 0.0}
            )
        elif ph == "E":
            stack = stacks.get(tid)
            if not stack or stack[-1]["name"] != name:
                # Tolerate an orphan E whose B fell off the ring buffer
                # (or interleaved nesting from hand-written traces).
                while stack and stack[-1]["name"] != name:
                    stack.pop()
                if not stack:
                    orphan_ends += 1
                    continue
            frame = stack.pop()
            duration = ts - frame["start"]
            stat = spans.setdefault(
                name,
                {"count": 0, "total_us": 0.0, "self_us": 0.0, "max_us": 0.0},
            )
            stat["count"] += 1
            stat["total_us"] += duration
            stat["self_us"] += duration - frame["child"]
            if duration > stat["max_us"]:
                stat["max_us"] = duration
            if stack:
                stack[-1]["child"] += duration
        elif ph == "C":
            counters[name] = counters.get(name, 0) + 1
        elif ph == "i":
            instants[name] = instants.get(name, 0) + 1
    unclosed = [
        {"tid": tid, "name": frame["name"], "start_us": frame["start"]}
        for tid, stack in stacks.items()
        for frame in stack
    ]
    return {
        "records": len(records),
        "duration_us": (last_ts - first_ts) if records else 0.0,
        "tids": sorted(stacks.keys() | {r.get("tid", 0) for r in records}),
        "spans": spans,
        "counters": counters,
        "instants": instants,
        "unclosed": unclosed,
        "orphan_ends": orphan_ends,
    }


def render_summary(
    summary: dict[str, Any],
    metadata: Optional[dict[str, Any]] = None,
    top: int = 10,
) -> str:
    """Human-readable digest of :func:`summarize` output."""
    lines: list[str] = []
    duration_ms = summary["duration_us"] / 1000.0
    lines.append(
        f"{summary['records']} records over {duration_ms:.1f}ms on "
        f"{len(summary['tids'])} thread(s)"
    )
    if metadata:
        dropped = metadata.get("dropped", 0)
        if dropped:
            lines.append(f"ring buffer dropped {dropped} oldest record(s)")
    spans = summary["spans"]
    if spans:
        lines.append("")
        lines.append(f"top spans by self time (of {len(spans)})")
        lines.append(
            f"  {'span':<40} {'count':>7} {'self(ms)':>10} {'total(ms)':>10} "
            f"{'max(ms)':>9}"
        )
        ranked = sorted(spans.items(), key=lambda item: -item[1]["self_us"])
        for name, stat in ranked[:top]:
            lines.append(
                f"  {name:<40} {stat['count']:>7} "
                f"{stat['self_us'] / 1000:>10.3f} "
                f"{stat['total_us'] / 1000:>10.3f} "
                f"{stat['max_us'] / 1000:>9.3f}"
            )
    if summary["counters"]:
        lines.append("")
        lines.append("counter tracks")
        for name, count in sorted(summary["counters"].items()):
            lines.append(f"  {name:<40} {count:>7} sample(s)")
    if summary["instants"]:
        lines.append("")
        lines.append("instant events")
        for name, count in sorted(summary["instants"].items()):
            lines.append(f"  {name:<40} {count:>7}")
    if summary["unclosed"]:
        lines.append("")
        lines.append("unclosed spans (run ended inside them)")
        for frame in summary["unclosed"]:
            lines.append(f"  tid {frame['tid']}: {frame['name']}")
    if summary["orphan_ends"]:
        lines.append(
            f"  ({summary['orphan_ends']} end record(s) whose begin was "
            f"dropped by the ring buffer)"
        )
    return "\n".join(lines)
