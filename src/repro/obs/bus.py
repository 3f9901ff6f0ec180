"""Live telemetry bus: streaming worker events while cones are in flight.

Everything the observability stack recorded before this module — spans,
cone timings, ledger rows — became visible only *after* a shard merged
or the run finished.  The bus is the live transport: worker processes
(and the inline ``workers=1`` path, which runs the same code) write one
line-framed JSON record per event to a pipe the parent created before
forking, and a parent-side reader thread aggregates the stream into a
per-worker view (`in-flight cone`, last heartbeat, event counts) that
the :class:`~repro.obs.monitor.RuntimeMonitor` folds into status.json
and :mod:`repro.obs.openmetrics` renders for scraping.

Design constraints, in order:

* **Out-of-band.**  Telemetry must never change synthesis output.  The
  bus only observes; the scheduler's plan-ordered merge is untouched,
  so ``workers=N`` stays bit-identical with the bus on or off.
* **Truthful under pressure.**  The send side is a bounded queue in the
  only sense that matters for a pipe: the write end is non-blocking,
  and when the kernel buffer is full the event is *dropped and
  counted*, never blocked on.  Each subsequent successful record
  carries the emitter's cumulative ``dropped`` count, and the parent
  counts unparseable/torn lines, so ``bus.events_dropped`` is exact.
* **No torn lines.**  Records are capped below ``PIPE_BUF`` (POSIX
  guarantees atomic pipe writes up to that size), so a reader never
  sees two workers' bytes interleaved mid-line; an oversized record is
  replaced by a small ``truncated`` marker rather than split.
* **Import-free when off.**  Engine layers reach the bus only as an
  installed obs sink (``obs.install(bus)``) — a run without telemetry
  flags never imports this module (``tests/test_telemetry.py`` asserts
  exactly that in a fresh interpreter).

Record schema (version :data:`RECORD_VERSION`): every record carries
``v``, ``ev`` (event name), ``pid``, ``t`` (unix time) and ``run`` (the
bus's run id, else the one the obs sink list names) when known.  Cone
events add ``sink`` plus event-specific fields:

=================  ====================================================
``cone.start``     ``sink``, ``cone_inputs``
``cone.progress``  ``sink``, ``phase`` (collapse/dontcare/decompose/
                   instantiate), ``dur``
``heartbeat``      ``sink`` currently in flight (``None`` when idle)
``cone.degrade``   ``sink``, ``reason``
``cone.end``       ``sink``, ``action``, ``elapsed``
=================  ====================================================

The parent also folds its own obs events into the same aggregate
(:meth:`TelemetryBus.event` → :meth:`TelemetryBus.record_local`): the
parallel pass's ``shard.dispatch``, and the ``cone`` event the engine
publishes once per committed sink on either transport.  So the stream a
dashboard sees is one coherent timeline.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Iterator, Optional

from repro.obs.registry import log as _log
from repro.obs.registry import run_id as _run_id

RECORD_VERSION = 1

#: The parent's own obs events the bus folds into its aggregate.
LOCAL_EVENTS = ("shard.dispatch", "cone")

#: Hard cap on one encoded record.  POSIX guarantees pipe writes up to
#: ``PIPE_BUF`` (>= 512, 4096 on Linux) are atomic; staying well under
#: it means a record is written whole or not at all — never torn.
MAX_RECORD_BYTES = 3072

#: Default worker heartbeat period in seconds (0 disables heartbeats).
DEFAULT_HEARTBEAT = 0.5

#: Default liveness horizon: a worker whose cone has been in flight
#: with no event for this long is considered stalled.
DEFAULT_STALL_AFTER = 10.0


# ---------------------------------------------------------------------------
# Worker side (also used by the inline workers=1 path in the parent)
# ---------------------------------------------------------------------------

#: Write-end fd + static record fields, set by ``TelemetryBus.attached()``
#: *before* the process pool forks so children inherit them.  ``None``
#: means "no bus" and every emit function returns immediately.
_WORKER_FD: Optional[int] = None
_WORKER_META: dict[str, Any] = {}
_WORKER_HEARTBEAT: float = DEFAULT_HEARTBEAT

_emitter: Optional["_Emitter"] = None


class _Emitter:
    """Per-process send side: serialises records and writes them to the
    inherited pipe fd, dropping (and counting) on back-pressure."""

    def __init__(self, fd: int, meta: dict[str, Any], heartbeat: float) -> None:
        self.fd = fd
        self.meta = dict(meta)
        self.heartbeat = heartbeat
        self.pid = os.getpid()
        self.dropped = 0
        self.current_sink: Optional[str] = None
        self._lock = threading.Lock()
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_stop = threading.Event()

    def emit(self, ev: str, **fields: Any) -> bool:
        record: dict[str, Any] = {
            "v": RECORD_VERSION,
            "ev": ev,
            "pid": self.pid,
            "t": time.time(),
        }
        record.update(self.meta)
        record.update(fields)
        if self.dropped:
            record["dropped"] = self.dropped
        data = (json.dumps(record, separators=(",", ":"), default=str)
                + "\n").encode()
        if len(data) > MAX_RECORD_BYTES:
            # Replace, don't split: a split record would tear the frame.
            marker = {
                "v": RECORD_VERSION, "ev": ev, "pid": self.pid,
                "t": record["t"], "truncated": True,
            }
            if self.dropped:
                marker["dropped"] = self.dropped
            data = (json.dumps(marker, separators=(",", ":")) + "\n").encode()
        with self._lock:
            try:
                os.write(self.fd, data)
                return True
            except (BlockingIOError, InterruptedError):
                self.dropped += 1  # kernel buffer full: bounded queue
            except OSError:
                self.dropped += 1  # reader gone; stay silent forever
            return False

    # -- heartbeat ------------------------------------------------------

    def ensure_heartbeat(self) -> None:
        if self.heartbeat <= 0 or self._hb_thread is not None:
            return
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-bus-heartbeat",
            daemon=True,
        )
        self._hb_thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.heartbeat):
            sink = self.current_sink
            if sink is not None:
                self.emit("heartbeat", sink=sink)

    def stop(self) -> None:
        self._hb_stop.set()


def _current_emitter() -> Optional[_Emitter]:
    """The process-local emitter, rebuilt after a fork (a forked child
    inherits the parent's fd and meta but not its threads or lock
    state, so the object itself must be fresh)."""
    global _emitter
    fd = _WORKER_FD
    if fd is None:
        return None
    emitter = _emitter
    if emitter is None or emitter.pid != os.getpid() or emitter.fd != fd:
        emitter = _emitter = _Emitter(fd, _WORKER_META, _WORKER_HEARTBEAT)
    return emitter


def emit(ev: str, **fields: Any) -> bool:
    """Send one event record (no-op returning False when no bus is
    attached).  Safe to call from any process/thread."""
    emitter = _current_emitter()
    if emitter is None:
        return False
    return emitter.emit(ev, **fields)


def cone_started(sink: str, **fields: Any) -> None:
    """Worker hook: a cone's rebuild just began.  Starts the heartbeat
    thread so liveness is visible even inside an opaque symbolic step."""
    emitter = _current_emitter()
    if emitter is None:
        return
    emitter.current_sink = sink
    emitter.ensure_heartbeat()
    emitter.emit("cone.start", sink=sink, **fields)


def cone_progress(sink: str, phase: str, dur: float) -> None:
    """Worker hook: one phase of the in-flight cone's step
    (collapse/dontcare/decompose/instantiate) completed."""
    emitter = _current_emitter()
    if emitter is None:
        return
    emitter.emit("cone.progress", sink=sink, phase=phase,
                 dur=round(dur, 6))


def cone_finished(sink: str, action: str, **fields: Any) -> None:
    """Worker hook: the cone delivered (any action).  Emits a
    ``cone.degrade`` first when the worker degraded itself."""
    emitter = _current_emitter()
    if emitter is None:
        return
    if action == "copied":
        emitter.emit("cone.degrade", sink=sink,
                     reason=fields.get("degrade_reason"))
    emitter.current_sink = None
    emitter.emit("cone.end", sink=sink, action=action, **fields)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class TelemetryBus:
    """Parent-side transport + aggregate of the worker event stream.

    Construct in the parent and install it as an obs sink; the parallel
    pass wraps pool execution in :meth:`attached` so forked workers
    inherit the write end, and workers reach the ``cone_*`` hooks below
    through the inherited sink list.  A daemon reader thread ingests
    records as they arrive; :meth:`snapshot` / :meth:`worker_summary`
    expose the aggregate to the monitor and the OpenMetrics exporter.
    :meth:`close` detaches, drains, and releases both pipe ends.
    """

    # Worker-side hooks (the module-level functions above).
    cone_started = staticmethod(cone_started)
    cone_progress = staticmethod(cone_progress)
    cone_finished = staticmethod(cone_finished)

    def __init__(
        self,
        run_id: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT,
        stall_after: float = DEFAULT_STALL_AFTER,
        max_recent: int = 256,
    ) -> None:
        self.run_id = run_id
        self.heartbeat_interval = heartbeat_interval
        self.stall_after = stall_after
        self._read_fd, self._write_fd = os.pipe()
        # Non-blocking sends are what makes the queue bounded: a full
        # kernel buffer drops (counted) instead of stalling a worker.
        os.set_blocking(self._write_fd, False)
        self._lock = threading.Lock()
        self._closed = False
        self.started_at = time.time()
        self.workers: dict[int, dict[str, Any]] = {}
        self.counts: dict[str, int] = {}
        self.recent: deque[dict[str, Any]] = deque(maxlen=max_recent)
        #: Lines that failed to parse (torn/corrupt) — reader-side drops.
        self.parse_errors = 0
        #: Per-pid cumulative drop counts reported by emitters.
        self._reported_drops: dict[int, int] = {}
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-bus-reader", daemon=True
        )
        self._reader.start()

    # -- attach/detach --------------------------------------------------

    def meta(self) -> dict[str, Any]:
        run = self.run_id or _run_id()
        return {"run": run} if run is not None else {}

    def attached(self) -> "_Attachment":
        """Context manager installing this bus as the process's emit
        target.  Enter *before* creating a fork pool so children inherit
        the write fd and meta; the previous target is restored on exit
        (attachments nest)."""
        return _Attachment(self)

    # -- ingest ---------------------------------------------------------

    def _read_loop(self) -> None:
        buffer = b""
        while True:
            try:
                chunk = os.read(self._read_fd, 65536)
            except OSError:
                break
            if not chunk:
                break
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                self._ingest(line)
        if buffer:
            # Trailing bytes with no newline at EOF: a torn final write
            # (e.g. a worker killed mid-line) — counted, never raised.
            self._ingest(buffer)

    def _ingest(self, line: bytes) -> None:
        if not line.strip():
            return
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except (ValueError, UnicodeDecodeError):
            with self._lock:
                self.parse_errors += 1
            return
        self._aggregate(record, received=time.time())
        # Worker records are facts no other sink saw: mirror them into
        # the run log.  A record the log rejects must not stop the
        # reader thread.
        try:
            _log(
                "debug", f"bus.{record.get('ev')}",
                **{k: v for k, v in record.items()
                   if k not in ("v", "ev", "t")},
            )
        except Exception:
            pass

    def record_local(self, ev: str, **fields: Any) -> None:
        """Fold a parent-side event (a committed cone, dispatch) into
        the aggregate without a pipe round trip."""
        record = {"v": RECORD_VERSION, "ev": ev, "pid": os.getpid(),
                  "t": time.time()}
        record.update(self.meta())
        record.update(fields)
        self._aggregate(record, received=record["t"], local=True)

    def event(self, name: str, fields: dict[str, Any]) -> None:
        """Sink method: fold the parent's :data:`LOCAL_EVENTS`."""
        if name in LOCAL_EVENTS:
            self.record_local(name, **fields)

    def _aggregate(
        self, record: dict[str, Any], received: float, local: bool = False
    ) -> None:
        ev = str(record.get("ev") or "unknown")
        pid = record.get("pid")
        with self._lock:
            self.counts[ev] = self.counts.get(ev, 0) + 1
            self.recent.append(record)
            if not isinstance(pid, int):
                return
            reported = record.get("dropped")
            if isinstance(reported, (int, float)) and reported > 0:
                previous = self._reported_drops.get(pid, 0)
                if reported > previous:
                    self._reported_drops[pid] = int(reported)
            if local:
                return
            worker = self.workers.setdefault(
                pid,
                {
                    "pid": pid, "events": 0, "state": "idle",
                    "sink": None, "sink_started": None,
                    "last_action": None, "first_seen": received,
                },
            )
            worker["events"] += 1
            worker["last_seen"] = received
            if ev == "cone.start":
                worker["state"] = "busy"
                worker["sink"] = record.get("sink")
                worker["sink_started"] = received
                worker["cone_inputs"] = record.get("cone_inputs")
            elif ev == "cone.progress":
                worker["phase"] = record.get("phase")
            elif ev == "cone.end":
                worker["state"] = "idle"
                worker["sink"] = None
                worker["sink_started"] = None
                worker["phase"] = None
                worker["last_action"] = record.get("action")
            elif ev == "cone.degrade":
                worker["degraded"] = worker.get("degraded", 0) + 1

    # -- aggregate views ------------------------------------------------

    @property
    def events_dropped(self) -> int:
        """Exact count of records that never made it into the aggregate:
        emitter-side drops (back-pressure) plus reader-side parse
        failures (torn/corrupt lines)."""
        with self._lock:
            return self.parse_errors + sum(self._reported_drops.values())

    def events_total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def worker_summary(
        self,
        stall_after: Optional[float] = None,
        now: Optional[float] = None,
    ) -> list[dict[str, Any]]:
        """Per-worker liveness rows for status.json.

        A worker is **stalled** when its cone has been in flight with no
        event (not even a heartbeat) for ``stall_after`` seconds — the
        signature of a dead or wedged process.
        """
        horizon = self.stall_after if stall_after is None else stall_after
        current = time.time() if now is None else now
        rows: list[dict[str, Any]] = []
        with self._lock:
            workers = [dict(w) for w in self.workers.values()]
        for worker in sorted(workers, key=lambda w: w["pid"]):
            row = {
                "pid": worker["pid"],
                "state": worker["state"],
                "sink": worker.get("sink"),
                "phase": worker.get("phase"),
                "events": worker["events"],
                "last_action": worker.get("last_action"),
                "last_event_age": round(
                    max(0.0, current - worker.get("last_seen", current)), 3
                ),
                "stalled": False,
            }
            if worker["state"] == "busy":
                started = worker.get("sink_started") or current
                row["in_flight_s"] = round(max(0.0, current - started), 3)
                if row["last_event_age"] > horizon:
                    row["stalled"] = True
                    row["stall_reason"] = (
                        f"no event for {row['last_event_age']:.1f}s"
                    )
            rows.append(row)
        return rows

    def snapshot(self, recent: int = 16) -> dict[str, Any]:
        """JSON-safe aggregate: event counts, drop accounting, per-worker
        rows, and the ``recent`` newest raw records."""
        with self._lock:
            counts = dict(self.counts)
            tail = list(self.recent)[-recent:] if recent else []
            parse_errors = self.parse_errors
            reported = sum(self._reported_drops.values())
        return {
            "run": self.run_id or _run_id(),
            "started_at": self.started_at,
            "events": counts,
            "events_total": sum(counts.values()),
            "events_dropped": parse_errors + reported,
            "parse_errors": parse_errors,
            "workers": self.worker_summary(),
            "recent": tail,
        }

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Detach (if attached), close the parent's write end, wait for
        the reader to drain to EOF, and release the read end.  EOF
        arrives once every child holding an inherited write fd has
        exited — the scheduler reaps its pools before the CLI closes the
        bus, so the wait is bounded by two seconds regardless."""
        if self._closed:
            return
        self._closed = True
        global _WORKER_FD
        if _WORKER_FD == self._write_fd:
            _detach()
        try:
            os.close(self._write_fd)
        except OSError:
            pass
        self._reader.join(timeout=2.0)
        try:
            os.close(self._read_fd)
        except OSError:
            pass

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class _Attachment:
    """Installs a bus's write end as the process emit target for a
    ``with`` block (restoring the previous target on exit)."""

    def __init__(self, bus: TelemetryBus) -> None:
        self.bus = bus
        self._previous: Optional[tuple[int, dict[str, Any], float]] = None

    def __enter__(self) -> TelemetryBus:
        global _WORKER_FD, _WORKER_META, _WORKER_HEARTBEAT, _emitter
        self._previous = (_WORKER_FD, dict(_WORKER_META), _WORKER_HEARTBEAT)
        _WORKER_FD = self.bus._write_fd
        _WORKER_META = self.bus.meta()
        _WORKER_HEARTBEAT = self.bus.heartbeat_interval
        _emitter = None
        return self.bus

    def __exit__(self, *exc: object) -> bool:
        global _WORKER_FD, _WORKER_META, _WORKER_HEARTBEAT, _emitter
        emitter = _emitter
        if emitter is not None:
            emitter.stop()
        fd, meta, heartbeat = self._previous
        _WORKER_FD, _WORKER_META, _WORKER_HEARTBEAT = fd, meta, heartbeat
        _emitter = None
        return False


def _detach() -> None:
    """Clear the process emit target (used by ``TelemetryBus.close``)."""
    global _WORKER_FD, _WORKER_META, _emitter
    emitter = _emitter
    if emitter is not None:
        emitter.stop()
    _WORKER_FD = None
    _WORKER_META = {}
    _emitter = None
