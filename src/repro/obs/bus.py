"""Live telemetry bus: streaming worker events while cones are in flight.

Everything the observability stack recorded before this module — spans,
cone timings, ledger rows — became visible only *after* a shard merged
or the run finished.  The bus is the live transport.  It owns a pipe,
created with the bus in the parent; a worker process forked later
inherits the bus along with the obs sink list, so the worker (and the
inline ``workers=1`` path, which runs the same code) writes one
line-framed JSON record per event to that pipe through its own
per-process emitter.  A parent-side reader thread aggregates the stream
into a per-worker view (`in-flight cone`, last heartbeat, event counts)
that the :class:`~repro.obs.monitor.RuntimeMonitor` folds into
status.json and :mod:`repro.obs.openmetrics` renders for scraping.

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
events add ``sink`` plus event-specific fields.  ``cone.start`` and
``cone.end`` come from :meth:`TelemetryBus.cone_started` and
:meth:`TelemetryBus.cone_finished`; ``cone.progress`` is the end of an
``algorithm1.<phase>`` obs span while a cone is in flight in the
process, which the bus sees as a span sink:

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
from typing import Any, Optional

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

#: Span-name prefix of the per-cone step's phases, which a cone in
#: flight reports as ``cone.progress``.
PHASE_PREFIX = "algorithm1."


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
        #: Start (``perf_counter``) of each open phase span of that cone.
        self.phase_began: dict[str, float] = {}
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


class TelemetryBus:
    """The bus's pipe, its send side, and the aggregate of the stream.

    Construct in the parent and install it as an obs sink.  Any process
    holding the bus — the parent, or a worker forked from it — sends
    through :meth:`cone_started`, :meth:`cone_finished` and :meth:`emit`,
    and through the :meth:`begin`/:meth:`end` span-sink methods, which
    turn the phases of the cone in flight into ``cone.progress``.  A
    daemon reader thread ingests records as they arrive;
    :meth:`snapshot` / :meth:`worker_summary` expose the aggregate to
    the monitor and the OpenMetrics exporter.  :meth:`close` stops this
    process's heartbeat, drains, and releases both pipe ends; a closed
    bus sends nothing.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT,
        max_recent: int = 256,
    ) -> None:
        self.run_id = run_id
        self.heartbeat_interval = heartbeat_interval
        self._read_fd, self._write_fd = os.pipe()
        # Non-blocking sends are what makes the queue bounded: a full
        # kernel buffer drops (counted) instead of stalling a worker.
        os.set_blocking(self._write_fd, False)
        self._lock = threading.Lock()
        self._closed = False
        self._emitter: Optional[_Emitter] = None
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

    def meta(self) -> dict[str, Any]:
        """The static record fields.  The run id is pinned on first use
        in the parent, so a forked worker, which keeps no sink but the
        bus, still names the run."""
        if self.run_id is None:
            self.run_id = _run_id()
        return {"run": self.run_id} if self.run_id is not None else {}

    # -- send side (any process holding the bus) -------------------------

    def _process_emitter(self) -> Optional[_Emitter]:
        """This process's emitter, rebuilt after a fork: a forked child
        inherits the bus but not its parent's heartbeat thread or lock
        state.  ``None`` once the bus is closed."""
        if self._closed:
            return None
        emitter = self._emitter
        if emitter is None or emitter.pid != os.getpid():
            emitter = self._emitter = _Emitter(
                self._write_fd, self.meta(), self.heartbeat_interval
            )
        return emitter

    def emit(self, ev: str, **fields: Any) -> bool:
        """Send one event record; False when it was dropped or the bus
        is closed.  Safe to call from any process/thread."""
        emitter = self._process_emitter()
        return emitter is not None and emitter.emit(ev, **fields)

    def cone_started(self, sink: str, **fields: Any) -> None:
        """A cone's step just began in this process.  Starts the
        heartbeat thread so liveness is visible even inside an opaque
        symbolic step."""
        emitter = self._process_emitter()
        if emitter is None:
            return
        emitter.current_sink = sink
        emitter.ensure_heartbeat()
        emitter.emit("cone.start", sink=sink, **fields)

    def cone_finished(self, sink: str, action: str, **fields: Any) -> None:
        """The cone delivered (any action).  Emits a ``cone.degrade``
        first when the step degraded itself."""
        emitter = self._process_emitter()
        if emitter is None:
            return
        if action == "copied":
            emitter.emit("cone.degrade", sink=sink,
                         reason=fields.get("degrade_reason"))
        emitter.current_sink = None
        emitter.emit("cone.end", sink=sink, action=action, **fields)

    def _in_flight(self) -> Optional[_Emitter]:
        """This process's emitter while a cone is in flight here (never
        builds one)."""
        emitter = self._emitter
        if (
            self._closed or emitter is None or emitter.current_sink is None
            or emitter.pid != os.getpid()
        ):
            return None
        return emitter

    def begin(self, name: str, args: Optional[dict[str, Any]] = None) -> None:
        """Sink method: a phase span of the cone in flight opens."""
        if name.startswith(PHASE_PREFIX):
            emitter = self._in_flight()
            if emitter is not None:
                emitter.phase_began[name] = time.perf_counter()

    def end(self, name: str) -> None:
        """Sink method: a phase span of the cone in flight closes, which
        sends ``cone.progress`` with the phase and its duration."""
        if not name.startswith(PHASE_PREFIX):
            return
        emitter = self._in_flight()
        if emitter is None or name not in emitter.phase_began:
            return
        dur = time.perf_counter() - emitter.phase_began.pop(name)
        emitter.emit(
            "cone.progress", sink=emitter.current_sink,
            phase=name[len(PHASE_PREFIX):], dur=round(dur, 6),
        )

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
        event (not even a heartbeat) for ``stall_after`` seconds
        (:data:`DEFAULT_STALL_AFTER` unless given) — the signature of a
        dead or wedged process.
        """
        horizon = DEFAULT_STALL_AFTER if stall_after is None else stall_after
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
        """Stop this process's heartbeat thread, close the parent's
        write end, wait for the reader to drain to EOF, and release the
        read end; the bus sends nothing afterwards.  EOF arrives once
        every child holding an inherited write fd has exited — the
        scheduler reaps its pools before the CLI closes the bus, so the
        wait is bounded by two seconds regardless."""
        if self._closed:
            return
        self._closed = True
        emitter = self._emitter
        if emitter is not None and emitter.pid == os.getpid():
            emitter.stop()
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
