"""Process-wide observability registry: counters, gauges, histograms and
nestable timed spans.

The registry is **disabled by default** and designed so that instrumented
code pays near-zero cost when it stays disabled: every public recording
function starts with a single module-flag check and returns immediately,
and :func:`span` hands back a shared no-op context manager.  Hot loops
that cannot afford even a function call per event (the BDD operator
recursions) keep local integer counters instead and are aggregated into
the registry at report time — see ``repro.bdd.manager``.

Metric names are dotted paths whose first segment is the *family*
(``bdd``, ``reach``, ``bidec``, ``algorithm1``, ...); :func:`report`
groups the snapshot by family so downstream tooling can diff one
subsystem at a time.  Span timings are keyed by the full nesting path
(``algorithm1.run/reach.fixpoint``), giving a phase-scoped profile; the
span stack is thread-local so concurrent workers do not corrupt each
other's paths.

Each event is one *record* (:func:`record`): a dict whose versioned
envelope (:data:`ENVELOPE`) is ``v`` (:data:`RECORD_VERSION`), ``ev``
(the event's name), ``t`` (unix time), ``pid`` and, when a sink names
the run, ``run``, followed by the event's own fields.  :func:`event`
builds it once, keeps it in the registry's event ring while metrics
are on, and hands that same dict to the installed *sinks*
(:func:`install`): the trace recorder, the structured log, the
telemetry bus, a ledger run.  A sink implements only the methods it
needs:

``begin(name, args)`` / ``end(name)``
    span edges (spans reach sinks even while metrics are off);
``event(record)``
    every :func:`event`, likewise independent of the metrics switch;
``counter(name, values)``, ``log(record, level)``,
``crash_keys()``, ``status_keys()``, ``cone_started`` / ``cone_finished``
    monitor samples, log records, crash-bundle and status.json keys,
    and a cone step's start and end for the telemetry bus, looked up
    with :func:`sinks`.

A sink with a ``run_id`` attribute names the run (:func:`run_id`).
Every bounded obs buffer is a :class:`Ring`, which counts exactly what
it drops.
"""

from __future__ import annotations

import math
import os
import threading
import time
import weakref
from collections import deque
from typing import Any, Iterable, Iterator, Optional

#: Maximum number of retained events (oldest are dropped first).
MAX_EVENTS = 1024

#: Version of the record schema every sink reads.
RECORD_VERSION = 1

#: The keys :func:`record` puts around a fact's own fields.
ENVELOPE = ("v", "ev", "t", "pid", "run")

_enabled = False

_sinks_lock = threading.Lock()
_sinks: tuple[Any, ...] = ()
#: The sinks with span / event methods, kept apart for the fast paths.
_span_sinks: tuple[Any, ...] = ()
_event_sinks: tuple[Any, ...] = ()


def _set_sinks(new: tuple[Any, ...]) -> None:
    global _sinks, _span_sinks, _event_sinks
    _sinks = new
    _span_sinks = sinks("begin")
    _event_sinks = sinks("event")


def install(sink: Any) -> Any:
    """Add ``sink`` to the process-wide sink list (a no-op when it is
    already there) and return it."""
    with _sinks_lock:
        if not any(s is sink for s in _sinks):
            _set_sinks(_sinks + (sink,))
    return sink


def uninstall(sink: Any) -> None:
    """Remove ``sink`` from the sink list (a no-op when absent)."""
    with _sinks_lock:
        _set_sinks(tuple(s for s in _sinks if s is not sink))


def sinks(method: Optional[str] = None) -> tuple[Any, ...]:
    """The installed sinks in install order, or only those that
    implement ``method``."""
    installed = _sinks
    if method is None:
        return installed
    return tuple(s for s in installed if callable(getattr(s, method, None)))


def run_id() -> Optional[str]:
    """The id of the run in flight: the first sink ``run_id`` set."""
    return next(
        (s.run_id for s in _sinks if getattr(s, "run_id", None)), None
    )


def record(ev: str, **fields: Any) -> dict[str, Any]:
    """The fact ``ev`` as one versioned record: the :data:`ENVELOPE`
    (``run`` only when a sink names the run), then ``fields``."""
    built: dict[str, Any] = {
        "v": RECORD_VERSION, "ev": ev, "t": time.time(), "pid": os.getpid(),
    }
    run = run_id()
    if run is not None:
        built["run"] = run
    built.update(fields)
    return built


def log(record: dict[str, Any], level: str) -> None:
    """Write one record at ``level`` to every sink that keeps a log."""
    for sink in sinks("log"):
        sink.log(record, level)


def enabled() -> bool:
    """Whether instrumentation is currently collected."""
    return _enabled


def enable() -> None:
    """Turn metric collection on (globally, process-wide).

    Enable *before* constructing :class:`~repro.bdd.manager.BDDManager`
    instances whose cache statistics should be tracked — managers decide
    at construction time whether to keep per-operation counters.
    """
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn metric collection off; collected data is kept until
    :func:`reset`."""
    global _enabled
    _enabled = False


class scope:
    """Context manager that enables collection for a block and restores
    the previous state on exit::

        with obs.scope():
            run_workload()
        report = obs.report()
    """

    def __init__(self, on: bool = True) -> None:
        self._on = on
        self._previous = False

    def __enter__(self) -> "scope":
        global _enabled
        self._previous = _enabled
        _enabled = self._on
        return self

    def __exit__(self, *exc: object) -> bool:
        global _enabled
        _enabled = self._previous
        return False


# ---------------------------------------------------------------------------
# Metric containers
# ---------------------------------------------------------------------------


class Ring:
    """A locked bounded buffer of records.  Once it holds ``maxlen``,
    each append displaces the oldest record and counts it in
    :attr:`dropped`, so a long run keeps its tail and says what it
    lost."""

    def __init__(self, maxlen: int) -> None:
        self.maxlen = maxlen
        self.dropped = 0
        self._records: deque[dict[str, Any]] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def append(self, *records: dict[str, Any]) -> None:
        with self._lock:
            self.dropped += max(
                0, len(self._records) + len(records) - self.maxlen
            )
            self._records.extend(records)

    def tail(self, n: Optional[int] = None) -> list[dict[str, Any]]:
        """The newest ``n`` records (every record by default), oldest
        first."""
        with self._lock:
            records = list(self._records)
        if n is None:
            return records
        return records[max(0, len(records) - n):]


class Histogram:
    """Streaming distribution summary: count/total/min/max plus sparse
    power-of-two buckets (bucket key ``e`` counts values in
    ``(2^(e-1), 2^e]``; non-positive values land in bucket ``0``)."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = max(0, math.ceil(math.log2(value))) if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def as_dict(self) -> dict[str, Any]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class SpanStat:
    """Aggregate of all completions of one span path."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, elapsed: float) -> None:
        self.count += 1
        self.total += elapsed
        if self.min is None or elapsed < self.min:
            self.min = elapsed
        if self.max is None or elapsed > self.max:
            self.max = elapsed

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else 0.0,
        }


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class Registry:
    """Holds every collected metric.  One process-wide instance exists
    (module functions below delegate to it); tests may build private
    instances."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.spans: dict[str, SpanStat] = {}
        #: The newest event records; what it drops is surfaced as the
        #: ``obs.events_dropped`` counter so truncation is visible.
        self.events = Ring(MAX_EVENTS)
        #: Every thread's live span stack, keyed by thread id — the
        #: stacks themselves are only mutated by their owning thread
        #: (via the thread-local handle); this index lets the runtime
        #: monitor *read* other threads' current paths.
        self._thread_stacks: dict[int, list[str]] = {}
        # BDD managers keep local counters (see repro.bdd.manager); live
        # ones are aggregated at report time, finalized ones flush their
        # totals here so no work is lost when scratch managers die.  Each
        # live manager maps to the finalizer of its current life.
        self._bdd_live: "weakref.WeakKeyDictionary[Any, Any]" = (
            weakref.WeakKeyDictionary()
        )
        #: The ``stats`` of dead managers (or the counter dicts of ended
        #: lives), queued by their finalizers and folded into
        #: ``_bdd_flushed`` under the lock.  A finalizer runs wherever
        #: the collector does — even inside one of this registry's locked
        #: sections — so it must not take the lock.
        self._bdd_dead: deque[Any] = deque()
        self._bdd_flushed: dict[str, int] = {}
        self._bdd_total_managers = 0
        self._bdd_reused_managers = 0
        self._bdd_peak_nodes = 0

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def gauge_values(self, prefix: str = "") -> dict[str, float]:
        """Current gauges whose names start with ``prefix`` (thread-safe
        snapshot — the monitor uses this to surface progress gauges,
        e.g. ``parallel.cones.*``, in status.json)."""
        with self._lock:
            return {
                name: value
                for name, value in self.gauges.items()
                if name.startswith(prefix)
            }

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def record_span(self, path: str, elapsed: float) -> None:
        with self._lock:
            stat = self.spans.get(path)
            if stat is None:
                stat = self.spans[path] = SpanStat()
            stat.record(elapsed)

    # -- span stack -----------------------------------------------------

    def span_stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._thread_stacks[threading.get_ident()] = stack
        return stack

    def current_span_path(self) -> str:
        return "/".join(self.span_stack())

    def active_span_paths(self) -> dict[int, str]:
        """Current ``/``-joined span path of every thread with an open
        span (racy snapshot — safe to call from a monitor thread)."""
        return {
            tid: "/".join(stack)
            for tid, stack in list(self._thread_stacks.items())
            if stack
        }

    # -- BDD manager aggregation ----------------------------------------

    def track_bdd_manager(self, manager: Any, reused: bool = False) -> None:
        """Track one life of a manager's local cache statistics.  The
        manager must expose ``stats`` (an object with ``as_dict()``) and
        ``num_nodes``; the life's final totals are flushed when the
        manager is garbage collected or :meth:`retire_bdd_manager` ends
        the life.  Every life counts in ``bdd.managers.total``; one that
        ``reused`` a reset manager counts in ``bdd.managers.reused``
        too."""
        stats = manager.stats
        if stats is None:
            return
        # Queued on this generation's queue: a manager tracked before a
        # reset() does not count after it.
        finalizer = weakref.finalize(manager, self._bdd_dead.append, stats)
        with self._lock:
            self._bdd_live[manager] = finalizer
            self._bdd_total_managers += 1
            self._bdd_reused_managers += reused

    def retire_bdd_manager(self, manager: Any) -> None:
        """End the tracked life of a manager that is about to be reset:
        fold its counters into the totals exactly as a collected
        manager's are, and stop reading it as live.  A manager tracked
        before the last :meth:`reset` (or never) is left alone."""
        with self._lock:
            finalizer = self._bdd_live.pop(manager, None)
        detached = finalizer.detach() if finalizer is not None else None
        if detached is not None:
            _, append, (stats,), _ = detached
            append(stats.as_dict())

    def _fold_dead_bdd(self) -> None:
        """Fold the queued final statistics into the flushed totals (the
        caller holds the lock)."""
        while self._bdd_dead:
            snapshot = self._bdd_dead.popleft()
            if not isinstance(snapshot, dict):
                snapshot = snapshot.as_dict()
            for key, value in snapshot.items():
                self._bdd_flushed[key] = self._bdd_flushed.get(key, 0) + value
            # No garbage collection in this engine, so a dead manager's
            # peak node count is its insert count plus the two terminals.
            peak = snapshot.get("unique.inserts", 0) + 2
            if peak > self._bdd_peak_nodes:
                self._bdd_peak_nodes = peak

    def live_bdd(self) -> dict[str, Any]:
        """Totals over the live tracked managers — ``managers``,
        ``nodes``, ``unique``, ``cache_entries``, ``unique_capacity``,
        ``cache_capacity`` and, with any capacity, ``unique_load``
        (unique entries over unique slots) — plus ``per_manager``, one
        ``monitor_sample()`` row per manager.  The snapshot's
        ``bdd.*.live`` gauges, the monitor and crash bundles read it."""
        with self._lock:
            managers = list(self._bdd_live)
        rows: list[dict[str, Any]] = []
        for manager in managers:
            try:
                rows.append(manager.monitor_sample())
            except Exception:
                continue
        totals: dict[str, Any] = {"managers": len(managers)}
        for key in ("nodes", "unique", "cache_entries", "unique_capacity",
                    "cache_capacity"):
            totals[key] = sum(row.get(key, 0) for row in rows)
        if totals["unique_capacity"]:
            totals["unique_load"] = round(
                totals["unique"] / totals["unique_capacity"], 4
            )
        totals["per_manager"] = rows
        return totals

    def bdd_peak_nodes(self) -> int:
        """Largest node count any single tracked manager reached, dead
        or alive (0 when nothing was tracked)."""
        _, gauges = self._bdd_snapshot()
        return int(gauges.get("bdd.nodes.peak", 0))

    def _bdd_snapshot(self) -> tuple[dict[str, float], dict[str, float]]:
        """Aggregated (counters, gauges) of every tracked manager, dead
        or alive, namespaced under ``bdd.``."""
        with self._lock:
            self._fold_dead_bdd()
            totals = dict(self._bdd_flushed)
            live = list(self._bdd_live)
            total_managers = self._bdd_total_managers
            reused_managers = self._bdd_reused_managers
            peak = self._bdd_peak_nodes
        # ``peak`` is the largest node count any *single* manager reached
        # (dead or alive); ``bdd.nodes.live`` sums across live managers,
        # so the two are not ordered relative to each other.
        for manager in live:
            stats = manager.stats
            if stats is None:
                continue
            for key, value in stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
            if manager.num_nodes > peak:
                peak = manager.num_nodes
        live_bdd = self.live_bdd()
        counters = {f"bdd.{key}": value for key, value in sorted(totals.items())}
        gauges = {
            "bdd.managers.live": live_bdd["managers"],
            "bdd.managers.total": total_managers,
            "bdd.managers.reused": reused_managers,
            "bdd.nodes.live": live_bdd["nodes"],
            "bdd.nodes.peak": peak,
            "bdd.unique.live": live_bdd["unique"],
            "bdd.cache.entries.live": live_bdd["cache_entries"],
        }
        if "unique_load" in live_bdd:
            gauges["bdd.unique.load"] = live_bdd["unique_load"]
        if total_managers == 0:
            return {}, {}
        return counters, gauges

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serialisable snapshot of everything collected so far,
        grouped by metric family under ``"families"``."""
        bdd_counters, bdd_gauges = self._bdd_snapshot()
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            histograms = {k: h.as_dict() for k, h in self.histograms.items()}
            spans = {k: s.as_dict() for k, s in self.spans.items()}
            events = self.events.tail()
            events_dropped = self.events.dropped
        if events_dropped:
            counters["obs.events_dropped"] = events_dropped
        counters.update(bdd_counters)
        gauges.update(bdd_gauges)
        families: dict[str, dict[str, Any]] = {}

        def bucket(kind: str, name: str, value: Any, family_of: str) -> None:
            family = families.setdefault(
                family_of, {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}
            )
            family[kind][name] = value

        for name, value in sorted(counters.items()):
            bucket("counters", name, value, name.split(".", 1)[0])
        for name, value in sorted(gauges.items()):
            bucket("gauges", name, value, name.split(".", 1)[0])
        for name, value in sorted(histograms.items()):
            bucket("histograms", name, value, name.split(".", 1)[0])
        for path, value in sorted(spans.items()):
            leaf = path.split("/")[0]
            bucket("spans", path, value, leaf.split(".", 1)[0])
        return {
            "version": 1,
            "enabled": _enabled,
            "generated_at": time.time(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": spans,
            "events": events,
            "families": families,
        }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.spans.clear()
            self.events = Ring(MAX_EVENTS)
            self._bdd_live = weakref.WeakKeyDictionary()
            self._bdd_dead = deque()
            self._bdd_flushed.clear()
            self._bdd_total_managers = 0
            self._bdd_reused_managers = 0
            self._bdd_peak_nodes = 0


_REGISTRY = Registry()


def registry() -> Registry:
    """The process-wide registry instance."""
    return _REGISTRY


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class _SpanHandle:
    __slots__ = ("name", "path", "start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.path = name
        self.start = 0.0

    def __enter__(self) -> "_SpanHandle":
        stack = _REGISTRY.span_stack()
        stack.append(self.name)
        self.path = "/".join(stack)
        for sink in _span_sinks:
            sink.begin(self.name, {"path": self.path})
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = time.perf_counter() - self.start
        for sink in _span_sinks:
            sink.end(self.name)
        stack = _REGISTRY.span_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        if _enabled:
            _REGISTRY.record_span(self.path, elapsed)
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str) -> Any:
    """Timed span context manager.  Nesting is recorded: the aggregation
    key is the ``/``-joined path of active span names on this thread.
    Installed span sinks see it even while metrics are off."""
    if not _enabled and not _span_sinks:
        return _NULL_SPAN
    return _SpanHandle(name)


def current_span_path() -> str:
    """The ``/``-joined path of active spans on the calling thread."""
    return _REGISTRY.current_span_path()


# ---------------------------------------------------------------------------
# Module-level recording facade (all no-ops while disabled)
# ---------------------------------------------------------------------------


def inc(name: str, value: float = 1) -> None:
    """Add ``value`` to counter ``name``."""
    if not _enabled:
        return
    _REGISTRY.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins)."""
    if not _enabled:
        return
    _REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name``."""
    if not _enabled:
        return
    _REGISTRY.observe(name, value)


def event(ev: str, **fields: Any) -> None:
    """Emit one fact: built once as a :func:`record`, appended to the
    registry's event ring (of :data:`MAX_EVENTS`) while metrics are on,
    and handed to every installed event sink either way."""
    if not _enabled and not _event_sinks:
        return
    built = record(ev, **fields)
    if _enabled:
        _REGISTRY.events.append(built)
    for sink in _event_sinks:
        sink.event(built)


def track_bdd_manager(manager: Any, reused: bool = False) -> None:
    """Register a BDD manager (or, with ``reused``, the new life of a
    reset one) for cache-statistics aggregation."""
    if not _enabled:
        return
    _REGISTRY.track_bdd_manager(manager, reused)


def retire_bdd_manager(manager: Any) -> None:
    """Fold the ending life of a tracked manager that is being reset
    into the totals (see :meth:`Registry.retire_bdd_manager`); works
    while disabled, as a collected manager's finalizer does."""
    _REGISTRY.retire_bdd_manager(manager)


def report() -> dict[str, Any]:
    """Snapshot of everything collected so far (works while disabled:
    returns whatever was collected before the switch-off)."""
    return _REGISTRY.snapshot()


def reset() -> None:
    """Drop all collected data (the enabled flag is untouched)."""
    _REGISTRY.reset()
