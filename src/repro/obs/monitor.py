"""Runtime monitor: a daemon sampler for long synthesis runs.

A :class:`RuntimeMonitor` thread wakes every ``interval`` seconds and
snapshots the live state of the process: BDD manager node counts and
cache sizes (every manager the obs registry tracks), process RSS,
elapsed wall time, each thread's current span path, and — when given a
:class:`~repro.engine.governor.ResourceGovernor` — the remaining budget.

Each sample goes two places:

* as ``C`` (counter-track) records into every installed trace recorder,
  so Perfetto renders node-count/RSS evolution under the span timeline;
* atomically rewritten into a ``status.json`` heartbeat file (write to
  a sibling temp file, then ``rename``), so external tooling — a watch
  loop, a dashboard, an ops cron — can observe a run in flight without
  touching the process.  Installed obs sinks add their
  ``status_keys()`` (the ledger run names its row here).

A sample sees what no event record carries: the span a long symbolic
step is still inside (``.../algorithm1.dontcare/reach.fixpoint``, say)
and the BDD nodes and RSS climbing under it, before that step has
emitted anything — plus the ``parallel.cones.*`` progress gauges
(cones finished out of total) while the workers run.

The monitor never throws into the host run: sampling errors are counted
(``monitor.sample_errors``) and swallowed.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro.obs.registry import registry as _global_registry
from repro.obs.registry import sinks as _sinks

#: Default sampling period in seconds.
DEFAULT_INTERVAL = 1.0


def process_rss_kb() -> Optional[int]:
    """Resident set size of this process in KiB, or ``None`` when the
    platform offers no cheap probe (``/proc`` first, ``resource`` as the
    fallback — note ``ru_maxrss`` is a high-water mark, not current)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ``ru_maxrss`` units are platform-defined: macOS reports bytes,
        # Linux (and the BSDs) kibibytes.  Branch on the platform — a
        # magnitude guess misclassifies any Linux process past 1 GiB.
        return rss // 1024 if sys.platform == "darwin" else rss
    except Exception:
        return None


class RuntimeMonitor:
    """Periodic sampler of BDD/process/governor state.

    Use as a context manager (starts on enter, stops and writes a final
    sample on exit), or drive :meth:`start`/:meth:`stop` directly.
    :meth:`sample` can also be called synchronously — handy in tests and
    for a final snapshot at shutdown.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        status_file: Optional[str | Path] = None,
        governor: Optional[Any] = None,
        bus: Optional[Any] = None,
        exporter: Optional[Any] = None,
    ) -> None:
        self.interval = interval
        self.status_file = Path(status_file) if status_file else None
        self.governor = governor
        self._registry = _global_registry()
        #: Telemetry bus whose worker aggregate is folded into samples
        #: (``sample["workers"]`` / ``sample["bus"]``); optional.
        self.bus = bus
        #: Metrics exporter refreshed after every sample; optional.
        self.exporter = exporter
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._epoch = time.perf_counter()
        self.samples = 0
        self.sample_errors = 0
        self.last_sample: Optional[dict[str, Any]] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "RuntimeMonitor":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread (waits for it) and take one last
        synchronous sample so the status file reflects the end state."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(5.0, 2 * self.interval))
            self._thread = None
        self.sample()

    def __enter__(self) -> "RuntimeMonitor":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    def _run(self) -> None:
        # Sample immediately so short runs still leave a heartbeat.
        self._sample_guarded()
        while not self._stop.wait(self.interval):
            self._sample_guarded()

    def _sample_guarded(self) -> None:
        try:
            self.sample()
        except Exception:
            self.sample_errors += 1

    # -- sampling -------------------------------------------------------

    def sample(self) -> dict[str, Any]:
        """Take one sample: emit trace counters, rewrite the status
        file, remember it as :attr:`last_sample`, and return it."""
        now = time.time()
        elapsed = time.perf_counter() - self._epoch
        bdd = self._registry.live_bdd()
        rss = process_rss_kb()
        spans = {
            str(tid): path
            for tid, path in self._registry.active_span_paths().items()
        }
        sample: dict[str, Any] = {
            "pid": os.getpid(),
            "time_unix": now,
            "elapsed": round(elapsed, 6),
            "sample_index": self.samples,
            "interval": self.interval,
            "bdd": bdd,
            "rss_kb": rss,
            "spans": spans,
        }
        # Worker/cone progress: the parallel scheduler counts finished
        # cones in ``parallel.cones.*`` gauges while the workers run.
        try:
            progress = self._registry.gauge_values("parallel.")
        except Exception:
            progress = {}
        if progress:
            sample["parallel"] = progress
        if self.bus is not None:
            try:
                workers = self.bus.worker_summary()
                sample["workers"] = workers
                sample["bus"] = {
                    "events_total": self.bus.events_total(),
                    "events_dropped": self.bus.events_dropped,
                    "workers_stalled": sum(
                        1 for w in workers if w.get("stalled")
                    ),
                }
            except Exception:
                pass
        for sink in _sinks("status_keys"):
            for key, value in sink.status_keys().items():
                sample.setdefault(key, value)
        if self.governor is not None:
            snapshot = self.governor.snapshot()
            snapshot["remaining_time"] = self.governor.remaining_time()
            sample["governor"] = snapshot
        for recorder in _sinks("counter"):
            recorder.counter(
                "bdd",
                {
                    "nodes": bdd["nodes"],
                    "unique": bdd["unique"],
                    "cache_entries": bdd["cache_entries"],
                },
            )
            if rss is not None:
                recorder.counter("memory", {"rss_kb": rss})
            if self.governor is not None:
                gov = sample["governor"]
                values = {"nodes_allocated": gov["nodes_allocated"]}
                if gov.get("remaining_time") is not None:
                    values["remaining_time_s"] = round(
                        gov["remaining_time"], 3
                    )
                recorder.counter("governor", values)
        if self.status_file is not None:
            self._write_status(sample)
        if self.exporter is not None:
            try:
                self.exporter.export(sample)
            except Exception:
                pass
        self.samples += 1
        self.last_sample = sample
        return sample

    def _write_status(self, sample: dict[str, Any]) -> None:
        """Atomic heartbeat rewrite: temp file + rename, so a reader
        never sees a torn JSON document."""
        target = self.status_file
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch = target.with_suffix(target.suffix + f".tmp{os.getpid()}")
        scratch.write_text(json.dumps(sample, indent=1) + "\n")
        scratch.replace(target)
