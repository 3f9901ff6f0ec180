"""RuntimeMonitor heartbeats during ``decompose_parallel`` runs.

Satellite coverage for the status.json contract: the heartbeat is
rewritten atomically (a reader never sees a torn document), it carries
cone progress as the workers finish cones (before any merge), and it
does not go stale — consecutive rewrites land within 2× the monitor
interval.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import obs
from repro.benchgen import iscas_analog
from repro.engine.parallel import DecomposeParallelPass
from repro.obs import RuntimeMonitor
from repro.synth import SynthesisOptions, algorithm1

import sys as _sys
from pathlib import Path as _Path

_sys.path.insert(0, str(_Path(__file__).parent))
from strategies import wide_circuit  # noqa: E402


@pytest.fixture
def obs_session():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


class _StatusReader:
    """Polls the status file much faster than the monitor writes it,
    recording (wall time, mtime, parsed sample) triples."""

    def __init__(self, path):
        self.path = path
        self.observations = []
        self.parse_failures = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(0.02):
            self._poll()
        # Drain: the monitor's stop() writes one closing sample right
        # before the reader is told to stop — read it unconditionally so
        # the observation list always ends with the final document.
        self._poll()

    def _poll(self):
        if not self.path.exists():
            return
        try:
            text = self.path.read_text()
            sample = json.loads(text)
        except (json.JSONDecodeError, OSError):
            # A torn read would land here — the atomic temp+rename
            # contract says this never happens.
            self.parse_failures += 1
            return
        self.observations.append(
            (time.monotonic(), self.path.stat().st_mtime, sample)
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        return False


class TestMonitorDuringParallelRun:
    def test_heartbeat_atomic_fresh_and_carries_progress(
        self, tmp_path, obs_session
    ):
        status = tmp_path / "status.json"
        interval = 0.25
        net = wide_circuit(2)
        monitor = RuntimeMonitor(interval=interval, status_file=status)
        with _StatusReader(status) as reader:
            with monitor:
                began = time.monotonic()
                report = algorithm1(
                    net.copy(), SynthesisOptions(parallel_workers=2)
                )
                ended = time.monotonic()
        assert report.network is not None

        # Atomicity: every single read parsed.
        assert reader.parse_failures == 0
        assert reader.observations, "no status samples observed"

        # Progress: some sample during the run carried the parallel
        # cone gauges, and the final heartbeat shows the pass finished.
        progressed = [
            s for _, _, s in reader.observations if "parallel" in s
        ]
        assert progressed, "no sample carried parallel progress"
        total = progressed[-1]["parallel"]["parallel.cones.total"]
        assert total > 0
        final = json.loads(status.read_text())
        assert final["parallel"]["parallel.cones.finished"] == total
        assert final["sample_index"] >= 1

        # Freshness: while the run was in flight, consecutive heartbeat
        # rewrites never drifted past 2x the monitor interval.
        mtimes = sorted(
            {mtime for at, mtime, _ in reader.observations
             if began <= at <= ended}
        )
        if len(mtimes) >= 2:
            worst = max(b - a for a, b in zip(mtimes, mtimes[1:]))
            assert worst <= 2 * interval, (
                f"heartbeat went stale: {worst:.3f}s gap "
                f"(limit {2 * interval:.3f}s)"
            )
        # And the final rewrite happened at (or after) run end — the
        # stop() path takes a closing sample, so the file cannot be
        # stale once the run is over.
        assert status.stat().st_mtime >= final["time_unix"] - 2 * interval

    def test_progress_counts_cones_finished_before_the_merge(
        self, obs_session, monkeypatch
    ):
        """Every worker's cone counts as finished once the scheduler
        keeps its result: a sample taken at the first merge already
        reads all of them."""
        from repro.cli import render_top

        samples = []
        merge_one = DecomposeParallelPass._merge_one

        def sampled(self, *args, **kwargs):
            if not samples:
                samples.append(RuntimeMonitor(interval=60).sample())
            return merge_one(self, *args, **kwargs)

        monkeypatch.setattr(DecomposeParallelPass, "_merge_one", sampled)
        algorithm1(iscas_analog("s344"), SynthesisOptions(parallel_workers=2))
        (sample,) = samples
        assert "26/26" in render_top(sample, now=sample["time_unix"])
