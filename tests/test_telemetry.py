"""Live-telemetry layer tests: bus transport, OpenMetrics, structured
logging, stall detection, and the fault paths.

The promises under test, in the bus's own priority order:

* **out-of-band** — parallel synthesis is bit-identical with the full
  telemetry stack on or off;
* **truthful under pressure** — back-pressure drops are counted exactly
  (emitter-side cumulative counts plus reader-side parse errors), an
  oversized record is truncated rather than torn, and a worker killed
  mid-line never corrupts the stream for anyone else;
* **observable failure** — a worker that dies with a cone in flight is
  flagged *stalled* by the monitor's liveness rules, and a crashing run
  embeds the structured log's tail in its crash bundle;
* **import-free when off** — a run without telemetry or ledger flags
  never imports any of the live-telemetry modules or the ledger.
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.request
from collections import Counter

import pytest

from repro import obs
from repro.engine import Pipeline, SynthesisContext, SynthesisOptions
from repro.engine.checkpoint import network_to_dict
from repro.obs import bus as obs_bus
from repro.obs import crashdump
from repro.obs import logging as obs_logging
from repro.obs import openmetrics
from repro.obs.ledger import LedgerRun, RunLedger
from repro.obs.monitor import RuntimeMonitor, process_rss_kb
from repro.synth import algorithm1

from strategies import small_circuit


def wait_until(predicate, timeout=5.0, poll=0.01):
    """Poll ``predicate`` until true or ``timeout`` elapses (the bus
    reader ingests on its own thread, so tests must wait, not sleep)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


def canonical_report(report) -> dict:
    """Deterministic portion of a synthesis report (the bit-identity
    comparison unit, mirroring test_parallel_engine)."""
    return {
        "network": network_to_dict(report.network),
        "records": [vars(r) for r in report.records],
        "latch_cleanup": dict(report.latch_cleanup),
        "degraded": report.degraded,
    }


def decompose_sinks(net):
    return [
        s
        for s in net.combinational_sinks()
        if s not in net.inputs and s not in net.latches
    ]


@pytest.fixture
def obs_session():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def bus():
    instance = obs_bus.TelemetryBus(run_id="testrun", heartbeat_interval=0)
    yield instance
    instance.close()


# ---------------------------------------------------------------------------
# Bus transport
# ---------------------------------------------------------------------------


class TestBusTransport:
    def test_cone_lifecycle_round_trip(self, bus):
        bus.cone_started("n42", cone_inputs=5)
        bus.begin("algorithm1.collapse")
        bus.end("algorithm1.collapse")
        bus.cone_finished("n42", "decomposed", elapsed=0.5)
        assert wait_until(lambda: bus.counts.get("cone.end"))
        assert bus.counts == {
            "cone.start": 1,
            "cone.progress": 1,
            "cone.end": 1,
        }
        (progress,) = [r for r in bus.recent if r["ev"] == "cone.progress"]
        assert progress["sink"] == "n42"
        assert progress["phase"] == "collapse"
        assert progress["dur"] >= 0
        assert bus.events_dropped == 0
        (worker,) = bus.worker_summary()
        assert worker["pid"] == os.getpid()
        assert worker["state"] == "idle"
        assert worker["last_action"] == "decomposed"
        assert worker["events"] == 3
        # Every record carried the bus meta.
        assert all(r.get("run") == "testrun" for r in bus.recent)

    def test_degrade_event_precedes_copied_end(self, bus):
        bus.cone_started("n7", cone_inputs=3)
        bus.cone_finished("n7", "copied", degrade_reason="node budget")
        assert wait_until(lambda: bus.counts.get("cone.end"))
        assert bus.counts.get("cone.degrade") == 1
        (worker,) = bus.worker_summary()
        assert worker["state"] == "idle"
        events = [r["ev"] for r in bus.recent]
        assert events.index("cone.degrade") < events.index("cone.end")

    def test_backpressure_drops_and_counts_exactly(self):
        """A full kernel buffer drops (bounded queue) and the emitter's
        cumulative count rides the next successful record."""
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        try:
            emitter = obs_bus._Emitter(write_fd, {}, heartbeat=0)
            sent = 0
            while emitter.dropped == 0 and sent < 20000:
                emitter.emit("flood", payload="x" * 512)
                sent += 1
            assert emitter.dropped > 0, "pipe never filled"
            before = emitter.dropped
            # Nothing read yet: every further emit also drops.
            assert emitter.emit("flood") is False
            assert emitter.dropped == before + 1
            # Drain the kernel buffer, then the next emit goes through
            # and reports the cumulative drop count.
            os.set_blocking(read_fd, False)
            try:
                while os.read(read_fd, 65536):
                    pass
            except BlockingIOError:
                pass
            assert emitter.emit("after") is True
            tail = os.read(read_fd, 65536).decode()
            record = json.loads(tail.strip().splitlines()[-1])
            assert record["ev"] == "after"
            assert record["dropped"] == emitter.dropped
        finally:
            os.close(read_fd)
            os.close(write_fd)

    def test_reported_drops_reach_bus_aggregate(self, bus):
        emitter = bus._process_emitter()
        emitter.dropped = 3  # as if back-pressure had struck
        emitter.emit("cone.start", sink="s")
        assert wait_until(lambda: bus.counts.get("cone.start"))
        assert bus.events_dropped == 3
        assert bus.snapshot()["events_dropped"] == 3

    def test_oversized_record_truncated_not_torn(self, bus):
        bus.emit("huge", blob="y" * (2 * obs_bus.MAX_RECORD_BYTES))
        assert wait_until(lambda: bus.counts.get("huge"))
        assert bus.parse_errors == 0
        record = list(bus.recent)[-1]
        assert record.get("truncated") is True
        assert "blob" not in record

    def test_torn_final_line_counted_as_drop(self):
        bus = obs_bus.TelemetryBus()
        os.write(bus._write_fd, b'{"v":1,"ev":"cone.start","pid":')
        bus.close()  # EOF with a partial line pending
        assert bus.parse_errors == 1
        assert bus.events_dropped == 1
        assert not bus.counts

    def test_record_local_folds_without_worker_row(self, bus):
        bus.record_local("shard.dispatch", cones=4, workers=2)
        bus.record_local("cone", sink="a", merged=1, total=4)
        assert bus.counts == {"shard.dispatch": 1, "cone": 1}
        assert bus.worker_summary() == []
        assert bus.events_total() == 2

    def test_heartbeat_streams_while_cone_in_flight(self):
        bus = obs_bus.TelemetryBus(heartbeat_interval=0.05)
        try:
            bus.cone_started("slow", cone_inputs=9)
            assert wait_until(lambda: bus.counts.get("heartbeat", 0) >= 2)
            bus.cone_finished("slow", "decomposed")
            assert wait_until(lambda: bus.counts.get("cone.end"))
            (worker,) = bus.worker_summary()
            assert worker["state"] == "idle"
        finally:
            bus.close()

    def test_phase_spans_outside_a_cone_send_nothing(self, bus):
        bus.begin("algorithm1.collapse")
        bus.end("algorithm1.collapse")
        bus.cone_started("n3", cone_inputs=2)
        bus.begin("pipeline.decompose")
        bus.end("pipeline.decompose")
        bus.cone_finished("n3", "decomposed")
        assert wait_until(lambda: bus.counts.get("cone.end"))
        assert bus.counts == {"cone.start": 1, "cone.end": 1}

    def test_closed_bus_sends_nothing(self):
        bus = obs_bus.TelemetryBus(heartbeat_interval=0)
        bus.cone_started("n1", cone_inputs=2)
        bus.close()  # drains the record already sent
        assert bus.counts == {"cone.start": 1}
        assert bus.emit("nobody") is False
        bus.begin("algorithm1.collapse")
        bus.end("algorithm1.collapse")
        bus.cone_finished("n1", "decomposed")
        bus.cone_started("n2", cone_inputs=2)
        assert bus.counts == {"cone.start": 1}
        assert bus.events_dropped == 0


# ---------------------------------------------------------------------------
# Stall detection
# ---------------------------------------------------------------------------


class TestStallDetection:
    def _busy_worker(self, bus):
        bus.cone_started("n9", cone_inputs=4)
        time.sleep(0.2)  # a measurable start->heartbeat gap
        bus.emit("heartbeat", sink="n9")
        assert wait_until(lambda: bus.counts.get("heartbeat"))
        with bus._lock:
            return dict(bus.workers[os.getpid()])

    def test_silent_worker_flagged_stalled(self, bus):
        worker = self._busy_worker(bus)
        rows = bus.worker_summary(
            stall_after=5.0, now=worker["last_seen"] + 30.0
        )
        (row,) = rows
        assert row["stalled"] is True
        assert "no event" in row["stall_reason"]
        # Within the horizon the same worker is healthy.
        (fresh,) = bus.worker_summary(
            stall_after=5.0, now=worker["last_seen"] + 1.0
        )
        assert fresh["stalled"] is False

    def test_monitor_folds_stall_into_status(
        self, bus, tmp_path, monkeypatch
    ):
        self._busy_worker(bus)
        status = tmp_path / "status.json"
        monkeypatch.setattr(obs_bus, "DEFAULT_STALL_AFTER", 0.0)
        monitor = RuntimeMonitor(interval=60, status_file=status, bus=bus)
        time.sleep(0.05)  # let last_event_age exceed the zero horizon
        sample = monitor.sample()
        assert sample["bus"]["workers_stalled"] == 1
        assert sample["workers"][0]["stalled"] is True
        written = json.loads(status.read_text())
        assert written["bus"]["workers_stalled"] == 1


# ---------------------------------------------------------------------------
# Fault paths
# ---------------------------------------------------------------------------


class TestWorkerFaults:
    def test_worker_death_leaves_stream_coherent(self):
        """A worker hard-killed by an injected fault (os._exit breaks
        the whole pool) never tears the stream: every surviving cone's
        records parse, starts match ends, and nothing is dropped."""
        net = small_circuit(7)
        victim = decompose_sinks(net)[1]
        bus = obs_bus.TelemetryBus(run_id="faultrun", heartbeat_interval=0)
        obs.install(bus)
        try:
            context = SynthesisContext(
                net.copy(), SynthesisOptions(parallel_workers=2)
            )
            pipe = Pipeline(["cleanup", "dontcares"])
            pipe.add("decompose_parallel", fault_spec={victim: "exit"})
            for name in ("finalize", "sweep", "strash", "sweep"):
                pipe.add(name)
            pipe.run(context)
            report = context.to_report()
        finally:
            obs.uninstall(bus)
        assert report.degraded
        total = bus.counts.get("cone", 0)
        assert total > 0
        assert wait_until(
            lambda: bus.counts.get("cone.end", 0) >= total - 1
        )
        bus.close()
        assert bus.parse_errors == 0
        assert bus.events_dropped == 0
        # The killed victim dies before its first record, and an
        # innocent cone caught mid-flight by the pool breakage is
        # retried (re-emitting its lifecycle) — so starts may exceed
        # ends and ends may exceed merges, but never the reverse.
        assert bus.counts["cone.start"] >= bus.counts["cone.end"]
        assert bus.counts["cone.end"] >= total - 1
        assert bus.counts.get("shard.dispatch") == 1

    def test_killed_mid_cone_worker_marked_stalled(self, bus, monkeypatch):
        """A child that dies *after* cone.start (mid-cone) leaves a busy
        row with no further events — exactly what the stall rules catch,
        and what the monitor surfaces as workers_stalled."""
        child = os.fork()
        if child == 0:
            # Forked worker: announce a cone, then die silently.
            bus.cone_started("doomed", cone_inputs=6)
            os._exit(0)
        os.waitpid(child, 0)
        assert wait_until(lambda: bus.counts.get("cone.start"))
        assert bus.parse_errors == 0
        (row,) = bus.worker_summary(stall_after=0.0, now=time.time() + 1.0)
        assert row["pid"] == child
        assert row["state"] == "busy"
        assert row["sink"] == "doomed"
        assert row["stalled"] is True
        monkeypatch.setattr(obs_bus, "DEFAULT_STALL_AFTER", 0.0)
        monitor = RuntimeMonitor(interval=60, bus=bus)
        time.sleep(0.05)
        assert monitor.sample()["bus"]["workers_stalled"] == 1

    def test_crash_bundle_embeds_log_tail(self, tmp_path):
        logger = obs_logging.StructuredLogger(
            tmp_path / "run.jsonl", run_id="r1"
        )
        obs.install(logger)
        try:
            obs.log("info", "pipeline.pass", index=0)
            obs.log("error", "governor.exhausted", pass_name="x")
            bundle = crashdump.build_crash_bundle(RuntimeError("boom"))
        finally:
            obs.uninstall(logger)
            logger.close()
        tail = bundle["log_tail"]
        assert [r["event"] for r in tail] == [
            "pipeline.pass", "governor.exhausted",
        ]
        assert all(r["run"] == "r1" for r in tail)
        assert bundle["exception"]["message"] == "boom"

    def test_crash_bundle_without_logger_has_no_tail(self):
        assert obs.sinks("log") == ()
        bundle = crashdump.build_crash_bundle(RuntimeError("quiet"))
        assert "log_tail" not in bundle


# ---------------------------------------------------------------------------
# RSS probe (the platform-unit fix)
# ---------------------------------------------------------------------------


class TestProcessRss:
    def _force_fallback(self, monkeypatch, maxrss):
        import resource

        real_open = open

        def deny_proc(path, *args, **kwargs):
            if str(path).startswith("/proc/"):
                raise OSError("no procfs")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", deny_proc)

        class Usage:
            ru_maxrss = maxrss

        monkeypatch.setattr(resource, "getrusage", lambda who: Usage)

    def test_linux_kibibytes_pass_through(self, monkeypatch):
        """Linux ru_maxrss is already KiB: a 5 GiB process must NOT be
        divided down (the old magnitude guess misclassified it)."""
        five_gib_kb = 5 * 1024 * 1024
        self._force_fallback(monkeypatch, five_gib_kb)
        monkeypatch.setattr(sys, "platform", "linux")
        assert process_rss_kb() == five_gib_kb

    def test_darwin_bytes_converted(self, monkeypatch):
        self._force_fallback(monkeypatch, 256 * 1024 * 1024)  # bytes
        monkeypatch.setattr(sys, "platform", "darwin")
        assert process_rss_kb() == 256 * 1024


# ---------------------------------------------------------------------------
# OpenMetrics rendering, parsing, exporting
# ---------------------------------------------------------------------------


SAMPLE_REGISTRY = {
    "counters": {"pipeline.passes": 7, "parallel.tasks": 26},
    "gauges": {"bdd.nodes.peak": 1234},
    "histograms": {"cone.elapsed": {"count": 3, "total": 1.5}},
    "spans": {"algorithm1/decompose": {"count": 1, "total": 0.75}},
}

SAMPLE_BUS = {
    "events": {"cone.start": 4, "cone.end": 3},
    "events_dropped": 2,
    "workers": [
        {"pid": 11, "state": "busy", "stalled": True,
         "in_flight_s": 9.5, "sink": 'we"ird\\sink'},
        {"pid": 12, "state": "idle", "stalled": False},
    ],
}


class TestOpenMetrics:
    def test_metric_name_mapping(self):
        assert openmetrics.metric_name("bdd.cache.and.hits") == (
            "repro_bdd_cache_and_hits"
        )
        assert openmetrics.metric_name("9weird name!", prefix="") == (
            "_9weird_name_"
        )

    def test_render_parse_round_trip(self):
        gauges = {**SAMPLE_REGISTRY["gauges"], "parallel.cones.total": 26}
        text = openmetrics.render(
            registry_snapshot={**SAMPLE_REGISTRY, "gauges": gauges},
            monitor_sample={
                "elapsed": 12.5,
                "sample_index": 4,
                "rss_kb": 2048,
            },
            bus_snapshot=SAMPLE_BUS,
        )
        families = openmetrics.parse_openmetrics(text)
        passes = families["repro_pipeline_passes_total"]
        assert passes["type"] == "counter"
        assert passes["samples"] == [({}, 7.0)]
        summary = families["repro_cone_elapsed"]
        assert summary["type"] == "summary"
        assert ({}, 3.0) in summary["samples"]
        span = families["repro_span_seconds"]
        assert ({"span": "algorithm1/decompose"}, 1.0) in span["samples"]
        assert families["repro_bus_events_dropped_total"]["samples"] == [
            ({}, 2.0)
        ]
        stalled = dict(
            (labels["pid"], value)
            for labels, value in families["repro_bus_worker_stalled"]["samples"]
        )
        assert stalled == {"11": 1.0, "12": 0.0}
        # Label escaping survives the round trip.
        flight = families["repro_bus_worker_in_flight_seconds"]["samples"]
        assert flight == [({"pid": "11", "sink": 'we"ird\\sink'}, 9.5)]
        assert families["repro_parallel_cones_total"]["samples"] == [
            ({}, 26.0)
        ]

    @pytest.mark.parametrize(
        "text,match",
        [
            ("# TYPE repro_x counter\nrepro_x_total 1\n", "EOF"),
            ("# TYPE repro_x counter\n\n# EOF\n", "blank"),
            ("repro_x 1\n# EOF\n", "no # TYPE"),
            ("# TYPE repro_x gauge\nrepro_x one\n# EOF\n", "non-numeric"),
            ("# TYPE repro_x widget\n# EOF\n", "bad TYPE"),
            ("# EOF\nrepro_x 1\n", "after # EOF"),
            ("# TYPE repro_x gauge\nrepro_x{a=\"1\"} 1\n"
             "repro_x{a=\"1\"} 2\n# EOF\n", "repeated"),
        ],
    )
    def test_parser_rejects_malformed(self, text, match):
        with pytest.raises(ValueError, match=match):
            openmetrics.parse_openmetrics(text)

    def test_parallel_run_exposes_each_series_once(self, tmp_path, capsys):
        """A ``--workers 2`` run's final exposition names every series
        once: the live BDD totals and the ``parallel.*`` gauges come
        from the registry alone, with no monitor-side aliases."""
        from repro.benchgen import iscas_analog
        from repro.cli import main
        from repro.network import save_blif

        bench = tmp_path / "s344.blif"
        save_blif(iscas_analog("s344"), str(bench))
        metrics = tmp_path / "m.om"
        assert main([
            "optimize", str(bench), "-o", str(tmp_path / "out.blif"),
            "--workers", "2", "--metrics-file", str(metrics),
        ]) == 0
        text = metrics.read_text()
        series = Counter(
            line.rsplit(" ", 1)[0]
            for line in text.splitlines()
            if not line.startswith("#")
        )
        assert [name for name, count in series.items() if count > 1] == []
        assert "repro_bdd_live_" not in text
        families = openmetrics.parse_openmetrics(text)
        assert "repro_bdd_nodes_live" in families
        assert families["repro_parallel_workers"]["samples"] == [({}, 2.0)]

    def test_exporter_textfile_atomic_refresh(self, tmp_path):
        target = tmp_path / "metrics" / "repro.om"
        exporter = openmetrics.MetricsExporter(path=target)
        exporter.export({"elapsed": 1.0, "sample_index": 0})
        first = openmetrics.parse_openmetrics(target.read_text())
        assert first["repro_monitor_elapsed_seconds"]["samples"] == [
            ({}, 1.0)
        ]
        exporter.export({"elapsed": 2.0, "sample_index": 1})
        second = openmetrics.parse_openmetrics(target.read_text())
        assert second["repro_monitor_elapsed_seconds"]["samples"] == [
            ({}, 2.0)
        ]
        exporter.close()
        leftovers = [p for p in target.parent.iterdir() if p != target]
        assert leftovers == [], "scratch temp file leaked"

    def test_exporter_http_endpoint(self, bus):
        exporter = openmetrics.MetricsExporter(port=0, bus=bus)
        try:
            port = exporter.bound_port
            assert port
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == (
                    openmetrics.CONTENT_TYPE
                )
                families = openmetrics.parse_openmetrics(
                    response.read().decode()
                )
            assert "repro_bus_events_dropped_total" in families
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=5
                )
        finally:
            exporter.close()


# ---------------------------------------------------------------------------
# Structured logger
# ---------------------------------------------------------------------------


class TestStructuredLogger:
    def test_leveled_file_and_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs_logging.StructuredLogger(
            path, level="info", run_id="abc", tail=2
        ) as logger:
            assert logger.debug("noise") is False
            assert logger.info("one", sink="a") is True
            assert logger.warning("two") is True
            assert logger.error("three") is True
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["one", "two", "three"]
        assert records[0]["run"] == "abc"
        assert records[0]["sink"] == "a"
        assert records[0]["level"] == "info"
        # Bounded tail keeps only the newest records.
        assert [r["event"] for r in logger.tail_records()] == [
            "two", "three",
        ]
        assert [r["event"] for r in logger.tail_records(limit=1)] == [
            "three",
        ]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs_logging.StructuredLogger(level="loud")

    def test_unwritable_path_degrades_to_tail(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        logger = obs_logging.StructuredLogger(blocker / "run.jsonl")
        assert logger.write_errors == 1
        assert logger.info("still.recorded") is True
        assert logger.tail_records()[-1]["event"] == "still.recorded"
        logger.close()

    def test_module_registry_and_tail(self, tmp_path):
        obs.log("info", "nobody.home")  # no logger installed: a no-op
        logger = obs_logging.StructuredLogger(tmp_path / "run.jsonl")
        obs.install(logger)
        try:
            assert obs.sinks("log") == (logger,)
            obs.log("debug", "hello", n=1)
            assert logger.crash_keys()["log_tail"][-1]["event"] == "hello"
        finally:
            obs.uninstall(logger)
            logger.close()
        assert obs.sinks("log") == ()


# ---------------------------------------------------------------------------
# Per-pass size deltas (pipeline -> report/profile/ledger)
# ---------------------------------------------------------------------------


class TestPassDeltas:
    def test_report_passes_carry_size_deltas(self):
        report = algorithm1(small_circuit(3), SynthesisOptions())
        assert report.passes
        for row in report.passes:
            for key in ("nodes", "literals", "latches"):
                assert isinstance(row[key], int)
                assert isinstance(row[f"{key}_delta"], int)
        # Deltas telescope: final size = first before-size + sum(deltas).
        final = report.passes[-1]
        assert final["nodes"] == report.network.stats()["nodes"]

    def test_profile_table_shows_deltas(self, obs_session):
        algorithm1(small_circuit(3), SynthesisOptions())
        text = obs.render_profile(obs.report())
        assert "pipeline passes" in text
        assert "Δnodes" in text and "Δlits" in text

    def test_ledger_pass_rows_carry_metrics(self, tmp_path):
        with RunLedger(tmp_path / "runs.db") as ledger:
            run_id = ledger.begin_run(command="test")
            sink = obs.install(LedgerRun(ledger, run_id))
            try:
                algorithm1(small_circuit(3), SynthesisOptions())
            finally:
                obs.uninstall(sink)
            rows = ledger.passes(run_id)
            assert rows
            for row in rows:
                metrics = row["metrics"]
                assert set(metrics) >= {
                    "nodes", "literals", "latches", "nodes_delta",
                }


# ---------------------------------------------------------------------------
# Determinism and the off path
# ---------------------------------------------------------------------------


class TestOutOfBand:
    def test_parallel_bit_identical_with_full_telemetry(self, tmp_path):
        """workers=1 and workers=2 with the whole stack live (bus +
        logger + exporter) equal the bare workers=2 run bit for bit."""
        net = small_circuit(3)
        golden = canonical_report(
            algorithm1(net.copy(), SynthesisOptions(parallel_workers=2))
        )
        logger = obs.install(
            obs_logging.StructuredLogger(tmp_path / "run.jsonl")
        )
        bus = obs.install(
            obs_bus.TelemetryBus(run_id="det", heartbeat_interval=0.05)
        )
        exporter = openmetrics.MetricsExporter(
            path=tmp_path / "m.om", bus=bus
        )
        try:
            for workers in (1, 2):
                report = algorithm1(
                    net.copy(),
                    SynthesisOptions(parallel_workers=workers),
                )
                exporter.export()
                assert canonical_report(report) == golden, (
                    f"telemetry changed output at workers={workers}"
                )
        finally:
            obs.uninstall(bus)
            exporter.close()
            bus.close()
            obs.uninstall(logger)
            logger.close()
        assert bus.counts.get("cone.start", 0) > 0
        assert bus.events_dropped == 0
        # The bus mirrored its stream into the structured log.
        mirrored = [
            r for r in logger.tail_records()
            if r["event"].startswith("bus.cone.")
        ]
        assert mirrored
        openmetrics.parse_openmetrics((tmp_path / "m.om").read_text())

    def test_disabled_path_imports_nothing(self, tmp_path):
        """A fresh interpreter running a parallel ``repro optimize``
        without telemetry or ledger flags must never import the
        live-telemetry modules or the ledger (no import, no I/O)."""
        from repro.benchgen import generate_sequential_circuit
        from repro.network import save_blif

        bench = tmp_path / "offpath.blif"
        save_blif(
            generate_sequential_circuit(
                "offpath", num_inputs=3, num_outputs=2, num_latches=3, seed=1
            ),
            str(bench),
        )
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main(['optimize', {str(bench)!r}, '-o', "
            f"{str(tmp_path / 'out.blif')!r}, '--workers', '2']) == 0\n"
            "banned = [m for m in ('repro.obs.bus', 'repro.obs.openmetrics',"
            " 'repro.obs.logging', 'repro.obs.ledger') if m in sys.modules]\n"
            "assert not banned, f'imported on the off path: {banned}'\n"
        )
        import subprocess

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
            cwd=str(tmp_path),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# repro top
# ---------------------------------------------------------------------------


class TestTopView:
    def _status(self, **overrides):
        status = {
            "pid": 4242,
            "time_unix": 1000.0,
            "elapsed": 12.25,
            "sample_index": 9,
            "interval": 1.0,
            "bdd": {"nodes": 54321, "managers": 2},
            "rss_kb": 4096,
            "spans": {"1": "algorithm1", "2": "algorithm1/decompose"},
            "parallel": {
                "parallel.cones.total": 20,
                "parallel.cones.merged": 5,
                "parallel.cones.degraded": 1,
            },
            "bus": {
                "events_total": 77,
                "events_dropped": 0,
                "workers_stalled": 1,
            },
            "workers": [
                {"pid": 10, "state": "busy", "sink": "n1",
                 "phase": "decompose", "in_flight_s": 2.0, "events": 12,
                 "stalled": False},
                {"pid": 11, "state": "busy", "sink": "n2",
                 "in_flight_s": 60.0, "events": 3, "stalled": True},
            ],
            "ledger": {"run_id": "abc123", "path": "/tmp/runs.db"},
            "governor": {"nodes_allocated": 999, "node_budget": 5000,
                         "remaining_time": 30.0},
        }
        status.update(overrides)
        return status

    def test_waiting_frame_without_status(self):
        from repro.cli import render_top

        assert "waiting for status file" in render_top(None)

    def test_full_frame(self):
        from repro.cli import render_top

        view = render_top(self._status(), now=1001.0)
        assert "pid 4242" in view
        assert "[STALE]" not in view
        assert "run: abc123" in view
        assert "phase: algorithm1/decompose" in view
        assert "5/20" in view and "(1 degraded)" in view
        assert "77 events" in view
        assert "STALLED" in view
        assert "999 nodes / 5000" in view

    def test_stale_flag(self):
        from repro.cli import render_top

        view = render_top(self._status(), now=1010.0)
        assert "[STALE]" in view

    def test_cmd_top_once(self, tmp_path, capsys):
        from repro import cli

        status_path = tmp_path / "status.json"
        status_path.write_text(json.dumps(self._status()))
        metrics_path = tmp_path / "m.om"
        metrics_path.write_text(
            openmetrics.render(registry_snapshot=SAMPLE_REGISTRY)
        )
        rc = cli.main([
            "top",
            "--status-file", str(status_path),
            "--metrics-file", str(metrics_path),
            "--once", "--no-clear",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top — pid 4242" in out
        assert "repro_parallel_tasks_total" in out
        # The watched run's files are inputs: top never rewrites them.
        assert json.loads(status_path.read_text()) == self._status()
        assert "repro_parallel_tasks_total" in metrics_path.read_text()
