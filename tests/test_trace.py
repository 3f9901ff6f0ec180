"""Tests for the tracing + runtime-monitoring subsystem: the
TraceRecorder ring buffer and exports, registry mirroring, the
RuntimeMonitor sampler/heartbeat, crash diagnostics, and the
``repro trace`` CLI round trip."""

import json
import threading

import pytest

from repro import obs
from repro.obs import crashdump
from repro.obs import trace as obs_trace
from repro.obs.monitor import RuntimeMonitor, process_rss_kb


@pytest.fixture(autouse=True)
def _clean_state():
    """Every test starts/ends with no sinks, empty registry, no crash
    context."""
    for sink in obs.sinks():
        obs.uninstall(sink)
    obs.disable()
    obs.reset()
    crashdump.clear_crash_context()
    yield
    for sink in obs.sinks():
        obs.uninstall(sink)
    obs.disable()
    obs.reset()
    crashdump.clear_crash_context()


def _validate_chrome(payload: dict) -> list[dict]:
    """Structural trace-event schema check; returns non-metadata
    events."""
    assert "traceEvents" in payload
    events = payload["traceEvents"]
    for event in events:
        for key in ("ph", "ts", "pid", "tid"):
            assert key in event, f"missing {key!r} in {event}"
        assert event["ph"] in ("B", "E", "i", "C", "M")
    return [e for e in events if e["ph"] != "M"]


def _assert_balanced(records: list[dict]) -> None:
    """Every tid's B/E stream must nest like matched parentheses."""
    stacks: dict[int, list[str]] = {}
    for record in records:
        tid = record["tid"]
        if record["ph"] == "B":
            stacks.setdefault(tid, []).append(record["name"])
        elif record["ph"] == "E":
            stack = stacks.get(tid)
            assert stack, f"E without B on tid {tid}: {record}"
            assert stack.pop() == record["name"]
    for tid, stack in stacks.items():
        assert not stack, f"unclosed spans on tid {tid}: {stack}"


class TestTraceRecorder:
    def test_record_shapes(self):
        recorder = obs_trace.TraceRecorder()
        recorder.begin("phase", {"path": "phase"})
        recorder.instant("tick", {"n": 1})
        recorder.counter("nodes", {"live": 42})
        recorder.end("phase")
        records = recorder.records()
        assert [r["ph"] for r in records] == ["B", "i", "C", "E"]
        assert records[0]["args"] == {"path": "phase"}
        assert records[2]["args"] == {"live": 42}
        assert all(r["pid"] == recorder.pid for r in records)
        ts = [r["ts"] for r in records]
        assert ts == sorted(ts)

    def test_ring_buffer_drops_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(obs_trace, "DEFAULT_CAPACITY", 10)
        recorder = obs_trace.TraceRecorder()
        for index in range(25):
            recorder.instant(f"e{index}")
        records = recorder.records()
        assert len(records) == 10
        assert recorder.dropped == 15
        assert records[0]["name"] == "e15"
        assert recorder.metadata()["dropped"] == 15

    def test_tail(self):
        recorder = obs_trace.TraceRecorder()
        for index in range(30):
            recorder.instant(f"e{index}")
        tail = recorder.tail(5)
        assert [r["name"] for r in tail] == ["e25", "e26", "e27", "e28", "e29"]
        assert len(recorder.tail(1000)) == 30

    def test_write_chrome_and_jsonl(self, tmp_path):
        recorder = obs_trace.TraceRecorder()
        recorder.begin("a")
        recorder.end("a")
        chrome = recorder.write(tmp_path / "t.trace")
        jsonl = recorder.write(tmp_path / "t.jsonl")
        payload = json.loads(chrome.read_text())
        _validate_chrome(payload)
        assert payload["otherData"]["pid"] == recorder.pid
        lines = jsonl.read_text().splitlines()
        first = json.loads(lines[0])
        assert first["ph"] == "M" and first["name"] == "repro.trace"
        assert len(lines) == 3  # metadata + B + E


class TestRegistryMirroring:
    def test_spans_and_events_mirror_into_tracer(self):
        with obs.tracing() as recorder:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.event("something", detail=3)
        records = recorder.records()
        names = [(r["ph"], r["name"]) for r in records]
        assert names == [
            ("B", "outer"),
            ("B", "inner"),
            ("i", "something"),
            ("E", "inner"),
            ("E", "outer"),
        ]
        # The begin record carries the full nesting path.
        assert records[1]["args"]["path"] == "outer/inner"
        assert records[2]["args"] == {"detail": 3}
        # Aggregates were still collected alongside the trace.
        assert obs.report()["spans"]["outer/inner"]["count"] == 1

    def test_no_recording_while_obs_disabled(self):
        """Metrics off records no aggregate; an installed sink still
        sees the span."""
        recorder = obs.install(obs_trace.TraceRecorder())
        with obs.span("quiet"):
            pass
        assert [r["ph"] for r in recorder.records()] == ["B", "E"]
        assert obs.report()["spans"] == {}
        obs.uninstall(recorder)

    def test_install_uninstall(self):
        recorder = obs.install(obs_trace.TraceRecorder())
        assert obs.install(recorder) is recorder  # idempotent
        assert obs.sinks() == (recorder,)
        obs.uninstall(recorder)
        assert obs.sinks() == ()
        obs.uninstall(recorder)  # absent: a no-op
        assert obs.sinks() == ()

    def test_tracing_context_restores_previous(self):
        outer = obs.install(obs_trace.TraceRecorder())
        with obs.tracing() as inner:
            assert obs.sinks() == (outer, inner)
        assert obs.sinks() == (outer,)
        obs.uninstall(outer)


class TestConcurrentSpans:
    def test_multithreaded_spans_never_cross_contaminate(self):
        """Satellite: N threads hammer nested spans; every recorded path
        stays within its own thread's namespace and every tid's B/E
        stream is balanced."""
        num_threads = 6
        depth = 4
        rounds = 25
        with obs.tracing() as recorder:
            barrier = threading.Barrier(num_threads, timeout=30)
            paths: dict[str, list[str]] = {}

            def worker(label: str) -> None:
                mine: list[str] = []
                barrier.wait()
                for _ in range(rounds):
                    with obs.span(f"{label}.0"):
                        with obs.span(f"{label}.1"):
                            with obs.span(f"{label}.2"):
                                with obs.span(f"{label}.3"):
                                    mine.append(obs.current_span_path())
                paths[label] = mine

            threads = [
                threading.Thread(target=worker, args=(f"w{i}",))
                for i in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        for label, observed in paths.items():
            expected = "/".join(f"{label}.{d}" for d in range(depth))
            assert observed == [expected] * rounds, label

        records = recorder.records()
        assert len(records) == num_threads * rounds * depth * 2
        _assert_balanced(records)
        # Each record's name belongs to the thread that emitted it: group
        # by tid and check single ownership.
        owner_by_tid: dict[int, set[str]] = {}
        for record in records:
            owner_by_tid.setdefault(record["tid"], set()).add(
                record["name"].split(".")[0]
            )
        for tid, owners in owner_by_tid.items():
            assert len(owners) == 1, f"tid {tid} mixed spans from {owners}"
        # Aggregates landed under per-thread paths, never interleaved.
        spans = obs.report()["spans"]
        for i in range(num_threads):
            deep = "/".join(f"w{i}.{d}" for d in range(depth))
            assert spans[deep]["count"] == rounds

    def test_summarize_per_thread_nesting(self):
        with obs.tracing() as recorder:
            def worker() -> None:
                with obs.span("bg"):
                    with obs.span("bg.child"):
                        pass

            thread = threading.Thread(target=worker)
            with obs.span("fg"):
                thread.start()
                thread.join()
        summary = obs_trace.summarize(recorder.records())
        assert summary["spans"]["fg"]["count"] == 1
        assert summary["spans"]["bg.child"]["count"] == 1
        assert len(summary["tids"]) == 2
        assert summary["unclosed"] == []
        assert summary["orphan_ends"] == 0
        # bg's self time excludes bg.child.
        bg = summary["spans"]["bg"]
        assert bg["self_us"] <= bg["total_us"]

    def test_summarize_reports_unclosed_and_orphans(self):
        recorder = obs_trace.TraceRecorder()
        recorder.end("never-began")
        recorder.begin("never-ends")
        summary = obs_trace.summarize(recorder.records())
        assert summary["orphan_ends"] == 1
        assert [f["name"] for f in summary["unclosed"]] == ["never-ends"]


class TestChromeExportGolden:
    def test_pipeline_trace_is_schema_valid_and_balanced(self, tmp_path):
        """Satellite: record a real (small) pipeline run and validate the
        Chrome export structurally."""
        from repro.benchgen import iscas_analog
        from repro.synth import SynthesisOptions, algorithm1

        network = iscas_analog("s344")
        with obs.tracing() as recorder:
            algorithm1(network, SynthesisOptions(use_unreachable_states=False))
        path = recorder.write(tmp_path / "pipeline.trace")
        payload = json.loads(path.read_text())
        records = _validate_chrome(payload)
        assert records, "pipeline run recorded nothing"
        _assert_balanced(records)
        names = {r["name"] for r in records}
        assert "algorithm1.run" in names
        assert any(n.startswith("pipeline.") for n in names)
        # pipeline.pass events ride along as instants.
        assert any(
            r["ph"] == "i" and r["name"] == "pipeline.pass" for r in records
        )

    def test_jsonl_chrome_round_trip(self, tmp_path):
        with obs.tracing() as recorder:
            with obs.span("alpha"):
                obs.event("tick", n=1)
        jsonl = recorder.write(tmp_path / "run.jsonl")
        loaded, metadata = obs_trace.load_trace(jsonl)
        assert metadata["pid"] == recorder.pid
        assert loaded == recorder.records()
        chrome_payload = obs_trace.records_to_chrome(loaded, metadata=metadata)
        chrome_file = tmp_path / "run.trace"
        chrome_file.write_text(json.dumps(chrome_payload))
        reloaded, metadata2 = obs_trace.load_trace(chrome_file)
        assert reloaded == loaded
        assert metadata2["pid"] == recorder.pid

    def test_cli_trace_convert_round_trip(self, tmp_path, capsys):
        """Satellite: drive the JSONL -> Chrome conversion through the
        ``repro trace`` subcommand."""
        from repro.cli import main

        with obs.tracing() as recorder:
            with obs.span("phase.a"):
                with obs.span("phase.b"):
                    pass
        obs.disable()
        jsonl = recorder.write(tmp_path / "run.jsonl")
        converted = tmp_path / "converted.trace"
        assert main(["trace", str(jsonl), "--convert", str(converted)]) == 0
        out = capsys.readouterr().out
        assert "top spans by self time" in out
        assert "phase.a" in out
        payload = json.loads(converted.read_text())
        records = _validate_chrome(payload)
        _assert_balanced(records)
        assert [r["name"] for r in records if r["ph"] == "B"] == [
            "phase.a",
            "phase.b",
        ]


class TestRuntimeMonitor:
    def test_sample_contents_and_status_file(self, tmp_path):
        from repro.bdd import BDDManager
        from repro.engine import ResourceGovernor

        obs.enable()
        manager = BDDManager(6)
        for i in range(5):
            manager.apply_and(manager.var(i), manager.var(i + 1))
        governor = ResourceGovernor(time_budget=100.0)
        governor.attach_manager(manager)
        recorder = obs.install(obs_trace.TraceRecorder())
        status = tmp_path / "status.json"
        monitor = RuntimeMonitor(
            interval=60.0, status_file=status, governor=governor,
        )
        with obs.span("live.phase"):
            sample = monitor.sample()
        assert sample["bdd"]["managers"] == 1
        assert sample["bdd"]["nodes"] == manager.num_nodes
        assert sample["bdd"]["cache_entries"] > 0
        assert sample["governor"]["time_budget"] == 100.0
        assert sample["governor"]["remaining_time"] <= 100.0
        assert any(
            path == "live.phase" for path in sample["spans"].values()
        )
        on_disk = json.loads(status.read_text())
        assert on_disk["sample_index"] == 0
        assert on_disk["bdd"]["nodes"] == sample["bdd"]["nodes"]
        counters = [r for r in recorder.records() if r["ph"] == "C"]
        tracks = {r["name"] for r in counters}
        assert "bdd" in tracks and "governor" in tracks
        bdd_track = next(r for r in counters if r["name"] == "bdd")
        assert bdd_track["args"]["nodes"] == manager.num_nodes

    def test_daemon_thread_samples_periodically(self, tmp_path):
        status = tmp_path / "status.json"
        monitor = RuntimeMonitor(interval=0.01, status_file=status)
        with monitor:
            deadline = threading.Event()
            deadline.wait(0.15)
        assert monitor.samples >= 3
        assert monitor.sample_errors == 0
        payload = json.loads(status.read_text())
        assert payload["sample_index"] == monitor.samples - 1

    def test_status_write_is_atomic(self, tmp_path):
        status = tmp_path / "deep" / "status.json"
        monitor = RuntimeMonitor(interval=60.0, status_file=status)
        monitor.sample()
        monitor.sample()
        assert json.loads(status.read_text())["sample_index"] == 1
        leftovers = [
            p for p in status.parent.iterdir() if p.name != "status.json"
        ]
        assert leftovers == []

    def test_rss_probe(self):
        rss = process_rss_kb()
        assert rss is None or rss > 0

    def test_monitor_uses_installed_tracer_by_default(self):
        recorder = obs.install(obs_trace.TraceRecorder())
        monitor = RuntimeMonitor(interval=60.0)
        monitor.sample()
        assert any(r["ph"] == "C" for r in recorder.records())


class TestEventLossAccounting:
    def test_events_dropped_counter_surfaces_in_report(self):
        """Satellite: deque truncation is counted and reported."""
        from repro.obs.registry import MAX_EVENTS

        obs.enable()
        for index in range(MAX_EVENTS + 7):
            obs.event("flood", index=index)
        report = obs.report()
        assert len(report["events"]) == MAX_EVENTS
        assert report["counters"]["obs.events_dropped"] == 7
        assert report["families"]["obs"]["counters"]["obs.events_dropped"] == 7
        # Oldest events were the ones displaced.
        assert report["events"][0]["index"] == 7
        assert "event buffer wrapped" in obs.render_profile(report)
        obs.reset()
        assert "obs.events_dropped" not in obs.report()["counters"]


class TestGovernorExhaustionEvent:
    def test_latch_emits_attributable_event(self):
        """Satellite: the moment the governor latches is an obs event
        tagged with the live span."""
        from repro.engine import ResourceGovernor

        obs.enable()
        governor = ResourceGovernor(time_budget=0.0)
        with obs.span("pipeline.decompose"):
            assert governor.out_of_budget()
            assert governor.out_of_budget()  # latched; no second event
        events = [
            e for e in obs.report()["events"]
            if e["ev"] == "governor.exhausted"
        ]
        assert len(events) == 1
        event = events[0]
        assert "time budget" in event["reason"]
        assert event["span"] == "pipeline.decompose"
        assert event["nodes"] == 0
        assert event["elapsed"] >= 0.0
        assert obs.report()["counters"]["governor.exhausted"] == 1

    def test_mark_exhausted_emits_event(self):
        from repro.engine import ResourceGovernor

        obs.enable()
        governor = ResourceGovernor()
        governor.mark_exhausted("caller said stop")
        governor.mark_exhausted("second reason ignored")
        events = [
            e for e in obs.report()["events"]
            if e["ev"] == "governor.exhausted"
        ]
        assert len(events) == 1
        assert events[0]["reason"] == "caller said stop"
        assert governor.reason == "caller said stop"

    def test_exhaustion_event_lands_in_trace(self):
        from repro.engine import ResourceGovernor

        with obs.tracing() as recorder:
            governor = ResourceGovernor(node_budget=0)

            class _Fat:
                num_nodes = 10

            governor.attach_manager(_Fat())
            assert governor.out_of_budget()
        instants = [
            r for r in recorder.records()
            if r["ph"] == "i" and r["name"] == "governor.exhausted"
        ]
        assert len(instants) == 1
        assert "node budget" in instants[0]["args"]["reason"]


class TestCrashDiagnostics:
    def test_bundle_contents(self, tmp_path):
        from repro.bdd import BDDManager

        obs.enable()
        manager = BDDManager(4)
        manager.apply_and(manager.var(0), manager.var(1))
        obs.install(obs_trace.TraceRecorder())
        with obs.span("doomed"):
            obs.event("last.words", detail="x")
        crashdump.set_crash_context(pipeline_pass="decompose", checkpoint="ck.json")
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            path = crashdump.write_crash_bundle(tmp_path / "crash.json", exc)
        assert path is not None
        bundle = crashdump.load_crash_bundle(path)
        assert bundle["exception"]["type"] == "RuntimeError"
        assert "boom" in bundle["exception"]["message"]
        assert "RuntimeError: boom" in bundle["exception"]["traceback"]
        assert bundle["context"]["pipeline_pass"] == "decompose"
        assert bundle["context"]["checkpoint"] == "ck.json"
        assert bundle["obs_report"]["spans"]["doomed"]["count"] == 1
        tail_names = [r["name"] for r in bundle["trace"]["tail"]]
        assert "last.words" in tail_names
        assert bundle["bdd_managers"][0]["nodes"] == manager.num_nodes
        assert manager  # keep alive through sampling

    def test_pipeline_crash_sets_context_and_event(self, tmp_path):
        from repro.benchgen import iscas_analog
        from repro.engine import Pipeline, SynthesisContext
        from repro.engine.passes import Pass

        class ExplodingPass(Pass):
            name = "explode"
            params: dict = {}

            def run(self, context):
                raise ValueError("kaboom")

        obs.enable()
        network = iscas_analog("s344")
        pipeline = Pipeline(["cleanup"])
        pipeline.add(ExplodingPass())
        context = SynthesisContext(network)
        with pytest.raises(ValueError, match="kaboom"):
            pipeline.run(context)
        ctx = crashdump.crash_context()
        assert ctx["pipeline_pass"] == "explode"
        assert ctx["pipeline_index"] == 1
        crash_events = [
            e for e in obs.report()["events"] if e["ev"] == "pipeline.crash"
        ]
        assert len(crash_events) == 1
        assert crash_events[0]["pass_name"] == "explode"
        assert "kaboom" in crash_events[0]["error"]

    def test_checkpoint_path_recorded_in_context(self, tmp_path):
        from repro.benchgen import iscas_analog
        from repro.engine import Pipeline, SynthesisContext

        network = iscas_analog("s344")
        checkpoint = tmp_path / "ck.json"
        Pipeline(["cleanup", "sweep"]).run(
            SynthesisContext(network), checkpoint=str(checkpoint)
        )
        ctx = crashdump.crash_context()
        assert ctx["checkpoint"] == str(checkpoint)
        assert ctx["checkpoint_next_pass"] == 2

    def test_cli_crash_writes_bundle_and_partial_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        trace_path = tmp_path / "crash.trace"
        dump_path = tmp_path / "bundle.json"
        with pytest.raises(FileNotFoundError):
            main(
                [
                    "optimize",
                    "does_not_exist.blif",
                    "-o",
                    "out.blif",
                    "--trace",
                    str(trace_path),
                    "--crash-dump",
                    str(dump_path),
                ]
            )
        bundle = crashdump.load_crash_bundle(dump_path)
        assert bundle["exception"]["type"] == "FileNotFoundError"
        assert bundle["context"]["command"] == "optimize"
        # The partial trace was flushed and the tracer torn down.
        assert trace_path.exists()
        assert obs.sinks() == ()
        assert not obs.enabled()

    def test_cli_crash_without_diagnostics_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            main(["stats", "missing.blif"])
        assert list(tmp_path.iterdir()) == []


class TestCliTraceFlags:
    def test_optimize_trace_status_and_monitor(self, tmp_path, capsys):
        """Acceptance: optimize --trace --status-file yields a loadable
        Chrome trace with monitor counter samples and a parseable
        heartbeat."""
        from repro.cli import main

        bench = tmp_path / "bench.blif"
        assert main(["generate", "s344", "-o", str(bench)]) == 0
        trace_path = tmp_path / "run.trace"
        status_path = tmp_path / "status.json"
        assert main(
            [
                "optimize",
                str(bench),
                "-o",
                str(tmp_path / "opt.blif"),
                "--trace",
                str(trace_path),
                "--status-file",
                str(status_path),
                "--monitor-interval",
                "0.05",
            ]
        ) == 0
        payload = json.loads(trace_path.read_text())
        records = _validate_chrome(payload)
        _assert_balanced(records)
        # Monitor samples show BDD node-count evolution.
        bdd_samples = [
            r for r in records if r["ph"] == "C" and r["name"] == "bdd"
        ]
        assert len(bdd_samples) >= 2
        assert bdd_samples[-1]["args"]["nodes"] >= bdd_samples[0]["args"]["nodes"]
        status = json.loads(status_path.read_text())
        assert status["bdd"]["nodes"] > 0
        assert status["governor"]["exhausted"] is False
        # Tracing must not leak into later commands.
        assert obs.sinks() == ()
        assert not obs.enabled()

    def test_trace_subcommand_summarizes_cli_trace(self, tmp_path, capsys):
        from repro.cli import main

        bench = tmp_path / "bench.blif"
        assert main(["generate", "s344", "-o", str(bench)]) == 0
        trace_path = tmp_path / "run.jsonl"
        assert main(
            [
                "optimize",
                str(bench),
                "-o",
                str(tmp_path / "opt.blif"),
                "--trace",
                str(trace_path),
                "--no-states",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "top spans by self time" in out
        assert "pipeline." in out

    def test_trace_subcommand_rejects_empty(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1
