"""Tests for process-pool parallel cone synthesis.

Covers the scheduler's three promises:

* **determinism** — ``workers=N`` is bit-identical to ``workers=1`` for
  any N (golden equality of serialized networks and per-signal
  records), plus a hypothesis differential suite on random circuits;
* **degradation** — injected worker faults (exception, hard exit, hang,
  budget starvation) degrade only the affected cones to structural
  copies, the run stays sequentially equivalent, and the failures are
  visible in the report and the crash context;
* **resumability** — a run killed between cone merges resumes from its
  mid-shard checkpoint to the exact uninterrupted result.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings

from repro.engine import (
    ConeShardAborted,
    ParallelConeScheduler,
    Pipeline,
    SynthesisContext,
    SynthesisOptions,
    resume_pipeline,
)
from repro.engine.checkpoint import network_to_dict
from repro.network import cleanup_latches, outputs_equal
from repro.network.check import sequential_equivalent_reachable
from repro.obs import crashdump
from repro.synth import ConeTask, algorithm1, extract_cone_task, run_cone_task

from strategies import circuits, small_circuit


def canonical_report(report) -> dict:
    """The deterministic portion of a synthesis report (wall-clock
    fields dropped) — the unit of bit-identity comparisons."""
    return {
        "network": network_to_dict(report.network),
        "records": [vars(r) for r in report.records],
        "latch_cleanup": dict(report.latch_cleanup),
        "degraded": report.degraded,
        "degraded_cones": report.artifacts.get("parallel.degraded_cones"),
    }


def parallel_pipeline(fault_spec=None, abort_after=None) -> Pipeline:
    pipe = Pipeline(["cleanup", "dontcares"])
    params = {}
    if fault_spec:
        params["fault_spec"] = fault_spec
    if abort_after is not None:
        params["_abort_after_merges"] = abort_after
    pipe.add("decompose_parallel", **params)
    for name in ("finalize", "sweep", "strash", "sweep"):
        pipe.add(name)
    return pipe


def cleaned_reference(net):
    reference = net.copy()
    cleanup_latches(reference)
    return reference


def decompose_sinks(net):
    return [
        s
        for s in net.combinational_sinks()
        if s not in net.inputs and s not in net.latches
    ]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("seed", [3, 9])
    def test_worker_counts_bit_identical(self, seed):
        """The golden determinism check: workers 1, 2 and 4 produce the
        exact same network and records."""
        net = small_circuit(seed)
        golden = None
        for workers in (1, 2, 4):
            report = algorithm1(
                net.copy(), SynthesisOptions(parallel_workers=workers)
            )
            snap = canonical_report(report)
            if golden is None:
                golden = snap
            else:
                assert snap == golden, f"workers={workers} diverged"

    def test_parallel_equivalent_to_serial(self):
        """Parallel and serial modes share per-cone logic but not the
        cross-cone sharing table, so they are sequentially equivalent
        without being bit-identical."""
        net = small_circuit(5)
        serial = algorithm1(net.copy(), SynthesisOptions())
        parallel = algorithm1(
            net.copy(), SynthesisOptions(parallel_workers=2)
        )
        reference = cleaned_reference(net)
        for report in (serial, parallel):
            assert outputs_equal(net, report.network, cycles=48)
            assert sequential_equivalent_reachable(
                reference, report.network
            ).equivalent

    def test_run_cone_task_deterministic(self):
        net = small_circuit(4)
        sink = decompose_sinks(net)[0]
        task = extract_cone_task(net, sink).to_dict()
        first = run_cone_task(json.loads(json.dumps(task)))
        second = run_cone_task(json.loads(json.dumps(task)))
        volatile = ("elapsed", "started_wall", "phases", "pid")
        for key in volatile:
            first.pop(key), second.pop(key)
        assert first == second


# ---------------------------------------------------------------------------
# Cone-task serialization
# ---------------------------------------------------------------------------


class TestConeTaskRoundTrip:
    def test_json_round_trip(self):
        net = small_circuit(2)
        sink = decompose_sinks(net)[0]
        task = extract_cone_task(
            net,
            sink,
            dc_cubes=[[["l0", True], ["l1", False]]],
            options={"max_support": 10},
            node_budget=5000,
            time_budget=2.0,
        )
        wire = json.loads(json.dumps(task.to_dict()))
        restored = ConeTask.from_dict(wire)
        assert restored == task

    def test_version_check(self):
        net = small_circuit(2)
        sink = decompose_sinks(net)[0]
        data = extract_cone_task(net, sink).to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ConeTask.from_dict(data)

    def test_slice_is_self_contained(self):
        """Every slice fanin resolves inside the slice — the worker
        never needs the parent network."""
        from repro.engine.checkpoint import network_from_dict

        net = small_circuit(6)
        for sink in decompose_sinks(net):
            piece = network_from_dict(extract_cone_task(net, sink).slice)
            known = set(piece.inputs) | set(piece.nodes)
            for node in piece.nodes.values():
                assert set(node.fanins) <= known, (sink, node.name)
            assert piece.outputs == [sink]


# ---------------------------------------------------------------------------
# Fault degradation
# ---------------------------------------------------------------------------


class TestFaultDegradation:
    @pytest.fixture()
    def net(self):
        return small_circuit(7)

    def run_with_fault(self, net, fault, timeout=None, workers=2):
        crashdump.clear_crash_context()
        options = SynthesisOptions(
            parallel_workers=workers, worker_timeout=timeout
        )
        context = SynthesisContext(net.copy(), options)
        victim = decompose_sinks(net)[1]
        parallel_pipeline(fault_spec={victim: fault}).run(context)
        return victim, context.to_report()

    def assert_only_victim_degraded(self, net, victim, report):
        assert report.degraded
        assert report.artifacts["parallel.degraded_cones"] == [victim]
        copied = [r.signal for r in report.records if r.action == "copied"]
        assert copied == [victim]
        assert outputs_equal(net, report.network, cycles=48)
        assert sequential_equivalent_reachable(
            cleaned_reference(net), report.network
        ).equivalent

    def test_worker_exception_degrades_one_cone(self, net):
        victim, report = self.run_with_fault(net, "raise")
        self.assert_only_victim_degraded(net, victim, report)
        assert "injected worker fault" in (report.degrade_reason or "")

    def test_worker_death_degrades_one_cone(self, net):
        """os._exit in a worker breaks the whole pool; innocents are
        retried in isolation and only the crasher degrades."""
        victim, report = self.run_with_fault(net, "exit")
        self.assert_only_victim_degraded(net, victim, report)
        assert "pool-broken" in (report.degrade_reason or "")

    def test_hung_worker_times_out_bounded(self, net):
        """A hung worker degrades its cone within the timeout bound
        instead of stalling the scheduler forever."""
        began = time.perf_counter()
        victim, report = self.run_with_fault(net, "hang", timeout=1.5)
        elapsed = time.perf_counter() - began
        self.assert_only_victim_degraded(net, victim, report)
        assert "timeout" in (report.degrade_reason or "")
        assert elapsed < 30.0, f"scheduler stalled for {elapsed:.1f}s"

    def test_worker_governor_exhaustion_degrades(self, net):
        """Budget exhaustion *inside* a worker is a graceful verdict
        (action='copied' + reason), not an error."""
        victim, report = self.run_with_fault(net, "starve")
        self.assert_only_victim_degraded(net, victim, report)
        assert "node budget" in (report.degrade_reason or "")

    def test_failure_reaches_crash_context(self, net):
        victim, _report = self.run_with_fault(net, "raise")
        failures = crashdump.crash_context().get("worker_failures", [])
        assert [(f["sink"], f["kind"]) for f in failures] == [
            (victim, "exception")
        ]
        assert "injected worker fault" in failures[0]["error"]["traceback"]

    def test_failure_reaches_crash_bundle(self, net):
        """The remote traceback survives into a crash bundle built
        later — the satellite fix for opaque parallel crashes."""
        victim, _report = self.run_with_fault(net, "raise")
        bundle = crashdump.build_crash_bundle(RuntimeError("boom"))
        failures = bundle["context"]["worker_failures"]
        assert failures[0]["sink"] == victim
        assert "RuntimeError" in failures[0]["error"]["traceback"]

    def test_inline_worker_exception_degrades(self, net):
        """workers=1 (inline path) handles a raising cone the same
        way."""
        victim, report = self.run_with_fault(net, "raise", workers=1)
        self.assert_only_victim_degraded(net, victim, report)


# ---------------------------------------------------------------------------
# Mid-shard checkpoint / resume
# ---------------------------------------------------------------------------


class TestMidShardCheckpoint:
    def test_resume_matches_uninterrupted(self, tmp_path):
        net = small_circuit(11)
        options = SynthesisOptions(parallel_workers=2)

        golden_context = SynthesisContext(net.copy(), options)
        parallel_pipeline().run(golden_context)
        golden = canonical_report(golden_context.to_report())

        checkpoint = tmp_path / "run.ckpt"
        aborted_context = SynthesisContext(net.copy(), options)
        with pytest.raises(ConeShardAborted):
            parallel_pipeline(abort_after=3).run(
                aborted_context, checkpoint=str(checkpoint)
            )
        # The checkpoint must hold a partially rebuilt network pointing
        # back at the decompose pass itself.
        saved = json.loads(checkpoint.read_text())
        assert (
            saved["pipeline"]["passes"][saved["next_pass"]]
            == "decompose_parallel"
        )
        assert saved["rebuilt"] is not None

        resumed = resume_pipeline(checkpoint)
        assert canonical_report(resumed.to_report()) == golden

    def test_ephemeral_params_not_persisted(self, tmp_path):
        """The abort hook must not re-fire on resume: underscore params
        are dropped from the serialized pipeline config."""
        pipe = parallel_pipeline(abort_after=1)
        config = pipe.to_config()
        decompose = [
            p for p in config["passes"]
            if p == "decompose_parallel"
            or (isinstance(p, dict) and p.get("pass") == "decompose_parallel")
        ]
        assert decompose == ["decompose_parallel"]


# ---------------------------------------------------------------------------
# Scheduler unit behaviour
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_empty_task_list(self):
        assert ParallelConeScheduler(2).execute([]) == {}

    def test_inline_and_pool_agree(self):
        net = small_circuit(3)
        tasks = [
            extract_cone_task(net, sink) for sink in decompose_sinks(net)
        ]
        inline = ParallelConeScheduler(1).execute(tasks)
        pooled = ParallelConeScheduler(2).execute(tasks)
        volatile = ("elapsed", "started_wall", "phases", "pid")
        for sink in inline:
            a, b = dict(inline[sink]), dict(pooled[sink])
            for key in volatile:
                a.pop(key, None), b.pop(key, None)
            assert a == b, sink


# ---------------------------------------------------------------------------
# Hypothesis differential suite
# ---------------------------------------------------------------------------


class TestDifferential:
    @settings(max_examples=5, deadline=None)
    @given(circuits(min_latches=4, max_latches=6, max_outputs=3))
    def test_parallel_matches_inline_and_stays_equivalent(self, net):
        """For random circuits: workers=2 is bit-identical to workers=1
        and the result preserves reachable behaviour."""
        inline = algorithm1(
            net.copy(), SynthesisOptions(parallel_workers=1)
        )
        pooled = algorithm1(
            net.copy(), SynthesisOptions(parallel_workers=2)
        )
        assert canonical_report(pooled) == canonical_report(inline)
        assert outputs_equal(net, pooled.network, cycles=32)
        assert sequential_equivalent_reachable(
            cleaned_reference(net), pooled.network
        ).equivalent
