"""Tests for the per-sink step both decompose transports share.

* **nested sinks** — a sink materialised by an earlier cone's structural
  copy is skipped at commit time by the parallel merge, exactly as the
  serial loop skips it;
* **output goldens** — the BLIF bytes of fixed runs, pinned across
  changes to the engine (they hold with ``REPRO_NATIVE=0`` and any
  ``PYTHONHASHSEED``);
* **phase names** — both transports time the same
  ``collapse``/``dontcare``/``decompose``/``instantiate`` phases, as
  ``algorithm1.<phase>`` obs spans (inside ``parallel.cone`` for a
  parallel cone, drawn on its worker's trace track when forked) and as
  bus events.
"""

from __future__ import annotations

import hashlib
import threading

import pytest

from repro import obs
from repro.benchgen import industrial_analog, iscas_analog
from repro.engine.checkpoint import network_to_dict
from repro.network import outputs_equal, write_blif
from repro.network.netlist import Network
from repro.obs import bus as obs_bus
from repro.obs.trace import summarize
from repro.synth import SynthesisOptions, algorithm1
from repro.synth.conetask import merge_cone_result

PHASES = {"collapse", "dontcare", "decompose", "instantiate"}


def nested_sink_network() -> Network:
    """``o2 = (o1 ^ c) ^ d`` with ``o1 = a & b``, outputs ``[o2, o1]``:
    keeping ``o2`` structurally copies ``o1`` before ``o1``'s own turn."""
    net = Network("nested")
    for name in "abcd":
        net.add_input(name)
    net.add_node("o1", "and", ["a", "b"])
    net.add_node("t1", "xor", ["o1", "c"])
    net.add_node("o2", "xor", ["t1", "d"])
    net.add_output("o2")
    net.add_output("o1")
    return net


class TestNestedSinks:
    def test_parallel_skips_sink_materialised_by_copy(self):
        net = nested_sink_network()
        serial = algorithm1(net.copy(), SynthesisOptions())
        assert [r.signal for r in serial.records] == ["o2"]
        for workers in (1, 2):
            report = algorithm1(
                net.copy(), SynthesisOptions(parallel_workers=workers)
            )
            assert outputs_equal(net, report.network, cycles=16)
            assert [vars(r) for r in report.records] == [
                vars(r) for r in serial.records
            ]

    def test_merge_collision_leaves_network_untouched(self):
        rebuilt = nested_sink_network()
        piece = Network("piece")
        for name in ("a", "b"):
            piece.add_input(name)
        piece.add_node("g", "or", ["a", "b"])
        piece.add_node("o1", "buf", ["g"])
        piece.add_output("o1")
        before = network_to_dict(rebuilt)
        with pytest.raises(ValueError, match="already defined"):
            merge_cone_result(rebuilt, "o1", network_to_dict(piece))
        assert network_to_dict(rebuilt) == before


E4_OPTIONS = dict(
    max_partition_size=12,
    acceptance_ratio=1.1,
    time_budget=240,
    reach_time_budget=15,
)

GOLDENS = [
    ("s344", {}, "1873bead5e96f505"),
    ("s344", {"parallel_workers": 2}, "8ca04668204da403"),
    ("s344", {"backend": "sat-cegar"}, "7490d0d548d8863b"),
    ("seq5", E4_OPTIONS, "59fee9c443d75479"),
    ("seq5", {**E4_OPTIONS, "parallel_workers": 2}, "f836df8342b5ad2a"),
]


class TestOutputGoldens:
    @pytest.mark.parametrize(
        "bench, options, digest",
        GOLDENS,
        ids=["s344", "s344-w2", "s344-sat", "seq5-e4", "seq5-e4-w2"],
    )
    def test_blif_digest(self, bench, options, digest):
        if bench.startswith("seq"):
            net = industrial_analog(bench, 0.35)
        else:
            net = iscas_analog(bench)
        report = algorithm1(net, SynthesisOptions(**options))
        blif = write_blif(report.network).encode()
        assert hashlib.sha256(blif).hexdigest()[:16] == digest


@pytest.fixture
def traced():
    obs.reset()
    with obs.tracing() as recorder:
        yield recorder
    obs.reset()


class TestPhaseNames:
    def test_serial_phase_spans(self, traced):
        algorithm1(iscas_analog("s344"), SynthesisOptions())
        prefix = "algorithm1.run/pipeline.decompose/algorithm1."
        spans = obs.report()["spans"]
        assert {p for p in PHASES if prefix + p in spans} == PHASES

    def test_worker_phase_spans_and_bus_events(self, traced):
        bus = obs_bus.TelemetryBus(
            run_id="phases", heartbeat_interval=0, max_recent=4096
        )
        obs.install(bus)
        try:
            algorithm1(
                iscas_analog("s344"), SynthesisOptions(parallel_workers=1)
            )
        finally:
            obs.uninstall(bus)
            bus.close()
        names = {r.get("name") for r in traced.records()}
        assert "parallel.cone" in names
        assert {"collapse", "decompose", "instantiate"} <= {
            name.split(".", 1)[1]
            for name in names
            if name and name.startswith("algorithm1.")
        }
        progress = {
            r["phase"] for r in bus.recent if r["ev"] == "cone.progress"
        }
        assert {"collapse", "decompose", "instantiate"} <= progress
        assert progress <= PHASES

    def test_in_process_phase_span_paths(self, traced):
        """Both in-process transports run the step's phases as
        ``algorithm1.<phase>`` obs spans; an inline parallel cone's sit
        under ``parallel.cone``."""
        for workers in (0, 1):
            obs.reset()
            algorithm1(
                iscas_analog("s344"),
                SynthesisOptions(parallel_workers=workers),
            )
            spans = obs.report()["spans"]
            for phase in ("collapse", "decompose", "instantiate"):
                paths = [
                    p for p in spans if p.endswith(f"/algorithm1.{phase}")
                ]
                assert paths, (workers, phase)
                if workers:
                    assert all(
                        p.endswith(f"/parallel.cone/algorithm1.{phase}")
                        for p in paths
                    ), paths

    def test_forked_worker_cones_enclose_their_phases(self, traced):
        """Read in record order, every ``parallel.cone`` on a worker's
        track encloses the step's ``algorithm1.<phase>`` spans, and
        nothing else; there is one per dispatched cone."""
        report = algorithm1(
            iscas_analog("s344"), SynthesisOptions(parallel_workers=2)
        )
        records = traced.records()
        stacks: dict[int, list[list]] = {}
        cones = []
        for record in records:
            if record["tid"] == threading.get_ident():
                continue  # the parent's own thread
            if record["ph"] == "B":
                stacks.setdefault(record["tid"], []).append(
                    [record["name"], []]
                )
            elif record["ph"] == "E":
                name, enclosed = stacks[record["tid"]].pop()
                assert name == record["name"]
                if stacks[record["tid"]]:
                    stacks[record["tid"]][-1][1].append(name)
                if name == "parallel.cone":
                    cones.append(enclosed)
        assert len(cones) == len(report.artifacts["parallel.cone_stats"])
        assert all(cones)
        assert {n for enclosed in cones for n in enclosed} <= {
            f"algorithm1.{phase}" for phase in PHASES
        }
        summary = summarize(records)
        assert summary["unclosed"] == [] and summary["orphan_ends"] == 0
