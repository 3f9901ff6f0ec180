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

#: BLIF digests of fixed runs: s344 and seq5 under several transports
#: and backends, then the other 12 canonical circuits with the options
#: the flow benchmark runs them under (defaults for the ISCAS analogs,
#: ``E4_OPTIONS`` for the macro blocks), then the other five ``iscas_sat``
#: circuits under the sat-cegar backend, then s344 and seq5 through the
#: sharing-aware decomposition choice.
GOLDENS = [
    pytest.param("s344", {}, "1873bead5e96f505", id="s344"),
    pytest.param(
        "s344", {"parallel_workers": 2}, "8ca04668204da403", id="s344-w2"
    ),
    pytest.param(
        "s344", {"backend": "sat-cegar"}, "7490d0d548d8863b", id="s344-sat"
    ),
    pytest.param("seq5", E4_OPTIONS, "59fee9c443d75479", id="seq5-e4"),
    pytest.param(
        "seq5",
        {**E4_OPTIONS, "parallel_workers": 2},
        "f836df8342b5ad2a",
        id="seq5-e4-w2",
    ),
    pytest.param("s526", {}, "1207305ae6b1c9eb", id="s526"),
    pytest.param("s713", {}, "39f453c4695b8bc8", id="s713"),
    pytest.param("s838", {}, "5f951be85116c808", id="s838"),
    pytest.param("s953", {}, "330afa1f66c40537", id="s953"),
    pytest.param("s1269", {}, "d2ef9f3b03b7690e", id="s1269"),
    pytest.param("s5378", {}, "97ce0a89cce7912a", id="s5378"),
    pytest.param("s9234", {}, "60f108d1d160857f", id="s9234"),
    pytest.param("seq4", E4_OPTIONS, "11976344d395918d", id="seq4-e4"),
    pytest.param("seq6", E4_OPTIONS, "7d0aa824ffcfef58", id="seq6-e4"),
    pytest.param("seq7", E4_OPTIONS, "8e39dfe0d859d5e8", id="seq7-e4"),
    pytest.param("seq8", E4_OPTIONS, "d6dd3664ff81052b", id="seq8-e4"),
    pytest.param("seq9", E4_OPTIONS, "7e6c0aa99729fed9", id="seq9-e4"),
    pytest.param(
        "s526", {"backend": "sat-cegar"}, "679f8bfd911c7556", id="s526-sat"
    ),
    pytest.param(
        "s713", {"backend": "sat-cegar"}, "dddb66f079699cdb", id="s713-sat"
    ),
    pytest.param(
        "s838", {"backend": "sat-cegar"}, "432deb48b2e70c6f", id="s838-sat"
    ),
    pytest.param(
        "s953", {"backend": "sat-cegar"}, "05e3ce7e289e4930", id="s953-sat"
    ),
    pytest.param(
        "s1269", {"backend": "sat-cegar"}, "80b9df41897b711e", id="s1269-sat"
    ),
    pytest.param(
        "s344", {"sharing_choice": True}, "a2fc4d3be0d95b7a", id="s344-share"
    ),
    pytest.param(
        "seq5",
        {**E4_OPTIONS, "sharing_choice": True},
        "ed8a06de1277730e",
        id="seq5-e4-share",
    ),
]


class TestOutputGoldens:
    @pytest.mark.parametrize("bench, options, digest", GOLDENS)
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

    def test_worker_phase_spans_and_bus_events(self, traced, monkeypatch):
        class Mirror:
            """Obs log sink: the bus mirrors each record it reads here."""

            def __init__(self):
                self.records = []

            def log(self, record, level):
                self.records.append(record)

        monkeypatch.setattr(obs_bus, "DEFAULT_HEARTBEAT", 0)
        bus = obs_bus.TelemetryBus(run_id="phases")
        mirror = obs.install(Mirror())
        obs.install(bus)
        try:
            algorithm1(
                iscas_analog("s344"), SynthesisOptions(parallel_workers=1)
            )
        finally:
            obs.uninstall(bus)
            bus.close()
            obs.uninstall(mirror)
        names = {r.get("name") for r in traced.records()}
        assert "parallel.cone" in names
        assert {"collapse", "decompose", "instantiate"} <= {
            name.split(".", 1)[1]
            for name in names
            if name and name.startswith("algorithm1.")
        }
        progress = {
            r["phase"] for r in mirror.records
            if r["ev"] == "bus.cone.progress"
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
