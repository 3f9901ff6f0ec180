"""One per-cone record on both transports.

``commit_sink`` publishes every committed sink as one ``cone`` event,
in-process and from a parallel merge alike; the metrics, the ledger,
the bus, the log and the trace all read that one fact.  Its interval
``signature`` is canonical over the support variables ranked by name,
so the two transports agree on it too.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro import obs
from repro.bdd.manager import BDDManager
from repro.benchgen import iscas_analog
from repro.cli import main
from repro.intervals import Interval
from repro.obs.ledger import RunLedger
from repro.synth import SynthesisOptions, algorithm1
from repro.synth import conetask

PHASES = {"collapse", "dontcare", "decompose", "instantiate"}

#: The record fields both transports must agree on.
AGREED = (
    "signal", "action", "backend", "cone_inputs", "tree_cost",
    "original_cost", "gates",
)

#: sha256 of the sorted s344 ``--workers 2`` (sink, signature) pairs, as
#: the worker has always computed them.
S344_W2_SIGNATURES = "cd533e44ab944db0"


class EventLog:
    """Obs sink keeping every event record it is handed."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def event(self, record):
        self.events.append(record)

    def named(self, name):
        return [record for record in self.events if record["ev"] == name]


def run_s344(**options):
    log = obs.install(EventLog())
    try:
        report = algorithm1(iscas_analog("s344"), SynthesisOptions(**options))
    finally:
        obs.uninstall(log)
    return report, log


@pytest.fixture(scope="module")
def transports():
    return {workers: run_s344(parallel_workers=workers) for workers in (0, 1, 2)}


class TestOneConeEvent:
    def test_one_event_per_record_in_order(self, transports):
        for report, log in transports.values():
            cones = log.named("cone")
            assert [c["signal"] for c in cones] == [
                r.signal for r in report.records
            ]
            assert [{k: c[k] for k in vars(r)} for c, r in zip(
                cones, report.records
            )] == [vars(r) for r in report.records]
            for cone in cones:
                assert set(cone["phases"]) <= PHASES
                # No cone field overwrites the record's envelope: it is
                # still the committing process's ``cone`` record.
                assert (cone["v"], cone["ev"], cone["pid"]) == (
                    1, "cone", os.getpid()
                )
            # No second per-cone fact: the only event naming a cone is
            # ``cone`` itself.
            assert {
                record["ev"] for record in log.events
                if {"signal", "sink", "cone"} & set(record)
            } == {"cone"}

    def test_transports_agree(self, transports):
        rows = {
            workers: [tuple(c[k] for k in AGREED) for c in log.named("cone")]
            for workers, (_, log) in transports.items()
        }
        assert rows[0] == rows[1] == rows[2]
        decomposed = [c for c in transports[0][1].named("cone")
                      if c["action"] == "decomposed"]
        assert decomposed and all(sum(c["gates"].values()) >= 0
                                  for c in decomposed)
        assert all(set(c["gates"]) == {"or", "and", "xor"}
                   for c in decomposed)

    def test_parallel_cones_carry_their_task(self, transports):
        for workers in (1, 2):
            cones = transports[workers][1].named("cone")
            assert cones and all(c["task_key"] and c["signature"] for c in cones)
            assert all(isinstance(c["worker_pid"], int) for c in cones)
        assert not any("task_key" in c for c in transports[0][1].named("cone"))

    def test_gate_counters_on_both_transports(self):
        counters = {}
        for workers in (0, 2):
            obs.reset()
            with obs.scope():
                algorithm1(
                    iscas_analog("s344"),
                    SynthesisOptions(parallel_workers=workers),
                )
            counters[workers] = {
                name: value for name, value in obs.report()["counters"].items()
                if name.startswith("algorithm1.gates.")
            }
            obs.reset()
        assert counters[0]
        assert counters[0] == counters[2]


class TestLedgerRows:
    FIELDS = ("sink", "action", "backend", "cone_inputs", "tree_cost",
              "original_cost", "signature")

    def test_in_process_rows_match_parallel_rows(self, tmp_path, capsys):
        blif = str(tmp_path / "s344.blif")
        assert main(["generate", "s344", "-o", blif]) == 0
        rows = {}
        for workers in ("0", "2"):
            db = str(tmp_path / f"w{workers}.db")
            assert main(["optimize", blif, "-o", str(tmp_path / "o.blif"),
                         "--workers", workers, "--ledger", db]) == 0
            with RunLedger(db, readonly=True) as ledger:
                (run,) = ledger.runs()
                rows[workers] = ledger.cones(run["id"])
        assert len(rows["0"]) == len(rows["2"]) == 26
        assert [tuple(r[k] for k in self.FIELDS) for r in rows["0"]] == [
            tuple(r[k] for k in self.FIELDS) for r in rows["2"]
        ]
        assert not any(r["task_key"] for r in rows["0"])
        assert all(r["task_key"] for r in rows["2"])

    def test_history_show_prints_signature_without_task_key(
        self, tmp_path, capsys
    ):
        blif = str(tmp_path / "s344.blif")
        db = str(tmp_path / "runs.db")
        assert main(["generate", "s344", "-o", blif]) == 0
        assert main(["optimize", blif, "-o", str(tmp_path / "o.blif"),
                     "--ledger", db]) == 0
        with RunLedger(db, readonly=True) as ledger:
            (run,) = ledger.runs()
            signature = ledger.cones(run["id"])[0]["signature"]
        capsys.readouterr()
        assert main(["history", "show", run["id"], "--ledger", db,
                     "--top", "26"]) == 0
        out = capsys.readouterr().out
        assert f"signature={signature}" in out
        assert "key=" not in out


class TestSignatureOnDemand:
    def test_no_sinks_no_signature(self, monkeypatch):
        calls = []
        original = conetask.interval_signature

        def counted(interval):
            calls.append(interval)
            return original(interval)

        monkeypatch.setattr(conetask, "interval_signature", counted)
        report = algorithm1(iscas_analog("s344"), SynthesisOptions())
        assert report.records and calls == []
        # The control: an installed event sink asks for them.
        _, log = run_s344()
        assert len(calls) == sum(
            1 for c in log.named("cone") if c["signature"] is not None
        ) > 0


class TestIntervalSignature:
    @staticmethod
    def signature(order):
        manager = BDDManager()
        var = {name: manager.var(manager.new_var(name)) for name in order}
        f = manager.apply_or(
            manager.apply_and(var["a"], var["b"]),
            manager.apply_and(var["c"], var["d"]),
        )
        dont_care = manager.apply_and(var["a"], var["d"])
        return (
            conetask.interval_signature(Interval.exact(manager, f)),
            conetask.interval_signature(
                Interval.with_dont_cares(manager, f, dont_care)
            ),
        )

    def test_independent_of_variable_order(self):
        digests = {self.signature(order) for order in ("abcd", "acbd", "dcba")}
        assert len(digests) == 1
        (exact, widened), = digests
        assert exact != widened

    def test_same_with_auto_reorder_on_and_off(self):
        _, off = run_s344()
        _, on = run_s344(auto_reorder=True, reorder_threshold=200)
        assert on.named("bdd.compact"), "no compaction ran"
        signatures = [c["signature"] for c in off.named("cone")]
        assert any(signatures)
        assert [c["signature"] for c in on.named("cone")] == signatures

    def test_worker_signatures_pinned(self, transports):
        report, _ = transports[2]
        pairs = sorted(
            [row["sink"], row["signature"]]
            for row in report.artifacts["parallel.cone_stats"]
        )
        digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16]
        assert digest == S344_W2_SIGNATURES
