"""Run-ledger tests: the SQLite store, the regression comparator,
concurrent-writer safety, and the CLI integration (``--ledger`` on
optimize, the ``repro history`` subcommands, crash bundles carrying the
run id, and the zero-I/O-when-off guarantee)."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs.ledger import (
    MIN_COMPARED_WALL,
    LedgerError,
    RunLedger,
    compare_runs,
    trajectory_regressions,
)

DEMO = """
.model demo
.inputs a en
.outputs z
.latch n0 q0 0
.latch n1 q1 0
.names q0 en n0
10 1
01 1
.names q1 q0 en n1
010 1
110 1
101 1
.names q0 q1 a z
111 1
001 1
.end
"""


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.blif"
    path.write_text(DEMO)
    return str(path)


# ---------------------------------------------------------------------------
# Store basics
# ---------------------------------------------------------------------------


class TestRunLedger:
    def test_begin_finish_roundtrip(self, tmp_path):
        with RunLedger(tmp_path / "runs.db") as ledger:
            run_id = ledger.begin_run(
                command="optimize", argv=["optimize", "x"], input="x.blif",
                netlist_signature="sig", config_hash="cfg", workers=2,
                instrumented=True,
            )
            ledger.finish_run(
                run_id, wall=1.5, literals_before=100, literals_after=80,
                decomposed=7, degraded=False, degraded_cones=0,
                peak_nodes=1234, extra={"note": "hi"},
            )
            run = ledger.run(run_id)
        assert run["command"] == "optimize"
        assert run["status"] == "finished"
        assert run["argv"] == ["optimize", "x"]
        assert run["literals_after"] == 80
        assert run["peak_nodes"] == 1234
        assert run["instrumented"] is True
        assert run["degraded"] is False
        assert run["extra"] == {"note": "hi"}

    def test_run_prefix_lookup(self, tmp_path):
        with RunLedger(tmp_path / "runs.db") as ledger:
            run_id = ledger.begin_run(command="optimize")
            assert ledger.run(run_id[:6])["id"] == run_id
            with pytest.raises(LedgerError):
                ledger.run("zzzzzz")

    def test_finish_rejects_unknown_fields(self, tmp_path):
        with RunLedger(tmp_path / "runs.db") as ledger:
            run_id = ledger.begin_run(command="optimize")
            with pytest.raises(ValueError):
                ledger.finish_run(run_id, bogus=1)

    def test_pass_and_cone_rows(self, tmp_path):
        with RunLedger(tmp_path / "runs.db") as ledger:
            run_id = ledger.begin_run(command="optimize")
            ledger.record_pass(run_id, 0, "cleanup", 0.01)
            ledger.record_pass(run_id, 1, "decompose", 0.5, exhausted=True)
            ledger.record_cones(run_id, [
                {"sink": "z", "task_key": "k1", "signature": "s1",
                 "cone_inputs": 3, "action": "decomposed", "elapsed": 0.2},
                {"sink": "n0", "task_key": "k2", "cone_inputs": 2,
                 "action": "kept-cost", "elapsed": 0.1},
            ])
            passes = ledger.passes(run_id)
            cones = ledger.cones(run_id)
        assert [p["pass"] for p in passes] == ["cleanup", "decompose"]
        assert passes[1]["exhausted"] == 1
        assert [c["sink"] for c in cones] == ["z", "n0"]
        assert cones[0]["signature"] == "s1"

    def test_export_jsonl(self, tmp_path):
        with RunLedger(tmp_path / "runs.db") as ledger:
            run_id = ledger.begin_run(command="optimize")
            ledger.record_pass(run_id, 0, "cleanup", 0.01)
            ledger.finish_run(run_id, wall=1.0)
            out = tmp_path / "runs.jsonl"
            assert ledger.export_jsonl(out) == 1
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["id"] == run_id
        assert lines[0]["passes"][0]["pass"] == "cleanup"

    def test_readonly_refuses_missing_and_corrupt(self, tmp_path):
        with pytest.raises(LedgerError):
            RunLedger(tmp_path / "absent.db", readonly=True)
        bad = tmp_path / "bad.db"
        bad.write_text("not a database")
        with pytest.raises(LedgerError):
            RunLedger(bad, readonly=True)


# ---------------------------------------------------------------------------
# Regression comparison
# ---------------------------------------------------------------------------


def _run_row(**over):
    row = {
        "id": "r", "netlist_signature": "sig", "config_hash": "cfg",
        "instrumented": False, "wall": 1.0, "literals_after": 100,
        "area": 50.0, "degraded_cones": 0,
    }
    row.update(over)
    return row


class TestCompareRuns:
    def test_no_regression(self):
        result = compare_runs(_run_row(), _run_row(id="r2"))
        assert result["regressions"] == []

    def test_quality_regression_on_any_increase(self):
        result = compare_runs(_run_row(), _run_row(literals_after=101))
        assert any("literals_after" in r for r in result["regressions"])
        result = compare_runs(_run_row(), _run_row(degraded_cones=1))
        assert any("degraded_cones" in r for r in result["regressions"])

    def test_wall_regression_beyond_threshold(self):
        ok = compare_runs(_run_row(), _run_row(wall=1.2))
        assert ok["regressions"] == []
        bad = compare_runs(_run_row(), _run_row(wall=1.6))
        assert any("wall" in r for r in bad["regressions"])

    def test_wall_compared_only_above_floor(self):
        """Runs at or under the floor get a note, never a wall verdict;
        just above it a slowdown regresses."""
        short = compare_runs(
            _run_row(wall=MIN_COMPARED_WALL), _run_row(wall=10.0)
        )
        assert short["regressions"] == []
        assert not any(r["metric"] == "wall" for r in short["rows"])
        assert any("noise floor" in n for n in short["notes"])
        base = MIN_COMPARED_WALL * 1.01
        long = compare_runs(_run_row(wall=base), _run_row(wall=base * 2))
        assert any("wall" in r for r in long["regressions"])

    def test_instrumented_mismatch_skips_wall(self):
        result = compare_runs(
            _run_row(), _run_row(wall=10.0, instrumented=True)
        )
        assert result["regressions"] == []
        assert any("instrumented" in n for n in result["notes"])

    def test_signature_and_config_notes(self):
        result = compare_runs(
            _run_row(), _run_row(netlist_signature="other",
                                 config_hash="other")
        )
        assert len(result["notes"]) == 2

    def test_trajectory_regressions(self, tmp_path):
        with RunLedger(tmp_path / "runs.db") as ledger:
            for lits in (100, 120):
                run_id = ledger.begin_run(command="optimize", input="a.blif")
                ledger.finish_run(run_id, literals_after=lits)
            # Single-run group: never compared.
            run_id = ledger.begin_run(command="optimize", input="b.blif")
            ledger.finish_run(run_id, literals_after=5)
            found = trajectory_regressions(ledger)
        assert len(found) == 1
        assert found[0]["input"] == "a.blif"


# ---------------------------------------------------------------------------
# Concurrent writers (WAL + busy timeout)
# ---------------------------------------------------------------------------


def _ledger_writer(path: str, worker: int, runs: int) -> None:
    ledger = RunLedger(path)
    try:
        for index in range(runs):
            run_id = ledger.begin_run(
                command=f"worker{worker}", input=f"run{index}"
            )
            ledger.record_pass(run_id, 0, "decompose", 0.01)
            ledger.record_cones(run_id, [
                {"sink": f"s{index}", "task_key": f"k{worker}",
                 "cone_inputs": 2, "elapsed": 0.01},
            ])
            ledger.finish_run(run_id, wall=0.01, literals_after=10)
    finally:
        ledger.close()


class TestConcurrentWriters:
    def test_multiprocess_appends_do_not_corrupt(self, tmp_path):
        path = str(tmp_path / "runs.db")
        # Create the schema first so workers race only on appends.
        RunLedger(path).close()
        context = multiprocessing.get_context("fork")
        workers, runs_each = 4, 5
        processes = [
            context.Process(target=_ledger_writer, args=(path, w, runs_each))
            for w in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        with RunLedger(path, readonly=True) as ledger:
            rows = ledger.runs()
            assert len(rows) == workers * runs_each
            assert all(r["status"] == "finished" for r in rows)
            total_cones = sum(len(ledger.cones(r["id"])) for r in rows)
        assert total_cones == workers * runs_each
        conn = sqlite3.connect(path)
        try:
            assert conn.execute(
                "PRAGMA integrity_check"
            ).fetchone()[0] == "ok"
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestLedgerCLI:
    def test_optimize_records_run_pass_and_cone_rows(
        self, demo_path, tmp_path, capsys
    ):
        db = str(tmp_path / "runs.db")
        out = str(tmp_path / "opt.blif")
        assert main(["optimize", demo_path, "-o", out, "--workers", "2",
                     "--ledger", db]) == 0
        assert "ledger: run" in capsys.readouterr().out
        with RunLedger(db, readonly=True) as ledger:
            runs = ledger.runs()
            assert len(runs) == 1
            run = runs[0]
            assert run["status"] == "finished"
            assert run["command"] == "optimize"
            assert run["workers"] == 2
            assert run["literals_after"] is not None
            passes = ledger.passes(run["id"])
            cones = ledger.cones(run["id"])
        assert "decompose_parallel" in [p["pass"] for p in passes]
        assert cones, "parallel run must record per-cone rows"
        assert all(c["task_key"] for c in cones)
        done = [c for c in cones if c["action"] in ("decomposed", "kept-cost")]
        assert all(c["signature"] for c in done)

    def test_history_compare_clean_then_injected_regression(
        self, demo_path, tmp_path, capsys
    ):
        db = str(tmp_path / "runs.db")
        for name in ("a", "b"):
            assert main(["optimize", demo_path, "-o",
                         str(tmp_path / f"{name}.blif"), "--ledger", db]) == 0
        assert main(["history", "compare", "--ledger", db]) == 0
        assert "no regressions" in capsys.readouterr().out
        # --cone-inputs 0 keeps every cone structurally: literals stay at
        # the unoptimised count, a strict quality regression.
        assert main(["optimize", demo_path, "-o", str(tmp_path / "c.blif"),
                     "--cone-inputs", "0", "--ledger", db]) == 0
        capsys.readouterr()
        assert main(["history", "compare", "--ledger", db]) == 2
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "regression(s) detected" in captured.err

    def test_history_list_show_export_regressions(
        self, demo_path, tmp_path, capsys
    ):
        db = str(tmp_path / "runs.db")
        assert main(["optimize", demo_path, "-o", str(tmp_path / "o.blif"),
                     "--workers", "2", "--ledger", db]) == 0
        assert main(["history", "list", "--ledger", db]) == 0
        out = capsys.readouterr().out
        assert "optimize" in out and "finished" in out
        with RunLedger(db, readonly=True) as ledger:
            run_id = ledger.runs()[0]["id"]
        assert main(["history", "show", run_id[:8], "--ledger", db]) == 0
        out = capsys.readouterr().out
        assert "passes:" in out and "cones (" in out
        jsonl = str(tmp_path / "runs.jsonl")
        assert main(["history", "export", "--ledger", db, "-o", jsonl]) == 0
        assert json.loads(open(jsonl).readline())["id"] == run_id
        assert main(["history", "regressions", "--ledger", db]) == 0

    def test_history_friendly_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.db")
        assert main(["history", "list", "--ledger", missing]) == 1
        assert "error:" in capsys.readouterr().err
        corrupt = tmp_path / "bad.db"
        corrupt.write_text("garbage")
        assert main(["history", "list", "--ledger", str(corrupt)]) == 1
        assert "error:" in capsys.readouterr().err
        # Unknown run id is a friendly error too, not a traceback.
        db = str(tmp_path / "runs.db")
        RunLedger(db).close()
        assert main(["history", "show", "nope", "--ledger", db]) == 1
        assert "error:" in capsys.readouterr().err

    def test_crash_marks_run_and_bundle_carries_id(
        self, demo_path, tmp_path, capsys
    ):
        from repro.engine.parallel import ConeShardAborted
        from repro.obs.crashdump import load_crash_bundle

        db = str(tmp_path / "runs.db")
        dump = str(tmp_path / "crash.json")
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({
            "options": {"parallel_workers": 1},
            "passes": ["cleanup", "dontcares",
                       {"pass": "decompose_parallel",
                        "_abort_after_merges": 1},
                       "finalize", "sweep"],
        }))
        with pytest.raises(ConeShardAborted):
            main(["optimize", demo_path, "-o", str(tmp_path / "o.blif"),
                  "--pipeline-config", str(config),
                  "--ledger", db, "--crash-dump", dump])
        bundle = load_crash_bundle(dump)
        with RunLedger(db, readonly=True) as ledger:
            run = ledger.runs()[0]
        assert run["status"] == "crashed"
        assert "ConeShardAborted" in run["extra"]["error"]
        assert bundle["ledger"]["run_id"] == run["id"]
        assert bundle["ledger"]["path"] == db

    def test_status_file_names_ledger_run(self, demo_path, tmp_path):
        db = str(tmp_path / "runs.db")
        status = tmp_path / "status.json"
        assert main(["optimize", demo_path, "-o", str(tmp_path / "o.blif"),
                     "--status-file", str(status), "--ledger", db]) == 0
        sample = json.loads(status.read_text())
        assert sample["ledger"]["path"] == db
        with RunLedger(db, readonly=True) as ledger:
            assert sample["ledger"]["run_id"] == ledger.runs()[0]["id"]

    def test_ledger_off_never_imports_ledger(self, demo_path, tmp_path):
        """The zero-I/O-when-off guarantee: a run without ``--ledger``
        must not even import repro.obs.ledger (checked in a fresh
        interpreter — this process has already imported it)."""
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"rc = main(['optimize', {demo_path!r}, '-o', "
            f"{str(tmp_path / 'o.blif')!r}, '--workers', '2'])\n"
            "assert rc == 0\n"
            "assert 'repro.obs.ledger' not in sys.modules, "
            "'ledger imported on the off path'\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run(
            [sys.executable, "-c", code],
            cwd=str(tmp_path),
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
