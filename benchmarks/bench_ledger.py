"""Run-ledger overhead benchmark.

Answers two questions about the ``--ledger`` flag:

* **On-cost** — how much wall time does appending run/pass/cone rows to
  the SQLite ledger add to an optimize run?  Measured as the ratio of
  ledger-on to ledger-off means over several rounds and recorded in
  ``results/BENCH_ledger.json`` (the ratio is noisy on a loaded host, so
  it is recorded, not gated).
* **Off-cost** — the hard guarantee: a run *without* ``--ledger`` must
  do zero ledger work.  Enforced exactly: a fresh interpreter runs the
  same optimize and asserts ``repro.obs.ledger`` never entered
  ``sys.modules`` — no import means no connection, no file, no I/O.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from conftest import get_table, record_bench_json

from repro.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from strategies import wide_circuit  # noqa: E402

ROUNDS = 3


def _save_workload(tmp_path) -> str:
    from repro.network import save_blif

    net = wide_circuit(3, outputs=12, latches=16)
    path = str(tmp_path / "workload.blif")
    save_blif(net, path)
    return path


def _timed_optimize(args: list[str]) -> float:
    began = time.perf_counter()
    assert main(args) == 0
    return time.perf_counter() - began


def test_ledger_overhead(tmp_path, capsys):
    table = get_table(
        "ledger",
        "Run-ledger overhead: optimize wall time with and without --ledger",
        f"{'mode':<12} {'rounds':>6} {'mean':>9} {'min':>9}",
    )
    workload = _save_workload(tmp_path)
    out = str(tmp_path / "opt.blif")

    # Ledger-off rounds first (and through main(), same code path).
    off = [
        _timed_optimize(["optimize", workload, "-o", out, "--workers", "2"])
        for _ in range(ROUNDS)
    ]
    ledger_db = str(tmp_path / "runs.db")
    on = [
        _timed_optimize(["optimize", workload, "-o", out, "--workers", "2",
                         "--ledger", ledger_db])
        for _ in range(ROUNDS)
    ]
    capsys.readouterr()  # swallow the CLI chatter from the timed runs

    off_mean, on_mean = statistics.mean(off), statistics.mean(on)
    ratio = on_mean / off_mean if off_mean else float("inf")
    table.row(f"{'ledger-off':<12} {ROUNDS:>6} {off_mean:>8.3f}s "
              f"{min(off):>8.3f}s")
    table.row(f"{'ledger-on':<12} {ROUNDS:>6} {on_mean:>8.3f}s "
              f"{min(on):>8.3f}s")
    table.row(f"overhead ratio (on/off): {ratio:.3f}x")

    # The ledger really recorded every round.
    from repro.obs.ledger import RunLedger

    with RunLedger(ledger_db, readonly=True) as ledger:
        runs = ledger.runs()
        assert len(runs) == ROUNDS
        assert all(r["status"] == "finished" for r in runs)
        cone_rows = sum(len(ledger.cones(r["id"])) for r in runs)
    assert cone_rows > 0

    record_bench_json(
        "bench_ledger", "overhead_summary", off_mean + on_mean,
        metrics={
            "rounds": ROUNDS,
            "off_mean_s": round(off_mean, 6),
            "off_min_s": round(min(off), 6),
            "on_mean_s": round(on_mean, 6),
            "on_min_s": round(min(on), 6),
            "overhead_ratio": round(ratio, 4),
            "cone_rows_recorded": cone_rows,
        },
    )


def test_ledger_off_path_is_import_free(tmp_path):
    """The zero-I/O gate: without ``--ledger`` the ledger module must
    never be imported — checked in a fresh interpreter, since this
    pytest process has already imported it."""
    workload = _save_workload(tmp_path)
    out = str(tmp_path / "opt.blif")
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"rc = main(['optimize', {workload!r}, '-o', {out!r}, "
        "'--workers', '2'])\n"
        "assert rc == 0\n"
        "assert 'repro.obs.ledger' not in sys.modules, "
        "'ledger imported on the off path'\n"
    )
    env = dict(os.environ)
    root = os.path.join(os.path.dirname(__file__), "..")
    env["PYTHONPATH"] = os.path.join(root, "src")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root,
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    record_bench_json(
        "bench_ledger", "off_path_import_free", 0.0,
        metrics={"ledger_module_imported": False},
    )
