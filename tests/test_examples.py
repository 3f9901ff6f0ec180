"""Smoke tests: every example script runs and prints what it promises."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Figure 3.1" in out
        assert "g1" in out and "OR" in out

    def test_sequential_dont_cares(self):
        out = run_example("sequential_dont_cares.py")
        assert "reachable states: 4 of 8" in out
        assert "Figure 3.1" in out

    def test_mux_partitions(self):
        out = run_example("mux_partitions.py", "3")
        assert "(4, 4)" in out and "(7, 7)" in out
        assert "70" in out

    def test_adder_xor(self):
        out = run_example("adder_xor.py", "4")
        assert "(2, 5)" in out and "(2, 9)" in out

    @pytest.mark.slow
    def test_synthesis_flow(self):
        out = run_example("synthesis_flow.py", "s344")
        assert "area ratio" in out
        assert "with states" in out

    def test_custom_pipeline(self):
        out = run_example("custom_pipeline.py", "s344")
        assert "custom pipeline:" in out
        assert "census artifact" in out
        assert '"passes"' in out
        assert "degraded: node budget exhausted" in out
        assert "matches uninterrupted run" in out

    @pytest.mark.slow
    def test_custom_library(self):
        out = run_example("custom_library.py")
        assert "mcnc-like" in out and "verified equivalent" in out

    def test_live_dashboard(self):
        out = run_example("live_dashboard.py", "s344", "2")
        assert "repro top — pid" in out
        assert "bus aggregate" in out
        assert "dropped" in out and "0 dropped" in out
        assert "cone completions across" in out
        assert "OpenMetrics families" in out

    def test_profiling(self, tmp_path):
        report = tmp_path / "report.json"
        out = run_example("profiling.py", "s344", str(report))
        assert "phase timings" in out
        assert "BDD cache efficiency" in out
        assert "algorithm1.run wall time" in out
        rows = out.split("headlines", 1)[1].splitlines()
        for phase in ("collapse", "decompose"):
            assert any(
                row.split()[:1] == [phase] and "% of run" in row
                for row in rows
            ), f"no {phase} headline"
        assert "metric families" in out
        data = json.loads(report.read_text())
        assert data["run"]["bench"] == "s344"
        for family in ("bdd", "bidec", "algorithm1"):
            assert family in data["families"]
