"""The substrate regression gate (``benchmarks/check_regression.py``)
compares timings only between records of the same kind of run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(mean, **flags):
    return {"test_x": {"test": "test_x", "wall_time": mean,
                       "timing": {"mean": mean}, **flags}}


class TestRunFlags:
    def test_kernel_mismatch_is_skipped_loudly(self, gate, capsys):
        """A pure-Python run ten times slower than a native baseline is
        not a regression: the two timings are not comparable."""
        baseline = _record(0.023, instrumented=False, native=True)
        current = _record(0.338, instrumented=False, native=False)
        assert gate.compare(baseline, current, 0.25) == 0
        out = capsys.readouterr().out
        assert "baseline native=True, current native=False" in out
        assert "WARNING: 1 test(s) skipped because the native flag" in out

    def test_same_kernel_still_gates(self, gate):
        baseline = _record(0.023, native=True)
        assert gate.compare(baseline, _record(0.338, native=True), 0.25) == 1

    def test_missing_flag_counts_as_matching(self, gate):
        baseline = _record(0.023)
        assert gate.compare(baseline, _record(0.338, native=False), 0.25) == 1
