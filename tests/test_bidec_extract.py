"""Tests for decomposition-function extraction."""

import importlib

import pytest

from repro.bdd import BDDManager, support
from repro.bdd import native as _native
from repro.bdd.program import Program
from repro.bidec.extract import (
    InfeasiblePartition,
    extract,
    extract_and,
    extract_or,
    extract_xor,
    extract_xor_cs,
)
from repro.bidec.symbolic import (
    and_partition_space,
    or_partition_space,
    xor_partition_space,
)
from repro.intervals import Interval

from conftest import random_bdd

_extract_module = importlib.import_module("repro.bidec.extract")


class TestExtractOr:
    def test_respects_supports_and_interval(self, rng):
        m = BDDManager(4)
        for _ in range(15):
            f, _ = random_bdd(m, 4, rng)
            dc, _ = random_bdd(m, 4, rng)
            interval = Interval.with_dont_cares(m, f, dc)
            space = or_partition_space(interval).nontrivial()
            pair = space.pick_partition()
            if pair is None:
                continue
            support1, support2 = pair
            result = extract_or(interval, support1, support2)
            assert result.verify(interval)
            assert support(m, result.g1) <= support1
            assert support(m, result.g2) <= support2

    def test_minimize_not_worse(self, rng):
        """The ISOP-refined g1 never has a larger support than allotted
        and still verifies."""
        m = BDDManager(4)
        f, _ = random_bdd(m, 4, rng)
        dc, _ = random_bdd(m, 4, rng)
        interval = Interval.with_dont_cares(m, f, dc)
        space = or_partition_space(interval).nontrivial()
        pair = space.pick_partition()
        if pair is None:
            return
        plain = extract_or(interval, *pair, minimize=False)
        refined = extract_or(interval, *pair, minimize=True)
        assert plain.verify(interval) and refined.verify(interval)

    def test_infeasible_partition_raises(self):
        import pytest

        m = BDDManager(2)
        f = m.apply_and(m.var(0), m.var(1))
        interval = Interval.exact(m, f)
        with pytest.raises(ValueError):
            extract_or(interval, {0}, {1})


class TestExtractAnd:
    def test_and_verifies(self, rng):
        m = BDDManager(4)
        for _ in range(10):
            f, _ = random_bdd(m, 4, rng)
            interval = Interval.exact(m, f)
            space = and_partition_space(interval).nontrivial()
            pair = space.pick_partition()
            if pair is None:
                continue
            result = extract_and(interval, *pair)
            assert result.gate == "and"
            assert result.verify(interval)
            assert m.apply_and(result.g1, result.g2) == f

    def test_failed_check_returns_none(self, monkeypatch):
        """A failed check of the AND program raises ``ValueError``, as
        OR's does, so it holds under ``python -O`` and ``extract``
        returns ``None`` instead of letting it escape, on both kernels.
        The programs are patched with one more check after the pair's
        own, which no pair of a satisfiable interval passes: ``g1 ∧ g2``
        (register 13) below its complement."""
        managers = [BDDManager(2, native=native) for native in (False, None)]
        intervals = [Interval.exact(m, m.apply_and(m.var(0), m.var(1))) for m in managers]
        assert all(extract(interval, "and", {0}, {1}) for interval in intervals)
        for minimize in (False, True):
            program, pair = _extract_module._EXTRACTIONS["and", minimize]
            assert program.steps[-3:] == (
                ("and", 13, 11, 12), ("leq", None, 0, 13), ("leq", None, 13, 1)
            )
            steps = program.steps + (("not", 14, 13), ("leq", None, 13, 14))
            monkeypatch.setitem(
                _extract_module._EXTRACTIONS,
                ("and", minimize),
                (Program(steps, 15, program.inputs), pair),
            )
        for interval in intervals:
            assert extract(interval, "and", {0}, {1}) is None
            with pytest.raises(InfeasiblePartition, match="not AND-feasible"):
                extract_and(interval, {0}, {1})


class TestExtractXor:
    def test_cs_construction(self):
        m = BDDManager(4)
        target_g1 = m.apply_and(m.var(0), m.var(1))
        target_g2 = m.apply_or(m.var(2), m.var(3))
        f = m.apply_xor(target_g1, target_g2)
        result = extract_xor_cs(m, f, [0, 1], [2, 3])
        assert result is not None
        assert m.apply_xor(result.g1, result.g2) == f

    def test_cs_infeasible_returns_none(self):
        m = BDDManager(2)
        f = m.apply_and(m.var(0), m.var(1))
        assert extract_xor_cs(m, f, [0], [1]) is None

    def test_xor_from_space_verifies(self, rng):
        m = BDDManager(4)
        hits = 0
        for _ in range(15):
            f, _ = random_bdd(m, 4, rng)
            interval = Interval.exact(m, f)
            space = xor_partition_space(interval).nontrivial()
            pair = space.pick_partition()
            if pair is None:
                continue
            result = extract_xor(interval, *pair)
            assert result is not None  # complete for CS functions
            assert result.verify(interval)
            hits += 1
        assert hits > 0

    def test_isf_xor_sound(self, rng):
        """Whatever the ISF extraction returns must verify (soundness);
        it may return None (conservative)."""
        m = BDDManager(3)
        found = 0
        for _ in range(40):
            f, _ = random_bdd(m, 3, rng)
            dc, _ = random_bdd(m, 3, rng)
            interval = Interval.with_dont_cares(m, f, dc)
            space = xor_partition_space(interval).nontrivial()
            pair = space.pick_partition()
            if pair is None:
                continue
            result = extract_xor(interval, *pair)
            if result is not None:
                assert result.verify(interval)
                found += 1
        assert found > 0

    def test_isf_xor_uses_dont_cares(self):
        """An interval XOR decomposition that no member's exact
        decomposition structure would allow with smaller support: DC
        widens feasibility."""
        m = BDDManager(3)
        # f = a&b ^ c except on one minterm where DC frees it.
        f = m.apply_xor(m.apply_and(m.var(0), m.var(1)), m.var(2))
        dc = m.cube({0: True, 1: False, 2: False})
        interval = Interval.with_dont_cares(m, f, dc)
        result = extract_xor(interval, {0, 1}, {2})
        assert result is not None and result.verify(interval)


class TestDispatch:
    def test_extract_unknown_gate(self):
        import pytest

        m = BDDManager(2)
        interval = Interval.exact(m, m.var(0))
        with pytest.raises(ValueError):
            extract(interval, "nand", {0}, {1})

    def test_extract_returns_none_on_infeasible(self):
        m = BDDManager(2)
        f = m.apply_and(m.var(0), m.var(1))
        interval = Interval.exact(m, f)
        assert extract(interval, "or", {0}, {1}) is None


@pytest.mark.parametrize(
    "native",
    [
        False,
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                _native.kernel() is None, reason="native kernel unavailable"
            ),
        ),
    ],
)
class TestStrayIds:
    """Only a failed check of the extraction reads as "no
    decomposition"; a node id the manager never made raises."""

    @pytest.mark.parametrize("gate", ["or", "and", "xor"])
    def test_stray_node_raises(self, native, gate):
        m = BDDManager(2, native=native)
        f = m.apply_and(m.var(0), m.var(1))
        for interval in (Interval(m, m.num_nodes + 5, f), Interval(m, f, -3)):
            with pytest.raises(ValueError, match="not made by this manager"):
                extract(interval, gate, {0}, {1})

    def test_infeasible_partition_returns_none(self, native):
        m = BDDManager(2, native=native)
        a, b = m.var(0), m.var(1)
        assert extract(Interval.exact(m, m.apply_and(a, b)), "or", {0}, {1}) is None
        assert extract(Interval.exact(m, m.apply_or(a, b)), "and", {0}, {1}) is None
        assert extract(Interval.exact(m, m.apply_or(a, b)), "or", {0}, {1}) is not None
