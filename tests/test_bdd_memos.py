"""Facts computed once and then reused: a root's support and a
variable's literal node (per-manager memos), and a partition space's
weight tables (one per decision vector).

Each class runs on the pure-Python cores; its ``...Native`` subclass
reruns it on the C kernel (skipped when the kernel is unavailable)."""

import random

import pytest

from repro.bdd import builders as _builders
from repro.bdd import count as _count
from repro.bdd import native as _native
from repro.bdd import program as _program
from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.bidec import symbolic as _symbolic
from repro.bidec.api import decompose_interval
from repro.intervals import Interval
from repro.logic.truthtable import TruthTable

requires_native = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)


def _random_functions(manager, rng, count, num_vars=10, max_support=6):
    """``count`` random functions over random variable subsets, each with
    its support as read off the truth-table oracle."""
    cases = []
    for _ in range(count):
        size = rng.randint(0, max_support)
        variables = sorted(rng.sample(range(num_vars), size))
        table = TruthTable.random(len(variables), rng)
        node = table.to_bdd(manager, variables)
        cases.append((node, {variables[i] for i in table.support()}))
    return cases


class TestSupportMemo:
    native = False

    def test_matches_oracle_across_growth_and_clear(self):
        m = BDDManager(10, native=self.native)
        rng = random.Random(3)
        cases = []
        for _ in range(4):
            batch = _random_functions(m, rng, 40)
            for node, expected in batch:
                assert m.support(node) == expected  # first call
            cases += batch
        assert {FALSE, TRUE} & {node for node, _ in cases}
        # The node arrays and the unique table grew while the memo
        # held the earlier batches' supports.
        assert m.num_nodes > 256
        assert m.table_metrics()["unique"]["capacity"] > 512
        for node, expected in cases:
            assert m.support(node) == expected
            assert m.support(node) is m.support(node)  # memo hit
        held = m.support(cases[-1][0])
        m.clear_caches()
        assert m.support(cases[-1][0]) is not held  # walked again
        for node, expected in cases:
            assert m.support(node) == expected

    def test_callers_get_a_fresh_set(self):
        m = BDDManager(4, native=self.native)
        f = m.apply_and(m.var(0), m.apply_or(m.var(2), m.var(3)))
        for _ in range(2):
            got = _count.support(m, f)
            assert got == {0, 2, 3}
            got.discard(0)
            got.add(1)
        interval = Interval(m, f, m.apply_or(f, m.var(1)))
        got = interval.support()
        assert got == {0, 1, 2, 3}
        got.clear()
        assert interval.support() == {0, 1, 2, 3}
        assert m.support(f) == {0, 2, 3}


@requires_native
class TestSupportMemoNative(TestSupportMemo):
    native = True


class TestLiteralMemo:
    native = False

    def test_same_node_across_growth(self):
        m = BDDManager(12, native=self.native)
        first = [m.var(v) for v in range(12)]
        for node, _ in _random_functions(m, random.Random(5), 150, 12):
            m.apply_xor(node, first[node % 12])
        assert m.num_nodes > 256
        assert m.table_metrics()["unique"]["capacity"] > 512
        assert [m.var(v) for v in range(12)] == first
        assert first == [m._mk(v, FALSE, TRUE) for v in range(12)]
        late = m.new_var()
        assert m.var(late) == m._mk(late, FALSE, TRUE)

    def test_lazy_fill_keeps_numbering(self):
        """Literals are made on first use, in call order, exactly as
        the unique table would make them."""
        memo = BDDManager(3, native=self.native)
        plain = BDDManager(3, native=self.native)
        assert [memo.var(2), memo.var(0), memo.var(2)] == [
            plain._mk(2, FALSE, TRUE),
            plain._mk(0, FALSE, TRUE),
            plain._mk(2, FALSE, TRUE),
        ]
        assert memo.num_nodes == plain.num_nodes == 4


@requires_native
class TestLiteralMemoNative(TestLiteralMemo):
    native = True


class TestWeightTables:
    native = False

    @pytest.fixture(autouse=True)
    def _scratch_kernel(self, monkeypatch):
        """Partition spaces build their own scratch managers: run those on
        this class's kernel too."""
        if not self.native:
            monkeypatch.setattr(_native, "kernel", lambda: None)

    def test_one_sweep_per_decision_vector(self, monkeypatch):
        """``x0·x1 + ((x2·x3) ⊕ (x4 + x5))`` builds an OR, an AND and an
        XOR space; the three Section 3.5.2 consumers of each space (the
        non-triviality constraint, the size pairs and the size
        constraint) share one weight table per decision vector."""
        m = BDDManager(6, native=self.native)
        x = [m.var(i) for i in range(6)]
        f = m.apply_or(
            m.apply_and(x[0], x[1]),
            m.apply_xor(m.apply_and(x[2], x[3]), m.apply_or(x[4], x[5])),
        )
        sweeps = []
        spaces = []
        weight_functions = _builders.weight_functions
        partition_space = _symbolic.partition_space

        run = _program.run

        def counting(manager, variables, max_weight=None):
            sweeps.append((manager, tuple(variables)))
            return weight_functions(manager, variables, max_weight)

        def counting_run(manager, program, inputs, vectors=(), source=None):
            # On the kernel, the weight tables a program builds never
            # reach builders.weight_functions: count its weights steps.
            if manager.native:
                for op, _, *args in program.steps:
                    if op == "weights":
                        sweeps.append((manager, tuple(vectors[args[0]])))
            return run(manager, program, inputs, vectors, source)

        def recording(interval, gate, variables=None):
            spaces.append(partition_space(interval, gate, variables))
            return spaces[-1]

        monkeypatch.setattr(_builders, "weight_functions", counting)
        monkeypatch.setattr(_program, "run", counting_run)
        monkeypatch.setattr(_symbolic, "partition_space", recording)
        result = decompose_interval(Interval.exact(m, f))
        assert result is not None and result.verify()
        assert [space.gate for space in spaces] == ["or", "and", "xor"]
        assert all(space.manager.native == self.native for space in spaces)
        assert len(sweeps) == 6
        assert set(sweeps) == {
            (space.manager, c_vars)
            for space in spaces
            for c_vars in (space.c1_vars, space.c2_vars)
        }

    def test_sizes_outside_range_have_no_choices(self):
        m = BDDManager(3, native=self.native)
        f = m.apply_or(m.var(0), m.apply_and(m.var(1), m.var(2)))
        space = _symbolic.or_partition_space(Interval.exact(m, f))
        assert space.count_choices(*space.best_balanced_pair()) > 0
        for k1, k2 in ((-1, 1), (2, -1), (4, 1), (2, 4)):
            assert space.count_choices(k1, k2) == 0
            assert space.pick_partition(k1, k2) is None


@requires_native
class TestWeightTablesNative(TestWeightTables):
    native = True
