"""Auto-reorder correctness: semantics-preservation property tests,
growth-trigger units, sift memoization, and synthesis output identity
with the knob on and off."""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import circuits, small_circuit

from repro.bdd import count as _count

# ``repro.bdd.__init__`` re-exports ``reorder`` the function, shadowing
# the submodule name — reach the module itself for monkeypatching.
_reorder_mod = importlib.import_module("repro.bdd.reorder")
from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.bdd.reorder import reorder, sift_order
from repro.network.bdd_build import ConeCollapser
from repro.network.blif import write_blif
from repro.reach.transition import TransitionSystem
from repro.reach import traversal as _traversal
from repro.reach.traversal import forward_reachable
from repro.synth import SynthesisOptions, algorithm1


def _table(manager, node, support):
    """``node``'s values under the first 1024 assignments to the
    variables ``support``."""
    return [
        manager.evaluate(node, {v: bool(bits >> i & 1) for i, v in enumerate(support)})
        for bits in range(1 << min(len(support), 10))
    ]


class TestGrowthTrigger:
    def test_due_after_threshold_growth(self):
        m = BDDManager(8, auto_reorder_threshold=50)
        assert not m.reorder_due()
        total = FALSE
        rng = random.Random(0)
        while not m.reorder_due():
            total = m.apply_or(
                total, m.cube({v: rng.random() < 0.5 for v in range(8)})
            )
        assert m.num_nodes >= 50
        m.mark_reordered()
        assert not m.reorder_due()

    def test_disabled_by_default(self):
        m = BDDManager(8)
        for _ in range(40):
            m.apply_xor(m.var(0), m.var(1))
        assert m.auto_reorder_threshold is None
        assert not m.reorder_due()

    def test_options_thread_threshold(self):
        from repro.engine.context import SynthesisContext

        ctx = SynthesisContext(
            small_circuit(1),
            SynthesisOptions(auto_reorder=True, reorder_threshold=123),
        )
        assert ctx.manager.auto_reorder_threshold == 123
        ctx2 = SynthesisContext(small_circuit(1), SynthesisOptions())
        assert ctx2.manager.auto_reorder_threshold is None


class TestSiftMemoization:
    def test_order_cost_called_once_per_distinct_order(self, monkeypatch):
        m = BDDManager(6)
        rng = random.Random(2)
        roots = [
            m.cube({v: rng.random() < 0.5 for v in range(6)})
            for _ in range(5)
        ]
        calls = []
        real = _reorder_mod.order_cost

        def counting(manager, rts, order):
            calls.append(tuple(order))
            return real(manager, rts, order)

        monkeypatch.setattr(_reorder_mod, "order_cost", counting)
        sift_order(m, roots, max_rounds=3)
        assert len(calls) == len(set(calls))  # no duplicate rebuilds


class TestReorderSemantics:
    @settings(deadline=None)
    @given(circuits(max_latches=6, max_outputs=3))
    def test_collapser_compact_preserves_functions(self, network):
        """Compaction maps every cached signal function and every extra
        root to a node of the new manager with the same truth table."""
        collapser = ConeCollapser(network)
        sinks = list(network.combinational_sinks())[:4]
        before = {s: collapser.node_function(s) for s in sinks}
        manager = collapser.manager
        extra = [TRUE] + [
            manager.apply_xor(before[a], manager.negate(before[b]))
            for a, b in zip(sinks, sinks[1:])
        ]
        roots = [*collapser._cache.values(), *extra]
        support = {node: sorted(_count.support(manager, node)) for node in roots}
        tables = {node: _table(manager, node, support[node]) for node in roots}
        node_map = collapser.compact(extra_roots=extra)
        new_manager = collapser.manager
        assert new_manager is not manager
        assert set(node_map) == set(roots)
        for s in sinks:
            assert node_map[before[s]] == collapser.node_function(s)
        for node in roots:
            assert _table(new_manager, node_map[node], support[node]) == tables[node]

    def test_maybe_compact_bdds_remaps_share_table(self):
        """The engine's safe-point compaction, due at once under a
        threshold of one node, moves the share table into the new
        manager, each signal on a node with its old truth table."""
        from repro.engine.context import SynthesisContext

        context = SynthesisContext(
            small_circuit(4), SynthesisOptions(auto_reorder=True, reorder_threshold=1)
        )
        collapser = context.ensure_collapser()
        manager = collapser.manager
        for sink in context.source.combinational_sinks():
            f = collapser.node_function(sink)
            context.share_table[f] = sink
            context.share_table[manager.negate(f)] = "~" + sink
        support = {
            signal: sorted(_count.support(manager, node))
            for node, signal in context.share_table.items()
        }
        tables = {
            signal: _table(manager, node, support[signal])
            for node, signal in context.share_table.items()
        }
        assert context.maybe_compact_bdds()
        new_manager = collapser.manager
        assert new_manager is not manager and not new_manager.reorder_due()
        assert sorted(context.share_table.values()) == sorted(tables)
        for node, signal in context.share_table.items():
            assert _table(new_manager, node, support[signal]) == tables[signal]

    @settings(deadline=None)
    @given(
        circuits(min_latches=4, max_latches=6, max_outputs=2),
        st.integers(min_value=0, max_value=3),
    )
    def test_reorder_rebuild_preserves_sat_count(self, network, pick):
        """reorder() is a semantics-preserving permutation: sat counts
        (normalised over all variables) are order-invariant."""
        collapser = ConeCollapser(network)
        sinks = list(network.combinational_sinks())
        sink = sinks[pick % len(sinks)]
        f = collapser.node_function(sink)
        manager = collapser.manager
        n = manager.num_vars
        count_before = _count.sat_count(manager, f, n)
        new_manager, (moved,), var_map = reorder(manager, [f], max_rounds=1)
        assert new_manager.num_vars == n
        assert _count.sat_count(new_manager, moved, n) == count_before
        # Names follow their variables through the permutation.
        for old, new in var_map.items():
            assert manager.var_name(old) == new_manager.var_name(new)

    def test_reach_auto_reorder_same_states(self, monkeypatch):
        """Reachability with in-flight re-sifting reaches exactly the
        same state set (counted over latch valuations).  The re-sift
        really happens: it replaces the system's manager, and the image
        schedule is rebuilt against the new one."""
        schedules = []
        build = _traversal.image_schedule

        def counting(ts, parts):
            schedules.append(ts.manager)
            return build(ts, parts)

        monkeypatch.setattr(_traversal, "image_schedule", counting)
        for seed in (3, 7):
            network = small_circuit(seed)
            plain = forward_reachable(TransitionSystem(network))
            first = BDDManager(auto_reorder_threshold=150)
            ts = TransitionSystem(network, manager=first)
            del schedules[:]
            sifted = forward_reachable(ts, auto_reorder=True)
            assert ts.manager is not first
            assert len(schedules) > 1 and schedules[0] is first
            assert schedules[-1] is ts.manager
            assert plain.converged and sifted.converged
            assert plain.iterations == sifted.iterations
            assert plain.num_states() == sifted.num_states()


class TestSynthesisIdentity:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_output_bit_identical_with_and_without(self, seed):
        network = small_circuit(seed)
        base = algorithm1(network.copy(), SynthesisOptions())
        auto = algorithm1(
            network.copy(),
            SynthesisOptions(auto_reorder=True, reorder_threshold=200),
        )
        assert write_blif(auto.network) == write_blif(base.network)

    def test_parallel_workers_identical_with_auto_reorder(self):
        """Within the parallel pipeline, output is invariant to both the
        worker count and the auto-reorder knob (serial vs parallel gate
        naming differs by design, so compare against the workers=1
        parallel baseline)."""
        network = small_circuit(5)
        base = algorithm1(
            network.copy(), SynthesisOptions(parallel_workers=1)
        )
        for workers in (1, 2, 4):
            report = algorithm1(
                network.copy(),
                SynthesisOptions(
                    auto_reorder=True,
                    reorder_threshold=200,
                    parallel_workers=workers,
                ),
            )
            assert write_blif(report.network) == write_blif(base.network)

    def test_options_roundtrip(self):
        options = SynthesisOptions(auto_reorder=True, reorder_threshold=77)
        again = SynthesisOptions.from_dict(options.to_dict())
        assert again.auto_reorder is True
        assert again.reorder_threshold == 77
