"""Tests for transition systems, image computation and traversal,
cross-validated against the explicit-state oracle."""

import pytest

from repro.bdd import BDDManager, sat_count
from repro.network import Network, parse_blif
from repro.reach import (
    TransitionSystem,
    explicit_reachable_states,
    forward_reachable,
    image_early,
    image_monolithic,
    image_schedule,
    preimage_monolithic,
)


def mod6_counter():
    net = Network("cnt3")
    net.add_input("en")
    for i in range(3):
        net.add_latch(f"q{i}", f"n{i}", False)
    net.add_node("nq1", "not", ["q1"])
    net.add_node("s5", "and", ["q0", "nq1", "q2"])
    net.add_node("i0", "xor", ["q0", "en"])
    net.add_node("c1", "and", ["q0", "en"])
    net.add_node("i1", "xor", ["q1", "c1"])
    net.add_node("c2", "and", ["q1", "c1"])
    net.add_node("i2", "xor", ["q2", "c2"])
    net.add_node("wrap", "and", ["s5", "en"])
    net.add_node("nwrap", "not", ["wrap"])
    for i in range(3):
        net.add_node(f"n{i}", "and", [f"i{i}", "nwrap"])
    net.add_output("s5")
    return net


def ring3():
    from repro.benchgen.fsm import add_onehot_ring

    net = Network("ring")
    en = net.add_input("en")
    add_onehot_ring(net, "r_", 3, en)
    net.add_output("r_q2")
    return net


class TestTransitionSystem:
    def test_variable_layout(self):
        ts = TransitionSystem(mod6_counter())
        assert len(ts.ps_vars()) == 3
        assert len(ts.ns_vars()) == 3
        assert set(ts.ps_vars()).isdisjoint(ts.ns_vars())

    def test_initial_states(self):
        ts = TransitionSystem(mod6_counter())
        init = ts.initial_states()
        assert sat_count(ts.manager, init, ts.manager.num_vars) == (
            1 << (ts.manager.num_vars - 3)
        )

    def test_subset_selection(self):
        net = mod6_counter()
        ts = TransitionSystem(net, ["q0", "q1"])
        assert ts.latches == ["q0", "q1"]
        # q2 appears as a free variable.
        free_names = {
            name
            for name, var in ts.collapser.var_of.items()
            if var in ts.free_vars()
        }
        assert "q2" in free_names and "en" in free_names

    def test_unknown_latch_rejected(self):
        with pytest.raises(ValueError):
            TransitionSystem(mod6_counter(), ["nope"])


class TestImages:
    def test_strategies_agree(self):
        ts = TransitionSystem(mod6_counter())
        relation = ts.monolithic_relation()
        schedule = image_schedule(ts, ts.part_relations())
        frontier = ts.initial_states()
        for _ in range(4):
            a = image_monolithic(ts, frontier, relation)
            b = image_early(ts, frontier, schedule)
            assert a == b
            frontier = a

    def test_schedule_reused_across_steps(self):
        """One schedule serves every fixpoint step: each image equals the
        image under a schedule built fresh for that step."""
        ts = TransitionSystem(mod6_counter())
        manager = ts.manager
        schedule = image_schedule(ts, ts.part_relations())
        reached = frontier = ts.initial_states()
        steps = 0
        while frontier != 0:
            fresh = image_schedule(ts, ts.part_relations())
            image = image_early(ts, frontier, schedule)
            assert image == image_early(ts, frontier, fresh)
            frontier = manager.apply_and(image, manager.negate(reached))
            reached = manager.apply_or(reached, frontier)
            steps += 1
        assert steps > 2
        assert reached == forward_reachable(ts).reached

    def test_preimage_duality(self):
        """x in preimage(S) iff image({x}) intersects S — checked on the
        counter by sampling states."""
        ts = TransitionSystem(mod6_counter())
        relation = ts.monolithic_relation()
        manager = ts.manager
        target = manager.cube({ts.ps_var["q0"]: True})
        pre = preimage_monolithic(ts, target, relation)
        for state in range(8):
            cube = manager.cube(
                {
                    ts.ps_var[f"q{i}"]: bool((state >> i) & 1)
                    for i in range(3)
                }
            )
            img = image_monolithic(ts, cube, relation)
            intersects = manager.apply_and(img, target) != 0
            in_pre = manager.apply_and(cube, pre) != 0
            assert intersects == in_pre, state


class TestTraversal:
    def test_counter_against_oracle(self):
        net = mod6_counter()
        result = forward_reachable(TransitionSystem(net))
        explicit = explicit_reachable_states(net)
        assert result.converged
        assert result.num_states() == len(explicit) == 6

    def test_ring_against_oracle(self):
        net = ring3()
        result = forward_reachable(TransitionSystem(net))
        explicit = explicit_reachable_states(net)
        assert result.num_states() == len(explicit) == 3

    def test_reached_set_matches_oracle_exactly(self):
        net = mod6_counter()
        ts = TransitionSystem(net)
        result = forward_reachable(ts)
        explicit = explicit_reachable_states(net)
        for state in range(8):
            bits = tuple(bool((state >> i) & 1) for i in range(3))
            cube = ts.manager.cube(
                {ts.ps_var[f"q{i}"]: bits[i] for i in range(3)}
            )
            reachable = ts.manager.apply_and(result.reached, cube) != 0
            assert reachable == (bits in explicit), state

    def test_monolithic_strategy(self):
        result = forward_reachable(
            TransitionSystem(mod6_counter()), strategy="monolithic"
        )
        assert result.num_states() == 6

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            forward_reachable(TransitionSystem(mod6_counter()), strategy="warp")

    def test_iteration_cap(self):
        result = forward_reachable(
            TransitionSystem(mod6_counter()), max_iterations=2
        )
        assert not result.converged
        assert result.num_states() <= 6

    def test_log2_states(self):
        import math

        result = forward_reachable(TransitionSystem(mod6_counter()))
        assert abs(result.log2_states() - math.log2(6)) < 1e-9

    def test_subset_overapproximates(self):
        """Per-partition reachability over-approximates the projection of
        the true reachable set."""
        net = mod6_counter()
        explicit = explicit_reachable_states(net)
        ts = TransitionSystem(net, ["q0", "q2"])
        result = forward_reachable(ts)
        projected = {(s[0], s[2]) for s in explicit}
        for q0 in (False, True):
            for q2 in (False, True):
                cube = ts.manager.cube(
                    {ts.ps_var["q0"]: q0, ts.ps_var["q2"]: q2}
                )
                in_reach = ts.manager.apply_and(result.reached, cube) != 0
                if (q0, q2) in projected:
                    assert in_reach

    def test_explicit_oracle_requires_full_set(self):
        with pytest.raises(ValueError):
            explicit_reachable_states(mod6_counter(), ["q0"])
