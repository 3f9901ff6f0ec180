"""Tests for counting, support and model iteration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import (
    BDDManager,
    FALSE,
    TRUE,
    dag_size,
    dag_size_multi,
    iter_models,
    pick_one,
    sat_count,
    shortest_cube,
    support,
    support_multi,
)
from repro.bdd import native as _native
from repro.logic.truthtable import TruthTable

from conftest import random_bdd

KERNELS = [
    pytest.param(False, id="python"),
    pytest.param(
        True,
        id="native",
        marks=pytest.mark.skipif(
            _native.kernel() is None, reason="native kernel unavailable"
        ),
    ),
]


class TestSatCount:
    def test_constants(self):
        m = BDDManager(3)
        assert sat_count(m, TRUE, 3) == 8
        assert sat_count(m, FALSE, 3) == 0

    def test_matches_oracle(self, rng):
        m = BDDManager(4)
        for _ in range(30):
            node, table = random_bdd(m, 4, rng)
            assert sat_count(m, node, 4) == table.count_ones()

    def test_scales_with_free_vars(self):
        m = BDDManager(5)
        x = m.var(0)
        assert sat_count(m, x, 5) == 16
        assert sat_count(m, x, 1) == 1

    def test_default_num_vars(self):
        m = BDDManager(3)
        assert sat_count(m, m.var(0)) == 4


class TestSupport:
    def test_support_matches_oracle(self, rng):
        m = BDDManager(4)
        for _ in range(30):
            node, table = random_bdd(m, 4, rng)
            assert support(m, node) == table.support()

    def test_support_multi(self):
        m = BDDManager(4)
        assert support_multi(m, [m.var(0), m.var(2)]) == {0, 2}

    def test_constant_support_empty(self):
        m = BDDManager(3)
        assert support(m, TRUE) == set()


class TestDagSize:
    def test_terminal_sizes(self):
        m = BDDManager(1)
        assert dag_size(m, TRUE) == 1
        assert dag_size(m, m.var(0)) == 3  # node + 2 terminals

    def test_multi_counts_shared_once(self):
        m = BDDManager(2)
        a, b = m.var(0), m.var(1)
        both = dag_size_multi(m, [a, b])
        assert both == 4  # two var nodes + two terminals

    def test_parity_linear(self):
        m = BDDManager(8)
        parity = FALSE
        for i in range(8):
            parity = m.apply_xor(parity, m.var(i))
        # Parity has 2 nodes per level plus terminals.
        assert dag_size(m, parity) == 2 * 8 - 1 + 2


class TestPickAndIterate:
    def test_pick_one_satisfies(self, rng):
        m = BDDManager(4)
        for _ in range(20):
            node, table = random_bdd(m, 4, rng)
            model = pick_one(m, node)
            if table.count_ones() == 0:
                assert model is None
            else:
                full = [model.get(i, False) for i in range(4)]
                assert m.evaluate(node, full)

    def test_iter_models_complete(self, rng):
        m = BDDManager(4)
        node, table = random_bdd(m, 4, rng)
        models = list(iter_models(m, node, [0, 1, 2, 3]))
        assert len(models) == table.count_ones()
        minterms = {
            sum(1 << i for i in range(4) if model[i]) for model in models
        }
        assert minterms == set(table.minterms())

    def test_iter_models_requires_support_coverage(self):
        m = BDDManager(3)
        node = m.apply_and(m.var(0), m.var(2))
        with pytest.raises(ValueError):
            list(iter_models(m, node, [0, 1]))

    @pytest.mark.parametrize("native", KERNELS)
    @pytest.mark.parametrize(
        "variables, match",
        [
            ([0, 0, 1], "repeat a variable"),
            ([0, 1, 7], "undeclared"),
            ([0, 1, -1], "undeclared"),
        ],
    )
    def test_iter_models_rejects_bad_variable_lists(self, native, variables, match):
        """A repeated variable would yield every model twice, and an
        undeclared one would be bound in every model."""
        m = BDDManager(4, native=native)
        f = m.apply_and(m.var(0), m.var(1))
        with pytest.raises(ValueError, match=match):
            list(iter_models(m, f, variables))

    def test_shortest_cube(self):
        m = BDDManager(4)
        # f = x0x1x2x3 | x1 — shortest cube is just {x1}.
        f = m.apply_or(
            m.conjoin([m.var(i) for i in range(4)]), m.var(1)
        )
        cube = shortest_cube(m, f)
        assert cube == {1: True}

    def test_shortest_cube_unsat(self):
        m = BDDManager(2)
        assert shortest_cube(m, FALSE) is None

    def test_shortest_cube_satisfies(self, rng):
        m = BDDManager(4)
        for _ in range(20):
            node, table = random_bdd(m, 4, rng)
            cube = shortest_cube(m, node)
            if cube is None:
                assert table.count_ones() == 0
                continue
            # Every completion of the cube satisfies f.
            free = [v for v in range(4) if v not in cube]
            for completion in range(1 << len(free)):
                assignment = dict(cube)
                for i, var in enumerate(free):
                    assignment[var] = bool((completion >> i) & 1)
                assert m.evaluate(node, [assignment[i] for i in range(4)])


@settings(max_examples=100, deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_property_count_and_iterate_agree(bits):
    m = BDDManager(4)
    table = TruthTable(bits, 4)
    node = table.to_bdd(m, [0, 1, 2, 3])
    assert sat_count(m, node, 4) == sum(1 for _ in iter_models(m, node, [0, 1, 2, 3]))
