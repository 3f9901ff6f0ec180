"""Tests for quantification (exists/forall/and_exists) and interval
abstraction."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager, FALSE, TRUE, exists, forall, and_exists, abstract_interval
from repro.logic.truthtable import TruthTable

from conftest import random_bdd, tt_of


def oracle_exists(table: TruthTable, variables) -> TruthTable:
    result = table
    for var in variables:
        result = result.cofactor(var, False) | result.cofactor(var, True)
    return result


def oracle_forall(table: TruthTable, variables) -> TruthTable:
    result = table
    for var in variables:
        result = result.cofactor(var, False) & result.cofactor(var, True)
    return result


class TestExists:
    def test_against_oracle_single(self, rng):
        m = BDDManager(4)
        for _ in range(25):
            node, table = random_bdd(m, 4, rng)
            for var in range(4):
                assert tt_of(m, exists(m, node, [var]), 4) == oracle_exists(table, [var])

    def test_against_oracle_multi(self, rng):
        m = BDDManager(4)
        for _ in range(25):
            node, table = random_bdd(m, 4, rng)
            subset = rng.sample(range(4), rng.randint(0, 4))
            assert tt_of(m, exists(m, node, subset), 4) == oracle_exists(table, subset)

    def test_empty_set_identity(self, rng):
        m = BDDManager(3)
        node, _ = random_bdd(m, 3, rng)
        assert exists(m, node, []) == node

    def test_result_independent_of_quantified(self, rng):
        m = BDDManager(4)
        from repro.bdd import support

        node, _ = random_bdd(m, 4, rng)
        result = exists(m, node, [1, 3])
        assert support(m, result) & {1, 3} == set()

    def test_constants(self):
        m = BDDManager(2)
        assert exists(m, TRUE, [0]) == TRUE
        assert exists(m, FALSE, [0]) == FALSE


class TestForall:
    def test_against_oracle(self, rng):
        m = BDDManager(4)
        for _ in range(25):
            node, table = random_bdd(m, 4, rng)
            subset = rng.sample(range(4), rng.randint(1, 4))
            assert tt_of(m, forall(m, node, subset), 4) == oracle_forall(table, subset)

    def test_duality(self, rng):
        m = BDDManager(4)
        node, _ = random_bdd(m, 4, rng)
        assert forall(m, node, [0, 2]) == m.negate(exists(m, m.negate(node), [0, 2]))

    def test_forall_below_exists(self, rng):
        """∀x f <= f <= ∃x f."""
        m = BDDManager(4)
        for _ in range(10):
            node, _ = random_bdd(m, 4, rng)
            assert m.leq(forall(m, node, [1]), node)
            assert m.leq(node, exists(m, node, [1]))


class TestAndExists:
    def test_matches_two_step(self, rng):
        m = BDDManager(5)
        for _ in range(30):
            f, _ = random_bdd(m, 5, rng)
            g, _ = random_bdd(m, 5, rng)
            subset = rng.sample(range(5), rng.randint(0, 5))
            fused = and_exists(m, f, g, subset)
            two_step = exists(m, m.apply_and(f, g), subset)
            assert fused == two_step

    def test_terminal_cases(self, rng):
        m = BDDManager(3)
        f, _ = random_bdd(m, 3, rng)
        assert and_exists(m, f, FALSE, [0]) == FALSE
        assert and_exists(m, FALSE, f, [0]) == FALSE
        assert and_exists(m, f, TRUE, [0]) == exists(m, f, [0])


class TestAbstractInterval:
    def test_example_3_2(self):
        """Paper Example 3.2: abstracting x from [~x&y, x|y] gives [y, y];
        abstracting y gives an empty interval."""
        m = BDDManager(2)
        x, y = m.var(0), m.var(1)
        lower = m.apply_and(m.negate(x), y)
        upper = m.apply_or(x, y)
        lo_x, up_x = abstract_interval(m, lower, upper, [0])
        assert lo_x == y and up_x == y
        lo_y, up_y = abstract_interval(m, lower, upper, [1])
        assert not m.leq(lo_y, up_y)

    def test_abstraction_members_are_vacuous(self, rng):
        """Every member of the abstracted interval is independent of the
        abstracted variable and a member of the original interval."""
        m = BDDManager(3)
        from repro.bdd import support

        for _ in range(20):
            f, _ = random_bdd(m, 3, rng)
            g, _ = random_bdd(m, 3, rng)
            lower, upper = m.apply_and(f, g), m.apply_or(f, g)
            lo, up = abstract_interval(m, lower, upper, [0])
            if m.leq(lo, up):
                assert 0 not in support(m, lo)
                assert m.leq(lower, lo) or m.leq(lo, upper)


@settings(max_examples=100, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=(1 << 16) - 1),
    subset=st.sets(st.integers(min_value=0, max_value=3)),
)
def test_property_quantifier_oracle(bits, subset):
    m = BDDManager(4)
    table = TruthTable(bits, 4)
    node = table.to_bdd(m, [0, 1, 2, 3])
    subset = sorted(subset)
    assert tt_of(m, exists(m, node, subset), 4) == oracle_exists(table, subset)
    assert tt_of(m, forall(m, node, subset), 4) == oracle_forall(table, subset)


class TestCubeExport:
    """A cube makes its sorted level array, and the kernel's view of it,
    only when a core first reads them."""

    def test_levels_made_on_first_use(self):
        m = BDDManager(4)
        f = m.apply_and(m.var(1), m.var(3))
        cube = m.intern_cube((3, 1))
        assert (cube.cube_id, cube.max_level, cube._levels) == (0, 3, None)
        assert list(cube.levels) == [1, 3]
        assert cube.levels is cube.levels
        if m.native:
            assert cube.view is cube.view
            assert list(cube.view) == [1, 3]
        else:
            assert cube.view is None
        assert exists(m, f, cube) == TRUE

    def test_loop_cubes_are_keyed_by_id(self):
        """The parameterized loop interns one-variable cubes and keys the
        quantify caches by their ids: it reads no level array."""
        from repro.bidec.parameterize import parameterized_forall

        m = BDDManager(6)
        f = m.apply_or(m.apply_and(m.var(2), m.var(5)), m.var(3))
        parameterized_forall(m, f, [2, 5], [0, 1])
        cubes = [m.intern_cube((x,)) for x in (2, 5)]
        assert [cube.cube_id for cube in cubes] == [0, 1]
        if m.native:
            assert [cube._levels for cube in cubes] == [None, None]

    def test_new_cube_checks_its_extremes(self):
        m = BDDManager(3)
        m.intern_cube((0, 1))
        for bad in ((0, 3), (-1, 2), (5,)):
            with pytest.raises(ValueError, match="not declared"):
                m.intern_cube(bad)
        assert len(m._cube_table) == 1
