"""Unit and property tests for the core BDD manager."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager, FALSE, TRUE, and_exists, exists, forall, iter_nodes
from repro.logic.truthtable import TruthTable

from conftest import random_bdd, tt_of


class TestTerminals:
    def test_constants(self):
        m = BDDManager()
        assert FALSE == 0 and TRUE == 1
        assert m.is_terminal(FALSE) and m.is_terminal(TRUE)

    def test_negate_constants(self):
        m = BDDManager()
        assert m.negate(TRUE) == FALSE
        assert m.negate(FALSE) == TRUE


class TestVariables:
    def test_new_var_names(self):
        m = BDDManager()
        v = m.new_var("alpha")
        assert m.var_name(v) == "alpha"
        assert m.var_index("alpha") == v

    def test_duplicate_name_rejected(self):
        m = BDDManager()
        m.new_var("x")
        with pytest.raises(ValueError):
            m.new_var("x")

    def test_default_names(self):
        m = BDDManager(3)
        assert [m.var_name(i) for i in range(3)] == ["x0", "x1", "x2"]

    def test_declare_vars_matches_new_var(self):
        names = ["c1_0", "c2_0", "x_0", "c1_1", "c2_1", "x_1"]
        one_call, one_each = BDDManager(2), BDDManager(2)
        assert one_call.declare_vars(names) == range(2, 8)
        assert [one_each.new_var(name) for name in names] == list(range(2, 8))
        for m in (one_call, one_each):
            assert m.num_vars == 8
            assert [m.var_index(name) for name in names] == list(range(2, 8))
        assert [one_call.var_name(i) for i in range(8)] == [
            one_each.var_name(i) for i in range(8)
        ]
        assert one_call.var(7) == one_each.var(7)
        assert one_call.declare_vars([]) == range(8, 8)

    def test_declare_vars_rejects_clashes(self):
        """A repeated or taken name raises and declares nothing."""
        m = BDDManager(2)
        for names in (["a", "b", "a"], ["a", "x1"]):
            with pytest.raises(ValueError, match="duplicate variable name"):
                m.declare_vars(names)
            assert m.num_vars == 2
        with pytest.raises(KeyError):
            m.var_index("a")

    def test_var_literal_structure(self):
        m = BDDManager(1)
        v = m.var(0)
        assert m.lo(v) == FALSE and m.hi(v) == TRUE
        n = m.nvar(0)
        assert m.lo(n) == TRUE and m.hi(n) == FALSE

    def test_literal_polarity(self):
        m = BDDManager(1)
        assert m.literal(0, True) == m.var(0)
        assert m.literal(0, False) == m.nvar(0)

    def test_undeclared_var_rejected(self):
        """A literal or cube over a variable outside ``0..num_vars-1``
        raises instead of building a node at that level, and so does a
        quantification over one, before it allocates its caches."""
        m = BDDManager(3)
        builders = (
            m.var,
            m.nvar,
            lambda var: m.cube({var: True}),
            lambda var: m.cube({0: True, var: False, 2: True}),
        )
        for bad in (-2, -1, 3, 7):
            for build in builders:
                with pytest.raises(ValueError, match="not declared"):
                    build(bad)
        assert m.num_nodes == 2  # nothing was built on the way
        f = m.apply_or(m.var(0), m.var(2))
        a = m.var(1)
        nodes, capacities = m.num_nodes, m.cache_capacities()
        quantifications = (
            lambda var: exists(m, f, [var]),
            lambda var: forall(m, f, [0, var]),
            lambda var: and_exists(m, f, a, [var]),
            lambda var: and_exists(m, f, a, [var, 1]),
        )
        for bad in (-2, -1, 3, 5, 7, 9):
            for quantify in quantifications:
                with pytest.raises(ValueError, match="not declared"):
                    quantify(bad)
        assert m.num_nodes == nodes
        assert m.cache_capacities() == capacities


class TestCanonicity:
    def test_unique_table_hit(self):
        m = BDDManager(2)
        a = m.apply_and(m.var(0), m.var(1))
        b = m.apply_and(m.var(1), m.var(0))
        assert a == b

    def test_redundant_node_collapses(self):
        m = BDDManager(2)
        # ite(x0, f, f) == f
        f = m.var(1)
        assert m.ite(m.var(0), f, f) == f

    def test_equal_functions_equal_nodes(self, rng):
        m = BDDManager(4)
        for _ in range(25):
            table = TruthTable.random(4, rng)
            n1 = table.to_bdd(m, [0, 1, 2, 3])
            # Build the same function through a different route: De Morgan.
            n2 = m.negate((~table).to_bdd(m, [0, 1, 2, 3]))
            assert n1 == n2


class TestOperators:
    def test_and_or_xor_against_oracle(self, rng):
        m = BDDManager(4)
        for _ in range(40):
            f_node, f_tt = random_bdd(m, 4, rng)
            g_node, g_tt = random_bdd(m, 4, rng)
            assert tt_of(m, m.apply_and(f_node, g_node), 4) == f_tt & g_tt
            assert tt_of(m, m.apply_or(f_node, g_node), 4) == f_tt | g_tt
            assert tt_of(m, m.apply_xor(f_node, g_node), 4) == f_tt ^ g_tt

    def test_negate_involution(self, rng):
        m = BDDManager(5)
        for _ in range(20):
            node, _ = random_bdd(m, 5, rng)
            assert m.negate(m.negate(node)) == node

    def test_xnor(self, rng):
        m = BDDManager(3)
        f, ftt = random_bdd(m, 3, rng)
        g, gtt = random_bdd(m, 3, rng)
        assert tt_of(m, m.apply_xnor(f, g), 3) == ~(ftt ^ gtt)

    def test_ite_against_oracle(self, rng):
        m = BDDManager(4)
        for _ in range(30):
            f, ftt = random_bdd(m, 4, rng)
            g, gtt = random_bdd(m, 4, rng)
            h, htt = random_bdd(m, 4, rng)
            expected = (ftt & gtt) | (~ftt & htt)
            assert tt_of(m, m.ite(f, g, h), 4) == expected

    def test_implies_and_leq(self):
        m = BDDManager(2)
        a, b = m.var(0), m.var(1)
        ab = m.apply_and(a, b)
        assert m.leq(ab, a)
        assert m.leq(ab, b)
        assert not m.leq(a, ab)
        assert m.implies(ab, a) == TRUE

    def test_conjoin_disjoin(self):
        m = BDDManager(3)
        vs = [m.var(i) for i in range(3)]
        assert m.conjoin([]) == TRUE
        assert m.disjoin([]) == FALSE
        all_and = m.conjoin(vs)
        assert m.evaluate(all_and, [True, True, True])
        assert not m.evaluate(all_and, [True, False, True])
        any_or = m.disjoin(vs)
        assert m.evaluate(any_or, [False, False, True])
        assert not m.evaluate(any_or, [False, False, False])

    def test_conjoin_short_circuit(self):
        m = BDDManager(2)
        assert m.conjoin([m.var(0), FALSE, m.var(1)]) == FALSE
        assert m.disjoin([m.var(0), TRUE]) == TRUE


class TestCofactorsAndEvaluate:
    def test_cofactor_against_oracle(self, rng):
        m = BDDManager(4)
        for _ in range(20):
            node, table = random_bdd(m, 4, rng)
            for var in range(4):
                for value in (False, True):
                    got = tt_of(m, m.cofactor(node, var, value), 4)
                    assert got == table.cofactor(var, value)

    def test_restrict_multi(self, rng):
        m = BDDManager(4)
        node, table = random_bdd(m, 4, rng)
        restricted = m.restrict(node, {0: True, 2: False})
        expected = table.cofactor(0, True).cofactor(2, False)
        assert tt_of(m, restricted, 4) == expected

    def test_restrict_empty(self, rng):
        m = BDDManager(3)
        node, _ = random_bdd(m, 3, rng)
        assert m.restrict(node, {}) == node

    def test_evaluate_matches_table(self, rng):
        m = BDDManager(4)
        node, table = random_bdd(m, 4, rng)
        for minterm in range(16):
            assignment = [bool((minterm >> i) & 1) for i in range(4)]
            assert m.evaluate(node, assignment) == table.evaluate(assignment)

    def test_cube(self):
        m = BDDManager(3)
        cube = m.cube({0: True, 2: False})
        assert m.evaluate(cube, [True, False, False])
        assert m.evaluate(cube, [True, True, False])
        assert not m.evaluate(cube, [True, True, True])
        assert not m.evaluate(cube, [False, True, False])

    def test_empty_cube_is_true(self):
        m = BDDManager(1)
        assert m.cube({}) == TRUE


class TestMaintenance:
    def test_clear_caches_preserves_semantics(self, rng):
        m = BDDManager(4)
        node, table = random_bdd(m, 4, rng)
        m.clear_caches()
        other, other_table = random_bdd(m, 4, rng)
        assert tt_of(m, m.apply_and(node, other), 4) == table & other_table

    def test_iter_nodes_children_first(self, rng):
        m = BDDManager(4)
        node, _ = random_bdd(m, 4, rng)
        seen = set()
        for n in iter_nodes(m, node):
            if n > 1:
                assert m.lo(n) in seen and m.hi(n) in seen
            seen.add(n)
        assert node in seen


@settings(max_examples=150, deadline=None)
@given(
    bits_f=st.integers(min_value=0, max_value=(1 << 16) - 1),
    bits_g=st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_property_binary_ops_match_truth_tables(bits_f, bits_g):
    """Hypothesis: BDD AND/OR/XOR/NOT agree with the dense oracle for all
    pairs of 4-variable functions it generates."""
    m = BDDManager(4)
    f_tt = TruthTable(bits_f, 4)
    g_tt = TruthTable(bits_g, 4)
    f = f_tt.to_bdd(m, [0, 1, 2, 3])
    g = g_tt.to_bdd(m, [0, 1, 2, 3])
    assert tt_of(m, m.apply_and(f, g), 4) == f_tt & g_tt
    assert tt_of(m, m.apply_or(f, g), 4) == f_tt | g_tt
    assert tt_of(m, m.apply_xor(f, g), 4) == f_tt ^ g_tt
    assert tt_of(m, m.negate(f), 4) == ~f_tt


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_property_bdd_roundtrip_5vars(bits):
    """to_bdd / from_bdd are inverse for 5-variable functions."""
    m = BDDManager(5)
    table = TruthTable(bits, 5)
    node = table.to_bdd(m, [0, 1, 2, 3, 4])
    assert TruthTable.from_bdd(m, node, [0, 1, 2, 3, 4]) == table


@settings(max_examples=80, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=(1 << 16) - 1),
    var=st.integers(min_value=0, max_value=3),
)
def test_property_shannon_expansion(bits, var):
    """f == ite(x, f|x=1, f|x=0) for every variable."""
    m = BDDManager(4)
    table = TruthTable(bits, 4)
    f = table.to_bdd(m, [0, 1, 2, 3])
    expansion = m.ite(
        m.var(var), m.cofactor(f, var, True), m.cofactor(f, var, False)
    )
    assert expansion == f
