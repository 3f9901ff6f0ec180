"""Tests for symmetric/arithmetic BDD builders (weights, encodings,
comparators) — the Section 3.5.2 machinery."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import (
    BDDManager,
    FALSE,
    TRUE,
    at_most_k,
    count_relation,
    decode_int,
    encode_int,
    equ,
    exactly_k,
    gte,
    iter_models,
    sat_count,
    weight_functions,
)


class TestWeights:
    def test_exactly_k_counts(self):
        m = BDDManager(6)
        for k in range(-1, 8):  # no assignment has weight -1 or 7
            node = exactly_k(m, list(range(6)), k)
            expected = math.comb(6, k) if 0 <= k <= 6 else 0
            assert sat_count(m, node, 6) == expected

    def test_weights_partition_space(self):
        """The w_k functions partition the assignment space."""
        m = BDDManager(5)
        weights = weight_functions(m, list(range(5)))
        assert m.disjoin(weights) == TRUE
        for i in range(len(weights)):
            for j in range(i + 1, len(weights)):
                assert m.apply_and(weights[i], weights[j]) == FALSE

    def test_weight_semantics(self, rng):
        m = BDDManager(5)
        w2 = exactly_k(m, list(range(5)), 2)
        for minterm in range(32):
            assignment = [bool((minterm >> i) & 1) for i in range(5)]
            assert m.evaluate(w2, assignment) == (sum(assignment) == 2)

    def test_weight_on_subset(self):
        m = BDDManager(6)
        node = exactly_k(m, [1, 3, 5], 1)
        assert m.evaluate(node, [True, True, True, False, True, False])
        assert not m.evaluate(node, [False, True, False, True, False, False])

    def test_weight_compact(self):
        """Totally symmetric functions stay polynomial-size (the property
        the paper's Section 3.5.2 relies on)."""
        from repro.bdd import dag_size

        m = BDDManager(40)
        node = exactly_k(m, list(range(40)), 20)
        assert dag_size(m, node) <= 40 * 21 + 2

    def test_at_most_k(self):
        m = BDDManager(4)
        node = at_most_k(m, list(range(4)), 2)
        expected = sum(math.comb(4, i) for i in range(3))
        assert sat_count(m, node, 4) == expected


class TestEncoding:
    def test_encode_decode_roundtrip(self):
        m = BDDManager(4)
        bits = [0, 1, 2, 3]
        for value in range(16):
            node = encode_int(m, bits, value)
            models = list(iter_models(m, node, bits))
            assert len(models) == 1
            assert decode_int(bits, models[0]) == value

    def test_encode_overflow_rejected(self):
        m = BDDManager(2)
        with pytest.raises(ValueError):
            encode_int(m, [0, 1], 4)

    def test_count_relation_semantics(self):
        """K(c, e) holds exactly when e encodes the weight of c."""
        m = BDDManager(7)
        c_vars, e_vars = [0, 1, 2, 3], [4, 5, 6]
        relation = count_relation(m, c_vars, e_vars)
        for minterm in range(16):
            c_assignment = {v: bool((minterm >> i) & 1) for i, v in enumerate(c_vars)}
            weight = sum(c_assignment.values())
            for value in range(8):
                e_assignment = {
                    v: bool((value >> i) & 1) for i, v in enumerate(e_vars)
                }
                total = {**c_assignment, **e_assignment}
                expected = value == weight
                assert m.evaluate(relation, [total[i] for i in range(7)]) == expected

    def test_count_relation_width_check(self):
        m = BDDManager(6)
        with pytest.raises(ValueError):
            count_relation(m, [0, 1, 2, 3], [4, 5])  # 2 bits can't hold 4


class TestComparators:
    def test_gte_semantics(self):
        m = BDDManager(6)
        a_bits, b_bits = [0, 1, 2], [3, 4, 5]
        relation = gte(m, a_bits, b_bits)
        for a in range(8):
            for b in range(8):
                assignment = {}
                for i in range(3):
                    assignment[a_bits[i]] = bool((a >> i) & 1)
                    assignment[b_bits[i]] = bool((b >> i) & 1)
                got = m.evaluate(relation, [assignment[i] for i in range(6)])
                assert got == (a >= b), (a, b)

    def test_equ_semantics(self):
        m = BDDManager(4)
        relation = equ(m, [0, 1], [2, 3])
        for a in range(4):
            for b in range(4):
                assignment = [
                    bool((a >> 0) & 1),
                    bool((a >> 1) & 1),
                    bool((b >> 0) & 1),
                    bool((b >> 1) & 1),
                ]
                assert m.evaluate(relation, assignment) == (a == b)

    def test_width_mismatch_rejected(self):
        m = BDDManager(5)
        with pytest.raises(ValueError):
            gte(m, [0, 1], [2, 3, 4])
        with pytest.raises(ValueError):
            equ(m, [0], [1, 2])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    k=st.integers(min_value=0, max_value=7),
)
def test_property_exactly_k_binomial(n, k):
    m = BDDManager(n)
    node = exactly_k(m, list(range(n)), k)
    expected = math.comb(n, k) if k <= n else 0
    assert sat_count(m, node, n) == expected
