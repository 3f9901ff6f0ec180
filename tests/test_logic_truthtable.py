"""Tests for the truth-table oracle and canonical forms."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.truthtable import (
    TruthTable,
    full_mask,
    npn_canonical,
    p_canonical,
    variable_mask,
)


class TestConstruction:
    def test_constant(self):
        assert TruthTable.constant(True, 2).bits == 0b1111
        assert TruthTable.constant(False, 2).bits == 0

    def test_variable(self):
        x0 = TruthTable.variable(0, 2)
        assert x0.evaluate([True, False])
        assert not x0.evaluate([False, True])

    def test_from_function(self):
        maj = TruthTable.from_function(lambda a, b, c: (a + b + c) >= 2, 3)
        assert maj.count_ones() == 4

    def test_bits_bounds_checked(self):
        with pytest.raises(ValueError):
            TruthTable(1 << 4, 2)

    def test_random_deterministic(self):
        a = TruthTable.random(4, random.Random(7))
        b = TruthTable.random(4, random.Random(7))
        assert a == b


class TestOperators:
    def test_de_morgan(self, rng):
        for _ in range(20):
            f = TruthTable.random(3, rng)
            g = TruthTable.random(3, rng)
            assert ~(f & g) == (~f | ~g)

    def test_xor_identities(self, rng):
        f = TruthTable.random(4, rng)
        assert (f ^ f).bits == 0
        assert (f ^ TruthTable.constant(False, 4)) == f

    def test_implies(self, rng):
        f = TruthTable.random(3, rng)
        g = TruthTable.random(3, rng)
        assert (f & g).implies(f)
        assert f.implies(f | g)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            TruthTable.constant(True, 2) & TruthTable.constant(True, 3)


class TestStructure:
    def test_cofactor_and_support(self):
        f = TruthTable.from_function(lambda a, b, c: a and c, 3)
        assert f.support() == {0, 2}
        assert not f.depends_on(1)
        assert f.cofactor(0, True) == TruthTable.from_function(
            lambda a, b, c: c, 3
        )

    def test_support_matches_the_cofactor_definition(self):
        """``support``/``depends_on`` compare shifted masks; the
        reference is the definition, the two cofactors differ."""
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randrange(0, 7)
            f = TruthTable.random(n, rng)
            want = {
                v for v in range(n) if f.cofactor(v, False) != f.cofactor(v, True)
            }
            assert f.support() == want
            assert [f.depends_on(v) for v in range(n)] == [v in want for v in range(n)]

    def test_depends_on_rejects_a_variable_outside_the_table(self):
        for var in (5, 1, -1):
            with pytest.raises(ValueError):
                TruthTable(1, 1).depends_on(var)

    def test_minterms(self):
        f = TruthTable.from_function(lambda a, b: a and b, 2)
        assert list(f.minterms()) == [3]

    def test_permute_identity(self, rng):
        f = TruthTable.random(4, rng)
        assert f.permute([0, 1, 2, 3]) == f

    def test_permute_semantics(self):
        f = TruthTable.from_function(lambda a, b: a and not b, 2)
        g = f.permute([1, 0])
        assert g == TruthTable.from_function(lambda a, b: b and not a, 2)

    def test_permute_validates(self):
        f = TruthTable.constant(True, 2)
        with pytest.raises(ValueError):
            f.permute([0, 0])

    def test_flip_input(self):
        f = TruthTable.from_function(lambda a, b: a and b, 2)
        assert f.flip_input(0) == TruthTable.from_function(
            lambda a, b: (not a) and b, 2
        )


class TestCanonical:
    def test_npn_invariance(self, rng):
        """All NPN transforms of a function share a canonical form."""
        f = TruthTable.random(3, rng)
        canon = npn_canonical(f)
        for perm in itertools.permutations(range(3)):
            g = f.permute(perm)
            assert npn_canonical(g) == canon
        assert npn_canonical(~f) == canon
        assert npn_canonical(f.flip_input(1)) == canon

    def test_p_invariance(self, rng):
        f = TruthTable.random(3, rng)
        canon = p_canonical(f)
        for perm in itertools.permutations(range(3)):
            assert p_canonical(f.permute(perm)) == canon

    def test_npn_separates_classes(self):
        and2 = TruthTable.from_function(lambda a, b: a and b, 2)
        xor2 = TruthTable.from_function(lambda a, b: a != b, 2)
        assert npn_canonical(and2) != npn_canonical(xor2)


@settings(max_examples=80, deadline=None)
@given(bits=st.integers(min_value=0, max_value=255), var=st.integers(0, 2))
def test_property_cofactors_cover(bits, var):
    """f = x&f|x=1 | ~x&f|x=0 (Shannon) on the oracle itself."""
    f = TruthTable(bits, 3)
    x = TruthTable.variable(var, 3)
    assert (x & f.cofactor(var, True)) | (~x & f.cofactor(var, False)) == f
