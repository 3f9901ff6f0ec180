"""Tests for SOP covers and the Minato-Morreale ISOP algorithm."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.bdd import native as _native
from repro.bdd.manager import FALSE
from repro.logic import sop
from repro.logic.sop import Cover, Cube, isop, isop_function
from repro.logic.truthtable import TruthTable

from conftest import random_bdd, tt_of
from strategies import truth_table_pairs

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


class TestCube:
    def test_roundtrip(self):
        cube = Cube.from_dict({2: True, 0: False})
        assert cube.as_dict() == {0: False, 2: True}
        assert len(cube) == 2

    def test_evaluate(self):
        cube = Cube.from_dict({0: True, 1: False})
        assert cube.evaluate({0: True, 1: False, 2: True})
        assert not cube.evaluate({0: True, 1: True})

    def test_to_bdd(self):
        m = BDDManager(3)
        cube = Cube.from_dict({0: True, 2: False})
        node = cube.to_bdd(m)
        assert m.evaluate(node, [True, False, False])
        assert not m.evaluate(node, [True, False, True])

    def test_str(self):
        assert str(Cube(())) == "1"
        assert "~x1" in str(Cube.from_dict({1: False}))


class TestCover:
    def test_literal_count(self):
        cover = Cover([Cube.from_dict({0: True}), Cube.from_dict({1: True, 2: False})])
        assert cover.literal_count() == 3

    def test_evaluate_matches_bdd(self, rng):
        m = BDDManager(3)
        node, table = random_bdd(m, 3, rng)
        cover = isop_function(m, node)
        for minterm in range(8):
            assignment = {i: bool((minterm >> i) & 1) for i in range(3)}
            assert cover.evaluate(assignment) == table.evaluate(
                [assignment[i] for i in range(3)]
            )


class TestIsop:
    def test_exact_cover_equals_function(self, rng):
        m = BDDManager(4)
        for _ in range(30):
            node, _ = random_bdd(m, 4, rng)
            cover, g = isop(m, node, node)
            assert g == node
            assert cover.to_bdd(m) == node

    def test_interval_containment(self, rng):
        """ISOP of [l,u] lands inside the interval."""
        m = BDDManager(4)
        for _ in range(30):
            f, _ = random_bdd(m, 4, rng)
            g, _ = random_bdd(m, 4, rng)
            lower, upper = m.apply_and(f, g), m.apply_or(f, g)
            cover, result = isop(m, lower, upper)
            assert m.leq(lower, result)
            assert m.leq(result, upper)
            assert cover.to_bdd(m) == result

    def test_inconsistent_interval_rejected(self):
        m = BDDManager(1)
        from repro.bdd.manager import FALSE, TRUE

        with pytest.raises(ValueError):
            isop(m, TRUE, FALSE)

    def test_dont_cares_reduce_literals(self):
        """The classic benefit: don't cares shrink the cover."""
        m = BDDManager(3)
        # f = exactly the minterm 111; with DC covering 110,101,011 the
        # cover can use fewer literals.
        f = m.cube({0: True, 1: True, 2: True})
        dc = m.disjoin(
            [
                m.cube({0: True, 1: True, 2: False}),
                m.cube({0: True, 1: False, 2: True}),
                m.cube({0: False, 1: True, 2: True}),
            ]
        )
        exact_cover, _ = isop(m, f, f)
        wide_cover, _ = isop(m, f, m.apply_or(f, dc))
        assert wide_cover.literal_count() < exact_cover.literal_count()

    def test_tautology(self):
        m = BDDManager(2)
        from repro.bdd.manager import TRUE

        cover, g = isop(m, TRUE, TRUE)
        assert g == TRUE
        assert len(cover) == 1 and len(cover.cubes[0]) == 0

    def test_empty(self):
        m = BDDManager(2)
        from repro.bdd.manager import FALSE

        cover, g = isop(m, FALSE, FALSE)
        assert g == FALSE
        assert len(cover) == 0

    def test_irredundant(self, rng):
        """Dropping any cube of the ISOP breaks the lower bound — the
        cover is irredundant."""
        m = BDDManager(4)
        for _ in range(10):
            node, _ = random_bdd(m, 4, rng)
            cover, g = isop(m, node, node)
            if len(cover) <= 1:
                continue
            for skip in range(len(cover)):
                rest = Cover([c for i, c in enumerate(cover) if i != skip])
                assert not m.leq(node, rest.to_bdd(m))


@settings(max_examples=100, deadline=None)
@given(
    bits_f=st.integers(min_value=0, max_value=(1 << 16) - 1),
    bits_dc=st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_property_isop_interval(bits_f, bits_dc):
    """ISOP(l, u) is always inside [l, u] and equals its own cover BDD."""
    m = BDDManager(4)
    f = TruthTable(bits_f, 4)
    dc = TruthTable(bits_dc, 4)
    lower = (f & ~dc).to_bdd(m, [0, 1, 2, 3])
    upper = (f | dc).to_bdd(m, [0, 1, 2, 3])
    cover, g = isop(m, lower, upper)
    assert m.leq(lower, g) and m.leq(g, upper)
    assert cover.to_bdd(m) == g


@pytest.mark.parametrize("native", KERNELS)
@given(pair=truth_table_pairs(max_vars=5))
def test_property_isop_cover_is_irredundant(native, pair):
    """For ``[f & ~dc, f | dc]`` on either kernel: ``l <= g <= u``, the
    cover's BDD is ``g``, and each cube covers a minterm of ``l`` that
    no other cube covers."""
    f, dc = pair
    m = BDDManager(f.num_vars, native=native)
    variables = list(range(f.num_vars))
    lower = (f & ~dc).to_bdd(m, variables)
    upper = (f | dc).to_bdd(m, variables)
    cover, g = isop(m, lower, upper)
    assert m.leq(lower, g) and m.leq(g, upper)
    assert cover.to_bdd(m) == g
    cubes = [cube.to_bdd(m) for cube in cover]
    for index, cube in enumerate(cubes):
        others = m.disjoin(cubes[:index] + cubes[index + 1 :])
        assert m.apply_and(m.apply_and(lower, cube), m.negate(others)) != FALSE


def test_isop_function_check_raises(monkeypatch):
    """The check that the cover builds ``f`` raises ``ValueError``, not
    an ``AssertionError``, so it also runs under ``python -O``."""
    m = BDDManager(2)
    f = m.apply_and(m.var(0), m.var(1))
    monkeypatch.setattr(sop, "isop", lambda manager, lower, upper: (Cover([]), FALSE))
    with pytest.raises(ValueError):
        isop_function(m, f)
