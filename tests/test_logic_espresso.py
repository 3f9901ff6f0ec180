"""Tests for the espresso-style two-level minimiser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.logic.espresso import espresso, expand_cube, irredundant, minimize_function
from repro.logic.sop import Cover, Cube, isop
from repro.logic.truthtable import TruthTable

from conftest import random_bdd


class TestExpand:
    def test_expand_drops_redundant_literal(self):
        m = BDDManager(3)
        # upper = x0: the cube x0&x1 expands to x0.
        upper = m.var(0)
        cube = Cube.from_dict({0: True, 1: True})
        expanded = expand_cube(m, cube, upper)
        assert expanded.as_dict() == {0: True}

    def test_expand_keeps_needed_literals(self):
        m = BDDManager(2)
        upper = m.apply_and(m.var(0), m.var(1))
        cube = Cube.from_dict({0: True, 1: True})
        assert expand_cube(m, cube, upper) == cube

    def test_expanded_cube_is_prime(self, rng):
        """No further literal of an expanded cube can be dropped."""
        m = BDDManager(4)
        for _ in range(15):
            f, _ = random_bdd(m, 4, rng)
            cover, _ = isop(m, f, f)
            for cube in cover:
                prime = expand_cube(m, cube, f)
                for var in prime.as_dict():
                    weaker = dict(prime.as_dict())
                    del weaker[var]
                    assert not m.leq(m.cube(weaker), f)


class TestIrredundant:
    def test_removes_contained_cube(self):
        m = BDDManager(2)
        big = Cube.from_dict({0: True})
        small = Cube.from_dict({0: True, 1: True})
        lower = m.var(0)
        kept = irredundant(m, [big, small], lower, lower)
        assert kept == [big]

    def test_keeps_essential_cubes(self, rng):
        m = BDDManager(4)
        f, _ = random_bdd(m, 4, rng)
        cover, _ = isop(m, f, f)
        kept = irredundant(m, list(cover.cubes), f, f)
        from repro.logic.espresso import _cover_node

        assert _cover_node(m, kept) == f or m.leq(f, _cover_node(m, kept))


class TestEspresso:
    def test_result_in_interval(self, rng):
        m = BDDManager(4)
        for _ in range(25):
            f, _ = random_bdd(m, 4, rng)
            dc, _ = random_bdd(m, 4, rng)
            lower = m.apply_and(f, m.negate(dc))
            upper = m.apply_or(f, dc)
            cover = espresso(m, lower, upper)
            node = cover.to_bdd(m)
            assert m.leq(lower, node) and m.leq(node, upper)

    def test_never_worse_than_isop(self, rng):
        m = BDDManager(4)
        for _ in range(25):
            f, _ = random_bdd(m, 4, rng)
            dc, _ = random_bdd(m, 4, rng)
            lower = m.apply_and(f, m.negate(dc))
            upper = m.apply_or(f, dc)
            baseline, _ = isop(m, lower, upper)
            minimised = espresso(m, lower, upper)
            assert (len(minimised), minimised.literal_count()) <= (
                len(baseline),
                baseline.literal_count(),
            )

    def test_classic_example(self):
        """xy + x~y minimises to x."""
        m = BDDManager(2)
        f = m.var(0)
        cover = espresso(
            m,
            f,
            f,
            initial=Cover(
                [Cube.from_dict({0: True, 1: True}), Cube.from_dict({0: True, 1: False})]
            ),
        )
        assert len(cover) == 1
        assert cover.cubes[0].as_dict() == {0: True}

    def test_constants(self):
        from repro.bdd.manager import FALSE, TRUE

        m = BDDManager(2)
        assert len(espresso(m, FALSE, FALSE)) == 0
        tautology = espresso(m, TRUE, TRUE)
        assert len(tautology) == 1 and len(tautology.cubes[0]) == 0

    def test_inconsistent_rejected(self):
        from repro.bdd.manager import FALSE, TRUE

        m = BDDManager(1)
        with pytest.raises(ValueError):
            espresso(m, TRUE, FALSE)

    def test_final_check_raises(self, monkeypatch):
        """The final check that the cover lies in ``[lower, upper]``
        raises ``ValueError``, not an ``AssertionError``: it also runs,
        and makes its nodes, under ``python -O``."""
        import importlib

        from repro.bdd.manager import FALSE

        espresso_module = importlib.import_module("repro.logic.espresso")
        m = BDDManager(2)
        f = m.apply_or(m.var(0), m.var(1))
        monkeypatch.setattr(espresso_module, "_cover_node", lambda manager, cubes: FALSE)
        with pytest.raises(ValueError):
            espresso(m, f, f)

    def test_all_cubes_prime_and_irredundant(self, rng):
        m = BDDManager(4)
        f, _ = random_bdd(m, 4, rng)
        cover = minimize_function(m, f)
        from repro.logic.espresso import _cover_node

        for index, cube in enumerate(cover):
            # Prime: no literal droppable.
            for var in cube.as_dict():
                weaker = dict(cube.as_dict())
                del weaker[var]
                assert not m.leq(m.cube(weaker), f)
            # Irredundant: dropping the cube breaks coverage.
            rest = [c for i, c in enumerate(cover.cubes) if i != index]
            if rest or len(cover) > 1:
                assert not m.leq(f, _cover_node(m, rest))


@settings(max_examples=60, deadline=None)
@given(
    bits_f=st.integers(min_value=0, max_value=(1 << 16) - 1),
    bits_dc=st.integers(min_value=0, max_value=(1 << 16) - 1),
)
def test_property_espresso_sound(bits_f, bits_dc):
    m = BDDManager(4)
    f = TruthTable(bits_f, 4).to_bdd(m, [0, 1, 2, 3])
    dc = TruthTable(bits_dc, 4).to_bdd(m, [0, 1, 2, 3])
    lower = m.apply_and(f, m.negate(dc))
    upper = m.apply_or(f, dc)
    cover = espresso(m, lower, upper)
    node = cover.to_bdd(m)
    assert m.leq(lower, node) and m.leq(node, upper)
