"""Deep-BDD stress tests and randomized cross-checks for the iterative
operator cores.

The manager's operators and the quantifiers walk with explicit stacks,
and so do the node builders (``vector_compose`` with ``compose``,
``rename`` and the parameterized replacements), the count walks
(``sat_count``, ``shortest_cube``, ``iter_models``) and ISOP on both
kernels, so chain-shaped BDDs far deeper than the interpreter recursion
limit must go through without ``RecursionError``.  The randomized section
cross-checks the iterative cores against straightforward *recursive*
reference implementations on small managers, where recursion is safe.
"""

import random
import sys

import pytest

from repro import obs
from repro.bdd import (
    BDDManager,
    FALSE,
    TRUE,
    and_exists,
    compose,
    exists,
    forall,
    iter_models,
    rename,
    sat_count,
    shortest_cube,
    vector_compose,
)
from repro.bdd import native as _native
from repro.bidec.parameterize import parameterized_replace
from repro.logic.sop import Cube, isop
from repro.logic.truthtable import TruthTable

#: Far above the default interpreter recursion limit (usually 1000).
CHAIN_VARS = 3000


@pytest.fixture(scope="module")
def chain_manager():
    assert CHAIN_VARS > sys.getrecursionlimit()
    manager = BDDManager(CHAIN_VARS)
    return manager


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(False, id="python"),
        pytest.param(
            True,
            id="native",
            marks=pytest.mark.skipif(
                _native.kernel() is None, reason="native kernel unavailable"
            ),
        ),
    ],
)
def kernel_chain(request):
    """A 3000-variable manager on each kernel."""
    assert CHAIN_VARS > sys.getrecursionlimit()
    return BDDManager(CHAIN_VARS, native=request.param)


def _cube(manager, variables):
    """Conjunction of positive literals, built bottom-up (no recursion)."""
    return manager.cube({var: True for var in variables})


class TestDeepChains:
    """Operators on 3000-variable chain BDDs must not hit the recursion
    limit."""

    def test_conjoin_deep_chains(self, chain_manager):
        m = chain_manager
        evens = _cube(m, range(0, CHAIN_VARS, 2))
        odds = _cube(m, range(1, CHAIN_VARS, 2))
        both = m.apply_and(evens, odds)
        assert both == _cube(m, range(CHAIN_VARS))

    def test_disjoin_and_xor_deep_chains(self, chain_manager):
        m = chain_manager
        evens = _cube(m, range(0, CHAIN_VARS, 2))
        odds = _cube(m, range(1, CHAIN_VARS, 2))
        union = m.apply_or(evens, odds)
        sym = m.apply_xor(evens, odds)
        # or = and ^ xor for any pair of functions.
        assert m.apply_xor(m.apply_and(evens, odds), sym) == union

    def test_negate_deep_chain(self, chain_manager):
        m = chain_manager
        all_true = _cube(m, range(CHAIN_VARS))
        negated = m.negate(all_true)
        assert negated != all_true
        assert m.negate(negated) == all_true
        assert m.apply_or(all_true, negated) == TRUE

    def test_ite_deep_chain(self, chain_manager):
        m = chain_manager
        evens = _cube(m, range(0, CHAIN_VARS, 2))
        odds = _cube(m, range(1, CHAIN_VARS, 2))
        assert m.ite(evens, odds, FALSE) == m.apply_and(evens, odds)

    def test_restrict_deep_chain(self, chain_manager):
        m = chain_manager
        all_true = _cube(m, range(CHAIN_VARS))
        pinned = m.restrict(
            all_true, {var: True for var in range(0, CHAIN_VARS, 3)}
        )
        expected = _cube(
            m, (v for v in range(CHAIN_VARS) if v % 3 != 0)
        )
        assert pinned == expected

    def test_exists_deep_chain(self, chain_manager):
        m = chain_manager
        all_true = _cube(m, range(CHAIN_VARS))
        dropped = exists(m, all_true, range(0, CHAIN_VARS, 3))
        expected = _cube(m, (v for v in range(CHAIN_VARS) if v % 3 != 0))
        assert dropped == expected

    def test_forall_exists_duality_deep_chain(self, chain_manager):
        m = chain_manager
        all_true = _cube(m, range(CHAIN_VARS))
        evens = m.intern_cube(range(0, CHAIN_VARS, 2))
        # ∀x ¬f == ¬∃x f, checked on a 3000-deep chain.
        lhs = forall(m, m.negate(all_true), evens)
        rhs = m.negate(exists(m, all_true, evens))
        assert lhs == rhs

    def test_and_exists_deep_chain(self, chain_manager):
        m = chain_manager
        evens = _cube(m, range(0, CHAIN_VARS, 2))
        odds = _cube(m, range(1, CHAIN_VARS, 2))
        quantified = range(0, CHAIN_VARS, 4)
        fused = and_exists(m, evens, odds, quantified)
        assert fused == exists(m, m.apply_and(evens, odds), quantified)

    def test_vector_compose_deep_chain(self, kernel_chain):
        m = kernel_chain
        all_true = _cube(m, range(CHAIN_VARS))
        rest = _cube(m, range(1, CHAIN_VARS))
        assert vector_compose(m, all_true, {0: m.var(1)}) == rest
        assert compose(m, all_true, 0, TRUE) == rest
        shift = {v: v + 1 for v in range(CHAIN_VARS - 1)}
        assert rename(m, _cube(m, range(CHAIN_VARS - 1)), shift) == rest

    def test_parameterized_replace_deep_chain(self, kernel_chain):
        m = kernel_chain
        rest = _cube(m, range(3, CHAIN_VARS))
        replaced = parameterized_replace(m, m.apply_and(m.var(0), rest), [0], [1], [2])
        assert replaced == m.apply_and(m.ite(m.var(2), m.var(0), m.var(1)), rest)

    def test_iter_models_deep_chain(self, kernel_chain):
        m = kernel_chain
        all_true = _cube(m, range(CHAIN_VARS))
        (model,) = iter_models(m, all_true, range(CHAIN_VARS))
        assert list(model.items()) == [(v, True) for v in reversed(range(CHAIN_VARS))]

    def test_sat_count_deep_chain(self, kernel_chain):
        m = kernel_chain
        all_true = _cube(m, range(CHAIN_VARS))
        evens = _cube(m, range(0, CHAIN_VARS, 2))
        assert sat_count(m, all_true) == 1
        assert sat_count(m, m.negate(all_true)) == 2**CHAIN_VARS - 1
        assert sat_count(m, evens) == 2 ** (CHAIN_VARS // 2)

    def test_shortest_cube_deep_chain(self, kernel_chain):
        m = kernel_chain
        all_true = _cube(m, range(CHAIN_VARS))
        cube = shortest_cube(m, all_true)
        assert list(cube.items()) == [(v, True) for v in reversed(range(CHAIN_VARS))]
        # One literal suffices for the complement: the first 0-branch.
        assert shortest_cube(m, m.negate(all_true)) == {0: False}

    def test_isop_deep_chain(self, kernel_chain):
        m = kernel_chain
        all_true = _cube(m, range(CHAIN_VARS))
        cover, g = isop(m, all_true, all_true)
        assert g == all_true
        assert cover.cubes == [Cube(tuple((v, True) for v in range(CHAIN_VARS)))]

    def test_isop_deep_chain_interval(self, kernel_chain):
        # [all variables, the even ones]: each odd variable drops out,
        # so the cover is the one cube of the even variables.
        m = kernel_chain
        evens = _cube(m, range(0, CHAIN_VARS, 2))
        cover, g = isop(m, _cube(m, range(CHAIN_VARS)), evens)
        assert g == evens
        assert cover.cubes == [Cube(tuple((v, True) for v in range(0, CHAIN_VARS, 2)))]

    def test_deep_parity_chain_via_xor(self):
        # Parity of 3000 variables: a 2-nodes-per-level chain built by
        # folding XOR; evaluation spot-checks the function.
        m = BDDManager(CHAIN_VARS)
        parity = FALSE
        for var in range(CHAIN_VARS - 1, -1, -1):
            parity = m.apply_xor(m.var(var), parity)
        rng = random.Random(11)
        for _ in range(5):
            assignment = [rng.random() < 0.5 for _ in range(CHAIN_VARS)]
            assert m.evaluate(parity, assignment) == (
                sum(assignment) % 2 == 1
            )


# ---------------------------------------------------------------------------
# Randomized cross-checks against recursive reference implementations
# ---------------------------------------------------------------------------


def _ref_and(m, f, g, memo):
    if f == g:
        return f
    if f == FALSE or g == FALSE:
        return FALSE
    if f == TRUE:
        return g
    if g == TRUE:
        return f
    if f > g:
        f, g = g, f
    key = (f, g)
    hit = memo.get(key)
    if hit is not None:
        return hit
    lf, lg = m.level(f), m.level(g)
    top = min(lf, lg)
    f0, f1 = (m.lo(f), m.hi(f)) if lf == top else (f, f)
    g0, g1 = (m.lo(g), m.hi(g)) if lg == top else (g, g)
    result = m._mk(
        top, _ref_and(m, f0, g0, memo), _ref_and(m, f1, g1, memo)
    )
    memo[key] = result
    return result


def _ref_xor(m, f, g, memo):
    if f == g:
        return FALSE
    if f == FALSE:
        return g
    if g == FALSE:
        return f
    key = (f, g) if f < g else (g, f)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if f == TRUE or g == TRUE:
        other = g if f == TRUE else f
        result = _ref_negate(m, other, {})
    else:
        lf, lg = m.level(f), m.level(g)
        top = min(lf, lg)
        f0, f1 = (m.lo(f), m.hi(f)) if lf == top else (f, f)
        g0, g1 = (m.lo(g), m.hi(g)) if lg == top else (g, g)
        result = m._mk(
            top, _ref_xor(m, f0, g0, memo), _ref_xor(m, f1, g1, memo)
        )
    memo[key] = result
    return result


def _ref_negate(m, f, memo):
    if f == FALSE:
        return TRUE
    if f == TRUE:
        return FALSE
    hit = memo.get(f)
    if hit is not None:
        return hit
    result = m._mk(
        m.level(f), _ref_negate(m, m.lo(f), memo), _ref_negate(m, m.hi(f), memo)
    )
    memo[f] = result
    return result


def _ref_exists(m, f, variables, memo):
    if f <= 1:
        return f
    hit = memo.get(f)
    if hit is not None:
        return hit
    level = m.level(f)
    lo = _ref_exists(m, m.lo(f), variables, memo)
    hi = _ref_exists(m, m.hi(f), variables, memo)
    if level in variables:
        result = m.apply_or(lo, hi)
    else:
        result = m._mk(level, lo, hi)
    memo[f] = result
    return result


class TestRandomizedCrossChecks:
    """Iterative cores agree with recursive references on random BDDs."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_binary_ops_match_reference(self, seed):
        rng = random.Random(seed)
        m = BDDManager(8)
        order = list(range(8))
        nodes = [
            TruthTable.random(8, rng).to_bdd(m, order) for _ in range(8)
        ]
        for f in nodes:
            for g in nodes:
                assert m.apply_and(f, g) == _ref_and(m, f, g, {})
                assert m.apply_xor(f, g) == _ref_xor(m, f, g, {})
        for f in nodes:
            assert m.negate(f) == _ref_negate(m, f, {})

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_quantifiers_match_reference(self, seed):
        rng = random.Random(seed)
        m = BDDManager(8)
        order = list(range(8))
        nodes = [
            TruthTable.random(8, rng).to_bdd(m, order) for _ in range(6)
        ]
        for f in nodes:
            variables = set(rng.sample(range(8), rng.randint(1, 5)))
            reference = _ref_exists(m, f, variables, {})
            assert exists(m, f, variables) == reference
            # ∀x f = ¬∃x ¬f
            assert forall(m, f, variables) == m.negate(
                _ref_exists(m, m.negate(f), variables, {})
            )
            for g in nodes:
                assert and_exists(m, f, g, variables) == _ref_exists(
                    m, m.apply_and(f, g), variables, {}
                )

    @pytest.mark.parametrize("seed", [7, 8])
    def test_ite_and_restrict_match_semantics(self, seed):
        rng = random.Random(seed)
        m = BDDManager(6)
        order = list(range(6))
        f, g, h = (
            TruthTable.random(6, rng).to_bdd(m, order) for _ in range(3)
        )
        ite = m.ite(f, g, h)
        pins = {v: rng.random() < 0.5 for v in rng.sample(range(6), 3)}
        restricted = m.restrict(f, pins)
        for bits in range(64):
            assignment = [(bits >> v) & 1 == 1 for v in range(6)]
            fv = m.evaluate(f, assignment)
            assert m.evaluate(ite, assignment) == (
                m.evaluate(g, assignment) if fv else m.evaluate(h, assignment)
            )
            pinned = list(assignment)
            for var, value in pins.items():
                pinned[var] = value
            assert m.evaluate(restricted, assignment) == m.evaluate(f, pinned)


# ---------------------------------------------------------------------------
# Kernel API contracts riding along with the overhaul
# ---------------------------------------------------------------------------


class TestEvaluateErrors:
    def test_missing_variable_raises_value_error(self):
        m = BDDManager()
        x = m.new_var("x")
        y = m.new_var("y")
        f = m.apply_and(m.var(x), m.var(y))
        with pytest.raises(ValueError, match=r"missing variable 'y'"):
            m.evaluate(f, {x: True})

    def test_missing_index_in_sequence_raises_value_error(self):
        m = BDDManager(3)
        f = m.apply_and(m.var(0), m.var(2))
        with pytest.raises(ValueError, match=r"index 2"):
            m.evaluate(f, [True, True])

    def test_off_path_variables_may_be_absent(self):
        m = BDDManager(3)
        f = m.apply_and(m.var(0), m.var(2))
        # var 1 never appears on an evaluation path; var 2 is pruned when
        # var 0 already decides the function.
        assert m.evaluate(f, {0: True, 2: True}) is True
        assert m.evaluate(f, {0: False}) is False


class TestPersistentQuantifyCaches:
    def test_intern_cube_is_identity_stable(self):
        m = BDDManager(6)
        a = m.intern_cube([0, 2, 4])
        b = m.intern_cube((4, 2, 0))
        c = m.intern_cube(iter([2, 0, 4]))
        assert a is b is c
        assert m.intern_cube(a) is a
        assert a.max_level == 4
        assert len(a) == 3 and 2 in a and sorted(a) == [0, 2, 4]
        assert m.intern_cube([1]).cube_id != a.cube_id

    def test_repeat_quantification_hits_persistent_cache(self):
        obs.reset()
        obs.enable()
        try:
            m = BDDManager(8)
            rng = random.Random(9)
            f = TruthTable.random(8, rng).to_bdd(m, list(range(8)))
            first = exists(m, f, [1, 3, 5])
            counters = obs.report()["counters"]
            misses = counters.get("bdd.cache.exists.misses", 0)
            assert misses > 0
            assert exists(m, f, [5, 3, 1]) == first
            counters = obs.report()["counters"]
            assert counters.get("bdd.cache.exists.hits", 0) >= 1
            # No extra walk: the repeat resolved at the top-level cache.
            assert counters.get("bdd.cache.exists.misses", 0) == misses
        finally:
            obs.disable()
            obs.reset()

    def test_clear_caches_drops_quantify_caches(self):
        m = BDDManager(8)
        rng = random.Random(10)
        f = TruthTable.random(8, rng).to_bdd(m, list(range(8)))
        g = TruthTable.random(8, rng).to_bdd(m, list(range(8)))
        first = exists(m, f, [0, 2])
        forall(m, f, [1, 4])
        and_exists(m, f, g, [0, 2])
        sizes = m.cache_sizes()
        assert sizes["exists"] > 0
        assert sizes["forall"] > 0
        assert sizes["and_exists"] > 0
        evicted = m.clear_caches()
        assert evicted >= sizes["exists"] + sizes["forall"] + sizes["and_exists"]
        assert all(size == 0 for size in m.cache_sizes().values())
        # Cube interning survives; results are reproducible post-clear.
        assert m.intern_cube([0, 2]) is m.intern_cube([2, 0])
        assert exists(m, f, [0, 2]) == first
