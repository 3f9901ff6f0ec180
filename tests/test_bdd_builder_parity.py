"""The kernel builders against their Python walks.

Each kernel walk (``weight_functions``, ``count_relation_from``,
``vector_compose`` and ``transfer_multi``) must make the same nodes, in
the same order, with the same cache traffic as the Python walk it
replaces.  Each test runs the kernel builder on one native manager and
the Python walk on a second native manager with the same history, and
compares results, node arrays, the control block, the unique table, the
op caches and the statistics.  The managers start at their small initial
capacities, so the walks grow tables mid-entry and restart."""

import random

import pytest

from repro.bdd import builders
from repro.bdd import native as _native
from repro.bdd.compose import (
    _py_transfer_multi,
    _py_vector_compose,
    transfer_multi,
    vector_compose,
)
from repro.bdd.manager import BDDManager, FALSE, TRUE, _OPCACHE_ARRAYS

pytestmark = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)


def _state(m):
    """Everything the two walks must leave identical."""
    n = m.num_nodes
    caches = {name: list(getattr(m, "_" + name)) for name in _OPCACHE_ARRAYS}
    return {
        "level": list(m._level[:n]),
        "lo": list(m._lo[:n]),
        "hi": list(m._hi[:n]),
        "ctrl": list(m._ctrl),
        "uniq": list(m._uniq),
        "stats": list(m._stat_arr),
        "caches": caches,
    }


def _pair(history, num_vars):
    """Two native managers that ran the same ``history``."""
    managers = [BDDManager(num_vars, native=True) for _ in range(2)]
    outs = [history(m) for m in managers]
    assert outs[0] == outs[1]
    return managers, outs[0]


def _random_function(m, rng, variables, terms=6, width=4):
    f = FALSE
    for _ in range(terms):
        cube = {v: rng.random() < 0.5 for v in rng.sample(variables, width)}
        f = m.apply_or(f, m.cube(cube))
    return f


def _count_grows(m, call):
    """Run ``call`` and count the growth restarts it triggered."""
    grows = []
    real = m._grow

    def counting(code):
        grows.append(code)
        return real(code)

    m._grow = counting
    try:
        return call(), len(grows)
    finally:
        del m._grow


class TestWeightFunctions:
    @pytest.mark.parametrize("max_weight", [None, 3, 0])
    def test_parity(self, max_weight):
        (m1, m2), _ = _pair(lambda m: m.apply_and(m.var(0), m.var(3)), 30)
        variables = list(range(1, 30, 2)) + list(range(28, 0, -2))
        got, grows = _count_grows(
            m1, lambda: builders.weight_functions(m1, variables, max_weight)
        )
        m = len(variables) if max_weight is None else max_weight
        want = builders._py_weight_functions(m2, sorted(variables, reverse=True), m)
        assert got == want
        assert _state(m1) == _state(m2)
        if max_weight is None:
            assert grows > 0  # the walk restarted after growing


class TestCountRelation:
    def test_parity(self):
        def history(m):
            weights = builders.weight_functions(m, list(range(0, 24, 2)))
            return weights

        (m1, m2), weights = _pair(history, 32)
        bits = [30, 24, 28, 26]  # not in order: cubes go highest bit down
        got, grows = _count_grows(
            m1, lambda: builders.count_relation_from(m1, weights, bits)
        )
        want = builders._py_count_relation_from(m2, weights, bits)
        assert got == want
        assert _state(m1) == _state(m2)
        assert grows > 0

    def test_false_weights_are_skipped(self):
        (m1, m2), _ = _pair(lambda m: None, 6)
        weights = [FALSE, m1.var(0), FALSE, TRUE]
        assert m1.var(0) == m2.var(0)
        got = builders.count_relation_from(m1, weights, [4, 5])
        want = builders._py_count_relation_from(m2, weights, [4, 5])
        assert got == want
        assert _state(m1) == _state(m2)


def _compose_history(seed):
    def history(m):
        rng = random.Random(seed)
        variables = list(range(m.num_vars))
        funcs = [_random_function(m, rng, variables, terms=12) for _ in range(3)]
        return funcs + [m.var(v) for v in variables]

    return history


class TestVectorCompose:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_parity(self, seed):
        (m1, m2), funcs = _pair(_compose_history(seed), 16)
        rng = random.Random(seed)
        substitution = {}
        for var in rng.sample(range(16), 8):
            substitution[var] = rng.choice(funcs)
        # Constants, and one function substituted for two variables.
        substitution[rng.randrange(16)] = TRUE
        substitution[rng.randrange(16)] = FALSE
        got, grows = _count_grows(
            m1, lambda: vector_compose(m1, funcs[0], substitution)
        )
        want = _py_vector_compose(m2, funcs[0], substitution)
        assert got == want
        assert _state(m1) == _state(m2)
        assert grows > 0

    def test_rename_and_compose(self):
        (m1, m2), funcs = _pair(_compose_history(3), 12)
        mapping = {v: 11 - v for v in range(12)}
        logs = []
        for m, run in ((m1, vector_compose), (m2, _py_vector_compose)):
            renamed = run(m, funcs[1], {o: m.var(n) for o, n in mapping.items()})
            logs.append((renamed, run(m, renamed, {5: funcs[2]})))
        assert logs[0] == logs[1]
        assert _state(m1) == _state(m2)

    def test_constant_and_empty(self):
        (m1, m2), funcs = _pair(_compose_history(4), 8)
        logs = [
            (run(m, TRUE, {0: funcs[0]}), run(m, funcs[0], {0: TRUE, 1: TRUE}))
            for m, run in ((m1, vector_compose), (m2, _py_vector_compose))
        ]
        assert logs[0] == logs[1]
        assert vector_compose(m1, funcs[0], {}) == funcs[0]
        assert _state(m1) == _state(m2)


class TestTransferMulti:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_parity(self, reverse):
        rng = random.Random(5)
        source = BDDManager(20, native=True)
        funcs = [_random_function(source, rng, list(range(20)), 10, 5) for _ in range(4)]
        roots = [funcs[0], TRUE, funcs[1], funcs[0], FALSE, funcs[2], funcs[3]]
        var_map = {v: 19 - v if reverse else v for v in range(20)}
        targets = [BDDManager(20, native=True) for _ in range(2)]
        for t in targets:
            t.apply_or(t.var(3), t.var(7))  # the same history
        got, grows = _count_grows(
            targets[0],
            lambda: transfer_multi(source, roots, targets[0], var_map),
        )
        want = _py_transfer_multi(source, roots, targets[1], var_map)
        assert got == want
        assert _state(targets[0]) == _state(targets[1])
        assert grows > 0

    def test_identity_map_and_repeated_calls(self):
        """The default (identity) var_map, and a second transfer into the
        same target, which finds every node the first one made."""
        rng = random.Random(6)
        source = BDDManager(10, native=True)
        funcs = [_random_function(source, rng, list(range(10))) for _ in range(3)]
        targets = [BDDManager(10, native=True) for _ in range(2)]
        logs = []
        for target, run in zip(targets, (transfer_multi, _py_transfer_multi)):
            first = run(source, funcs[:1], target, None)
            again = run(source, funcs, target, None)
            logs.append((first, again))
        assert logs[0] == logs[1]
        assert _state(targets[0]) == _state(targets[1])

    def test_missing_and_undeclared_variables(self):
        source = BDDManager(4, native=True)
        f = source.apply_and(source.var(1), source.var(3))
        for run in (transfer_multi, _py_transfer_multi):
            with pytest.raises(KeyError):
                run(source, [f], BDDManager(4), {1: 1})
            with pytest.raises(ValueError, match="variable 9 not declared"):
                run(source, [f], BDDManager(4), {1: 1, 3: 9})
            with pytest.raises(ValueError, match="variable 3 not declared"):
                run(source, [f], BDDManager(2))
