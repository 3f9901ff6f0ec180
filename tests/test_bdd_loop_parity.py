"""The kernel's loop entries against their Python loops.

Each loop entry (the parameterized quantifications and replacements,
``Interval.reduce_support``, ``iter_models`` and the ``conjoin`` /
``disjoin`` fold) must make the same calls, in the same order, as the
Python loop it replaces.  Each test runs the entry on one native manager
and the Python loop on a second native manager with the same history,
and compares results, node arrays, the control block, the unique table,
the op and quantify caches, the interned cubes, the statistics and
``cache_capacities()``.  The managers start at their small initial
capacities, so the entries grow tables mid-loop and restart."""

import random

import pytest

from repro.bdd import native as _native
from repro.bdd.count import _py_iter_models, iter_models
from repro.bdd.manager import (
    BDDManager,
    FALSE,
    TRUE,
    _OPCACHE_ARRAYS,
    _QCACHE_ARRAYS,
)
from repro.bidec import parameterize
from repro.intervals import Interval

pytestmark = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)


def _state(m):
    """Everything an entry and its Python loop must leave identical."""
    n = m.num_nodes
    tables = {
        name: None if getattr(m, "_" + name) is None else list(getattr(m, "_" + name))
        for name in _OPCACHE_ARRAYS + _QCACHE_ARRAYS
    }
    return {
        "level": list(m._level[:n]),
        "lo": list(m._lo[:n]),
        "hi": list(m._hi[:n]),
        "ctrl": list(m._ctrl),
        "uniq": list(m._uniq),
        "stats": list(m._stat_arr),
        "tables": tables,
        "capacities": m.cache_capacities(),
        "cubes": sorted((c.cube_id, sorted(c.vars)) for c in m._cube_table.values()),
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


def _scratch_history(seed, k, with_y=False):
    """A scratch-manager order (c1_i, c2_i, x_i (, y_i) per variable)
    and two random functions over the x variables."""
    step = 4 if with_y else 3

    def history(m):
        rng = random.Random(seed)
        xs = [step * i + 2 for i in range(k)]
        return [
            _random_function(m, rng, xs, terms=10, width=min(4, k)) for _ in range(2)
        ]

    return history, step


def _vars(k, step, offset):
    return [step * i + offset for i in range(k)]


class TestParameterizedQuantify:
    @pytest.mark.parametrize("op", [parameterize._EXISTS, parameterize._FORALL])
    def test_parity(self, op):
        k = 10
        history, step = _scratch_history(1, k)
        (m1, m2), (f, _) = _pair(history, step * k)
        xs, c1, c2 = _vars(k, step, 2), _vars(k, step, 0), _vars(k, step, 1)
        public = (
            parameterize.parameterized_exists
            if op == parameterize._EXISTS
            else parameterize.parameterized_forall
        )
        got, grows = _count_grows(
            m1, lambda: (public(m1, f, xs, c1), public(m1, f, xs, c2))
        )
        want = tuple(
            parameterize._py_parameterized_quantify(m2, op, f, xs, cs, None)[0]
            for cs in (c1, c2)
        )
        assert got == want
        assert _state(m1) == _state(m2)
        assert grows > 0  # the entry restarted mid-loop

    def test_budget_trips_mid_loop(self):
        k = 10
        history, step = _scratch_history(2, k)
        (m1, m2), (f, _) = _pair(history, step * k)
        xs, cs = _vars(k, step, 2), _vars(k, step, 0)
        budget = m1.num_nodes + 40
        got = parameterize.parameterized_forall(m1, f, xs, cs, budget)
        want = parameterize._py_parameterized_quantify(
            m2, parameterize._FORALL, f, xs, cs, budget
        )
        assert got == want
        assert 0 < len(got[1]) < k  # some variables ran, some were skipped
        assert _state(m1) == _state(m2)

    def test_budget_scan(self):
        """Every budget over a range: a growth restart inside an
        iteration finishes that iteration, as the Python loop does, even
        when the node count passed the budget during it."""
        k = 10
        history, step = _scratch_history(0, k)
        xs, cs = _vars(k, step, 2), _vars(k, step, 0)
        for extra in range(0, 400, 9):
            (m1, m2), (f, _) = _pair(history, step * k)
            budget = m1.num_nodes + extra
            got = parameterize.parameterized_forall(m1, f, xs, cs, budget)
            want = parameterize._py_parameterized_quantify(
                m2, parameterize._FORALL, f, xs, cs, budget
            )
            assert got == want, budget
            assert _state(m1) == _state(m2), budget

    def test_every_quantification_short_circuits(self):
        """Each variable lies above ``f``'s top level, so no quantifier
        passes its short-circuit: the quantify caches stay unallocated."""

        def history(m):
            return m.apply_and(m.var(6), m.var(7))

        (m1, m2), f = _pair(history, 8)
        xs, cs = [2, 3], [0, 1]
        got = parameterize.parameterized_forall(m1, f, xs, cs)
        want = parameterize._py_parameterized_quantify(
            m2, parameterize._FORALL, f, xs, cs, None
        )[0]
        assert got == want
        assert m1.cache_capacities()["forall"] == 0
        assert _state(m1) == _state(m2)

    def test_budget_zero_skips_all(self):
        (m1, m2), (f, _) = _pair(_scratch_history(3, 4)[0], 12)
        xs, cs = [2, 5, 8, 11], [0, 3, 6, 9]
        assert parameterize.parameterized_forall(m1, f, xs, cs, 0) == (f, cs)
        assert parameterize._py_parameterized_quantify(
            m2, parameterize._FORALL, f, xs, cs, 0
        ) == (f, cs)
        assert _state(m1) == _state(m2)


class TestParameterizedReplace:
    @pytest.mark.parametrize("pair", [False, True])
    def test_parity(self, pair):
        k = 8
        history, step = _scratch_history(4, k, with_y=True)
        (m1, m2), (lower, upper) = _pair(history, step * k)
        xs, ys = _vars(k, step, 2), _vars(k, step, 3)
        c1, c2 = _vars(k, step, 0), _vars(k, step, 1)

        def run(m, fn):
            return [
                fn(m, f, xs, ys, c1, c2 if pair else None) for f in (lower, upper)
            ]

        got, grows = _count_grows(
            m1, lambda: run(m1, parameterize._parameterized_replace)
        )
        want = run(m2, parameterize._py_parameterized_replace)
        assert got == want
        assert _state(m1) == _state(m2)
        assert grows > 0

    def test_repeated_variable_and_empty_lists(self):
        history, step = _scratch_history(5, 3, with_y=True)
        (m1, m2), (f, _) = _pair(history, step * 3)
        xs, ys, cs = [2, 6, 2], [3, 7, 11], [0, 4, 8]
        got = [
            parameterize.parameterized_replace(m1, f, xs, ys, cs),
            parameterize.parameterized_replace(m1, f, [], [], []),
        ]
        want = [parameterize._py_parameterized_replace(m2, f, xs, ys, cs, None), f]
        assert got == want
        assert _state(m1) == _state(m2)


class TestReduceSupport:
    @pytest.mark.parametrize("seed", [6, 7])
    def test_parity(self, seed):
        def history(m):
            rng = random.Random(seed)
            variables = list(range(m.num_vars))
            f = _random_function(m, rng, variables, terms=14, width=5)
            # Don't cares wherever one variable is 1 make it droppable.
            dc = m.apply_or(
                m.var(rng.randrange(m.num_vars)),
                _random_function(m, rng, variables, terms=4, width=5),
            )
            interval = Interval.with_dont_cares(m, f, dc)
            return interval.lower, interval.upper

        (m1, m2), (lower, upper) = _pair(history, 14)
        got, grows = _count_grows(
            m1, lambda: Interval(m1, lower, upper).reduce_support()
        )
        want = Interval(m2, lower, upper)._py_reduce_support()
        assert (got[0].lower, got[0].upper, got[1]) == (
            want[0].lower,
            want[0].upper,
            want[1],
        )
        assert got[1]  # some variable was dropped
        assert _state(m1) == _state(m2)
        assert grows > 0

    def test_nothing_dropped_returns_the_interval(self):
        (m1, m2), f = _pair(lambda m: m.apply_xor(m.var(0), m.var(1)), 2)
        interval = Interval.exact(m1, f)
        reduced, dropped = interval.reduce_support()
        assert reduced is interval and dropped == set()
        assert Interval.exact(m2, f)._py_reduce_support()[1] == set()
        assert _state(m1) == _state(m2)


class TestIterModels:
    def _function(self, seed):
        def history(m):
            rng = random.Random(seed)
            return _random_function(m, rng, list(range(9)), terms=7, width=3)

        return history

    def test_parity(self):
        (m1, m2), f = _pair(self._function(8), 10)
        order = [9, 0, 2, 1, 3, 4, 5, 6, 7, 8]
        got = list(iter_models(m1, f, order))
        want = list(_py_iter_models(m2, f, sorted(order)))
        assert len(got) > 64  # several kernel refills
        assert got == want
        assert [list(model) for model in got] == [list(model) for model in want]
        assert _state(m1) == _state(m2)

    def test_constants(self):
        m = BDDManager(3, native=True)
        for root, order in ((TRUE, [0, 1, 2]), (FALSE, [0, 1]), (TRUE, []), (FALSE, [])):
            assert list(iter_models(m, root, order)) == list(
                _py_iter_models(m, root, sorted(order))
            )

    def test_early_stop_and_nodes_between_models(self):
        """A consumer that stops early, and one that makes nodes in the
        same manager between models, see the same models as the Python
        recursion, and leave the same managers."""
        (m1, m2), f = _pair(self._function(9), 10)
        order = list(range(10))
        logs = []
        for m, models in ((m1, iter_models(m1, f, order)), (m2, _py_iter_models(m2, f, order))):
            log = []
            for count, model in enumerate(models):
                log.append(model)
                node = m.cube({var: value for var, value in model.items() if var % 3})
                log.append(m.apply_or(node, m.var(count % 10)))
                if count == 40:
                    break
            logs.append(log)
        assert logs[0] == logs[1]
        assert _state(m1) == _state(m2)


class TestFold:
    def _operands(self, seed):
        def history(m):
            rng = random.Random(seed)
            variables = list(range(m.num_vars))
            return [_random_function(m, rng, variables, terms=5, width=6) for _ in range(12)]

        return history

    @pytest.mark.parametrize("conjoin", [True, False])
    def test_parity(self, conjoin):
        (m1, m2), operands = _pair(self._operands(10), 16)
        # Complemented operands keep the conjunction away from FALSE.
        nodes = operands if not conjoin else [m1.negate(f) for f in operands]
        assert nodes == (operands if not conjoin else [m2.negate(f) for f in operands])
        fold = "conjoin" if conjoin else "disjoin"
        got, grows = _count_grows(m1, lambda: getattr(m1, fold)(tuple(nodes)))
        want = getattr(m2, fold)(iter(nodes))  # an iterator keeps the Python loop
        assert got == want
        assert got not in (FALSE, TRUE)
        assert _state(m1) == _state(m2)
        assert grows > 0

    def test_early_exit(self):
        (m1, m2), operands = _pair(self._operands(11), 16)
        # The fold stops at FALSE (TRUE) and never reaches the stray id.
        for m in (m1, m2):
            ops = list if m is m1 else iter
            assert m.conjoin(ops([operands[0], FALSE, 10**6])) == FALSE
            assert m.disjoin(ops([operands[1], TRUE, -1])) == TRUE
            assert m.conjoin(ops([])) == TRUE and m.disjoin(ops([])) == FALSE
            # Two operands fold in Python on both: one core call at most.
            assert m.conjoin(ops(operands[2:4])) == m.apply_and(*operands[2:4])
        assert _state(m1) == _state(m2)

    def test_iterator_that_makes_nodes(self):
        """A generator that makes nodes while the fold consumes it keeps
        the Python loop, whose node arrays are the reference."""
        (m1, m2), operands = _pair(self._operands(12), 16)

        def operand_stream(m):
            for i, f in enumerate(operands):
                yield m.apply_or(f, m.nvar(i))

        got = m1.conjoin(operand_stream(m1))
        want = TRUE
        for node in operand_stream(m2):
            want = m2.apply_and(want, node)
            if want == FALSE:
                break
        assert got == want
        assert _state(m1) == _state(m2)
