"""The space programs on the kernel against the Python interpreter.

Each space step — the OR and XOR bodies of the partition-space
builders, ``PartitionSpace.nontrivial`` and ``PartitionSpace.size_pairs``
— is a step program that runs as one ``bdd_run`` call on a native
manager and through the public functions under the Python interpreter.
Each parity test runs the program on one native scratch manager and
under the Python interpreter on a second native manager with the same
history, and compares results, node arrays, the control block, the
unique table, the op and quantify caches, the interned cubes, the
declared variables, the statistics and ``cache_capacities()``.  The
scratch managers start at their small initial capacities, so the runs
grow tables mid-program and restart.  Last, the spaces, pairs and
partitions built on the kernel must equal those built wholly on
pure-Python managers, as ``REPRO_NATIVE=0`` builds them."""

import random
from contextlib import contextmanager

import pytest

from repro.bdd import native as _native
from repro.bdd import program as _program
from repro.bdd.manager import (
    BDDManager,
    FALSE,
    TRUE,
    _OPCACHE_ARRAYS,
    _QCACHE_ARRAYS,
)
from repro.bidec import parameterize
from repro.bidec import symbolic as _symbolic
from repro.intervals import Interval

pytestmark = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)


@contextmanager
def python_interpreter():
    """Run every step program of more than one step through the Python
    interpreter, on native managers too.  One-step programs stay on the
    kernel: they are the public functions the Python interpreter's steps
    call."""
    real = _program._native_run

    def routed(manager, program, *args):
        run = _program._py_run if len(program.steps) > 1 else real
        return run(manager, program, *args)

    _program._native_run = routed
    try:
        yield
    finally:
        _program._native_run = real


def _state(m):
    """Everything the two interpreters must leave identical."""
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
        "vars": list(m._var_names),
    }


def _random_function(m, rng, variables, terms, width):
    f = FALSE
    for _ in range(terms):
        cube = {v: rng.random() < 0.5 for v in rng.sample(variables, width)}
        f = m.apply_or(f, m.cube(cube))
    return f


def _interval(seed, k=8, native=True):
    """A random function over ``k`` variables with random don't cares."""
    m = BDDManager(k, native=native)
    rng = random.Random(seed)
    variables = list(range(k))
    f = _random_function(m, rng, variables, terms=k, width=min(4, k))
    dc = _random_function(m, rng, variables, terms=2, width=min(4, k))
    return Interval.with_dont_cares(m, f, dc)


def _scratch_pair(n, with_y):
    """Two fresh native scratch managers with the layout of ``n``
    function variables, and the layout."""
    layout = _symbolic._layout(n, with_y)
    managers = []
    for _ in range(2):
        m = BDDManager(native=True)
        m.declare_vars(layout.names)
        managers.append(m)
    return managers, layout


def _restart_stages(m, call):
    """Run ``call``; returns its result and, for each growth restart of
    ``m``, the program step that asked for it."""
    stages = []
    real = m._grow

    def recording(code):
        stages.append(m._walk.stage)
        return real(code)

    m._grow = recording
    try:
        return call(), stages
    finally:
        del m._grow


def _or_bodies(interval, variables, budget=None):
    """The OR body run on the kernel and under the Python interpreter;
    returns both results, both scratch managers and the kernel run's
    restart steps."""
    (sm1, sm2), layout = _scratch_pair(len(variables), with_y=False)
    got, stages = _restart_stages(
        sm1,
        lambda: _symbolic._or_body(interval, variables, sm1, layout, budget),
    )
    with python_interpreter():
        want = _symbolic._or_body(interval, variables, sm2, layout, budget)
    return got, want, sm1, sm2, stages


def _space_pair(interval, with_y=False):
    """The same space built under the Python interpreter on two native
    scratch managers, whose caches are then dropped: a program run on it
    starts from unallocated caches and grows them as it runs."""
    variables = sorted(interval.support())
    (sm1, sm2), layout = _scratch_pair(len(variables), with_y)
    spaces = []
    for sm in (sm1, sm2):
        with python_interpreter():
            if with_y:
                bi = _symbolic._xor_body(interval, variables, sm, layout)
            else:
                bi = _symbolic._or_body(interval, variables, sm, layout, None)
        spaces.append(
            _symbolic.PartitionSpace(
                gate="xor" if with_y else "or",
                manager=sm,
                bi=bi,
                variables=tuple(variables),
                c1_vars=layout.c1_vars,
                c2_vars=layout.c2_vars,
                x_vars=layout.x_vars,
            )
        )
    for sm in (sm1, sm2):
        sm.clear_caches()
    assert _state(sm1) == _state(sm2)
    return spaces


def _py_nontrivial(space):
    """``space.nontrivial().bi`` under the Python interpreter."""
    with python_interpreter():
        return space.nontrivial().bi


def _py_pairs(space):
    """``space``'s unpruned size pairs under the Python interpreter."""
    with python_interpreter():
        return space.size_pairs(prune_dominated=False)


class TestOrBody:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("complement", [False, True])
    def test_parity(self, seed, complement):
        interval = _interval(seed)
        if complement:  # the AND space's body
            interval = interval.complement()
        got, want, sm1, sm2, stages = _or_bodies(
            interval, sorted(interval.support())
        )
        assert got == want
        assert got not in (FALSE, TRUE)
        assert _state(sm1) == _state(sm2)
        assert any(stage > 0 for stage in stages)  # restarted mid-entry

    def test_budget_trips_mid_loop(self, monkeypatch):
        """A budget that stops the first ∀ loop part way: the kernel run
        reports where each loop stopped and the node count then, so the
        forcing ANDs and the obs records match the Python interpreter's."""
        records = []
        real = parameterize.record_forall
        monkeypatch.setattr(
            parameterize,
            "record_forall",
            lambda *args: records.append((args[0], list(args[1]), *args[2:]))
            or real(*args),
        )
        interval = _interval(4)
        variables = sorted(interval.support())
        budget = 300
        got, want, sm1, sm2, _ = _or_bodies(interval, variables, budget)
        assert got == want
        assert _state(sm1) == _state(sm2)
        kernel, python = records[:2], records[2:]
        assert kernel == python
        skipped = [len(record[1]) for record in kernel]
        assert 0 < skipped[0] < len(variables)  # tripped mid-loop

    def test_budget_scan(self):
        """Every budget over a range: the kernel run stops each loop where
        the Python interpreter does, and where the pure-Python loop does,
        which finishes an iteration whose node count passed the budget."""
        interval = _interval(5)
        pure = _interval(5, native=False)
        variables = sorted(interval.support())
        layout = _symbolic._layout(len(variables), with_y=False)
        for budget in range(150, 900, 7):
            got, want, sm1, sm2, _ = _or_bodies(interval, variables, budget)
            assert got == want, budget
            assert _state(sm1) == _state(sm2), budget
            pm = BDDManager(native=False)
            pm.declare_vars(layout.names)
            assert got == _symbolic._or_body(pure, variables, pm, layout, budget)

    def test_variable_map_lacks_a_level(self):
        """The transfer, the body's first step, raises ``KeyError(0)``
        on both interpreters, and both leave the same manager, interned
        cubes included: the Python interpreter interns the views' cubes
        before its first step, as the kernel's buffer does."""
        interval = _interval(6)
        variables = sorted(interval.support())[1:]
        (sm1, sm2), layout = _scratch_pair(len(variables), with_y=False)
        with pytest.raises(KeyError) as kernel:
            _symbolic._or_body(interval, variables, sm1, layout, None)
        with python_interpreter(), pytest.raises(KeyError) as python:
            _symbolic._or_body(interval, variables, sm2, layout, None)
        assert kernel.value.args == python.value.args == (0,)
        assert _state(sm1) == _state(sm2)


class TestXorBody:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_parity(self, seed):
        interval = _interval(seed, k=7)
        variables = sorted(interval.support())
        (sm1, sm2), layout = _scratch_pair(len(variables), with_y=True)
        got, stages = _restart_stages(
            sm1, lambda: _symbolic._xor_body(interval, variables, sm1, layout)
        )
        with python_interpreter():
            want = _symbolic._xor_body(interval, variables, sm2, layout)
        assert got == want
        assert _state(sm1) == _state(sm2)
        assert any(stage > 0 for stage in stages)


class TestNontrivial:
    @pytest.mark.parametrize("seed", [10, 11])
    @pytest.mark.parametrize("with_y", [False, True])
    def test_parity(self, seed, with_y):
        first, second = _space_pair(_interval(seed, k=7), with_y)
        got, stages = _restart_stages(first.manager, first.nontrivial)
        want = _py_nontrivial(second)
        assert got.bi == want
        assert got.weight_tables == second.weight_tables
        assert _state(first.manager) == _state(second.manager)
        assert any(stage > 0 for stage in stages)

    def test_handed_tables(self):
        """A weight table the space holds is handed to the program and
        used as it is, as :meth:`weights` would return it — here a
        stand-in, c1's table, for c2's — and the tables stay shared
        with the restricted space."""
        first, second = _space_pair(_interval(12))
        for space in (first, second):
            space.weight_tables[space.c2_vars] = space.weights(space.c1_vars)
        got = first.nontrivial()
        assert got.bi == _py_nontrivial(second)
        assert got.weight_tables is first.weight_tables
        assert first.weight_tables == second.weight_tables
        assert _state(first.manager) == _state(second.manager)

    def test_infeasible(self):
        """An inconsistent interval has no partition at all."""
        m = BDDManager(4, native=True)
        a, b = m.var(0), m.var(1)
        interval = Interval(m, m.apply_or(a, b), m.apply_and(a, b))
        first, second = _space_pair(interval)
        assert first.bi == FALSE
        assert first.nontrivial().bi == _py_nontrivial(second) == FALSE
        assert first.size_pairs() == second.size_pairs() == []
        assert _state(first.manager) == _state(second.manager)


class TestSizePairs:
    @pytest.mark.parametrize("seed", [13, 14])
    @pytest.mark.parametrize("with_y", [False, True])
    def test_parity(self, seed, with_y):
        first, second = _space_pair(_interval(seed, k=7), with_y)
        got, stages = _restart_stages(
            first.manager, lambda: first.size_pairs(prune_dominated=False)
        )
        want = _py_pairs(second)
        assert sorted(got) == sorted(want)
        assert len(got) > 4
        assert _state(first.manager) == _state(second.manager)
        assert any(stage > 0 for stage in stages)
        # Twice more, through the public entry: new counter bits each time.
        assert first.size_pairs() == second.size_pairs()
        assert first.size_pairs(prune_dominated=False) == second.size_pairs(
            prune_dominated=False
        )
        assert _state(first.manager) == _state(second.manager)

    def test_asymmetric_space(self):
        """Variable 0 forced into g1's support and out of g2's: the pair
        set loses its g1/g2 symmetry, so each pair must decode ``k1``
        from ``e1`` and ``k2`` from ``e2``."""
        first, second = _space_pair(_interval(18))
        spaces = []
        for space in (first, second):
            m = space.manager
            forced = m.apply_and(m.var(space.c1_vars[0]), m.nvar(space.c2_vars[0]))
            spaces.append(space._with_bi(m.apply_and(space.bi, forced)))
        got = sorted(spaces[0].size_pairs(prune_dominated=False))
        assert got == sorted(_py_pairs(spaces[1]))
        assert got != sorted((k2, k1) for k1, k2 in got)
        assert _state(first.manager) == _state(second.manager)

    def test_after_nontrivial(self):
        first, second = _space_pair(_interval(15))
        first, second = first.nontrivial(), second.nontrivial()
        assert sorted(first.size_pairs(prune_dominated=False)) == sorted(
            _py_pairs(second)
        )
        assert _state(first.manager) == _state(second.manager)

    def test_no_nontrivial_partition(self):
        """a ⊕ b has no non-trivial OR partition: the restricted space is
        FALSE and has no size pair."""
        m = BDDManager(2, native=True)
        first, second = _space_pair(Interval.exact(m, m.apply_xor(m.var(0), m.var(1))))
        assert first.size_pairs() == second.size_pairs() == [(0, 2), (2, 0)]
        first, second = first.nontrivial(), second.nontrivial()
        assert first.bi == second.bi == FALSE
        assert first.size_pairs() == second.size_pairs() == []
        assert _state(first.manager) == _state(second.manager)


class TestSmallSpaces:
    @pytest.mark.parametrize("with_y", [False, True])
    def test_no_variable(self, with_y):
        m = BDDManager(2, native=True)
        first, second = _space_pair(Interval.exact(m, TRUE), with_y)
        assert first.bi == second.bi == TRUE
        assert first.size_pairs() == second.size_pairs() == [(0, 0)]
        assert first.nontrivial().bi == FALSE
        assert _state(first.manager) == _state(second.manager)

    @pytest.mark.parametrize("with_y", [False, True])
    def test_one_variable(self, with_y):
        m = BDDManager(2, native=True)
        interval = Interval.exact(m, m.nvar(1))
        variables = [1]
        (sm1, sm2), layout = _scratch_pair(1, with_y)
        body = _symbolic._xor_body if with_y else _symbolic._or_body
        extra = () if with_y else (None,)
        got = body(interval, variables, sm1, layout, *extra)
        with python_interpreter():
            want = body(interval, variables, sm2, layout, *extra)
        assert got == want
        assert _state(sm1) == _state(sm2)
        first, second = _space_pair(interval, with_y)
        assert first.nontrivial().bi == _py_nontrivial(second)
        assert first.size_pairs() == second.size_pairs()
        assert _state(first.manager) == _state(second.manager)


def _pure_scratch(monkeypatch):
    """Build every scratch manager on the pure-Python cores from now
    on, as ``REPRO_NATIVE=0`` does."""
    monkeypatch.setattr(_symbolic, "_spares", [])
    monkeypatch.setattr(_symbolic, "BDDManager", lambda: BDDManager(native=False))


def _summary(space):
    """What a caller reads off a space, and its manager's nodes."""
    m = space.manager
    n = m.num_nodes
    restricted = space.nontrivial()
    best = restricted.best_balanced_pair()
    return {
        "bi": space.bi,
        "pairs": space.size_pairs(),
        "all_pairs": space.size_pairs(prune_dominated=False),
        "symbolic": space.size_pairs(symbolic_prune=True),
        "nontrivial": restricted.bi,
        "best": best,
        "partitions": None if best is None else list(restricted.iter_partitions(*best)),
        "pick": restricted.pick_partition(),
        "nodes": (list(m._level[:n]), list(m._lo[:n]), list(m._hi[:n])),
    }


@pytest.mark.parametrize("gate", ["or", "and", "xor"])
@pytest.mark.parametrize("seed", [16, 17])
def test_matches_pure_python(monkeypatch, gate, seed):
    native = _summary(_symbolic.partition_space(_interval(seed, k=6), gate))
    _pure_scratch(monkeypatch)
    interval = _interval(seed, k=6, native=False)
    space = _symbolic.partition_space(interval, gate)
    assert not space.manager.native
    assert _summary(space) == native
