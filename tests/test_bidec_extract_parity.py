"""The kernel's ISOP walk and the extraction programs against their
Python twins.

``bdd_isop`` runs the Minato–Morreale recursion of ``logic.sop.isop`` as
one kernel walk, and the minimised OR/AND extraction of
``bidec.extract`` is a step program per gate that runs it as one step.
Each must make the same public-entry calls, in the same order, as its
Python counterpart: the explicit-stack twin ``sop._py_isop`` and the
Python interpreter of the programs.  Each parity test runs the kernel on
one native manager and the Python side on a second native manager with
the same history, and compares results, cubes in order, node arrays, the
control block, the unique table, the op and quantify caches, the
interned cubes, the statistics and ``cache_capacities()``.  Each manager
starts at its small initial capacities, so the walk and the program grow
tables mid-way and restart there.

The twin is held to the recursion it replaced (kept here as
``_recursive_isop``), and the results of both kernels to those of
pure-Python managers.  A sweep puts each op cache just short of its
doubling threshold at every offset, so each entry-time op-cache check
of the program fires somewhere and must fire where the Python
interpreter's public call does."""

import importlib
import random
from contextlib import contextmanager

import pytest

from repro.bdd import native as _native
from repro.bdd import program as _program
from repro.bdd.manager import _C_MASK, _C_USED, _TABLE_INDEX, BDDManager, FALSE, TRUE
from repro.bidec.symbolic import and_partition_space, or_partition_space
from repro.intervals import Interval
from repro.logic import sop
from repro.logic.sop import Cube

from test_bdd_loop_parity import _random_function, _state
from test_bidec_space_parity import python_interpreter

_extract = importlib.import_module("repro.bidec.extract")

native_only = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)

NUM_VARS = 9


def _recursive_isop(manager, lower, upper):
    """``logic.sop.isop`` as the recursion it was before the explicit
    stack: the reference the twin must equal, cubes and node."""
    if not manager.leq(lower, upper):
        raise ValueError("inconsistent interval: lower is not <= upper")
    cache = {}

    def recurse(l, u):
        if l == FALSE:
            return (), FALSE
        if u == TRUE:
            return (Cube(()),), TRUE
        key = (l, u)
        hit = cache.get(key)
        if hit is not None:
            return hit
        level_l = manager.level(l)
        level_u = manager.level(u)
        var = min(level_l, level_u)
        l0, l1 = (manager.lo(l), manager.hi(l)) if level_l == var else (l, l)
        u0, u1 = (manager.lo(u), manager.hi(u)) if level_u == var else (u, u)
        cover0, g0 = recurse(manager.apply_and(l0, manager.negate(u1)), u0)
        cover1, g1 = recurse(manager.apply_and(l1, manager.negate(u0)), u1)
        l_rest = manager.apply_or(
            manager.apply_and(l0, manager.negate(g0)),
            manager.apply_and(l1, manager.negate(g1)),
        )
        cover_rest, g_rest = recurse(l_rest, manager.apply_and(u0, u1))
        cubes = (
            tuple(cube.with_literal(var, False) for cube in cover0)
            + tuple(cube.with_literal(var, True) for cube in cover1)
            + cover_rest
        )
        g = manager.apply_or(manager.ite(manager.var(var), g1, g0), g_rest)
        cache[key] = (cubes, g)
        return cubes, g

    cubes, g = recurse(lower, upper)
    return list(cubes), g


def _intervals(m, seed, count=6):
    """The history: ``count`` intervals over random functions, some
    exact, some with don't cares."""
    rng = random.Random(seed)
    variables = list(range(NUM_VARS))
    out = []
    for index in range(count):
        f = _random_function(m, rng, variables, terms=rng.randint(2, 7))
        if index % 3 == 0:
            out.append((f, f))
            continue
        dc = _random_function(m, rng, variables, terms=3)
        out.append((m.apply_and(f, m.negate(dc)), m.apply_or(f, dc)))
    return out


def _managers(seed, kernels=(True, True)):
    """Managers (native when True) with the same history, and its
    intervals."""
    managers = [BDDManager(NUM_VARS, native=native) for native in kernels]
    histories = [_intervals(m, seed) for m in managers]
    assert all(h == histories[0] for h in histories)
    return managers, histories[0]


@contextmanager
def _restarts(m, record, seen):
    """Append ``record(walk)`` to ``seen`` at every growth restart of
    ``m`` in the block."""
    real = m._grow
    m._grow = lambda code: (seen.append(record(m._walk)), real(code))[1]
    try:
        yield
    finally:
        del m._grow


def _twin_isop(m, lower, upper):
    records, root = sop._py_isop(m, lower, upper)
    return sop._expand(records, root), records[root][0]


@native_only
class TestIsopParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_walk_equals_twin(self, seed):
        (m1, m2), intervals = _managers(seed)
        open_frames = []
        for lower, upper in intervals:
            with _restarts(m1, lambda walk: walk.stack_len, open_frames):
                got = sop._isop(m1, lower, upper, True)
            assert got == _twin_isop(m2, lower, upper)
            assert _state(m1) == _state(m2)
        # The manager starts small: the walk restarts with frames open.
        assert any(open_frames)

    @pytest.mark.parametrize("seed", range(4))
    def test_node_only_walk_equals_twin(self, seed):
        (m1, m2), intervals = _managers(seed)
        for lower, upper in intervals:
            assert sop._isop(m1, lower, upper, False) == (
                [],
                _twin_isop(m2, lower, upper)[1],
            )
        assert _state(m1) == _state(m2)

    def test_inconsistent_interval(self):
        (m1, m2), intervals = _managers(1)
        lower, upper = intervals[1]
        assert lower != upper
        with pytest.raises(ValueError, match="inconsistent"):
            sop.isop(m1, upper, lower)
        with pytest.raises(ValueError, match="inconsistent"):
            _twin_isop(m2, upper, lower)
        assert _state(m1) == _state(m2)

    def test_stray_node_raises(self):
        (m,), _ = _managers(2, kernels=(True,))
        for lower, upper in ((m.num_nodes, TRUE), (FALSE, -1), (m.num_nodes + 7, m.num_nodes)):
            with pytest.raises(ValueError, match="not made by this manager"):
                sop._isop(m, lower, upper, True)

    @pytest.mark.parametrize("seed", range(4))
    def test_kernels_agree(self, seed):
        """``isop`` reads the same cover and node on both kernels."""
        managers, intervals = _managers(seed, (True, False))
        for lower, upper in intervals:
            covers = [sop.isop(m, lower, upper) for m in managers]
            assert covers[0] == covers[1]
        assert managers[0].num_nodes == managers[1].num_nodes


@pytest.mark.parametrize("native", [False, pytest.param(True, marks=native_only)])
@pytest.mark.parametrize("seed", range(6))
def test_twin_equals_recursion(native, seed):
    (m1, m2), intervals = _managers(seed, (native, native))
    for lower, upper in intervals:
        assert _twin_isop(m1, lower, upper) == _recursive_isop(m2, lower, upper)
    assert _state(m1) == _state(m2)


def _partitions(interval, gate, limit=4):
    """Up to ``limit`` non-trivial partitions of the best sizes, then the
    trivial one (both supports whole) and a two-variable one, which the
    tests below need to be infeasible at least once."""
    build = or_partition_space if gate == "or" else and_partition_space
    space = build(interval).nontrivial()
    found = []
    best = space.best_balanced_pair()
    if best is not None:
        found.extend(space.iter_partitions(*best, limit=limit))
    support = sorted(interval.support())
    found.append((set(support), set(support)))
    found.append(({support[0]}, set(support[1:2])) if len(support) > 1 else (set(), set()))
    return found


def _kernel_extract(gate, interval, support1, support2):
    extractor = _extract.extract_or if gate == "or" else _extract.extract_and
    try:
        pair = extractor(interval, support1, support2)
    except _extract.InfeasiblePartition:
        return None
    assert pair.gate == gate
    return pair.g1, pair.g2


def _py_extract(gate, interval, support1, support2):
    with python_interpreter():
        return _kernel_extract(gate, interval, support1, support2)


@native_only
class TestExtractParity:
    @pytest.mark.parametrize("gate", ["or", "and"])
    @pytest.mark.parametrize("seed", range(6))
    def test_entry_equals_composition(self, gate, seed):
        (m1, m2), intervals = _managers(seed)
        stages = []
        outcomes = []
        for lower, upper in intervals:
            interval1, interval2 = Interval(m1, lower, upper), Interval(m2, lower, upper)
            # Building the spaces is part of both histories.
            partitions = _partitions(interval1, gate)
            assert partitions == _partitions(interval2, gate)
            for support1, support2 in partitions:
                with _restarts(m1, lambda walk: walk.stage, stages):
                    got = _kernel_extract(gate, interval1, support1, support2)
                assert got == _py_extract(gate, interval2, support1, support2)
                assert _state(m1) == _state(m2)
                outcomes.append(got is not None)
        assert any(outcomes) and not all(outcomes)
        # The managers start small: the program restarts in at least three
        # of its steps, on seeds 0-2 inside the ISOP step too.
        program, _ = _extract._EXTRACTIONS[gate, True]
        ops = [program.steps[stage][0] for stage in stages]
        assert len(set(stages)) >= 3
        assert seed > 2 or "isop" in ops

    def test_stray_node_raises(self):
        (m,), _ = _managers(3, kernels=(True,))
        for gate in ("or", "and"):
            program, _ = _extract._EXTRACTIONS[gate, True]
            for lower, upper in ((m.num_nodes, TRUE), (FALSE, -2)):
                with pytest.raises(ValueError, match="not made by this manager"):
                    _program.run(m, program, (lower, upper), ([0, 1], [0, 1]))

    @pytest.mark.parametrize("gate", ["or", "and"])
    @pytest.mark.parametrize("seed", range(3))
    def test_kernels_agree(self, gate, seed):
        """``extract`` reads the same pair on native and pure-Python
        managers."""
        managers, intervals = _managers(seed, (True, False))
        for lower, upper in intervals:
            intervals_ = [Interval(m, lower, upper) for m in managers]
            partitions = _partitions(intervals_[0], gate)
            assert partitions == _partitions(intervals_[1], gate)
            for support1, support2 in partitions:
                pairs = [
                    _extract.extract(interval, gate, support1, support2)
                    for interval in intervals_
                ]
                assert pairs[0] == pairs[1]
        assert managers[0].num_nodes == managers[1].num_nodes


@native_only
class TestCheckPlacement:
    """An op cache that must grow grows before the call the public entry
    would grow it at.  Each run sets the cache's live-entry count on both
    managers ``offset`` entries short of its doubling threshold, so over
    the offsets the threshold is crossed inside every call that fills
    that cache, and the next call's entry-time check must fire."""

    @staticmethod
    def _interval_and_partition(gate):
        """A feasible partition of an interval with don't cares, whose
        bounds' negations the history has not cached."""
        (m,), intervals = _managers(4, kernels=(True,))
        for lower, upper in intervals:
            if lower == upper:
                continue
            interval = Interval(m, lower, upper)
            for support1, support2 in _partitions(interval, gate):
                if _kernel_extract(gate, interval, support1, support2):
                    return lower, upper, support1, support2
        raise AssertionError("no feasible partition")

    @pytest.mark.parametrize("table", ["and", "or", "not", "ite"])
    @pytest.mark.parametrize("gate", ["or", "and"])
    def test_every_check_lands(self, gate, table):
        lower, upper, support1, support2 = self._interval_and_partition(gate)
        index = _TABLE_INDEX[table]
        # Up to the first offset past the run's last insert into the
        # cache, where the cache no longer grows.
        for offset in range(1000):
            (m1, m2), _ = _managers(4)
            for m in (m1, m2):
                mask = m._ctrl[_C_MASK + index]
                m._ctrl[_C_USED + index] = (mask + 1) // 2 - 1 - offset
            got = _kernel_extract(gate, Interval(m1, lower, upper), support1, support2)
            assert got == _py_extract(gate, Interval(m2, lower, upper), support1, support2)
            assert _state(m1) == _state(m2), offset
            if m1._ctrl[_C_MASK + index] == mask:
                break
        assert 0 < offset < 999
