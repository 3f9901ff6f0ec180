"""Growth in place: on a reset manager whose arrays already hold the
room, every kernel entry doubles its tables in C and carries on.

A reused scratch manager keeps its arrays' capacity across
:meth:`~BDDManager.reset`, so most doublings the growth policy asks for
need no longer array.  The kernel makes those itself — the node
capacity, the unique table's rehash, an op cache's drop, a quantify
cache's rehash, and the allocation of all op or all quantify caches at
their initial size while their masks are 0 — and re-enters the step the
Python restart would re-enter.  Each case runs once on a spare (a
manager that ran the same case, then was reset) and once on a fresh
manager: the spare makes exactly one call into the library and grows
nothing from Python, the fresh manager still restarts through Python,
and both leave the same registers, node arrays, control block, unique
table, caches, statistics, capacities and interned cubes.  The flow's
programs match the Python interpreter too, and the one-step program
and the primitive match pure-Python managers."""

import importlib
import random
from array import array

import pytest

from repro.bdd import native as _native
from repro.bdd import program as _program
from repro.bdd.compose import transfer_multi
from repro.bdd.manager import (
    _C_MASK,
    _C_USED,
    _NODE_INIT,
    _OPCACHE_INIT,
    _QCACHE_INIT,
    _T_AND,
    _T_AE,
    _T_EX,
    _T_FA,
    _TABLES,
    _UNIQUE_INIT,
    BDDManager,
    FALSE,
)
from repro.bdd.program import Program
from repro.bidec import symbolic as _symbolic
from repro.bidec.symbolic import PartitionSpace
from repro.intervals import Interval
from repro.reach import TransitionSystem
from repro.reach import image as _image
from repro.reach import traversal as _traversal

from strategies import small_circuit
from test_bdd_reset import _prefixes
from test_bidec_space_parity import _state, python_interpreter

_extract = importlib.import_module("repro.bidec.extract")

pytestmark = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)

#: Function variables of the space cases.
N = 7


def _random_function(m, rng, variables, terms, width=4):
    f = FALSE
    for _ in range(terms):
        cube = {v: rng.random() < 0.5 for v in rng.sample(variables, width)}
        f = m.apply_or(f, m.cube(cube))
    return f


def _source(seed=11, k=N):
    """An interval with don't cares in a manager of its own: the source
    of the space bodies' transfers, which only read it."""
    m = BDDManager(k)
    rng = random.Random(seed)
    f = _random_function(m, rng, list(range(k)), terms=k)
    dc = _random_function(m, rng, list(range(k)), terms=2)
    return Interval.with_dont_cares(m, f, dc)


SOURCE = _source()
VARIABLES = sorted(SOURCE.support())


def _space(m):
    """The OR space of SOURCE built on ``m``."""
    layout = _symbolic._layout(len(VARIABLES), False)
    m.declare_vars(layout.names)
    bi = _symbolic._or_body(SOURCE, VARIABLES, m, layout, None)
    return PartitionSpace(
        "or", m, bi, tuple(VARIABLES), layout.c1_vars, layout.c2_vars, layout.x_vars
    )


def _body(with_y):
    def history(m):
        layout = _symbolic._layout(len(VARIABLES), with_y)
        m.declare_vars(layout.names)
        return m, layout

    def call(ctx):
        m, layout = ctx
        if with_y:
            xs, ys = layout.x_vars, layout.y_vars
            vectors = (VARIABLES, xs, ys, layout.c1_vars, layout.c2_vars, xs + ys)
            return _program.run(
                m, _symbolic._XOR_BODY, (SOURCE.lower, SOURCE.upper), vectors, SOURCE.manager
            )
        vectors = (VARIABLES, layout.x_vars, layout.c1_vars, layout.c2_vars)
        return _program.run(
            m, _symbolic._OR_BODY, (SOURCE.lower, SOURCE.upper, 400), vectors, SOURCE.manager
        )

    return history, call


def _pairs(space):
    m = space.manager
    bits = max(1, len(VARIABLES).bit_length())
    e1, e2 = m.new_vars(bits), m.new_vars(bits)
    return space._analyse("pairs", (e1, e2, space.c1_vars + space.c2_vars, e1 + e2))


#: The partition the extraction cases extract: g1 drops the first two
#: variables of the interval's support, g2 the last two.
def _interval_history(m):
    m.declare_vars([f"v{i}" for i in range(9)])
    rng = random.Random(5)
    f = _random_function(m, rng, list(range(9)), terms=9)
    dc = _random_function(m, rng, list(range(9)), terms=3)
    return Interval.with_dont_cares(m, f, dc)


def _extraction(gate):
    def call(interval):
        support = sorted(interval.support())
        support1, support2 = set(support[2:]), set(support[:-2])
        program, _ = _extract._EXTRACTIONS[gate, True]
        vectors = (sorted(set(support) - support2), sorted(set(support) - support1))
        return _program.run(interval.manager, program, (interval.lower, interval.upper), vectors)

    return _interval_history, call


def _reach_history(m):
    ts = TransitionSystem(small_circuit(5, latches=8), manager=m)
    schedule = _traversal._schedule(ts, "early")
    init = ts.initial_states()
    return m, schedule, init


def _reach_call(ctx):
    m, schedule, init = ctx
    return _image.reach_step(m, schedule, init, init)


def _transfer_roots(source):
    return [
        _random_function(source, random.Random(seed), list(range(16)), terms=8)
        for seed in range(3)
    ]


TRANSFER_SOURCE = BDDManager(16)
TRANSFER_ROOTS = _transfer_roots(TRANSFER_SOURCE)


def _transfer_history(m):
    m.declare_vars([f"t{i}" for i in range(16)])
    return m


def _transfer_call(m):
    var_map = {v: 15 - v for v in range(16)}
    return transfer_multi(TRANSFER_SOURCE, TRANSFER_ROOTS, m, var_map)


def _primitive_history(m):
    m.declare_vars([f"v{i}" for i in range(14)])
    rng = random.Random(3)
    return m, [_random_function(m, rng, list(range(14)), terms=6) for _ in range(2)]


def _primitive_call(ctx):
    m, (f, g) = ctx
    return m.apply_xor(f, g)


#: name -> (history, the call measured, the entries it may call, whether
#: the Python interpreter is its reference).
CASES = {
    "or_body": (*_body(False), "bdd_run", True),
    "xor_body": (*_body(True), "bdd_run", True),
    "nontrivial": (_space, lambda space: space._analyse("nontrivial"), "bdd_run", True),
    "size_pairs": (_space, _pairs, "bdd_run", True),
    "extract_or": (*_extraction("or"), "bdd_run", True),
    "extract_and": (*_extraction("and"), "bdd_run", True),
    "reach_step": (_reach_history, _reach_call, "bdd_run", True),
    "transfer": (_transfer_history, _transfer_call, "bdd_run", False),
    "apply_xor": (_primitive_history, _primitive_call, "bdd_apply", False),
}


class CountingLib:
    """The kernel library, recording the name of every call into it."""

    def __init__(self, lib):
        self.lib = lib
        self.names = []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        return lambda *args: (self.names.append(name), fn(*args))[1]


def _counted(m, call):
    """Run ``call`` with ``m``'s library and its Python growth path
    counted.  Returns the result, the entries called and the growth codes
    ``_grow`` saw; the manager's call counter must agree."""
    real_lib, real_grow = m._lib, m._grow
    lib = m._lib = CountingLib(real_lib)
    grows = []
    m._grow = lambda code: (grows.append(code), real_grow(code))[1]
    before = m._calls[0]
    try:
        result = call()
    finally:
        m._lib = real_lib
        del m._grow
    assert m._calls[0] - before == len(lib.names) - lib.names.count("bdd_walk_clear")
    return result, lib.names, grows


def _spare(history, call):
    """A manager that ran the case once, then was reset: its arrays hold
    the room the case needs."""
    m = BDDManager(native=True)
    call(history(m))
    return m.reset()


def _cubes(m):
    return [(c.cube_id, sorted(c.vars), c.max_level) for c in m._cube_table.values()]


def _same_life(spare, fresh):
    """Everything but the arrays' lengths (and the call counter) equal."""
    assert list(spare._ctrl) == list(fresh._ctrl)
    tables, zero_tail = _prefixes(spare)
    assert zero_tail
    assert tables == _prefixes(fresh)[0]
    assert list(spare._stat_arr) == list(fresh._stat_arr)
    assert spare.cache_capacities() == fresh.cache_capacities()
    assert _cubes(spare) == _cubes(fresh)
    assert spare._var_names == fresh._var_names


def _nodes(m):
    n = m.num_nodes
    return list(m._level[:n]), list(m._lo[:n]), list(m._hi[:n])


@pytest.mark.parametrize("name", sorted(CASES))
def test_spare_grows_in_place(name):
    history, call, entry, interpreted = CASES[name]
    spare = _spare(history, call)
    ctx = history(spare)
    got, names, grows = _counted(spare, lambda: call(ctx))
    assert names == [entry] and grows == []

    fresh = BDDManager(native=True)
    ctx = history(fresh)
    want, names, grows = _counted(fresh, lambda: call(ctx))
    assert grows and names.count(entry) == 1 + len(grows)
    assert got == want
    _same_life(spare, fresh)

    if interpreted:
        reference = BDDManager(native=True)
        ctx = history(reference)
        with python_interpreter():
            assert call(ctx) == want
        assert _state(reference) == _state(fresh)
    else:
        reference = BDDManager(native=False)
        ctx = history(reference)
        if name == "transfer":
            source = BDDManager(16, native=False)
            roots = _transfer_roots(source)
            assert roots == TRANSFER_ROOTS
            result = transfer_multi(source, roots, reference, {v: 15 - v for v in range(16)})
        else:
            result = call(ctx)
        assert result == want
        assert _nodes(reference) == _nodes(fresh)


def _thrash(room):
    """``_thrash_one_apply`` of ``test_bdd_kernel_tables`` with AND-cache
    arrays of ``room`` entries behind its 4-slot mask: one apply whose
    recursion evicts more entries than the cache holds, so the thrash
    escape doubles the cache mid-call.  Returns the result, the entries
    called, the growth codes seen by Python and the manager."""
    m = BDDManager(14, native=True)
    f = g = FALSE
    for i in range(13):
        f = m.apply_xor(f, m.var(i))
        g = m.apply_xor(g, m.var(i + 1))
    m._and_k = array("q", bytes(8 * room))
    m._and_v = array("q", bytes(8 * room))
    m._ctrl[_C_MASK + _T_AND] = 3
    m._ctrl[_C_USED + _T_AND] = 0
    m._point("and_k", "and_v")
    return (*_counted(m, lambda: m.apply_and(f, g)), m)


def test_thrash_escape_doubles_in_place():
    got, names, grows, spare = _thrash(room=1 << 10)
    assert names == ["bdd_apply"] and grows == []
    want, names, grows, tight = _thrash(room=4)
    assert grows and set(grows) == {-6 - _T_AND}
    assert names == ["bdd_apply", "bdd_grow_table"] * len(grows) + ["bdd_apply"]
    assert got == want
    assert spare.cache_capacities()["and"] > 4
    _same_life(spare, tight)


_EXISTS = Program((("exists", 1, 0, 0),), 2, (0,))


def _quantified(m):
    m.declare_vars([f"v{i}" for i in range(6)])
    f = _random_function(m, random.Random(9), list(range(6)), terms=5, width=3)
    return _program.run(m, _EXISTS, (f,), ([1, 3],))[1][1]


def test_quantify_caches_allocated_in_place_after_reset():
    """After ``reset()`` the quantify caches' masks are 0 while their
    arrays are kept: the first quantification allocates all three in
    C, as a fresh manager allocates them from Python."""
    spare = BDDManager(native=True)
    _quantified(spare)
    spare.reset()
    assert all(spare._ctrl[_C_MASK + t] == 0 for t in (_T_EX, _T_FA, _T_AE))
    got, names, grows = _counted(spare, lambda: _quantified(spare))
    assert "bdd_run" in names and grows == []
    assert all(spare._ctrl[_C_MASK + t] == _QCACHE_INIT - 1 for t in (_T_EX, _T_FA, _T_AE))
    fresh = BDDManager(native=True)
    want, _, grows = _counted(fresh, lambda: _quantified(fresh))
    assert -6 - _T_EX in grows
    assert got == want
    _same_life(spare, fresh)


def test_cleared_caches_go_back_to_python():
    """``clear_caches()`` drops the cache arrays: a growth that needs one
    returns to Python, which allocates it, and the run ends as on a
    manager that made every growth from Python."""
    history, call, _, _ = CASES["or_body"]
    spare = _spare(history, call)
    ctx = history(spare)
    spare.clear_caches()
    assert spare._and_k is None and spare._ex_k is None
    got, names, grows = _counted(spare, lambda: call(ctx))
    assert {-6 - _T_AND, -6 - _T_FA} <= set(grows)
    assert names.count("bdd_run") == 1 + len(grows)
    fresh = BDDManager(native=True)
    ctx = history(fresh)
    fresh.clear_caches()
    want, _, _ = _counted(fresh, lambda: call(ctx))
    assert got == want
    _same_life(spare, fresh)


def test_room_follows_the_arrays():
    """``bdd_state.room`` holds one slot per array group — the node
    arrays, the unique table, then each cache table — with the group's
    array length, 0 while a cache is unallocated, and every re-pointing
    keeps it current."""
    m = BDDManager(4, native=True)
    fixed = [_NODE_INIT, _UNIQUE_INIT]
    assert list(m._st.room) == fixed + [0] * len(_TABLES)
    f = m.apply_and(m.var(0), m.var(1))
    assert list(m._st.room) == fixed + [_OPCACHE_INIT] * _T_EX + [0] * (len(_TABLES) - _T_EX)
    _program.run(m, _EXISTS, (f,), ([0],))
    assert list(m._st.room) == fixed + [_OPCACHE_INIT] * _T_EX + [_QCACHE_INIT] * (
        len(_TABLES) - _T_EX
    )
    m.clear_caches()
    assert list(m._st.room) == fixed + [0] * len(_TABLES)
