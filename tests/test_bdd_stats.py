"""Each cache counter is pinned to its table, on both kernels.

For each of the manager's eight caches one operation misses exactly
once and its repeat hits exactly once; no other table's counter moves,
under either the ``ManagerStats`` attribute or the obs key.  The kernel
call counter reads an exact count of the crossings into C."""

import pytest

from repro import obs
from repro.bdd import BDDManager, and_exists, exists, forall
from repro.bdd import native as _native
from repro.bidec.extract import extract_and, extract_or
from repro.intervals import Interval
from repro.logic.sop import isop

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

#: Per table: the operation on a fresh three-variable manager ``m``.  Its
#: operands are made first (making them may use other tables); the
#: operation itself makes one miss in its table and nowhere else, because
#: every subproblem below the top is a terminal case.
OPERATIONS = {
    "and": lambda m: (m.apply_and, m.var(0), m.var(1)),
    "or": lambda m: (m.apply_or, m.var(0), m.var(1)),
    "xor": lambda m: (m.apply_xor, m.var(0), m.nvar(0)),
    "not": lambda m: (m.negate, m.var(0)),
    "ite": lambda m: (m.ite, m.var(0), m.var(1), m.var(2)),
    "exists": lambda m: (exists, m, m.apply_and(m.var(0), m.var(1)), [0]),
    "forall": lambda m: (forall, m, m.apply_or(m.var(0), m.var(1)), [0]),
    "and_exists": lambda m: (and_exists, m, m.var(0), m.var(1), [0]),
}


def _counters(stats):
    by_attribute = {
        f"{table}_{kind}": getattr(stats, f"{table}_{kind}")
        for table in OPERATIONS
        for kind in ("hits", "misses")
    }
    snapshot = stats.as_dict()
    assert by_attribute == {
        f"{table}_{kind}": snapshot[f"cache.{table}.{kind}"]
        for table in OPERATIONS
        for kind in ("hits", "misses")
    }
    return {name: value for name, value in by_attribute.items() if value}


@pytest.mark.parametrize("native", KERNELS)
@pytest.mark.parametrize("table", sorted(OPERATIONS))
def test_miss_then_hit_counts_in_its_table_only(native, table):
    m = BDDManager(3, native=native)
    operation, *operands = OPERATIONS[table](m)
    stats = m.enable_stats()
    first = operation(*operands)
    assert _counters(stats) == {f"{table}_misses": 1}
    assert operation(*operands) == first
    assert _counters(stats) == {f"{table}_misses": 1, f"{table}_hits": 1}


@pytest.mark.parametrize("native", KERNELS)
def test_kernel_calls(native):
    """One count per call into the kernel, a growth restart included;
    pure-Python managers read 0, and the stats array has no slot for
    it."""
    m = BDDManager(4, native=native)
    x = [m.var(i) for i in range(4)]
    stats = m.enable_stats()
    calls = []
    # The first AND's entry asks for the op caches, then runs again.
    f = m.apply_and(x[0], x[1])
    calls.append(stats.kernel_calls)
    # An OR, then ∃ (the quantify caches are allocated in Python).
    exists(m, m.apply_or(f, x[2]), [0])
    calls.append(stats.kernel_calls)
    # A fold of three operands is one call.
    m.conjoin([x[1], x[2], x[3]])
    calls.append(stats.kernel_calls)
    assert calls == ([2, 4, 5] if native else [0, 0, 0])
    assert stats.as_dict()["kernel_calls"] == calls[-1]
    assert len(m._stat_arr) == len(BDDManager(native=native)._stat_arr)


@pytest.mark.parametrize("native", KERNELS)
def test_kernel_calls_of_isop_and_extraction(native):
    """An ISOP is one kernel call and an OR extraction one call plus
    the restart that allocates the quantify caches; an AND extraction is
    one call, then its pair's check: an AND and two ``leq`` (a NOT and
    an OR each).  Pure-Python managers read 0."""
    m = BDDManager(4, native=native)
    x = [m.var(i) for i in range(4)]
    f = m.apply_or(m.apply_and(x[0], x[1]), m.apply_and(x[2], x[3]))
    h = m.apply_and(m.apply_or(x[0], x[1]), m.apply_or(x[2], x[3]))
    dc = m.apply_and(x[0], m.apply_and(x[2], m.negate(x[1])))
    for_or = Interval(m, m.apply_and(f, m.negate(dc)), m.apply_or(f, dc))
    for_and = Interval(m, m.apply_and(h, m.negate(dc)), m.apply_or(h, dc))
    stats = m.enable_stats()
    calls = []
    isop(m, for_or.lower, for_or.upper)
    calls.append(stats.kernel_calls)
    extract_or(for_or, {0, 1}, {2, 3})
    calls.append(stats.kernel_calls)
    extract_and(for_and, {0, 1}, {2, 3})
    calls.append(stats.kernel_calls)
    assert calls == ([1, 3, 9] if native else [0, 0, 0])


@pytest.mark.skipif(_native.kernel() is None, reason="native kernel unavailable")
def test_kernel_calls_reach_the_report():
    obs.reset()
    try:
        with obs.scope():
            m = BDDManager(2, native=True)
            m.apply_and(m.var(0), m.var(1))
            m.reset()  # the clear is the new life's first call
        assert obs.report()["counters"]["bdd.kernel_calls"] == 3
    finally:
        obs.reset()
