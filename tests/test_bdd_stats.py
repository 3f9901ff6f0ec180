"""Each cache counter is pinned to its table, on both kernels.

For each of the manager's eight caches one operation misses exactly
once and its repeat hits exactly once; no other table's counter moves,
under either the ``ManagerStats`` attribute or the obs key."""

import pytest

from repro.bdd import BDDManager, and_exists, exists, forall
from repro.bdd import native as _native

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
