"""BDD managers die by reference counting, without the cyclic GC.

A manager holds its node arrays and caches, so one that lingers until
the cyclic collector runs inflates peak memory.  None of the helpers
below may leave a cycle that holds the manager, also when an
``iter_models`` generator is abandoned half way: the walks keep
explicit stacks, and a recursive helper, whose nested function calls
itself through its closure cell, breaks that cycle when it returns.
"""

import gc
import weakref

import pytest

from repro.bdd import BDDManager
from repro.bdd.compose import vector_compose
from repro.bdd.count import iter_models, sat_count, shortest_cube
from repro.logic.sop import isop
from repro.logic.truthtable import TruthTable
from repro.sat.cnf import CnfBuilder, encode_bdd

CALLS = {
    "plain": lambda m, f: m.apply_xor(f, m.var(1)),
    "vector_compose": lambda m, f: vector_compose(m, f, {0: m.var(2)}),
    "iter_models": lambda m, f: list(iter_models(m, f, [0, 1, 2])),
    "iter_models_abandoned": lambda m, f: next(iter_models(m, f, [0, 1, 2])),
    "isop": lambda m, f: isop(m, f, f),
    "sat_count": lambda m, f: sat_count(m, f),
    "shortest_cube": lambda m, f: shortest_cube(m, f),
    "encode_bdd": lambda m, f: encode_bdd(m, f, {0: 1, 1: 2, 2: 3}, CnfBuilder()),
    "truth_table": lambda m, f: TruthTable(0b10010110, 3).to_bdd(m, [0, 1, 2]),
}


@pytest.fixture
def gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_manager_freed_on_del(name, gc_off):
    manager = BDDManager(3)
    x0, x1, x2 = (manager.var(i) for i in range(3))
    f = manager.apply_or(manager.apply_and(x0, x1), x2)
    CALLS[name](manager, f)
    ref = weakref.ref(manager)
    del manager
    assert ref() is None
