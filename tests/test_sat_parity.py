"""The C solver core against the pure-Python core, call by call.

Both cores must take the same steps: every ``add_clause``/``solve``
returns the same value, every satisfiable solve leaves the same model,
and the clause databases (added clauses in their current literal order,
then the learnt ones) end up equal.  The inputs are random incremental
sequences, a pigeonhole sequence long enough to restart and to rescale
the activities, and the call sequences the sat-cegar backend makes on a
few intervals.  Skipped when the native kernel is unavailable.
"""

import itertools
import random

import pytest

from repro.bdd import BDDManager
from repro.bdd import native as _native
from repro.bidec.backends.sat_cegar import SatCegarBackend
from repro.intervals import Interval
from repro.logic.truthtable import TruthTable
from repro.sat import Solver

pytestmark = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)


class Pair:
    """One Python-core and one C-core solver driven by the same calls."""

    def __init__(self):
        self.py = Solver(native=False)
        self.c = Solver(native=True)
        assert not self.py.native and self.c.native

    def call(self, name, *args):
        got_py = getattr(self.py, name)(*args)
        got_c = getattr(self.c, name)(*args)
        assert got_py == got_c, (name, args)
        if name == "solve" and got_py:
            assert self.py.model() == self.c.model(), args
        assert self.py.num_vars == self.c.num_vars
        return got_py

    def set_num_vars(self, value):
        self.py.num_vars = value
        self.c.num_vars = value

    def assert_same_database(self):
        assert self.py.clauses == self.c.clauses


def test_default_solver_runs_on_the_c_core():
    assert Solver().native


def _random_literals(rng, num_vars, count):
    return [rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(4))
def test_random_incremental_sequences(seed):
    """Clauses (with duplicates and tautologies), ``num_vars`` growth and
    solves under assumptions, interleaved at random."""
    rng = random.Random(seed)
    for _ in range(60):
        pair = Pair()
        num_vars = rng.randint(3, 40)
        for _ in range(50):
            roll = rng.random()
            if roll < 0.5:
                clause = _random_literals(rng, num_vars, rng.randint(1, 5))
                pair.call("add_clause", clause)
            elif roll < 0.55:
                clauses = [
                    _random_literals(rng, num_vars, rng.randint(1, 4))
                    for _ in range(rng.randint(0, 6))
                ]
                pair.call("add_clauses", clauses)
            elif roll < 0.6:
                num_vars += rng.randint(1, 3)
                pair.set_num_vars(num_vars)
            elif roll < 0.65:
                num_vars = pair.call("new_var")
            else:
                pair.call("solve", _random_literals(rng, num_vars, rng.randint(0, 4)))
        pair.assert_same_database()


def test_restarts_and_activity_rescale():
    """Three pigeonhole instances (7 pigeons, 6 holes), each guarded by
    an activation literal and then retired: about 1,660 conflicts per
    solve, so every solve restarts, and about 5,000 in all, so the
    activities pass 1e100 and are rescaled."""
    pair = Pair()
    for _ in range(3):
        active = pair.call("new_var")
        base = pair.py.num_vars

        def hole(pigeon, h):
            return base + pigeon * 6 + h + 1

        for pigeon in range(7):
            pair.call("add_clause", [-active] + [hole(pigeon, h) for h in range(6)])
        for h in range(6):
            for a, b in itertools.combinations(range(7), 2):
                pair.call("add_clause", [-active, -hole(a, h), -hole(b, h)])
        assert not pair.call("solve", [active])
        pair.call("add_clause", [-active])
    pair.assert_same_database()
    learnt = len(pair.py.clauses) - 3 * (7 + 6 * 21)
    # Without a rescale var_inc would be 0.95 ** -conflicts, and there
    # are at least as many conflicts as learnt clauses.
    assert pair.py._py._var_inc < 0.95 ** -learnt


def _intervals():
    """Exact and proper intervals over 4-6 variables: decomposable,
    XOR-structured and random functions."""
    intervals = []
    rng = random.Random(11)
    for num_vars in (4, 5, 6):
        manager = BDDManager(num_vars)
        order = list(range(num_vars))
        x = [manager.var(i) for i in range(num_vars)]
        xor_tail = x[2]
        for node in x[3:]:
            xor_tail = manager.apply_xor(xor_tail, node)
        and_or_xor = manager.apply_or(manager.apply_and(x[0], x[1]), xor_tail)
        intervals.append(Interval.exact(manager, and_or_xor))
        intervals.append(Interval.exact(manager, manager.apply_xor(x[0], xor_tail)))
        for _ in range(2):
            lower = TruthTable.random(num_vars, rng).to_bdd(manager, order)
            care = TruthTable.random(num_vars, rng).to_bdd(manager, order)
            slack = manager.apply_and(care, manager.apply_and(x[0], x[-1]))
            upper = manager.apply_or(lower, slack)
            intervals.append(Interval(manager, lower, upper))
    return intervals


class Recorder:
    """Logs each solver's calls, in order, while the backend runs."""

    def __init__(self, monkeypatch):
        self.logs = []
        recorder = self

        def wrap(name):
            original = getattr(Solver, name)

            def recorded(solver, *args):
                recorder._log(solver).append(
                    (name, tuple(_copy(arg) for arg in args))
                )
                return original(solver, *args)

            monkeypatch.setattr(Solver, name, recorded)

        for name in ("add_clause", "add_clauses", "new_var", "solve", "model"):
            wrap(name)
        num_vars = Solver.num_vars

        def set_num_vars(solver, value):
            recorder._log(solver).append(("set_num_vars", (value,)))
            num_vars.fset(solver, value)

        monkeypatch.setattr(Solver, "num_vars", property(num_vars.fget, set_num_vars))

    def _log(self, solver):
        log = getattr(solver, "_recorded", None)
        if log is None:
            log = solver._recorded = []
            self.logs.append(log)
        return log


def _copy(arg):
    if isinstance(arg, (list, tuple)):
        return [_copy(item) for item in arg]
    return arg


def test_cegar_solver_sequences(monkeypatch):
    """The abstraction solver and the OR, AND and XOR checker solvers the
    sat-cegar backend builds over each interval's SelectorCnf, replayed
    on both cores."""
    intervals = _intervals()
    with monkeypatch.context() as patch:
        recorder = Recorder(patch)
        backend = SatCegarBackend()
        for interval in intervals:
            backend.decompose_interval(interval)
    assert backend.stats["checks"] > 0
    assert len(recorder.logs) > len(intervals)
    for log in recorder.logs:
        pair = Pair()
        for name, args in log:
            if name == "set_num_vars":
                pair.set_num_vars(*args)
            else:
                pair.call(name, *args)
        pair.assert_same_database()
