"""The reachability step program on the kernel against the Python
interpreter.

One fixpoint iteration of ``forward_reachable`` — the fold of the
frontier through the schedule's conjuncts, with ``and_exists`` wherever
variables leave the product, the rename to present-state variables, and
the frontier and reached-set updates — is the schedule's step program,
one ``bdd_run`` call on a native manager.  Each parity test runs it on
one native manager and under the Python interpreter, which makes the
public calls, on a second native manager with the same history, and
compares results, node arrays, the control block, the unique table, the
op and quantify caches, the interned cubes, the statistics and
``cache_capacities()``.  Each manager starts at its small initial
capacities, so the run grows tables mid-fold and mid-rename and
restarts there.

The rest holds the fixpoint to its contracts on both kernels: the
limits stop at the same iteration, the early and monolithic schedules
reach the same set, and the schedule quantifies every variable at the
last conjunct that mentions it."""

import pytest
from hypothesis import given

from repro.bdd import native as _native
from repro.bdd.manager import BDDManager, FALSE
from repro.benchgen import iscas_analog
from repro.engine.governor import ResourceGovernor
from repro.reach import (
    TransitionSystem,
    forward_reachable,
    image_schedule,
    select_latch_partitions,
)
from repro.reach import image as _image
from repro.reach import traversal as _traversal
from strategies import circuits, small_circuit
from test_bdd_loop_parity import _state
from test_bidec_space_parity import python_interpreter

native_only = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)

#: The circuits of the ``iscas_sat`` flowbench workload.
ISCAS_SAT = ("s344", "s526", "s713", "s838", "s953", "s1269")


def _systems(network, latches=None):
    """Two systems over ``network`` on native managers with the same
    history."""
    return [
        TransitionSystem(network, latches, manager=BDDManager(native=True))
        for _ in range(2)
    ]


def _phase(schedule, stage):
    """The part of an iteration the program step ``stage`` belongs to:
    0 the fold, 1 the rename, 2 the frontier and reached-set updates."""
    count = len(schedule.parts)
    return 0 if stage < count else 1 if stage == count else 2


def _run_pair(network, latches=None, strategy="early"):
    """Run the fixpoint of ``latches`` step by step on the kernel on one
    system and under the Python interpreter on the other, comparing
    every step's sets and the managers at the end.  Returns the
    iteration count and the phase (see :func:`_phase`) of every growth
    restart of the kernel run."""
    systems = _systems(network, latches)
    schedules = [_traversal._schedule(ts, strategy) for ts in systems]
    (m1, m2) = [ts.manager for ts in systems]
    assert _state(m1) == _state(m2)
    stages = []
    grow = m1._grow

    def counting(code):
        stages.append(_phase(schedules[0], m1._walk.stage))
        return grow(code)

    m1._grow = counting
    reached = frontier = systems[0].initial_states()
    assert reached == systems[1].initial_states()
    iterations = 0
    while frontier != FALSE:
        got = _image.reach_step(m1, schedules[0], frontier, reached)
        with python_interpreter():
            want = _image.reach_step(m2, schedules[1], frontier, reached)
        assert got == want, iterations
        frontier, reached = got
        iterations += 1
    del m1._grow
    assert _state(m1) == _state(m2)
    assert reached == forward_reachable(systems[1], strategy).reached
    return iterations, stages


@native_only
class TestEntryParity:
    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_small_circuits(self, seed):
        iterations, _ = _run_pair(small_circuit(seed))
        assert iterations > 1

    @pytest.mark.parametrize("strategy", ["early", "monolithic"])
    def test_strategies(self, strategy):
        iterations, stages = _run_pair(small_circuit(5, latches=8), None, strategy)
        assert iterations > 1 and stages

    @given(circuits(max_latches=10))
    def test_generated_circuits(self, network):
        _run_pair(network)

    @pytest.mark.parametrize("name", ISCAS_SAT)
    def test_iscas_sat_partitions(self, name):
        """Every partition of the circuit, as the flow selects them (at
        its default partition size).  On every circuit the runs restart
        in the fold and in the updates, and all but s953 in the rename
        too."""
        network = iscas_analog(name)
        stages = set()
        for partition in select_latch_partitions(network, max_size=16):
            _, restarts = _run_pair(network, partition.latches)
            stages.update(restarts)
        assert stages == ({0, 2} if name == "s953" else {0, 1, 2})

    def test_stray_node_raises(self):
        ts = _systems(small_circuit(1))[0]
        schedule = _traversal._schedule(ts, "early")
        init = ts.initial_states()
        with pytest.raises(ValueError):
            _image.reach_step(ts.manager, schedule, ts.manager.num_nodes, init)
        with pytest.raises(ValueError):
            _image.reach_step(ts.manager, schedule, init, -1)

    def test_one_kernel_call_per_iteration(self):
        """Each iteration crosses into C once (``bdd_run``), plus one call
        per growth restart and the table growth it asks for; the kernel's
        own call counter agrees with a count of the calls into the
        library."""

        class CountingLib:
            def __init__(self, lib):
                self.lib = lib
                self.names = []

            def __getattr__(self, name):
                fn = getattr(self.lib, name)
                return lambda *args: (self.names.append(name), fn(*args))[1]

        ts = _systems(iscas_analog("s344"), None)[0]
        manager = ts.manager
        schedule = _traversal._schedule(ts, "early")
        reached = frontier = ts.initial_states()
        lib = manager._lib = CountingLib(manager._lib)
        grows = []
        grow = manager._grow
        manager._grow = lambda code: (grows.append(code), grow(code))
        restarted = 0
        while frontier != FALSE:
            before, lib.names[:], grows[:] = manager._calls[0], [], []
            frontier, reached = _image.reach_step(manager, schedule, frontier, reached)
            assert lib.names.count("bdd_run") == 1 + len(grows)
            assert lib.names[-1] == "bdd_walk_clear"
            assert set(lib.names) <= {
                "bdd_run", "bdd_grow_unique", "bdd_grow_table", "bdd_walk_clear"
            }
            assert manager._calls[0] - before == len(lib.names) - 1
            restarted += bool(grows)
        assert restarted


class TestLimits:
    """``max_iterations``, a time budget and a governor node budget stop
    the fixpoint at the same iteration on both kernels."""

    def test_max_iterations(self):
        runs = [
            forward_reachable(
                TransitionSystem(small_circuit(3), manager=BDDManager(native=native)),
                max_iterations=2,
            )
            for native in (False, None)
        ]
        assert [r.iterations for r in runs] == [2, 2]
        assert not runs[0].converged and not runs[1].converged
        assert runs[0].reached == runs[1].reached

    def _clocked(self, monkeypatch, native, budget):
        """A fixpoint under a clock that advances one second per read."""

        class Clock:
            now = 0.0

            @classmethod
            def perf_counter(cls):
                cls.now += 1.0
                return cls.now

        monkeypatch.setattr(_traversal, "time", Clock)
        ts = TransitionSystem(small_circuit(4), manager=BDDManager(native=native))
        return forward_reachable(ts, time_budget=budget)

    @pytest.mark.parametrize("budget", [0.5, 4.5, 6.5])
    def test_time_budget(self, monkeypatch, budget):
        runs = [self._clocked(monkeypatch, native, budget) for native in (False, None)]
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].reached == runs[1].reached
        assert not runs[0].converged

    def test_node_budget(self):
        network = small_circuit(6, latches=8)
        full = forward_reachable(TransitionSystem(network, manager=BDDManager(native=False)))
        stopped = set()
        for extra in range(0, 4000, 250):
            runs = []
            for native in (False, None):
                ts = TransitionSystem(network, manager=BDDManager(native=native))
                governor = ResourceGovernor(node_budget=ts.manager.num_nodes + extra)
                runs.append(forward_reachable(ts, governor=governor))
            assert runs[0].iterations == runs[1].iterations, extra
            assert runs[0].reached == runs[1].reached, extra
            assert runs[0].converged == runs[1].converged, extra
            if not runs[0].converged:
                stopped.add(runs[0].iterations)
        assert len(stopped & set(range(1, full.iterations))) > 1


class TestSchedule:
    @pytest.mark.parametrize("seed", [0, 8, 9])
    def test_early_and_monolithic_reach_the_same_set(self, seed):
        ts = TransitionSystem(small_circuit(seed, latches=7))
        early = forward_reachable(ts, "early")
        monolithic = forward_reachable(ts, "monolithic")
        assert early.converged and monolithic.converged
        assert early.reached == monolithic.reached
        assert early.iterations == monolithic.iterations

    @pytest.mark.parametrize("name", ["s344", "s838"])
    def test_each_variable_at_its_last_conjunct(self, name):
        network = iscas_analog(name)
        partition = select_latch_partitions(network, max_size=16)[0]
        ts = TransitionSystem(network, partition.latches)
        manager = ts.manager
        parts = ts.part_relations()
        schedule = image_schedule(ts, parts)
        supports = [manager.support(part) for part in parts]
        quantified = set(ts.ps_vars()) | set(ts.free_vars())
        mentioned = set().union(*supports) & quantified
        placed = {}
        for index, cube in enumerate(schedule.cubes):
            for var in cube or ():
                assert var not in placed
                placed[var] = index
        for var, index in placed.items():
            mentions = [i for i, support in enumerate(supports) if var in support]
            assert index == (mentions[-1] if mentions else 0)
            assert mentions or var in ts.ps_vars()
        assert mentioned | set(ts.ps_vars()) == set(placed)
        # The rename takes each next-state variable to its present-state
        # literal.
        assert schedule.rename == {
            ts.ns_var[l]: manager.var(ts.ps_var[l]) for l in ts.latches
        }

    def test_monolithic_schedule_quantifies_at_position_zero(self):
        ts = TransitionSystem(small_circuit(2))
        schedule = image_schedule(ts, [ts.monolithic_relation()])
        (cube,) = schedule.cubes
        support = ts.manager.support(schedule.parts[0])
        assert set(cube) == set(ts.ps_vars()) | (support & set(ts.free_vars()))
