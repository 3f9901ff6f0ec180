"""Substrate microbenchmarks.

Not a paper experiment — performance tracking for the building blocks
every experiment sits on: BDD operators, quantification, ISOP, image
computation, cut enumeration and SAT solving.

Unlike the one-shot experiment benches these are **fixed-work** runs:
every test executes a deterministic workload for a fixed number of
rounds via ``benchmark.pedantic``, with per-round setup rebuilding a
fresh :class:`~repro.bdd.manager.BDDManager` where the operator caches
would otherwise make later rounds trivially warm.  That keeps the
recorded ``wall_time``/``timing.mean`` proportional to actual kernel
speed (auto-calibrated statistical timing just fills its time budget,
which hides speedups and makes regression gating meaningless).

Each BDD test also runs one extra *instrumented* pass after the timed
rounds (see ``conftest.capture_substrate_metrics``) so the JSON record
carries cache hit rates without taxing the timed rounds.
"""

import importlib
import random
import sys
import time

import pytest
from conftest import capture_substrate_metrics, stash_extra_metrics

from repro.bdd import BDDManager, and_exists, exists
from repro.logic.truthtable import TruthTable

#: Fixed round counts — enough repetitions for a stable mean, small
#: enough that the whole module stays a smoke-test-sized run.  The
#: heavyweight all-pairs AND test uses fewer rounds for the same reason.
ROUNDS = 10
AND_ROUNDS = 4


def _random_tables(num_vars, count, seed):
    rng = random.Random(seed)
    return [TruthTable.random(num_vars, rng) for _ in range(count)]


def _build_nodes(tables, num_vars):
    manager = BDDManager(num_vars)
    order = list(range(num_vars))
    return manager, [table.to_bdd(manager, order) for table in tables]


def test_bdd_apply_and(benchmark, request):
    tables = _random_tables(10, 24, 1)

    def setup():
        return _build_nodes(tables, 10), {}

    def run(manager, nodes):
        total = 1
        for f in nodes:
            for g in nodes:
                total = manager.apply_and(f, g)
        return total

    benchmark.pedantic(run, setup=setup, rounds=AND_ROUNDS)
    capture_substrate_metrics(request, lambda: run(*setup()[0]))


def test_bdd_unique_probe(benchmark):
    """Raw unique-table probe throughput: re-request triples that are
    already interned, so every ``_mk`` is a pure open-address hit (no
    node creation, no cache involvement)."""
    tables = _random_tables(10, 12, 9)
    manager, nodes = _build_nodes(tables, 10)
    triples = [
        (manager.top_var(n), manager.lo(n), manager.hi(n))
        for n in range(2, manager.num_nodes)
    ]
    before = manager.num_nodes

    def run():
        mk = manager._mk
        acc = 0
        for _ in range(20):
            for level, lo, hi in triples:
                acc = mk(level, lo, hi)
        return acc

    benchmark.pedantic(run, rounds=ROUNDS)
    assert manager.num_nodes == before  # probes only, nothing created


def test_bdd_cache_hit(benchmark):
    """Warm op-cache throughput: repeat the same AND/ITE pairs over one
    manager so after the first sweep every lookup is a direct-mapped
    cache hit."""
    tables = _random_tables(10, 16, 10)
    manager, nodes = _build_nodes(tables, 10)
    pairs = [(f, g) for f in nodes for g in nodes]
    for f, g in pairs:  # warm the caches once before timing
        manager.apply_and(f, g)
        manager.ite(f, g, manager.negate(g))

    def run():
        acc = 0
        for _ in range(10):
            for f, g in pairs:
                acc = manager.apply_and(f, g)
                acc = manager.ite(f, g, manager.negate(g))
        return acc

    benchmark.pedantic(run, rounds=ROUNDS)


def test_bdd_exists(benchmark, request):
    tables = _random_tables(10, 10, 2)
    subsets = [
        [0, 3, 6, 9], [1, 4, 7], [0, 1, 2, 3], [5, 6, 7, 8, 9],
        [2, 5, 8], [0, 2, 4, 6, 8], [1, 3, 5, 7, 9], [4], [0, 9],
        [2, 3, 6, 7], [1, 8], [0, 4, 5, 9], [3, 4, 5], [6, 9],
        [1, 2, 7, 8], [0, 5],
    ]

    def setup():
        return _build_nodes(tables, 10), {}

    def run(manager, nodes):
        result = 0
        for node in nodes:
            for subset in subsets:
                result = exists(manager, node, subset)
        return result

    benchmark.pedantic(run, setup=setup, rounds=ROUNDS)
    capture_substrate_metrics(request, lambda: run(*setup()[0]))


def test_bdd_quantify_amortized(benchmark, request):
    """Repeated ``∃x f`` over the *same* manager — the persistent
    (node, cube) quantification caches should make repeats free."""
    tables = _random_tables(10, 8, 7)
    manager, nodes = _build_nodes(tables, 10)
    subsets = [[0, 3, 6, 9], [1, 4, 7], [0, 1, 2, 3], [2, 5, 8]]

    def run(mgr, nds):
        result = 0
        for _ in range(25):
            for node in nds:
                for subset in subsets:
                    result = exists(mgr, node, subset)
        return result

    benchmark.pedantic(run, args=(manager, nodes), rounds=ROUNDS)
    # The instrumented pass needs a manager created *under* the obs
    # scope, else its stats hook is unset and the record stays empty.
    capture_substrate_metrics(request, lambda: run(*_build_nodes(tables, 10)))


def test_bdd_and_exists(benchmark, request):
    tables = _random_tables(10, 12, 8)

    def setup():
        return _build_nodes(tables, 10), {}

    def run(manager, nodes):
        result = 0
        for i in range(len(nodes) - 1):
            result = and_exists(manager, nodes[i], nodes[i + 1], [0, 2, 4, 6, 8])
        return result

    benchmark.pedantic(run, setup=setup, rounds=ROUNDS)
    capture_substrate_metrics(request, lambda: run(*setup()[0]))


def test_isop(benchmark):
    from repro.logic.sop import isop

    tables = _random_tables(8, 10, 3)

    def setup():
        return _build_nodes(tables, 8), {}

    def run(manager, nodes):
        return [isop(manager, node, node) for node in nodes]

    benchmark.pedantic(run, setup=setup, rounds=5)


def test_espresso(benchmark):
    from repro.logic.espresso import minimize_function

    tables = _random_tables(6, 6, 4)

    def setup():
        return _build_nodes(tables, 6), {}

    def run(manager, nodes):
        return [minimize_function(manager, node) for node in nodes]

    benchmark.pedantic(run, setup=setup, rounds=5)


def test_reachability_image(benchmark, request):
    from repro.benchgen import iscas_analog
    from repro.reach import TransitionSystem, forward_reachable

    network = iscas_analog("s344")

    def run():
        return forward_reachable(TransitionSystem(network, list(network.latches)[:8]))

    benchmark.pedantic(run, rounds=3, iterations=1)
    capture_substrate_metrics(request, run)


def test_cone_collapse(benchmark, request):
    """Algorithm 1's collapse step: every combinational sink of a
    macro-block analog through one fresh :class:`ConeCollapser`, so the
    network layer's per-cone walks are timed with the BDD work."""
    from repro.benchgen import industrial_analog
    from repro.network import ConeCollapser

    network = industrial_analog("seq7", 0.35)
    sinks = network.combinational_sinks()

    def setup():
        return (ConeCollapser(network),), {}

    def run(collapser):
        return collapser.functions(sinks)

    benchmark.pedantic(run, setup=setup, rounds=ROUNDS)
    capture_substrate_metrics(request, lambda: run(*setup()[0]))


def test_or_partition_space(benchmark):
    from repro.bidec import or_partition_space
    from repro.intervals import Interval

    tables = _random_tables(8, 1, 5)

    def run():
        manager, nodes = _build_nodes(tables, 8)
        space = or_partition_space(Interval.exact(manager, nodes[0])).nontrivial()
        return space.best_balanced_pair()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_sat_solver(benchmark):
    from repro.sat import Solver

    rng = random.Random(6)
    clauses = []
    for _ in range(180):
        variables = rng.sample(range(1, 41), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])

    def run():
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        return solver.solve()

    benchmark.pedantic(run, rounds=5)


@pytest.mark.ungated
def test_cone_task_telemetry_overhead(benchmark, request):
    """Cost of the live-telemetry hooks on the parallel cone hot path.

    ``run_cone_task`` reaches the bus only as an installed obs sink, so
    a run without the telemetry flags must pay nothing for the hooks.
    One fixed cone workload is run two ways: the default off path with
    the bus module not even imported (the pedantic-timed rows), and a
    live bus — an installed bus always sends — draining a real pipe.
    The record is informational (``gated: false``).
    """
    from repro import obs
    from repro.benchgen import iscas_analog
    from repro.synth.conetask import extract_cone_task, run_cone_task

    network = iscas_analog("s344")
    sinks = [name for name in network.topological_order()
             if name in network.nodes
             and len(network.nodes[name].fanins) >= 2]
    tasks = [
        extract_cone_task(network, sink, options={"max_support": 10}).to_dict()
        for sink in sinks[:12]
    ]

    def run():
        for task in tasks:
            run_cone_task(task)

    def best_of(rounds=5):
        durations = []
        for _ in range(rounds):
            start = time.perf_counter()
            run()
            durations.append(time.perf_counter() - start)
        return min(durations)

    # Off path: the bus module must be absent from sys.modules, exactly
    # like a CLI run without telemetry flags.
    saved = sys.modules.pop("repro.obs.bus", None)
    try:
        assert "repro.obs.bus" not in sys.modules
        benchmark.pedantic(run, rounds=ROUNDS)
        off = best_of()
    finally:
        if saved is not None:
            sys.modules["repro.obs.bus"] = saved

    # Live: events written into the bus's pipe and drained.
    bus_mod = importlib.import_module("repro.obs.bus")
    bus = obs.install(bus_mod.TelemetryBus(run_id="bench-overhead"))
    try:
        live = best_of()
    finally:
        obs.uninstall(bus)
    bus.close()
    assert bus.events_dropped == 0
    assert bus.counts.get("cone.start", 0) >= len(tasks)

    stash_extra_metrics(request, {
        "telemetry_off_s": round(off, 6),
        "telemetry_live_s": round(live, 6),
        "live_overhead": round(live / off - 1.0, 4),
    })
    print(f"\ncone hot path ({len(tasks)} cones): off {off * 1e3:.1f}ms, "
          f"bus live {live / off:.3f}x")


def test_technology_mapping(benchmark):
    from repro.benchgen import ripple_adder_network
    from repro.mapping import load_library, map_network

    network = ripple_adder_network(8)
    library = load_library()

    def run():
        return map_network(network, library)

    benchmark.pedantic(run, rounds=3, iterations=1)
