"""Full-flow benchmark: Algorithm 1 (optimize) followed by technology
mapping, on the paper's ISCAS89 and macro-block analogs.

One workload run is a closed loop with a single client: the next
circuit starts when the previous one has finished optimizing and
mapping.  A run has five steps:

1. set-up and one untimed warm-up of the workload's smallest circuit;
2. timed rounds over all circuits until ``--seconds`` have passed, and
   at least two, so output bytes can be compared across rounds;
3. peak RSS, read before any other process starts;
4. correctness checks, once per circuit, in two forked processes;
5. set-up timed again, in fresh interpreters (``setup_s``).

Timed circuits are the canonical analogs (``iscas_analog(name)`` and
``industrial_analog(name, 0.35)``), the same on every seed: across
seeds the generators change a round's flow time by about 14% and its
mapped-area ratio by about 10% (IQR over median, ten seeds), more than
any useful regression bound.  ``--seed n`` instead chooses the held-out
circuits, variant ``n + 1`` of the two smallest specs of the family,
which are synthesized once and put through the same checks, and the
stimulus of the simulation check.

Times are host-normalised by :class:`HostClock`, so flow times read in
seconds at the reference host's speed; ``flow_s`` sums each circuit's
median over the rounds.

``--trace 1`` runs one traced round after the untraced ones: benchmark
side wrappers time the layer entry points, ``repro.obs`` counts BDD
work, and the spans are written as a Chrome trace that ``repro trace``
summarises.  Untraced runs install no wrapper and keep ``repro.obs``
off.

Usage::

    python3 flowbench/bench_flow.py --workload iscas --seed 0 --seconds 15 --trace 0
    python3 flowbench/bench_flow.py --seed 0 --out flowbench/results/BENCH_flow.json
    python3 flowbench/bench_flow.py --smoke

With one workload the last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With several (the default is all four, each in its own subprocess) the
records are merged into ``--out``.  The exit code is non-zero when any
check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPT = Path(__file__).resolve()
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = BUILD_DIR / "flowbench"

#: Median of :func:`probe_loop` on the host the benchmark was defined on
#: (Intel Xeon, 2 vCPUs, Python 3.11.7).  Normalised times are seconds
#: at that host's speed.
K_REF_S = 0.0000442
#: Host-speed sampling period while a measured call runs.
PROBE_INTERVAL_S = 0.01

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SPAWNS = 5
#: Timed rounds per run at least (bytes are compared across rounds).
MIN_ROUNDS = 2
#: Cycles of the random-stimulus simulation check.
SIM_CYCLES = 32
#: Largest tolerated gap between the traced flow time and the sum of
#: the traced self times.
TRACE_COVERAGE_TOLERANCE = 0.05
#: Scale of the macro-block analogs (the E4 / Table 3.2 setting).
MACRO_SCALE = 0.35
#: Generator seed stride between circuit variants; variant 0 is the
#: canonical analog.
VARIANT_STRIDE = 100003

E4_OPTIONS = {
    "max_partition_size": 12,
    "acceptance_ratio": 1.1,
    "time_budget": 240.0,
    "reach_time_budget": 15.0,
}


@dataclass(frozen=True)
class Workload:
    family: str  # "iscas" or "macro"
    options: dict
    #: Specs of the family to run; ``None`` runs all of them.
    specs: Optional[tuple] = None


WORKLOADS = {
    "iscas": Workload("iscas", {}),
    "macro": Workload("macro", E4_OPTIONS),
    # s5378 and s9234 take 8 of the 14 s of a sat-cegar round; without
    # them a run takes as long as an iscas run.
    "iscas_sat": Workload(
        "iscas",
        {"backend": "sat-cegar"},
        ("s344", "s526", "s713", "s838", "s953", "s1269"),
    ),
    "macro_w2": Workload("macro", {**E4_OPTIONS, "parallel_workers": 2}),
}

#: Specs whose seeded variants form the held-out set of each family.
HELDOUT = {"iscas": ("s344", "s526"), "macro": ("seq5", "seq6")}
#: The one circuit per family that ``--smoke`` runs.
SMOKE = {"iscas": "s344", "macro": "seq5"}


# ---------------------------------------------------------------------------
# Host calibration
# ---------------------------------------------------------------------------


def probe_loop(table: dict) -> float:
    """Seconds for a fixed ~45 us pure-Python loop (no ``repro`` code)
    that refills a caller-owned dict, so the loop itself creates no
    object the garbage collector counts.  Dict inserts tracked the flow's
    slowdowns better than list stores or bare arithmetic (0.6%, 0.9% and
    1.4% spread over twelve iscas runs timing all three side by side)."""
    began = time.perf_counter()
    table.clear()
    acc = 1
    for i in range(300):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        table[acc & 255] = i
    return time.perf_counter() - began


class Timing(NamedTuple):
    wall: float  # seconds, probes included
    raw: float  # seconds, probes excluded
    norm: float  # raw seconds at the reference host's speed
    probe: float  # mean probe_loop() seconds while the call ran


class HostClock:
    """Host-normalised timing.

    While a measured call runs, a timer signal every ``PROBE_INTERVAL_S``
    runs :func:`probe_loop`.  The call's time, minus the time spent in
    the probes, is scaled by ``K_REF_S / mean(probe times)``.  On this
    kind of shared VM the host speed changes within a second, so probes
    taken only before and after a circuit missed most of it: over ten
    runs of three iscas rounds, sampling during the circuit left a 1.6%
    spread (IQR over median) where adjacent calibrations left 4.2%.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._table: dict[int, int] = {}
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum, frame) -> None:
        began = time.perf_counter()
        self.samples.append(probe_loop(self._table))
        self.spent += time.perf_counter() - began

    def measure(self, call) -> tuple[Any, Timing]:
        """``call()``'s result and its :class:`Timing`."""
        self.samples = [probe_loop(self._table)]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        began = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - began
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw = elapsed - self.spent
        probe = statistics.fmean(self.samples)
        return result, Timing(elapsed, raw, raw * K_REF_S / probe, probe)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Circuit:
    name: str
    network: Any
    spec: str
    variant: int


def make_circuit(family: str, spec_name: str, variant: int) -> Circuit:
    """The spec's generator with its interface statistics, seeded with
    ``spec.seed + VARIANT_STRIDE * variant``: variant 0 is exactly
    ``iscas_analog(name)`` or ``industrial_analog(name, MACRO_SCALE)``."""
    from repro.benchgen import (
        ISCAS_SPECS,
        MACRO_SPECS,
        generate_macro_block,
        generate_sequential_circuit,
    )

    name = spec_name if variant == 0 else f"{spec_name}v{variant}"
    if family == "iscas":
        spec = ISCAS_SPECS[spec_name]
        network = generate_sequential_circuit(
            name=name,
            num_inputs=spec.inputs,
            num_outputs=spec.outputs,
            num_latches=spec.latches,
            counter_fraction=spec.counter_fraction,
            seed=spec.seed + VARIANT_STRIDE * variant,
            max_block=spec.max_block,
        )
    else:
        spec = MACRO_SPECS[spec_name]
        network = generate_macro_block(
            name=name,
            num_inputs=max(4, round(spec.inputs * MACRO_SCALE)),
            num_outputs=max(2, round(spec.outputs * MACRO_SCALE)),
            num_latches=max(6, round(spec.latches * MACRO_SCALE)),
            seed=spec.seed + VARIANT_STRIDE * variant,
        )
    return Circuit(name, network, spec_name, variant)


@dataclass
class Inputs:
    options: Any
    library: Any
    canonical: list
    heldout: list


def prepare(workload: str, seed: int, smoke: bool) -> Inputs:
    """Everything a run needs before its first flow: imports, the native
    kernel, the cell library and the circuits.  ``setup_s`` times this
    in fresh interpreters."""
    from repro.bdd.manager import BDDManager
    from repro.benchgen import ISCAS_SPECS, MACRO_SPECS
    from repro.mapping import load_library
    from repro.synth import SynthesisOptions

    spec = WORKLOADS[workload]
    BDDManager()  # loads the native kernel
    library = load_library()
    if smoke:
        names = [SMOKE[spec.family]]
        heldout_names = names
    else:
        names = list(spec.specs or (ISCAS_SPECS if spec.family == "iscas" else MACRO_SPECS))
        heldout_names = list(HELDOUT[spec.family])
    return Inputs(
        options=SynthesisOptions(**spec.options),
        library=library,
        canonical=[make_circuit(spec.family, n, 0) for n in names],
        heldout=[make_circuit(spec.family, n, seed + 1) for n in heldout_names],
    )


# ---------------------------------------------------------------------------
# Tracing (installed only by --trace 1)
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans around layer entry points.

    Each span is ``[name, start, end, parent, child_time, args]``; the
    open-span stack gives the parent, and ``child_time`` accumulates the
    durations of direct children, so self time is
    ``end - start - child_time``.  Wrappers are patched where the caller
    looks the name up and removed by :meth:`uninstall`.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: list[list[Any]] = []
        self.order: list[tuple[str, int]] = []
        self.stack: list[int] = []
        self.tallies: Counter = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    def begin(self, name: str, args: Optional[dict] = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, args])
        self.stack.append(index)
        self.order.append(("B", index))
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        self.order.append(("E", index))
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextmanager
    def span(self, name: str, args: Optional[dict] = None):
        index = self.begin(name, args)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, owner: Any, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                observe(tracer.tallies, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        import repro.bidec.api as bidec_api
        import repro.engine.parallel as parallel
        import repro.engine.passes as passes
        import repro.reach.dontcare as dontcare
        import repro.synth.conetask as conetask
        from repro.network.bdd_build import ConeCollapser
        from repro.sat.solver import Solver

        for cls in (
            passes.LatchCleanupPass,
            passes.DontCarePass,
            passes.DecomposePass,
            passes.FinalizePass,
            passes.SweepPass,
            passes.StrashPass,
        ):
            self.wrap(cls, "run", f"engine.{cls.name}")
        # "decompose" covers the sharded pass too.
        self.wrap(parallel.DecomposeParallelPass, "run", "engine.decompose")
        self.wrap(ConeCollapser, "node_function", "network.collapse")
        # DecomposePass binds instantiate_dectree at import time.
        self.wrap(passes, "instantiate_dectree", "network.instantiate")
        self.wrap(dontcare.DontCareManager, "unreachable_for", "reach.dc")
        self.wrap(
            dontcare, "forward_reachable", "reach.traversal", _observe_traversal
        )
        # DecomposePass imports decompose_cone from the module at call time.
        self.wrap(bidec_api, "decompose_cone", "bidec.decompose")
        self.wrap(Solver, "solve", "sat.solve", _observe_solve)
        self.wrap(parallel, "extract_cone_task", "parallel.extract")
        self.wrap(parallel.ParallelConeScheduler, "execute", "parallel.execute")
        self.wrap(conetask, "merge_cone_result", "parallel.merge")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def by_name(self) -> tuple[Counter, Counter, Counter]:
        total, self_time, calls = Counter(), Counter(), Counter()
        for name, start, end, _parent, child, _args in self.spans:
            total[name] += end - start
            self_time[name] += end - start - child
            calls[name] += 1
        return total, self_time, calls

    def by_layer(self) -> dict[str, tuple[float, float]]:
        """``{layer: (total, self)}``; a span counts toward its layer's
        total only when its parent belongs to another layer."""
        layers: dict[str, list[float]] = {}
        for name, start, end, parent, child, _args in self.spans:
            layer = name.split(".", 1)[0]
            row = layers.setdefault(layer, [0.0, 0.0])
            row[1] += end - start - child
            if parent < 0 or self.spans[parent][0].split(".", 1)[0] != layer:
                row[0] += end - start
        return {layer: (row[0], row[1]) for layer, row in layers.items()}

    def write_chrome(self, path: Path, metadata: dict) -> None:
        pid = os.getpid()
        events = []
        for phase, index in self.order:
            name, start, end, parent, _child, args = self.spans[index]
            stamp = ((start if phase == "B" else end) - self.epoch) * 1e6
            event = {"name": name, "ph": phase, "ts": stamp, "pid": pid, "tid": 0}
            if phase == "B":
                event["cat"] = name.split(".", 1)[0]
                event["args"] = {"id": index, "parent": parent, **(args or {})}
            events.append(event)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }
        path.write_text(json.dumps(payload) + "\n")


def _observe_traversal(tallies: Counter, result) -> None:
    tallies["reach.iterations"] += result.iterations
    if not result.converged:
        tallies["reach.cutoffs"] += 1


def _observe_solve(tallies: Counter, satisfiable) -> None:
    if satisfiable:
        tallies["sat.satisfiable"] += 1


# ---------------------------------------------------------------------------
# The timed flow
# ---------------------------------------------------------------------------


def run_flow(
    circuit: Circuit, inputs: Inputs, clock: HostClock, tracer: Optional[Tracer] = None
) -> dict:
    """Optimize and map one circuit; returns its outcome and times.
    A crash is returned as ``{"error": ...}``."""
    from repro.mapping import map_network
    from repro.network import write_blif
    from repro.synth import algorithm1

    def flow():
        if tracer is None:
            report = algorithm1(circuit.network, inputs.options)
            return report, map_network(report.network, inputs.library)
        with tracer.span("engine.run", {"circuit": circuit.name}):
            report = algorithm1(circuit.network, inputs.options)
        with tracer.span("mapping.map", {"circuit": circuit.name}):
            return report, map_network(report.network, inputs.library)

    try:
        (report, mapped), timing = clock.measure(flow)
    except Exception as exc:  # one crashing circuit must not stop the run
        return {"error": f"{type(exc).__name__}: {exc}"}
    blif = write_blif(report.network)
    actions = Counter(record.action for record in report.records)
    passes: Counter = Counter()
    for entry in report.passes:
        name = "decompose" if entry["pass"] == "decompose_parallel" else entry["pass"]
        passes[name] += entry["elapsed"]
    cone_stats = report.artifacts.get("parallel.cone_stats") or []
    return {
        "wall_s": timing.wall,
        "raw_s": timing.raw,
        "norm_s": timing.norm,
        "probe_s": timing.probe,
        "digest": hashlib.sha256(blif.encode()).hexdigest(),
        "literals": report.network.stats()["literals"],
        "area": mapped.area,
        "delay": mapped.delay,
        "gates": mapped.num_gates,
        "degraded": report.degraded,
        "decomposed": actions["decomposed"],
        "kept_cost": actions["kept-cost"],
        "passes": dict(passes),
        "parallel_cone_s": sum(float(row.get("elapsed") or 0.0) for row in cone_stats),
        "parallel_degraded": len(report.artifacts.get("parallel.degraded_cones") or []),
        "workers": report.artifacts.get("parallel.workers", 0),
        "network": report.network,
    }


def run_round(inputs: Inputs, clock: HostClock, tracer: Optional[Tracer] = None) -> list[dict]:
    """One pass over the canonical circuits, each started from a
    collected heap."""
    rows = []
    for circuit in inputs.canonical:
        gc.collect()
        rows.append(run_flow(circuit, inputs, clock, tracer))
    return rows


def measure_setup(workload: str, seed: int, smoke: bool) -> tuple[list, list]:
    """Fresh interpreter to workload ready, ``SETUP_SPAWNS`` times:
    returns (host-normalised, raw) seconds.  The child probes during its
    own set-up and reports the mean with its ready line: a probe in the
    waiting parent runs on a core that was idle and reads up to 1.6x
    slow."""
    command = [sys.executable, str(SCRIPT), "--probe-setup", "--workload", workload,
               "--seed", str(seed)] + (["--smoke"] if smoke else [])
    normalised, raw = [], []
    for _ in range(SETUP_SPAWNS):
        began = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - began
            child.stdout.read()
        if child.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        normalised.append(elapsed * K_REF_S / float(line.split()[1]))
        raw.append(elapsed)
    return normalised, raw


def join_children() -> None:
    """Wait for every multiprocessing child still running: a pool shut
    down without waiting (the engine's cone workers) leaves its workers
    exiting."""
    for child in multiprocessing.active_children():
        child.join()


def peak_rss_mb() -> float:
    multiprocessing.active_children()  # reap finished workers first
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Correctness oracle (runs in forked worker processes)
# ---------------------------------------------------------------------------


def verify(source, optimized, stimulus: int, partition_size: int) -> dict:
    """Prove the optimized netlist against a latch-cleaned copy of the
    source on its reachable states, simulate both for ``SIM_CYCLES``
    cycles, and map the source for the area/delay baseline.

    The proof needs the cleaned copy: Algorithm 1 drops latches in its
    cleanup pass, and the check refuses networks whose latch sets differ.
    It must also use the flow's own latch-partition size.  Any partition
    size gives a sound reachable over-approximation, but one partitioning
    need not refine another: with the check's default of 24 latches the
    proof failed on correct outputs (seq6 variants 14 and 19 under the
    Table 3.2 options, which use 12) that it proved with 12, 32 and 64.
    """
    from repro.mapping import load_library, map_network
    from repro.network import cleanup_latches, network_to_aig, outputs_equal
    from repro.network.check import sequential_equivalent_reachable

    problems = []
    cleaned = source.copy()
    cleanup_latches(cleaned)
    began = time.perf_counter()
    proof = sequential_equivalent_reachable(
        cleaned, optimized, max_partition_size=partition_size
    )
    check_s = time.perf_counter() - began
    if not proof.equivalent:
        problems.append(f"differs on reachable states at {proof.failing_signal}")
    if not outputs_equal(source, optimized, cycles=SIM_CYCLES, seed=stimulus):
        problems.append(f"{SIM_CYCLES}-cycle simulation differs")
    pre = map_network(source, load_library())
    aig, _ = network_to_aig(source)
    stats = source.stats()
    return {
        "problems": problems,
        "check_s": check_s,
        "pre_area": pre.area,
        "pre_delay": pre.delay,
        "and_count": aig.cone_ands(list(aig.outputs.values())),
        "inputs": stats["inputs"],
        "outputs": stats["outputs"],
        "latches": stats["latches"],
        "literals_before": stats["literals"],
    }


def collect(future) -> dict:
    try:
        return future.result()
    except Exception as exc:  # a crashing check is a failed check
        return {"problems": [f"check raised {type(exc).__name__}: {exc}"]}


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_workload(args) -> tuple[dict, dict]:
    """Returns (the result line's fields, the full record)."""
    phases = {}
    began = time.perf_counter()
    clock = HostClock()
    inputs = prepare(args.workload, args.seed, args.smoke)
    smallest = min(inputs.canonical, key=lambda c: c.network.stats()["latches"])
    warmup = run_flow(smallest, inputs, clock)
    phases["prepare_and_warmup"] = time.perf_counter() - began

    # Traced runs spend half the budget on the untraced baseline.
    budget = args.seconds / 2 if args.trace else args.seconds
    least = 1 if args.trace else MIN_ROUNDS
    rounds = []
    began = time.perf_counter()
    while True:
        rounds.append(run_round(inputs, clock))
        done = len(rounds)
        if args.rounds:
            if done >= args.rounds:
                break
        elif done >= least and time.perf_counter() - began >= budget:
            break
    traced = tracer = obs_report = None
    if args.trace:
        from repro import obs

        tracer = Tracer()
        tracer.install()
        obs.reset()
        obs.enable()
        try:
            traced = run_round(inputs, clock, tracer)
        finally:
            obs.disable()
            tracer.uninstall()
        obs_report = obs.report()
    rss = peak_rss_mb()
    phases["rounds"] = time.perf_counter() - began

    # Checks: canonical outputs of round 0 go to the pool first; the
    # held-out circuits are synthesized meanwhile and checked after.
    began = time.perf_counter()
    failures: dict[str, list[str]] = {}
    first = rounds[0]
    # Forked, not spawned: a spawn context starts multiprocessing's
    # resource tracker, a process that outlives the run.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        pending = {}

        def check(circuit: Circuit, row: dict) -> None:
            if "network" in row:
                pending[circuit.name] = pool.submit(
                    verify, circuit.network, row["network"], args.seed,
                    inputs.options.max_partition_size,
                )

        for circuit, row in zip(inputs.canonical, first):
            check(circuit, row)
        heldout_rows = {}
        for circuit in inputs.heldout:
            heldout_rows[circuit.name] = run_flow(circuit, inputs, clock)
            check(circuit, heldout_rows[circuit.name])
        checks = {name: collect(future) for name, future in pending.items()}
    phases["checks"] = time.perf_counter() - began

    # The set-up children run after peak RSS is read, so their own peak
    # (31 MB) never stands for a smaller flow's.
    began = time.perf_counter()
    setup = None if args.trace else measure_setup(args.workload, args.seed, args.smoke)
    phases["setup"] = time.perf_counter() - began

    circuits = []
    for index, circuit in enumerate(inputs.canonical):
        runs = [r[index] for r in rounds] + ([traced[index]] if traced else [])
        if circuit is smallest:
            runs.append(warmup)
        problems = [r["error"] for r in runs if "error" in r]
        digests = {r["digest"] for r in runs if "digest" in r}
        if len(digests) > 1:
            problems.append(f"{len(digests)} different outputs across rounds")
        check = checks.get(circuit.name, {})
        problems += check.get("problems", [])
        failures[circuit.name] = problems
        circuits.append(_circuit_row(circuit, rounds, index, check))
    heldout = []
    for circuit in inputs.heldout:
        row = heldout_rows[circuit.name]
        check = checks.get(circuit.name, {})
        problems = ([row["error"]] if "error" in row else []) + check.get("problems", [])
        failures[circuit.name] = problems
        heldout.append({**_public(row), **_public(check), "name": circuit.name,
                        "spec": circuit.spec, "variant": circuit.variant})

    attempted = len(failures)
    failed = sum(1 for problems in failures.values() if problems)
    outcome_rows = [c for c in circuits if "area" in c and "pre_area" in c]
    all_rows = circuits + heldout
    round_norm = [sum(r["norm_s"] for r in rnd) for rnd in rounds if all("norm_s" in r for r in rnd)]
    round_raw = [sum(r["raw_s"] for r in rnd) for rnd in rounds if all("raw_s" in r for r in rnd)]
    values = {
        "verified_frac": (attempted - failed) / attempted,
        "nondegraded_frac": sum(1 for r in all_rows if r.get("degraded") is False) / len(all_rows),
    }
    if setup is not None:
        values["setup_s"] = statistics.median(setup[0])
    if len(round_norm) == len(rounds):
        # Per-circuit medians: a disturbance the probes do not see moves
        # one circuit in one round, not the whole metric.
        values["flow_s"] = sum(
            statistics.median(rnd[i]["norm_s"] for rnd in rounds)
            for i in range(len(inputs.canonical))
        )
    values["peak_rss_mb"] = rss
    if outcome_rows:
        values["literals"] = sum(c["literals"] for c in outcome_rows)
        values["area_ratio"] = geomean([c["area"] / c["pre_area"] for c in outcome_rows])
        values["delay_ratio"] = geomean([c["delay"] / c["pre_delay"] for c in outcome_rows])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "options": WORKLOADS[args.workload].options,
        "smoke": args.smoke,
        "native": os.environ.get("REPRO_NATIVE"),
        "failures": {name: p for name, p in failures.items() if p},
        "flow_s": {**quartiles(round_norm), "rounds": round_norm, "raw_rounds": round_raw} if round_norm else None,
        "setup_s": {**quartiles(setup[0]), "samples": setup[0], "raw": setup[1]} if setup else None,
        "peak_rss_mb": rss,
        "wall_s": phases,
        "circuits": circuits,
        "heldout": heldout,
    }
    if args.trace:
        layer_values, layers, coverage_problem = _per_layer(
            args, tracer, traced, values.get("flow_s"), checks, obs_report
        )
        if coverage_problem:
            record["failures"]["trace"] = [coverage_problem]
            attempted, failed = attempted + 1, failed + 1
        values.update(layer_values)
        record["per_layer"] = layer_values
        record["layers"] = layers
    record["values"] = values
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
    }
    return result, record


def _public(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in ("network", "passes")}


def _circuit_row(circuit: Circuit, rounds: list, index: int, check: dict) -> dict:
    runs = [rnd[index] for rnd in rounds]
    first = runs[0]
    row = {"name": circuit.name, **_public(check)}
    row.pop("problems", None)
    if "raw_s" in first:
        row.update({k: first[k] for k in ("literals", "area", "delay", "gates", "degraded",
                                          "decomposed", "kept_cost", "digest")})
        row["raw_s"] = [r.get("raw_s") for r in runs]
        row["norm_s"] = [r.get("norm_s") for r in runs]
    return row


def _per_layer(args, tracer, traced, untraced_flow, checks, obs_report):
    """Per-layer values of the traced round, the layer table, and a
    problem string when the self times do not cover the traced flow."""
    total, self_time, calls = tracer.by_name()
    rows = [r for r in traced if "raw_s" in r]
    passes: Counter = Counter()
    for row in rows:
        passes.update(row["passes"])
    counters = obs_report.get("counters", {})
    gauges = obs_report.get("gauges", {})
    hits = sum(v for k, v in counters.items() if k.startswith("bdd.cache.") and k.endswith(".hits"))
    misses = sum(v for k, v in counters.items() if k.startswith("bdd.cache.") and k.endswith(".misses"))
    decomposed = sum(r["decomposed"] for r in rows)
    kept = sum(r["kept_cost"] for r in rows)
    workers = max([r["workers"] for r in rows] + [1])
    cone_s = sum(r["parallel_cone_s"] for r in rows)
    # Spans include the host probes that fire inside them.
    traced_wall = sum(r["wall_s"] for r in rows)
    traced_norm = sum(r["norm_s"] for r in rows)
    self_sum = sum(self_time.values())
    solves = calls["sat.solve"]
    values = {
        "engine.cleanup_s": passes["cleanup"],
        "engine.decompose_s": passes["decompose"],
        "engine.decompose_self_s": self_time["engine.decompose"],
        "engine.finalize_s": passes["finalize"],
        "engine.sweep_s": passes["sweep"],
        "engine.strash_s": passes["strash"],
        "engine.pipeline_self_s": self_time["engine.run"],
        "engine.degraded_frac": sum(1 for r in rows if r["degraded"]) / len(traced),
        "network.collapse_s": total["network.collapse"],
        "network.collapse_calls": calls["network.collapse"],
        "network.instantiate_s": total["network.instantiate"],
        "network.check_s": sum(c.get("check_s", 0.0) for c in checks.values()),
        "reach.dc_s": total["reach.dc"],
        "reach.dc_calls": calls["reach.dc"],
        "reach.traversal_s": total["reach.traversal"],
        "reach.traversals": calls["reach.traversal"],
        "reach.iterations": tracer.tallies["reach.iterations"],
        "reach.cutoffs": tracer.tallies["reach.cutoffs"],
        "bidec.decompose_s": total["bidec.decompose"],
        "bidec.calls": calls["bidec.decompose"],
        "bidec.self_s": self_time["bidec.decompose"],
        "bidec.accept_ratio": decomposed / (decomposed + kept) if decomposed + kept else 0.0,
        "bidec.fallbacks": counters.get("bidec.backend.fallback", 0),
        "sat.solve_s": total["sat.solve"],
        "sat.solves": solves,
        "sat.sat_ratio": tracer.tallies["sat.satisfiable"] / solves if solves else 0.0,
        "bdd.nodes_peak": gauges.get("bdd.nodes.peak", 0),
        "bdd.unique_inserts": counters.get("bdd.unique.inserts", 0),
        "bdd.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "bdd.cache_evicted": counters.get("bdd.cache.evicted", 0),
        "bdd.managers": gauges.get("bdd.managers.total", 0),
        "mapping.map_s": total["mapping.map"],
        "mapping.gates": sum(r["gates"] for r in rows),
        "parallel.extract_s": total["parallel.extract"],
        "parallel.execute_s": total["parallel.execute"],
        "parallel.merge_s": total["parallel.merge"],
        "parallel.cone_s": cone_s,
        "parallel.overhead_s": total["parallel.execute"] - cone_s / workers if calls["parallel.execute"] else 0.0,
        "parallel.degraded": sum(r["parallel_degraded"] for r in rows),
        "trace.overhead_frac": traced_norm / untraced_flow - 1 if untraced_flow else 0.0,
        "trace.self_coverage": self_sum / traced_wall if traced_wall else 0.0,
    }
    layers = {layer: {"total_s": t, "self_s": s} for layer, (t, s) in tracer.by_layer().items()}
    path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
    tracer.write_chrome(path, {"workload": args.workload, "seed": args.seed,
                               "traced_flow_wall_s": traced_wall, "layers": layers})
    problem = None
    if abs(values["trace.self_coverage"] - 1) > TRACE_COVERAGE_TOLERANCE:
        problem = (f"traced self times sum to {self_sum:.3f} s but the traced "
                   f"flow took {traced_wall:.3f} s")
    from repro.obs.trace import load_trace, summarize

    summary = summarize(load_trace(path)[0])
    loaded_self = sum(s["self_us"] for s in summary["spans"].values()) / 1e6
    if summary["unclosed"] or summary["orphan_ends"] or abs(loaded_self - self_sum) > 1e-3:
        problem = f"trace file {path} does not summarise to the recorded spans"
    print(f"wrote {path}", file=sys.stderr)
    return values, layers, problem


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def check_checkout() -> Optional[str]:
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no repro sources under {SRC}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json at {ROOT}"
    return None


def build_native() -> None:
    """Compile the native BDD kernel if this checkout has none yet.
    Unless ``REPRO_NATIVE`` says otherwise, a failed build is an error:
    the benchmark is defined with the kernel on."""
    os.environ.setdefault("REPRO_NATIVE", "require")
    from repro.bdd import native

    native.kernel()


def run_single(args) -> int:
    """One workload in this process; the metric names and units come
    from ``BENCHMARK.json``."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result, record = run_workload(args)
    finally:
        join_children()
    metrics = {}
    for spec in definition["per_layer" if args.trace else "end_to_end"]:
        name = spec["name"]
        if name not in result["values"]:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            result["correct"] = False
            continue
        value = result["values"][name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload:<10} {name:<26} {value:>14.6g} {spec['unit']}")
    if args.trace:
        print(f"{'layer':<10} {'total_s':>10} {'self_s':>10}")
        for layer, row in sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{layer:<10} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for name, problems in record["failures"].items():
        for problem in problems:
            print(f"FAILED {args.workload} {name}: {problem}", file=sys.stderr)
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def run_many(args, workloads: list[str]) -> int:
    """Each workload in its own subprocess, one at a time."""
    records = {}
    status = 0
    for workload in workloads:
        record_path = OUT_DIR / f"record_{workload}_seed{args.seed}_trace{args.trace}.json"
        command = [sys.executable, str(SCRIPT), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--record", str(record_path)]
        if args.rounds:
            command += ["--rounds", str(args.rounds)]
        if args.smoke:
            command.append("--smoke")
        began = time.perf_counter()
        child = subprocess.run(command, capture_output=True, text=True)
        lines = child.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(child.stderr)
        print(f"# {workload}: {time.perf_counter() - began:.1f} s wall, exit {child.returncode}")
        if child.returncode != 0:
            status = 1
        if record_path.is_file():
            records[workload] = json.loads(record_path.read_text())
    if args.out:
        payload = {
            "schema": "bench_flow/1",
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "k_ref_s": K_REF_S,
            "host": {
                "cpus": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
            },
            "workloads": records,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.out}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, a comma-separated list, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed budget per workload run (at least two rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many timed rounds instead")
    parser.add_argument("--smoke", action="store_true",
                        help="iscas and macro on one circuit each, one round")
    parser.add_argument("--out", help="merged record of all workloads run")
    parser.add_argument("--record", help="full record of a single workload run")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.rounds = 1
        if args.workload == "all":
            args.workload = "iscas,macro"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        _, timing = HostClock().measure(
            lambda: prepare(args.workload, args.seed, args.smoke)
        )
        print(f"ready {timing.probe!r}", flush=True)
        return 0
    workloads = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # Children (set-up probes, check workers, the compiler) inherit these,
    # so the run reads and writes only inside the checkout.
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    try:
        build_native()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(workloads) > 1 or args.out:
        return run_many(args, workloads)
    args.workload = workloads[0]
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
