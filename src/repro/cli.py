"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``stats FILE``
    Print interface/size statistics of a BLIF or ``.bench`` netlist.
``optimize FILE -o OUT``
    Run the Algorithm 1 synthesis pipeline and write the optimised
    netlist.  Its synthesis flags are generated from the
    :class:`SynthesisOptions` fields, which document each knob;
    ``--pipeline-config`` merges more options over them and swaps in its
    pass list if it has one, and ``--checkpoint``/``--resume`` persist
    and pick up pass-boundary state.
``resynth FILE -o OUT``
    Iterate Algorithm 1 to a literal-count fixpoint (the Section 3.7
    re-synthesis loop), printing the literal trajectory.
``map FILE``
    Technology-map a netlist and report area/delay (optionally after
    optimisation with ``--optimize``).
``reach FILE``
    Partitioned reachability analysis; report per-partition state counts
    and the approximate ``log2`` of the reachable space.
``decompose FILE SIGNAL``
    Collapse one signal, retrieve its unreachable-state don't cares, and
    report its best bi-decomposition with and without them.
``check LEFT RIGHT``
    Equivalence check between two netlists (BDD engine; ``--sat`` for
    the SAT miter; ``--sequential`` for the reachable-constrained check).
``generate NAME -o OUT``
    Emit one of the benchmark analogs (s344..s9234, seq4..seq9) as BLIF.
``profile TARGET``
    Run a workload under full instrumentation and print the phase-time /
    cache-efficiency table (``TARGET`` is a netlist path or a known
    benchmark name).

``trace FILE``
    Summarize a recorded trace (top spans by self time, counter tracks,
    unclosed spans) and optionally convert JSONL to Chrome trace-event
    JSON with ``--convert OUT``.
``history {list,show,compare,regressions,export} --ledger PATH``
    Inspect a run ledger (see below): list recorded runs, show one run's
    pass/cone rows, compare two runs for synthesis-quality or wall-time
    regressions (exit 2 on regression — a CI gate), scan every
    (command, input) trajectory, or export everything as JSONL.

The ``optimize``, ``reach``, ``decompose`` and ``map`` commands accept
``--profile`` (print the table after the run) and ``--stats-json PATH``
(write the machine-readable metrics report); either flag turns the
:mod:`repro.obs` instrumentation on for the run.

The long-run commands (``optimize``, ``resynth``, ``profile``) also
accept ``--trace FILE`` (record a span/counter timeline, Chrome JSON or
``.jsonl``), ``--status-file PATH`` (atomically rewritten heartbeat a
watcher can poll) and ``--monitor-interval SECS`` (sampling period of
the runtime monitor; ``0`` disables it).  On an unhandled exception any
instrumented command writes a crash-diagnostic bundle (exception +
traceback, obs report, trace tail, BDD manager stats, latest checkpoint
path) before re-raising; ``--crash-dump PATH`` sets its location.

Live telemetry (same long-run commands): ``--metrics-file PATH``
atomically rewrites an OpenMetrics text exposition every monitor
interval, ``--metrics-port PORT`` serves it at
``http://127.0.0.1:PORT/metrics`` on a daemon thread, and
``--log-json PATH`` appends a structured JSONL run log (pass
boundaries, per-cone worker events, run/cone-correlated).  Any of these
— or ``--status-file`` — also brings up the cross-process telemetry
bus: worker processes stream per-cone start/progress/heartbeat/degrade
events to the parent while cones are in flight, status.json gains
per-worker liveness rows with stalled-cone detection, and ``repro top
--status-file PATH`` tails it all into a live terminal view.  The whole
layer is off by default, adds zero imports when off, and is strictly
out-of-band: synthesis output is bit-identical with telemetry on or off.

The same long-run commands accept ``--ledger PATH``: append this run —
wall/literal/degradation results, per-pass timings, one row per
committed cone with its canonical interval signature — to a persistent
SQLite run ledger (WAL mode, safe for concurrent appenders).

Every command runs inside one observability scope (:class:`_Run`): it
installs the sinks these flags ask for into :mod:`repro.obs` — each
engine fact is emitted once and reaches all of them — and uninstalls
them on every exit path, crash included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.network.netlist import Network


def _load(path: str) -> Network:
    from repro.network import read_bench, read_blif

    if path.endswith(".bench"):
        return read_bench(path)
    return read_blif(path)


def _save(network: Network, path: str) -> None:
    from repro.network import expand_covers, save_bench, save_blif, save_verilog, sweep

    if path.endswith(".bench"):
        # .bench has no cover construct; expand to primitives first.
        prepared = network.copy()
        if any(node.op == "cover" for node in prepared.nodes.values()):
            expand_covers(prepared)
            sweep(prepared)
        save_bench(prepared, path)
    elif path.endswith(".v"):
        save_verilog(network, path)
    else:
        save_blif(network, path)


class _Run:
    """One command's observability scope.

    Entering it installs into :mod:`repro.obs` the sinks the command's
    flags ask for — trace recorder, structured log, telemetry bus, plus
    the metrics exporter and runtime monitor that read them — and
    :meth:`open_ledger` adds the ledger run once the input is loaded.
    Leaving it always takes them down again: after success, after an
    early error return, and after a crash, which first writes the crash
    bundle from the installed sinks.  The live-telemetry and ledger
    modules are imported only when their flags are given, so a run
    without them never loads them."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        #: The command's exit status (``None`` until it returned).
        self.code: "int | None" = None
        #: The stats report's ``run`` section.
        self.info: dict = {"command": args.command}
        if getattr(args, "file", None):
            self.info["input"] = args.file
        #: Result columns of the ledger's run row.
        self.results: dict = {}
        self.recorder = self.logger = self.bus = None
        self.exporter = self.monitor = self.ledger = None
        self._installed: list = []
        self._scope = None

    def _flag(self, name: str):
        return getattr(self.args, name, None)

    @property
    def _reports(self) -> bool:
        return bool(
            self._flag("profile") or self._flag("stats_json")
            or self.args.command == "profile"
        )

    def __enter__(self) -> "_Run":
        try:
            self._open()
        except BaseException as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise
        return self

    def _install(self, sink):
        from repro import obs

        self._installed.append(obs.install(sink))
        return sink

    def _open(self) -> None:
        from repro import obs
        from repro.obs import crashdump

        flag = self._flag
        crashdump.clear_crash_context()
        crashdump.set_crash_context(command=self.args.command)
        live = (
            flag("status_file") or flag("metrics_file") or flag("log_json")
            or flag("metrics_port") is not None
        )
        if self._reports or live or flag("trace"):
            # Before any manager is built, so cache stats are tracked.
            obs.reset()
            self._scope = obs.scope()
            self._scope.__enter__()
        if flag("trace"):
            self.recorder = self._install(obs.TraceRecorder())
        if flag("log_json"):
            from repro.obs.logging import StructuredLogger

            self.logger = self._install(StructuredLogger(flag("log_json")))
            self.logger.log(obs.record(
                "run.start", command=self.args.command,
                argv=list(sys.argv[1:]),
            ), "info")
        if live:
            # The bus backs every live view (status.json worker rows,
            # OpenMetrics worker gauges, log-mirrored cone events).
            # Out-of-band by design: output is bit-identical without it.
            from repro.obs.bus import TelemetryBus

            self.bus = self._install(TelemetryBus())
        if flag("metrics_file") or flag("metrics_port") is not None:
            from repro.obs.openmetrics import MetricsExporter

            self.exporter = MetricsExporter(
                path=flag("metrics_file"), port=flag("metrics_port"),
                bus=self.bus,
            )
            if self.exporter.bound_port is not None:
                print(
                    "metrics endpoint: "
                    f"http://127.0.0.1:{self.exporter.bound_port}/metrics"
                )
        interval = flag("monitor_interval") or 0
        if interval > 0 and (
            flag("trace") or flag("status_file") or self.exporter is not None
        ):
            self.monitor = obs.RuntimeMonitor(
                interval=interval, status_file=flag("status_file"),
                bus=self.bus, exporter=self.exporter,
            )
            self.monitor.start()

    def governor(self, options):
        """A governor built from the options' budgets and registered
        with the monitor, so status samples show the remaining budget
        (``None`` without a monitor: the engine builds its own)."""
        if self.monitor is None:
            return None
        from repro.engine import ResourceGovernor

        self.monitor.governor = ResourceGovernor(
            time_budget=options.time_budget, node_budget=options.node_budget
        )
        return self.monitor.governor

    def open_ledger(self, network, options, pipeline=None) -> None:
        """Register this run in the ``--ledger`` file (if given) and
        install its :class:`~repro.obs.ledger.LedgerRun` sink."""
        path = self._flag("ledger")
        if not path:
            return
        from repro import obs
        from repro.obs import ledger as obs_ledger

        ledger = obs_ledger.RunLedger(path)
        try:
            run_id = ledger.begin_run(
                command=self.args.command,
                argv=list(sys.argv[1:]),
                input=self._flag("file") or self._flag("target"),
                netlist_signature=obs_ledger.netlist_signature(network),
                config_hash=obs_ledger.config_hash(
                    options,
                    pipeline.pass_names() if pipeline is not None else None,
                ),
                workers=getattr(options, "parallel_workers", 0) or 0,
                instrumented=obs.enabled(),
            )
        except BaseException:
            ledger.close()
            raise
        self.ledger = self._install(obs_ledger.LedgerRun(ledger, run_id))

    def __exit__(self, exc_type, exc, tb) -> bool:
        from repro import obs

        if exc is not None:
            self._crash(exc)
        try:
            self._close(chatter=exc is None)
        finally:
            for sink in self._installed:
                obs.uninstall(sink)
            if self._scope is not None:
                self._scope.__exit__(None, None, None)
        if exc is None and self.code == 0 and self._reports:
            report = obs.report()
            report["run"] = self.info
            if self._flag("stats_json"):
                obs.write_report(self.args.stats_json, report)
                print(f"wrote {self.args.stats_json}")
            if self._flag("profile") or self.args.command == "profile":
                print(obs.render_profile(report))
        return False

    def _crash(self, exc: BaseException) -> None:
        """Best-effort crash diagnostics: flush the partial trace, write
        the crash bundle (for instrumented runs or an explicit
        ``--crash-dump``, so plain usage never litters the working
        directory), and mark the ledger run crashed."""
        from repro.obs import crashdump

        flag = self._flag
        if self.recorder is not None:
            try:
                self.recorder.write(flag("trace"))
                print(
                    f"wrote {flag('trace')} (partial trace)", file=sys.stderr
                )
            except Exception:
                pass
        dump = flag("crash_dump")
        if dump is None and any(
            flag(name) for name in
            ("trace", "status_file", "stats_json", "checkpoint", "profile")
        ):
            dump = f"repro_crash_{self.args.command}.json"
        if dump is not None:
            written = crashdump.write_crash_bundle(dump, exc)
            if written is not None:
                print(f"crash bundle written to {written}", file=sys.stderr)
        if self.ledger is not None:
            self.ledger.finish(
                "crashed", extra={"error": f"{type(exc).__name__}: {exc}"}
            )

    def _close(self, chatter: bool) -> None:
        """Teardown in dependency order: the final monitor sample (reads
        the bus and the ledger sink), the final exposition (reads the
        bus), the bus drain (mirrors into the log), the log, the trace
        file, the ledger row.  ``chatter`` is off after a crash, whose
        diagnostics are already written."""
        if self.monitor is not None:
            self.monitor.stop()
            if chatter and self.monitor.status_file is not None:
                print(f"wrote {self.monitor.status_file}")
        if self.exporter is not None:
            self.exporter.close()
            if chatter and self.exporter.path is not None:
                print(f"wrote {self.exporter.path}")
        if self.bus is not None:
            self.bus.close()
        if self.logger is not None:
            from repro import obs

            bus = self.bus
            self.logger.log(obs.record(
                "run.end",
                bus_events=bus.events_total() if bus is not None else 0,
                bus_dropped=bus.events_dropped if bus is not None else 0,
            ), "info")
            self.logger.close()
            if chatter and self.logger.path is not None:
                print(
                    f"wrote {self.logger.path} "
                    f"({self.logger.records_written} log records)"
                )
        if chatter and self.recorder is not None:
            written = self.recorder.write(self.args.trace)
            print(
                f"wrote {written} ({len(self.recorder.records())} trace "
                f"records, {self.recorder.dropped} dropped)"
            )
        if self.ledger is not None:
            if chatter and self.code == 0:
                self.ledger.finish(
                    peak_nodes=self._peak_nodes(), **self.results
                )
            elif chatter:
                self.ledger.finish("failed")
            self.ledger.ledger.close()
            if chatter:
                print(f"ledger: run {self.ledger.run_id} -> "
                      f"{self.ledger.ledger.path}")

    @staticmethod
    def _peak_nodes() -> "int | None":
        """Peak BDD node count of this run when instrumentation is on
        (``None`` otherwise — an uninstrumented run tracks no managers)."""
        from repro import obs

        return obs.registry().bdd_peak_nodes() if obs.enabled() else None


def cmd_stats(args: argparse.Namespace, run: _Run) -> int:
    network = _load(args.file)
    stats = network.stats()
    print(f"{network.name}:")
    for key, value in stats.items():
        print(f"  {key:>8}: {value}")
    if args.bdd:
        from repro.bdd import BDDManager
        from repro.network.bdd_build import ConeCollapser

        manager = BDDManager()
        manager.enable_stats()
        collapser = ConeCollapser(network, manager)
        skipped = 0
        for sink in network.combinational_sinks():
            if sink in network.inputs or sink in network.latches:
                continue
            if len(network.cone_inputs(sink)) > args.max_cone_inputs:
                skipped += 1
                continue
            collapser.node_function(sink)
        print("bdd (collapsed combinational cones):")
        snapshot = manager.stats_snapshot()
        for key in ("num_vars", "num_nodes", "unique_size"):
            print(f"  {key:>16}: {snapshot[key]}")
        print(f"  {'peak_nodes':>16}: {snapshot['num_nodes']}")
        for op in (
            "ite", "and", "or", "xor", "not",
            "exists", "forall", "and_exists",
        ):
            hits = snapshot[f"cache.{op}.hits"]
            misses = snapshot[f"cache.{op}.misses"]
            size = snapshot[f"cache.{op}.size"]
            lookups = hits + misses
            rate = f"{100 * hits / lookups:5.1f}%" if lookups else "    -"
            print(
                f"  {f'cache.{op}':>16}: size={size} hits={hits} "
                f"misses={misses} rate={rate}"
            )
        if skipped:
            print(f"  (skipped {skipped} cones over "
                  f"{args.max_cone_inputs} inputs)")
    return 0


def _add_knob_flags(command: argparse.ArgumentParser) -> None:
    """Add the flag of each :class:`SynthesisOptions` field that names
    one, stored under the field's name; a bool knob that defaults to
    True gets a ``--no-...`` flag that stores False."""
    from dataclasses import fields

    from repro.engine.context import OPTION_TYPES, SynthesisOptions

    for spec in fields(SynthesisOptions):
        flag, choices = spec.metadata["flag"], spec.metadata["choices"]
        if flag is None:
            continue
        if isinstance(spec.default, bool):
            how = {"action": "store_false" if spec.default else "store_true"}
        else:
            # The metavar argparse would derive from the flag, not the dest.
            metavar = None if choices else flag[2:].replace("-", "_").upper()
            how = {"type": OPTION_TYPES[spec.name][0], "default": spec.default,
                   "choices": choices, "metavar": metavar}
        command.add_argument(
            flag, dest=spec.name, help=spec.metadata["help"], **how
        )


def _options(args: argparse.Namespace):
    """The :class:`SynthesisOptions` the knob flags set."""
    from repro.engine import SynthesisOptions

    knobs = SynthesisOptions.__dataclass_fields__
    return SynthesisOptions(
        **{name: value for name, value in vars(args).items() if name in knobs}
    )


def _pipeline_config(path: str, options):
    """``(options, pipeline)`` from a ``--pipeline-config`` file: its
    ``options`` merged over ``options``, its ``passes`` as a pipeline, or
    ``None`` without that key (the standard pipeline runs)."""
    import json

    from repro.engine import Pipeline, SynthesisOptions

    config = json.loads(Path(path).read_text())
    knobs = config.get("options", {}) if isinstance(config, dict) else None
    if not isinstance(knobs, dict):
        raise ValueError('expected {"options": {...}, "passes": [...]}')
    options = SynthesisOptions.from_dict(knobs, base=options)
    pipeline = Pipeline.from_config(config) if "passes" in config else None
    return options, pipeline


def _simulation_agrees(network: Network, optimized: Network) -> bool:
    """The 32-cycle random-simulation gate after synthesis."""
    from repro.network import outputs_equal

    if outputs_equal(network, optimized, cycles=32):
        return True
    print("ERROR: random simulation found a mismatch", file=sys.stderr)
    return False


def cmd_optimize(args: argparse.Namespace, run: _Run) -> int:
    from repro.synth import algorithm1

    network = _load(args.file)
    options = _options(args)
    if args.resume:
        if not args.checkpoint:
            print("--resume needs --checkpoint PATH", file=sys.stderr)
            return 1
        if not Path(args.checkpoint).exists():
            print(f"no checkpoint at {args.checkpoint}", file=sys.stderr)
            return 1
        from repro.engine import resume_pipeline

        run.open_ledger(network, options)
        report = resume_pipeline(args.checkpoint).to_report()
    else:
        pipeline = None
        if args.pipeline_config:
            try:
                options, pipeline = _pipeline_config(
                    args.pipeline_config, options
                )
            except (OSError, ValueError) as exc:
                print(f"error: {args.pipeline_config}: {exc}", file=sys.stderr)
                return 1
        run.open_ledger(network, options, pipeline)
        report = algorithm1(
            network,
            options,
            pipeline=pipeline,
            governor=run.governor(options),
            checkpoint=args.checkpoint,
        )
    if not _simulation_agrees(network, report.network):
        return 1
    before, after = network.stats(), report.network.stats()
    print(
        f"literals {before['literals']} -> {after['literals']}, "
        f"and/inv {before['and_inv']} -> {after['and_inv']}, "
        f"decomposed {report.decomposed()} signals in {report.runtime:.1f}s"
    )
    if report.degraded:
        print(f"degraded: {report.degrade_reason}")
        cones = report.artifacts.get("parallel.degraded_cones")
        if cones:
            print(f"degraded cones: {', '.join(cones)}")
    _save(report.network, args.output)
    print(f"wrote {args.output}")
    run.results.update(
        wall=report.runtime,
        literals_before=before["literals"],
        literals_after=after["literals"],
        latches=len(report.network.latches),
        decomposed=report.decomposed(),
        degraded=report.degraded,
        degraded_cones=sum(
            1 for r in report.records if getattr(r, "action", None) == "copied"
        ),
    )
    from repro.engine.checkpoint import json_safe_artifacts

    run.info.update(
        literals_before=before["literals"],
        literals_after=after["literals"],
        decomposed=report.decomposed(),
        degraded=report.degraded,
        runtime=report.runtime,
        artifacts=json_safe_artifacts(report.artifacts),
    )
    return 0


def cmd_resynth(args: argparse.Namespace, run: _Run) -> int:
    import time

    from repro.synth import resynthesis_loop

    network = _load(args.file)
    options = _options(args)
    run.open_ledger(network, options)
    governor = run.governor(options)
    began = time.perf_counter()
    report = resynthesis_loop(
        network, options, max_rounds=args.rounds, governor=governor
    )
    wall = time.perf_counter() - began
    if not _simulation_agrees(network, report.network):
        return 1
    trajectory = " -> ".join(str(n) for n in report.literal_trajectory)
    print(f"literal trajectory: {trajectory}")
    print(
        f"best {report.network.literal_count()} literals "
        f"after {len(report.rounds)} round(s), "
        f"reduction {report.total_reduction():.3f}"
    )
    if report.degraded:
        print("degraded: resource budget exhausted mid-loop")
    _save(report.network, args.output)
    print(f"wrote {args.output}")
    run.results.update(
        wall=wall,
        literals_before=report.literal_trajectory[0]
        if report.literal_trajectory else None,
        literals_after=report.network.literal_count(),
        latches=len(report.network.latches),
        degraded=report.degraded,
        extra={"rounds": len(report.rounds),
               "trajectory": report.literal_trajectory},
    )
    run.info.update(
        trajectory=report.literal_trajectory,
        rounds=len(report.rounds),
        degraded=report.degraded,
    )
    return 0


def cmd_map(args: argparse.Namespace, run: _Run) -> int:
    from repro.mapping import load_library, map_network

    network = _load(args.file)
    if args.optimize:
        from repro.synth import algorithm1

        optimized = algorithm1(network).network
        if not _simulation_agrees(network, optimized):
            return 1
        network = optimized
    library = load_library(args.library)
    result = map_network(network, library, mode=args.mode)
    print(
        f"area={result.area:.1f} delay={result.delay:.2f} "
        f"gates={result.num_gates}"
    )
    run.info.update(
        area=result.area, delay=result.delay, gates=result.num_gates
    )
    return 0


def cmd_reach(args: argparse.Namespace, run: _Run) -> int:
    from repro.reach import DontCareManager

    network = _load(args.file)
    manager = DontCareManager(
        network,
        max_partition_size=args.partition_size,
        time_budget=args.time_budget,
    )
    manager.compute_all()
    for index, partition in enumerate(manager.partitions):
        result = manager.reachability(index)
        status = "converged" if result.converged else "cut off"
        print(
            f"partition {index}: {len(partition.latches)} latches, "
            f"{result.num_states()} states reached in {result.iterations} "
            f"steps ({status}, {result.runtime:.2f}s)"
        )
    log2_states = manager.approximate_log2_states()
    print(f"approx log2(reachable states) = {log2_states:.2f}")
    run.info.update(
        partitions=len(manager.partitions), log2_states=log2_states
    )
    return 0


def cmd_decompose(args: argparse.Namespace, run: _Run) -> int:
    from repro.bdd import BDDManager, support
    from repro.bidec import decompose_interval
    from repro.intervals import Interval
    from repro.network import ConeCollapser
    from repro.reach import DontCareManager

    network = _load(args.file)
    signal = args.signal
    if not network.is_signal(signal):
        print(f"no signal {signal!r} in the network", file=sys.stderr)
        return 1
    collapser = ConeCollapser(network, BDDManager())
    f = collapser.node_function(signal)
    names = {var: name for name, var in collapser.var_of.items()}

    def describe(result):
        if result is None:
            return "none"
        s1 = sorted(names[v] for v in support(collapser.manager, result.g1))
        s2 = sorted(names[v] for v in support(collapser.manager, result.g2))
        return f"{result.gate.upper()}(g1{s1}, g2{s2})"

    exact = decompose_interval(Interval.exact(collapser.manager, f))
    print(f"support: {sorted(names[v] for v in support(collapser.manager, f))}")
    print(f"without states: {describe(exact)}")
    ps_support = {
        name for name in network.cone_inputs(signal) if name in network.latches
    }
    if ps_support:
        dcm = DontCareManager(network, max_partition_size=args.partition_size)
        unreachable = dcm.unreachable_for(
            ps_support, collapser.manager, collapser.var_of
        )
        interval = Interval.with_dont_cares(collapser.manager, f, unreachable)
        # Section 3.5.3: abstract redundant variables first — don't cares
        # frequently collapse the function below bi-decomposable size.
        reduced, dropped = interval.reduce_support()
        remaining = reduced.support()
        if len(remaining) < 2:
            member = reduced.any_member()
            if member in (0, 1):
                simplified = f"constant {member}"
            else:
                (var,) = support(collapser.manager, member)
                polarity = "" if collapser.manager.hi(member) == 1 else "~"
                simplified = f"literal {polarity}{names[var]}"
            print(f"with states:    simplifies to {simplified}")
        else:
            widened = decompose_interval(reduced)
            print(f"with states:    {describe(widened)}")
        if dropped:
            print(
                "                (unreachable states made "
                f"{sorted(names[v] for v in dropped)} redundant)"
            )
    else:
        print("with states:    (no present-state support)")
    run.info["signal"] = signal
    return 0


def cmd_check(args: argparse.Namespace, run: _Run) -> int:
    from repro.network.check import (
        combinational_equivalent_bdd,
        combinational_equivalent_sat,
        sequential_equivalent_reachable,
    )

    left, right = _load(args.left), _load(args.right)
    if args.sequential:
        result = sequential_equivalent_reachable(left, right)
        kind = "sequential (reachable-constrained)"
    elif args.sat:
        result = combinational_equivalent_sat(left, right)
        kind = "combinational (SAT)"
    else:
        result = combinational_equivalent_bdd(left, right)
        kind = "combinational (BDD)"
    if result.equivalent:
        print(f"EQUIVALENT [{kind}]")
        return 0
    print(f"NOT EQUIVALENT [{kind}]: signal {result.failing_signal}")
    if result.counterexample:
        print(f"counterexample: {result.counterexample}")
    return 2


def cmd_simulate(args: argparse.Namespace, run: _Run) -> int:
    from repro.network import random_simulation, save_vcd

    network = _load(args.file)
    frames = random_simulation(
        network, cycles=args.cycles, width=1, seed=args.seed
    )
    save_vcd(network, frames, args.output)
    print(f"wrote {args.output}: {args.cycles} cycles, "
          f"{len(network.inputs) + len(network.latches) + len(network.outputs)} signals")
    return 0


def cmd_convert(args: argparse.Namespace, run: _Run) -> int:
    network = _load(args.file)
    _save(network, args.output)
    print(f"wrote {args.output}")
    return 0


def _benchmark(
    name: str, scale: float = 1.0, unknown: str = "unknown benchmark {!r}"
) -> "Network | None":
    """The benchmark analog called ``name`` at ``scale``; ``None``, after
    printing ``unknown`` and the known names, when there is none."""
    from repro.benchgen import ISCAS_SPECS, MACRO_SPECS, industrial_analog, iscas_analog

    if name in ISCAS_SPECS:
        return iscas_analog(name, latch_scale=scale)
    if name in MACRO_SPECS:
        return industrial_analog(name, scale=scale)
    known = sorted(ISCAS_SPECS) + sorted(MACRO_SPECS)
    print(f"{unknown.format(name)}; known: {known}", file=sys.stderr)
    return None


def cmd_generate(args: argparse.Namespace, run: _Run) -> int:
    network = _benchmark(args.name, args.scale)
    if network is None:
        return 1
    _save(network, args.output)
    print(f"wrote {args.output}: {network.stats()}")
    return 0


def cmd_profile(args: argparse.Namespace, run: _Run) -> int:
    import time

    from repro.synth import SynthesisOptions

    start = time.perf_counter()
    if Path(args.target).exists():
        network = _load(args.target)
        name = Path(args.target).name
    else:
        network = _benchmark(args.target, unknown="{!r} is neither a file "
                             "nor a known benchmark")
        if network is None:
            return 1
        name = args.target
    run_info = run.info
    run_info.update(workload=args.workload, target=name)
    options = SynthesisOptions(time_budget=args.time_budget)
    run.open_ledger(network, options)
    if args.workload == "optimize":
        from repro.synth import algorithm1

        report = algorithm1(network, options)
        run_info["decomposed"] = report.decomposed()
        run_info["literals_before"] = network.stats()["literals"]
        run_info["literals_after"] = report.network.stats()["literals"]
    elif args.workload == "reach":
        from repro.reach import DontCareManager

        manager = DontCareManager(network, time_budget=args.time_budget)
        manager.compute_all()
        run_info["log2_states"] = manager.approximate_log2_states()
    elif args.workload == "map":
        from repro.mapping import load_library, map_network

        result = map_network(network, load_library())
        run_info["area"] = result.area
        run_info["delay"] = result.delay
    else:
        raise ValueError(f"unknown workload {args.workload!r}")
    run_info["wall_time"] = time.perf_counter() - start
    run.results.update(
        wall=run_info["wall_time"],
        literals_before=run_info.get("literals_before"),
        literals_after=run_info.get("literals_after"),
        area=run_info.get("area"),
        delay=run_info.get("delay"),
        extra={"workload": args.workload},
    )
    print(
        f"profile: {args.workload} on {name} "
        f"({run_info['wall_time']:.2f}s wall)"
    )
    return 0


def cmd_trace(args: argparse.Namespace, run: _Run) -> int:
    import json

    from repro.obs import trace as obs_trace

    try:
        records, metadata = obs_trace.load_trace(args.file)
    except FileNotFoundError:
        print(f"error: no trace file at {args.file}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        print(f"error: {args.file} is not a readable trace: {exc}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"no trace records in {args.file}", file=sys.stderr)
        return 1
    if args.convert:
        payload = obs_trace.records_to_chrome(records, metadata=metadata)
        target = Path(args.convert)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload) + "\n")
        print(f"wrote {target} ({len(records)} records)")
    summary = obs_trace.summarize(records)
    print(obs_trace.render_summary(summary, metadata, top=args.top))
    return 0


def _history_list(ledger, args) -> int:
    runs = ledger.runs(
        command=args.run_command, input=args.input, limit=args.limit
    )
    if not runs:
        print("no runs recorded")
        return 0
    print(f"{'id':<12} {'command':<9} {'status':<9} {'lits':>6} "
          f"{'wall':>8} {'deg':>4} {'instr':>5}  input")
    for run in runs:
        lits = run.get("literals_after")
        wall = run.get("wall")
        print(
            f"{run['id']:<12} {run.get('command') or '-':<9} "
            f"{run.get('status') or '-':<9} "
            f"{lits if lits is not None else '-':>6} "
            f"{f'{wall:.2f}s' if wall is not None else '-':>8} "
            f"{run.get('degraded_cones') if run.get('degraded_cones') is not None else '-':>4} "
            f"{'yes' if run.get('instrumented') else 'no':>5}  "
            f"{run.get('input') or '-'}"
        )
    return 0


def _history_show(ledger, args) -> int:
    run = ledger.run(args.run_id)
    print(f"run {run['id']}:")
    for key in (
        "command", "status", "input", "netlist_signature", "config_hash",
        "workers", "instrumented", "wall", "peak_nodes",
        "literals_before", "literals_after", "area", "delay", "latches",
        "decomposed", "degraded", "degraded_cones",
    ):
        value = run.get(key)
        if value is not None:
            print(f"  {key:>18}: {value}")
    passes = ledger.passes(run["id"])
    if passes:
        print("  passes:")
        for row in passes:
            elapsed = row.get("elapsed")
            mark = " (exhausted)" if row.get("exhausted") else ""
            print(f"    {row['idx']:>2} {row['pass']:<20} "
                  f"{f'{elapsed:.3f}s' if elapsed is not None else '-'}{mark}")
    cones = ledger.cones(run["id"])
    if cones:
        slowest = sorted(
            cones, key=lambda c: c.get("elapsed") or 0.0, reverse=True
        )[: args.top]
        print(f"  cones ({len(cones)} total, slowest {len(slowest)}):")
        for cone in slowest:
            elapsed = cone.get("elapsed")
            key = (
                f"key={cone['task_key']}" if cone.get("task_key")
                else f"signature={cone.get('signature') or '-'}"
            )
            print(
                f"    {cone['sink']:<16} {cone.get('action') or '-':<10} "
                f"{f'{elapsed:.3f}s' if elapsed is not None else '-':>8} "
                f"{cone.get('backend') or '-':<9} "
                f"inputs={cone.get('cone_inputs')} {key}"
            )
    return 0


def _history_compare(ledger, args) -> int:
    from repro.obs.ledger import compare_runs

    if args.base and args.current:
        base, current = ledger.run(args.base), ledger.run(args.current)
    else:
        runs = ledger.runs(
            command=args.run_command, input=args.input, status="finished"
        )
        if len(runs) < 2:
            print("error: need two finished runs to compare "
                  f"(found {len(runs)})", file=sys.stderr)
            return 1
        base, current = runs[-2], runs[-1]
    result = compare_runs(base, current, wall_threshold=args.wall_threshold)
    print(f"comparing {base['id']} (base) -> {current['id']} (current)")
    for note in result["notes"]:
        print(f"  note: {note}")
    for row in result["rows"]:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        ratio = f" ({row['ratio']}x)" if "ratio" in row else ""
        print(f"  {row['metric']:>16}: {row['base']} -> "
              f"{row['current']}{ratio}  {verdict}")
    if result["regressions"]:
        print(f"{len(result['regressions'])} regression(s) detected",
              file=sys.stderr)
        return 2
    print("no regressions")
    return 0


def _history_regressions(ledger, args) -> int:
    from repro.obs.ledger import trajectory_regressions

    found = trajectory_regressions(ledger, wall_threshold=args.wall_threshold)
    if not found:
        print("no regressions across any (command, input) trajectory")
        return 0
    for entry in found:
        print(f"{entry['command']} {entry['input']}: "
              f"{entry['base']} -> {entry['current']}")
        for line in entry["regressions"]:
            print(f"  {line}")
    print(f"{len(found)} trajectory regression(s) detected", file=sys.stderr)
    return 2


def _history_export(ledger, args) -> int:
    count = ledger.export_jsonl(args.output)
    print(f"wrote {args.output} ({count} runs)")
    return 0


def cmd_history(args: argparse.Namespace, run: _Run) -> int:
    from repro.obs.ledger import LedgerError, RunLedger

    try:
        ledger = RunLedger(args.ledger, readonly=True)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        handler = {
            "list": _history_list,
            "show": _history_show,
            "compare": _history_compare,
            "regressions": _history_regressions,
            "export": _history_export,
        }[args.history_command]
        return handler(ledger, args)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        ledger.close()


def render_top(
    status: "dict | None",
    metrics_families: "dict | None" = None,
    now: "float | None" = None,
) -> str:
    """One frame of the ``repro top`` live view, rendered from a
    status.json sample (and optionally parsed OpenMetrics families).
    Pure function — the tests drive it directly."""
    import time as _time

    lines: list[str] = []
    current = _time.time() if now is None else now
    if not status:
        return "repro top — waiting for status file ..."
    age = max(0.0, current - float(status.get("time_unix") or current))
    stale = " [STALE]" if age > 3 * float(status.get("interval") or 1.0) else ""
    lines.append(
        f"repro top — pid {status.get('pid')}  "
        f"elapsed {float(status.get('elapsed') or 0.0):8.1f}s  "
        f"sample #{status.get('sample_index')}  "
        f"age {age:.1f}s{stale}"
    )
    ledger = status.get("ledger")
    if ledger:
        lines.append(f"  run: {ledger.get('run_id')} ({ledger.get('path')})")
    bdd = status.get("bdd") or {}
    rss = status.get("rss_kb")
    lines.append(
        f"  bdd: {int(bdd.get('nodes') or 0):>9} nodes / "
        f"{int(bdd.get('managers') or 0)} managers"
        + (f"   rss: {int(rss) // 1024} MiB" if rss else "")
    )
    governor = status.get("governor")
    if governor:
        budget = f"  budget: {int(governor.get('nodes_allocated') or 0)} nodes"
        if governor.get("node_budget"):
            budget += f" / {int(governor['node_budget'])}"
        if governor.get("remaining_time") is not None:
            budget += f"   time left: {governor['remaining_time']:.1f}s"
        lines.append(budget)
    spans = status.get("spans") or {}
    if spans:
        # The deepest active span names the live pipeline phase.
        deepest = max(spans.values(), key=lambda p: p.count("/"))
        lines.append(f"  phase: {deepest}")
    progress = status.get("parallel") or {}
    if progress.get("parallel.cones.total"):
        total = int(progress["parallel.cones.total"])
        finished = int(progress.get("parallel.cones.finished") or 0)
        degraded = int(progress.get("parallel.cones.degraded") or 0)
        width = 30
        filled = int(width * finished / total) if total else 0
        bar = "#" * filled + "-" * (width - filled)
        lines.append(
            f"  cones: [{bar}] {finished}/{total}"
            + (f"  ({degraded} degraded)" if degraded else "")
        )
    bus = status.get("bus")
    if bus:
        lines.append(
            f"  bus: {int(bus.get('events_total') or 0)} events, "
            f"{int(bus.get('events_dropped') or 0)} dropped, "
            f"{int(bus.get('workers_stalled') or 0)} stalled"
        )
    workers = status.get("workers")
    if workers:
        lines.append("")
        lines.append(
            f"  {'pid':>8} {'state':<7} {'cone':<20} {'phase':<12} "
            f"{'in-flight':>9} {'events':>7}"
        )
        for worker in workers:
            in_flight = worker.get("in_flight_s")
            flight = f"{in_flight:8.1f}s" if in_flight is not None else "        -"
            state = worker.get("state") or "?"
            if worker.get("stalled"):
                state = "STALLED"
            lines.append(
                f"  {worker.get('pid'):>8} {state:<7} "
                f"{(worker.get('sink') or '-'):<20.20} "
                f"{(worker.get('phase') or '-'):<12.12} "
                f"{flight} {int(worker.get('events') or 0):>7}"
            )
    if metrics_families:
        pairs = []
        for name in (
            "repro_parallel_tasks_total",
            "repro_pipeline_passes_total",
            "repro_bdd_nodes_peak",
        ):
            family = metrics_families.get(name)
            if family and family["samples"]:
                pairs.append(f"{name}={family['samples'][0][1]:g}")
        if pairs:
            lines.append("")
            lines.append("  metrics: " + "  ".join(pairs))
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace, run: _Run) -> int:
    """Tail a run's status.json (+ optional metrics file) into a live
    refreshing terminal view."""
    import json as _json
    import time as _time

    def read_status() -> "dict | None":
        try:
            return _json.loads(Path(args.watch_status).read_text())
        except (OSError, ValueError):
            return None

    def read_metrics() -> "dict | None":
        if not args.watch_metrics:
            return None
        from repro.obs import openmetrics as obs_openmetrics

        try:
            return obs_openmetrics.parse_openmetrics(
                Path(args.watch_metrics).read_text()
            )
        except (OSError, ValueError):
            return None

    frames = 0
    while True:
        view = render_top(read_status(), read_metrics())
        if not args.once and not args.no_clear:
            print("\x1b[2J\x1b[H", end="")
        print(view)
        frames += 1
        if args.once or (
            args.iterations is not None and frames >= args.iterations
        ):
            return 0
        try:
            _time.sleep(max(0.05, args.interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.engine import SynthesisOptions

    knobs = SynthesisOptions()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sequential logic synthesis using symbolic bi-decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--profile", action="store_true",
            help="collect metrics and print the phase/cache table",
        )
        command.add_argument(
            "--stats-json", metavar="PATH", default=None,
            help="collect metrics and write the JSON report to PATH",
        )

    def add_trace_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace", metavar="FILE", default=None,
            help="record a span/counter timeline to FILE (Chrome "
                 "trace-event JSON; use a .jsonl suffix for JSONL)",
        )
        command.add_argument(
            "--status-file", metavar="PATH", default=None,
            help="atomically rewrite a status.json heartbeat every "
                 "monitor interval",
        )
        command.add_argument(
            "--monitor-interval", type=float, default=1.0, metavar="SECS",
            help="runtime-monitor sampling period (default 1.0; 0 "
                 "disables sampling)",
        )
        command.add_argument(
            "--crash-dump", metavar="PATH", default=None,
            help="where to write the crash-diagnostic bundle on an "
                 "unhandled exception (default: repro_crash_<cmd>.json "
                 "for instrumented runs)",
        )
        command.add_argument(
            "--metrics-file", metavar="PATH", default=None,
            help="atomically rewrite an OpenMetrics text exposition "
                 "every monitor interval (textfile-collector style)",
        )
        command.add_argument(
            "--metrics-port", type=int, default=None, metavar="PORT",
            help="serve the OpenMetrics exposition at "
                 "http://127.0.0.1:PORT/metrics on a daemon thread "
                 "(0 picks a free port)",
        )
        command.add_argument(
            "--log-json", metavar="PATH", default=None,
            help="append a leveled, run-correlated structured JSONL log "
                 "(pass boundaries, worker cone events) to PATH",
        )

    def add_ledger_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--ledger", metavar="PATH", default=None,
            help="append this run (per-pass and per-cone rows included) "
                 "to the SQLite run ledger at PATH; inspect with "
                 "'repro history'",
        )

    p = sub.add_parser("stats", help="netlist statistics")
    p.add_argument("file")
    p.add_argument("--bdd", action="store_true",
                   help="collapse cones and report BDD manager statistics")
    p.add_argument("--max-cone-inputs", type=int,
                   default=knobs.max_cone_inputs,
                   help="skip cones wider than this when collapsing")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("optimize", help="run the Algorithm 1 pipeline")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    _add_knob_flags(p)
    p.add_argument("--pipeline-config", metavar="PATH", default=None,
                   help="JSON pipeline config: "
                        '{"options": {...}, "passes": [...]}')
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="write pass-boundary checkpoints to PATH")
    p.add_argument("--resume", action="store_true",
                   help="resume from the --checkpoint file instead of "
                        "starting over")
    add_obs_flags(p)
    add_trace_flags(p)
    add_ledger_flag(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "resynth",
        help="iterate Algorithm 1 to a literal-count fixpoint",
    )
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--rounds", type=int, default=4,
                   help="maximum re-synthesis rounds")
    _add_knob_flags(p)
    add_obs_flags(p)
    add_trace_flags(p)
    add_ledger_flag(p)
    p.set_defaults(func=cmd_resynth)

    p = sub.add_parser("map", help="technology mapping")
    p.add_argument("file")
    p.add_argument("--library", default=None, help="genlib file (default: bundled)")
    p.add_argument("--mode", choices=("area", "delay"), default="area")
    p.add_argument("--optimize", action="store_true",
                   help="run Algorithm 1 before mapping")
    add_obs_flags(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("reach", help="partitioned reachability analysis")
    p.add_argument("file")
    p.add_argument("--partition-size", type=int,
                   default=knobs.max_partition_size)
    p.add_argument("--time-budget", type=float,
                   default=knobs.reach_time_budget)
    add_obs_flags(p)
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("decompose", help="bi-decompose one signal")
    p.add_argument("file")
    p.add_argument("signal")
    p.add_argument("--partition-size", type=int,
                   default=knobs.max_partition_size)
    add_obs_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "profile",
        help="run a workload under instrumentation and print the "
             "phase-time/cache-efficiency table",
    )
    p.add_argument("target", help="netlist path or benchmark name (e.g. s344)")
    p.add_argument("--workload", choices=("optimize", "reach", "map"),
                   default="optimize")
    p.add_argument("--time-budget", type=float, default=knobs.time_budget)
    p.add_argument("--stats-json", metavar="PATH", default=None,
                   help="also write the JSON report to PATH")
    add_trace_flags(p)
    add_ledger_flag(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "trace",
        help="summarize or convert a recorded trace file",
    )
    p.add_argument("file", help="trace file (Chrome JSON or JSONL)")
    p.add_argument("--top", type=int, default=10,
                   help="how many spans to list by self time")
    p.add_argument("--convert", metavar="OUT", default=None,
                   help="also write the records as Chrome trace-event "
                        "JSON to OUT (JSONL -> Chrome conversion)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "history",
        help="inspect a run ledger: list/show runs, compare for "
             "regressions, export JSONL",
    )
    hist = p.add_subparsers(dest="history_command", required=True)

    def add_ledger_path(command: argparse.ArgumentParser) -> None:
        command.add_argument("--ledger", required=True, metavar="PATH",
                             help="run-ledger SQLite file")

    h = hist.add_parser("list", help="list recorded runs")
    add_ledger_path(h)
    h.add_argument("--command", dest="run_command", default=None,
                   help="only runs of this CLI command")
    h.add_argument("--input", default=None,
                   help="only runs over this input path")
    h.add_argument("--limit", type=int, default=20,
                   help="show at most the newest N runs")
    h.set_defaults(func=cmd_history)

    h = hist.add_parser("show", help="one run in full (passes + cones)")
    add_ledger_path(h)
    h.add_argument("run_id", help="run id (unique prefix accepted)")
    h.add_argument("--top", type=int, default=10,
                   help="how many slowest cones to list")
    h.set_defaults(func=cmd_history)

    h = hist.add_parser(
        "compare",
        help="compare two runs (default: latest two finished); exit 2 "
             "on a quality or wall-time regression",
    )
    add_ledger_path(h)
    h.add_argument("base", nargs="?", default=None,
                   help="baseline run id (default: second-newest)")
    h.add_argument("current", nargs="?", default=None,
                   help="candidate run id (default: newest)")
    h.add_argument("--command", dest="run_command", default=None,
                   help="restrict the default pick to this CLI command")
    h.add_argument("--input", default=None,
                   help="restrict the default pick to this input path")
    h.add_argument("--wall-threshold", type=float, default=0.25,
                   help="fractional wall-time slowdown tolerated "
                        "(default 0.25)")
    h.set_defaults(func=cmd_history)

    h = hist.add_parser(
        "regressions",
        help="scan every (command, input) trajectory: latest vs "
             "previous run; exit 2 if any regressed",
    )
    add_ledger_path(h)
    h.add_argument("--wall-threshold", type=float, default=0.25)
    h.set_defaults(func=cmd_history)

    h = hist.add_parser("export", help="dump all runs as JSONL")
    add_ledger_path(h)
    h.add_argument("-o", "--output", required=True)
    h.set_defaults(func=cmd_history)

    p = sub.add_parser(
        "top",
        help="live terminal view of a running synthesis: tails the "
             "--status-file (and optionally --metrics-file) another "
             "repro process is writing",
    )
    # Inputs, not this run's outputs: their own dest keeps the run
    # scope from treating them as --status-file/--metrics-file.
    p.add_argument("--status-file", dest="watch_status", required=True,
                   metavar="PATH",
                   help="status.json the observed run rewrites")
    p.add_argument("--metrics-file", dest="watch_metrics", metavar="PATH",
                   default=None, help="OpenMetrics textfile of the same run")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECS",
                   help="refresh period (default 1.0)")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="stop after N frames (default: until Ctrl-C)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame and exit")
    p.add_argument("--no-clear", action="store_true",
                   help="do not clear the screen between frames")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("check", help="equivalence check two netlists")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--sat", action="store_true", help="use the SAT miter")
    p.add_argument("--sequential", action="store_true",
                   help="reachable-constrained sequential check")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="random simulation to a VCD trace")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cycles", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convert", help="convert between BLIF/.bench/Verilog")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("generate", help="emit a benchmark analog")
    p.add_argument("name")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with _Run(args) as run:
        run.code = args.func(args, run)
    return run.code


if __name__ == "__main__":  # pragma: no cover - exercised via tests/main
    raise SystemExit(main())
