"""Executable versions of the docs/GUIDE.md snippets — documentation
that cannot silently rot."""


class TestGuideSnippets:
    def test_bdd_engine_snippet(self):
        from repro.bdd import BDDManager, exists, sat_count, dag_size

        m = BDDManager(3)
        f = m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(2))
        assert m.leq(m.apply_and(m.var(0), m.var(1)), f)
        g = exists(m, f, [2])
        assert sat_count(m, f, 3) == 5
        assert dag_size(m, f) >= 3
        x, y, z = m.function_vars("x", "y", "z")
        h = (x & y) | ~z
        assert (x & y) <= h

    def test_kernel_performance_snippet(self):
        from repro.bdd import BDDManager, exists

        m = BDDManager(6)
        f = m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(4))
        cube = m.intern_cube([1, 4])
        assert m.intern_cube([4, 1]) is cube
        g = exists(m, f, cube)
        assert exists(m, f, [1, 4]) == g
        assert m.cache_sizes()["exists"] > 0
        evicted = m.clear_caches()
        assert evicted > 0
        assert m.cache_sizes()["exists"] == 0
        assert exists(m, f, cube) == g

    def test_interval_snippet(self):
        from repro.bdd import BDDManager
        from repro.intervals import Interval

        m = BDDManager(3)
        f = m.apply_and(m.var(0), m.var(1))
        dc = m.var(2)
        interval = Interval.with_dont_cares(m, f, dc)
        assert interval.is_consistent()
        assert interval.num_members(3) == 2 ** 4
        reduced, dropped = interval.reduce_support()
        assert reduced.is_consistent()

    def test_partition_space_snippet(self):
        from repro.bdd import BDDManager
        from repro.bidec import or_partition_space, decompose_interval
        from repro.intervals import Interval

        m = BDDManager(4)
        f = m.apply_or(
            m.apply_and(m.var(0), m.var(1)), m.apply_and(m.var(2), m.var(3))
        )
        interval = Interval.exact(m, f)
        space = or_partition_space(interval).nontrivial()
        assert space.size_pairs()
        assert space.best_balanced_pair() == (2, 2)
        assert space.count_choices(2, 2) >= 1
        d = decompose_interval(interval)
        assert d is not None and d.verify()

    def test_decomposition_backends_snippet(self):
        from repro.bdd import BDDManager
        from repro.bidec import make_backend
        from repro.intervals import Interval

        m = BDDManager(4)
        f = m.apply_or(
            m.apply_and(m.var(0), m.var(1)), m.apply_and(m.var(2), m.var(3))
        )
        interval = Interval.exact(m, f)
        sat = make_backend("sat-cegar", max_iterations=256)
        d = sat.decompose_interval(interval)
        assert d is None or d.verify()
        assert d is not None  # this cone is OR-decomposable

    def test_recursive_snippet(self):
        from repro.bdd import BDDManager
        from repro.bidec import decompose_recursive
        from repro.intervals import Interval

        m = BDDManager(4)
        f = m.apply_xor(m.var(0), m.apply_and(m.var(1), m.var(2)))
        tree = decompose_recursive(Interval.exact(m, f), minimize_leaves=True)
        assert tree.num_gates() >= 0 and tree.depth() >= 1
        assert tree.function == f

    def test_reach_and_map_snippet(self):
        from repro.benchgen import iscas_analog
        from repro.mapping import load_library, map_network
        from repro.reach import DontCareManager

        net = iscas_analog("s344")
        dcm = DontCareManager(net, max_partition_size=16)
        assert dcm.partitions
        library = load_library()
        result = map_network(net, library, mode="area")
        assert result.area > 0 and result.delay > 0

    def test_synth_snippet(self):
        from repro.benchgen import iscas_analog
        from repro.network import outputs_equal
        from repro.synth import SynthesisOptions, algorithm1

        net = iscas_analog("s344")
        report = algorithm1(
            net,
            SynthesisOptions(
                use_unreachable_states=True, dc_source="reachability"
            ),
        )
        assert outputs_equal(net, report.network, cycles=24)
        assert report.runtime >= 0

    def test_pipeline_snippet(self):
        from repro.benchgen import iscas_analog
        from repro.engine import Pipeline, SynthesisOptions
        from repro.network import outputs_equal
        from repro.synth import algorithm1

        net = iscas_analog("s344")
        pipeline = Pipeline(
            [
                "cleanup",
                {"pass": "decompose", "max_support": 9},
                "finalize",
                "sweep",
                "strash",
                "sweep",
            ]
        )
        report = algorithm1(net, SynthesisOptions(), pipeline=pipeline)
        assert outputs_equal(net, report.network, cycles=24)
        assert not report.degraded

        config = pipeline.to_config()
        assert Pipeline.from_config(config).pass_names() == pipeline.pass_names()

        starved = algorithm1(net, SynthesisOptions(node_budget=40))
        assert starved.degraded and "node budget" in starved.degrade_reason
        assert outputs_equal(net, starved.network, cycles=24)

    def test_observability_snippet(self):
        from repro import obs
        from repro.bdd import BDDManager

        obs.reset()
        with obs.scope():
            m = BDDManager(4)
            f = m.apply_and(m.var(0), m.var(1))
            m.apply_and(m.var(0), m.var(1))
        report = obs.report()
        assert report["counters"]["bdd.cache.and.hits"] >= 1
        assert "bdd" in report["families"]
        assert "BDD cache efficiency" in obs.render_profile(report)
        assert f
        obs.reset()

    def test_run_ledger_snippet(self, tmp_path):
        from repro import obs
        from repro.benchgen import iscas_analog
        from repro.obs import ledger as obs_ledger
        from repro.synth import SynthesisOptions, algorithm1

        net = iscas_analog("s344")
        ledger = obs_ledger.RunLedger(tmp_path / "runs.db")
        run_id = ledger.begin_run(
            command="optimize", input="s344",
            netlist_signature=obs_ledger.netlist_signature(net),
        )
        run = obs.install(obs_ledger.LedgerRun(ledger, run_id))
        report = algorithm1(net.copy(), SynthesisOptions())
        run.finish(wall=report.runtime)
        obs.uninstall(run)

        assert ledger.run(run_id)["status"] == "finished"
        assert ledger.cones(run_id)
        assert ledger.passes(run_id)
        ledger.close()

    def test_live_telemetry_snippet(self):
        from repro import obs
        from repro.benchgen import iscas_analog
        from repro.obs import bus as obs_bus
        from repro.obs import openmetrics
        from repro.synth import SynthesisOptions, algorithm1

        net = iscas_analog("s344")
        bus = obs.install(obs_bus.TelemetryBus(run_id="demo"))
        report = algorithm1(net, SynthesisOptions(parallel_workers=2))
        obs.uninstall(bus)
        bus.close()

        snap = bus.snapshot()
        assert snap["events"]["cone.end"] == snap["events"]["cone.start"]
        assert snap["events_dropped"] == 0
        text = openmetrics.render(bus_snapshot=snap)
        families = openmetrics.parse_openmetrics(text)
        assert "repro_bus_events_total" in families
        assert report.network is not None

    def test_tracing_snippet(self, tmp_path):
        import json

        from repro import obs
        from repro.obs import trace as obs_trace

        obs.reset()
        with obs.tracing() as recorder:
            with obs.span("phase.read"):
                obs.event("netlist.loaded", gates=120)
        chrome = recorder.write(tmp_path / "run.trace")
        jsonl = recorder.write(tmp_path / "run.jsonl")
        payload = json.loads(chrome.read_text())
        assert all(
            k in e for e in payload["traceEvents"]
            for k in ("ph", "ts", "pid", "tid")
        )
        assert json.loads(jsonl.read_text().splitlines()[0])["ph"] == "M"
        summary = obs_trace.summarize(recorder.records())
        assert summary["spans"]["phase.read"]["count"] == 1
        obs.reset()
