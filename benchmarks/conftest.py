"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures; rows are
printed to stdout (run with ``pytest benchmarks/ --benchmark-only -s`` to
see them live) and appended to ``benchmarks/results/<experiment>.txt`` so
a plain ``pytest benchmarks/ --benchmark-only`` run leaves the tables on
disk.  EXPERIMENTS.md records the shape comparison against the paper.

Alongside each text table, every ``bench_<name>.py`` module also leaves a
machine-readable ``results/BENCH_<name>.json`` — one entry per test with
its wall time and a ``repro.obs`` metrics snapshot — so the performance
trajectory is diffable across PRs.  Instrumentation is on by default for
the experiment benches and **off** for ``bench_substrate.py`` (whose
statistical timings must stay comparable with uninstrumented runs);
``REPRO_BENCH_OBS=1``/``0`` overrides either way.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import obs

RESULTS_DIR = Path(__file__).parent / "results"

#: Modules whose timings are regression-gated and therefore run without
#: instrumentation unless explicitly requested.
TIMING_SENSITIVE = {"bench_substrate"}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "ungated: record this bench's timings in the JSON results but "
        "exclude them from the regression gate (informational rows like "
        "the telemetry-overhead comparison)",
    )


def scale_from_env(name: str, default: float) -> float:
    """Workload scale factor, overridable via environment (e.g.
    ``REPRO_E4_SCALE=1.0`` for a full-size, much slower run)."""
    return float(os.environ.get(name, default))


class TableWriter:
    """Accumulates printed rows of one experiment's table."""

    def __init__(self, experiment: str, title: str) -> None:
        self.experiment = experiment
        self.path = RESULTS_DIR / f"{experiment}.txt"
        RESULTS_DIR.mkdir(exist_ok=True)
        if not self.path.exists():
            self._write_line(title)
            self._write_line("=" * len(title))

    def row(self, text: str) -> None:
        print(text)
        self._write_line(text)

    def _write_line(self, text: str) -> None:
        with self.path.open("a") as handle:
            handle.write(text + "\n")


def fresh_table(experiment: str, title: str, header: str) -> TableWriter:
    """Start (or restart) an experiment's results file."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    if path.exists():
        path.unlink()
    writer = TableWriter(experiment, title)
    writer.row(header)
    return writer


_WRITERS: dict[str, TableWriter] = {}


def get_table(experiment: str, title: str, header: str) -> TableWriter:
    """Session-cached writer: the first request in a pytest session
    restarts the results file, later requests (parametrized rows) append."""
    writer = _WRITERS.get(experiment)
    if writer is None:
        writer = fresh_table(experiment, title, header)
        _WRITERS[experiment] = writer
    return writer


# ---------------------------------------------------------------------------
# Machine-readable run records
# ---------------------------------------------------------------------------

#: Experiments whose JSON file was already restarted this session.
_JSON_STARTED: set[str] = set()

#: Compact metrics captured by :func:`capture_substrate_metrics` for
#: timing-sensitive tests, keyed by test name.
_EXTRA_METRICS: dict[str, dict] = {}


def _bench_obs_enabled(module: str) -> bool:
    override = os.environ.get("REPRO_BENCH_OBS")
    if override is not None:
        return override not in ("0", "false", "")
    return module not in TIMING_SENSITIVE


def capture_substrate_metrics(request, fn) -> None:
    """Run ``fn`` once under instrumentation and stash a compact metrics
    summary (BDD cache hit rates + structure gauges) for the current
    test's JSON record.

    Timing-sensitive modules keep their *timed* rounds uninstrumented;
    this extra pass afterwards is how their ``metrics`` field gets
    populated without perturbing the measurement.  No-op when the module
    already records a full instrumented snapshot.
    """
    if _bench_obs_enabled(request.module.__name__):
        return
    from repro.obs import cache_efficiency

    obs.reset()
    with obs.scope():
        fn()
    report = obs.report()
    gauges = report.get("gauges", {})
    stash_extra_metrics(request, {
        "bdd_cache": cache_efficiency(report),
        "bdd_nodes_peak": gauges.get("bdd.nodes.peak"),
        "bdd_managers": gauges.get("bdd.managers.total"),
    })
    obs.reset()


def stash_extra_metrics(request, extra: dict) -> None:
    """Merge ``extra`` into the current test's JSON ``metrics`` field
    (timing-sensitive modules only — instrumented modules already record
    a full snapshot)."""
    _EXTRA_METRICS.setdefault(request.node.name, {}).update(extra)


def _benchmark_timing(request) -> dict | None:
    """Per-round statistics from the pytest-benchmark fixture, if the
    test used one — the speed signal the regression gate prefers over
    the fixture-scope ``wall_time`` (which includes untimed setup)."""
    fixture = request.node.funcargs.get("benchmark")
    stats = getattr(fixture, "stats", None)
    if stats is None:
        return None
    data = stats.stats
    return {
        "mean": round(data.mean, 9),
        "min": round(data.min, 9),
        "max": round(data.max, 9),
        "stddev": round(data.stddev, 9) if data.rounds > 1 else 0.0,
        "rounds": data.rounds,
    }


def record_bench_json(module: str, test: str, wall_time: float,
                      metrics: dict | None,
                      timing: dict | None = None,
                      instrumented: bool | None = None,
                      gated: bool = True,
                      native: bool | None = None) -> Path:
    """Append one test's record to ``results/BENCH_<module>.json``
    (restarting the file once per session, like the text tables).

    ``instrumented`` records whether obs collection was live during the
    timed run — the regression gate refuses to compare instrumented
    timings against uninstrumented baselines, since tracing/monitoring
    is off by default and the committed numbers assume that.
    ``native`` records whether the native BDD kernel was loaded, since
    the pure-Python cores run the same work an order of magnitude
    slower; the gate refuses to compare timings across kernels too.
    ``gated=False`` marks informational rows the gate must skip.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    experiment = module.removeprefix("bench_")
    path = RESULTS_DIR / f"BENCH_{experiment}.json"
    if experiment not in _JSON_STARTED or not path.exists():
        payload = {"experiment": experiment, "entries": []}
        _JSON_STARTED.add(experiment)
    else:
        payload = json.loads(path.read_text())
    entry = {
        "test": test,
        "wall_time": round(wall_time, 6),
        "metrics": metrics,
    }
    if timing is not None:
        entry["timing"] = timing
    if instrumented is not None:
        entry["instrumented"] = instrumented
    if native is not None:
        entry["native"] = native
    if not gated:
        entry["gated"] = False
    payload["entries"].append(entry)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _native_loaded() -> bool:
    """Whether BDD managers in this process run the native kernel."""
    from repro.bdd import native

    try:
        return native.kernel() is not None
    except RuntimeError:  # REPRO_NATIVE=require and the load failed
        return False


@pytest.fixture(autouse=True)
def _bench_run_record(request):
    """Time every bench test and persist a JSON record next to the text
    table, with a full metrics snapshot when instrumentation is on."""
    module = request.module.__name__
    if not module.startswith("bench_"):
        yield
        return
    instrumented = _bench_obs_enabled(module)
    if instrumented:
        obs.reset()
        obs.enable()
    start = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - start
        metrics = None
        if instrumented:
            obs.disable()
            metrics = obs.report()["families"]
            obs.reset()
        else:
            metrics = _EXTRA_METRICS.pop(request.node.name, None)
        record_bench_json(
            module, request.node.name, wall, metrics,
            timing=_benchmark_timing(request),
            instrumented=instrumented,
            gated=request.node.get_closest_marker("ungated") is None,
            native=_native_loaded(),
        )
