"""Process-pool parallel cone synthesis.

Algorithm 1's decompose loop treats every combinational sink
independently, and its per-sink step is one function,
:func:`~repro.engine.passes.decompose_sink`, whichever transport runs
it.  The :class:`ParallelConeScheduler` shards the loop across a
``concurrent.futures.ProcessPoolExecutor``: the parent classifies the
sinks exactly as the serial pass does and extracts one serialized
:class:`~repro.synth.conetask.ConeTask` per eligible sink (cone slice +
don't-care cubes + options), workers rebuild each task in a private
:class:`~repro.bdd.manager.BDDManager` and run the shared step through
:func:`~repro.synth.conetask.run_cone_task`, and the parent commits the
returned replacement networks **in the fixed sink order** — which is
what makes ``workers=N`` bit-identical to ``workers=1`` (``workers=1``
runs the very same serialized tasks through the very same worker
function, just inline).  The commit skips a sink that an earlier cone's
structural copy has materialised by then, as the serial loop does.

A worker sends back its step's
:class:`~repro.engine.passes.ConeOutcome` as JSON, and the merge
rebuilds it with :meth:`~repro.engine.passes.ConeOutcome.from_json` and
commits it through the serial pass's own
:func:`~repro.engine.passes.commit_sink`.  So each cone is published as
the same single ``cone`` event on both transports, with the task's
``task_key``, the worker's pid and the step's wall-clock ``started``
added.  A trace recorder draws a forked worker's cone and its phases
from that event; an inline cone's spans were recorded live.  A forked
worker keeps only the telemetry bus of the parent's obs sinks, and
streams its cone's start, phases and end through it.

Failure is degradation, not death:

* a worker that raises degrades its cone to a structural copy (the
  exception + remote traceback land in the crash context via
  :func:`repro.obs.crashdump.record_worker_failure`),
* a worker that exceeds ``worker_timeout`` is abandoned (the future
  times out; lingering processes are terminated at shutdown),
* a worker that *dies* (``os._exit``, OOM-kill) breaks the whole pool —
  every not-yet-finished task is then retried once, each in its own
  single-worker pool, so the crasher is identified and degraded while
  innocent tasks complete.  No task runs more than twice.

Trade-off vs the in-process ``decompose`` pass: the cross-cone sharing
table cannot travel between processes (BDD node ids are manager-local),
so parallel mode shares logic only *within* each cone; the later
``strash`` pass recovers structural sharing.  Parallel and serial
results are therefore sequentially equivalent but not bit-identical.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
from functools import partial
from typing import Any, Optional

from repro import obs as _obs
from repro.engine.context import SynthesisContext
from repro.engine.passes import (
    ConeOutcome,
    _BasePass,
    commit_sink,
    cone_options,
    plan_sinks,
    register_pass,
)
from repro.network.netlist import TopologicalIndex
from repro.synth.conetask import (
    ConeTask,
    dont_care_cubes,
    extract_cone_task,
    format_worker_error,
    run_cone_task,
)

try:  # BrokenProcessPool location is stable but guard for safety
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - ancient stdlib layouts
    BrokenProcessPool = RuntimeError  # type: ignore[misc,assignment]


class ConeShardAborted(RuntimeError):
    """Raised by the ``abort_after_merges`` test hook to simulate a kill
    between cone merges (checkpoint/resume tests)."""


#: Extra seconds the parent waits beyond ``worker_timeout`` before
#: abandoning a future, so a worker-side graceful degrade (its governor
#: tripping) wins over a parent-side hard kill when both are close.
TIMEOUT_GRACE = 2.0

#: Cap on don't-care cubes shipped per task; beyond it the task carries
#: no don't cares (a sound under-approximation).
MAX_DC_CUBES = 2048

#: The ``parallel.cone_stats`` keys read off a worker's result.
CONE_STAT_KEYS = (
    "signature", "action", "elapsed", "tree_cost", "original_cost", "pid",
    "backend",
)


def _failure(sink: str, kind: str, detail: str) -> dict[str, Any]:
    """A pseudo-result marking a cone whose worker never delivered."""
    return {
        "sink": sink,
        "action": "failed",
        "kind": kind,
        "detail": detail,
        "replacement": None,
        "degrade_reason": f"worker {kind}: {detail}",
    }


class ParallelConeScheduler:
    """Executes serialized cone tasks across worker processes and merges
    the results deterministically.

    ``workers <= 1`` executes tasks inline (same worker function, same
    serialized inputs — the determinism baseline); ``workers >= 2`` uses
    a process pool with ``fork`` start method where available.  The
    parent-side wait per future is ``timeout + TIMEOUT_GRACE`` seconds
    (unlimited when ``timeout`` is ``None``); note the inline path
    cannot enforce timeouts.  Tasks are dispatched in plan order.
    """

    def __init__(self, workers: int, timeout: Optional[float] = None) -> None:
        self.workers = max(1, int(workers))
        self.timeout = timeout

    # -- execution ------------------------------------------------------

    def execute(self, tasks: list[ConeTask]) -> dict[str, dict[str, Any]]:
        """Run every task; returns ``{sink: result_or_failure}`` with an
        entry for each task (failures never raise)."""
        if not tasks:
            return {}
        if self.workers == 1:
            return self._execute_inline(tasks)
        return self._execute_pool(tasks)

    def _execute_inline(
        self, tasks: list[ConeTask]
    ) -> dict[str, dict[str, Any]]:
        results: dict[str, dict[str, Any]] = {}
        for task in tasks:
            try:
                results[task.sink] = run_cone_task(task.to_dict())
            except Exception as exc:
                error = format_worker_error(exc)
                self._note_failure(task.sink, "exception", error)
                results[task.sink] = _failure(
                    task.sink, "exception", error["message"]
                )
        return results

    def _wait_timeout(self) -> Optional[float]:
        if self.timeout is None:
            return None
        return self.timeout + TIMEOUT_GRACE

    def _make_executor(
        self, workers: int
    ) -> concurrent.futures.ProcessPoolExecutor:
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            mp_context = None
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context,
            initializer=_keep_worker_sinks,
        )

    def _reap(
        self, executor: concurrent.futures.ProcessPoolExecutor
    ) -> None:
        """Shut the pool down without waiting and terminate any worker
        still alive (hung or abandoned ones).

        The process handles must be captured *before* ``shutdown`` —
        it nulls ``_processes``, and a hung worker that survives would
        block the executor's management thread (and so interpreter
        exit) forever."""
        processes = dict(getattr(executor, "_processes", None) or {})
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:  # pragma: no cover - defensive
                pass

    def _execute_pool(
        self, tasks: list[ConeTask]
    ) -> dict[str, dict[str, Any]]:
        results: dict[str, dict[str, Any]] = {}
        wait = self._wait_timeout()
        pool_broke = False
        executor = self._make_executor(self.workers)
        try:
            submitted = [
                (task, executor.submit(run_cone_task, task.to_dict()))
                for task in tasks
            ]
            for task, future in submitted:
                sink = task.sink
                try:
                    results[sink] = future.result(timeout=wait)
                except concurrent.futures.TimeoutError:
                    self._note_failure(sink, "timeout", None)
                    results[sink] = _failure(
                        sink, "timeout", f"exceeded {self.timeout}s"
                    )
                except BrokenProcessPool:
                    pool_broke = True
                    break
                except Exception as exc:
                    error = format_worker_error(exc)
                    self._note_failure(sink, "exception", error)
                    results[sink] = _failure(
                        sink, "exception", error["message"]
                    )
        finally:
            self._reap(executor)
        if pool_broke:
            # A worker died hard and took the pool with it; the stdlib
            # cannot attribute the death, so retry every unfinished task
            # alone in its own single-worker pool: the crasher breaks
            # only its own pool (and is degraded), innocents complete.
            # Each task therefore runs at most twice.
            if _obs.enabled():
                _obs.inc("parallel.pool.broken")
            remaining = [t for t in tasks if t.sink not in results]
            for task in remaining:
                results[task.sink] = self._run_isolated(task)
        return results

    def _run_isolated(self, task: ConeTask) -> dict[str, Any]:
        sink = task.sink
        if _obs.enabled():
            _obs.inc("parallel.tasks.retried")
        executor = self._make_executor(1)
        try:
            future = executor.submit(run_cone_task, task.to_dict())
            try:
                return future.result(timeout=self._wait_timeout())
            except concurrent.futures.TimeoutError:
                self._note_failure(sink, "timeout", None)
                return _failure(sink, "timeout", f"exceeded {self.timeout}s")
            except BrokenProcessPool as exc:
                self._note_failure(
                    sink, "pool-broken", format_worker_error(exc)
                )
                return _failure(
                    sink, "pool-broken", "worker process died"
                )
            except Exception as exc:
                error = format_worker_error(exc)
                self._note_failure(sink, "exception", error)
                return _failure(sink, "exception", error["message"])
        finally:
            self._reap(executor)

    def _note_failure(
        self,
        sink: str,
        kind: str,
        error: Optional[dict[str, Any]],
    ) -> None:
        from repro.obs import crashdump as _crash

        _crash.record_worker_failure(sink, kind, error)
        if _obs.enabled():
            _obs.inc("parallel.tasks.failed")
            _obs.inc(f"parallel.tasks.{kind.replace('-', '_')}")
            _obs.event(
                "parallel.worker.failure",
                sink=sink,
                kind=kind,
                error=(error or {}).get("message"),
            )


def _keep_worker_sinks() -> None:
    """Pool initializer: a forked worker reports through the bus pipe
    alone, so it drops its inherited copies of the parent's other obs
    sinks (trace buffer, log file handle, ledger connection)."""
    for sink in _obs.sinks():
        if not callable(getattr(sink, "cone_started", None)):
            _obs.uninstall(sink)


@register_pass("decompose_parallel")
class DecomposeParallelPass(_BasePass):
    """The Algorithm 1 decompose loop, sharded across worker processes.

    Classification (:func:`~repro.engine.passes.plan_sinks`) and commit
    (:func:`~repro.engine.passes.commit_sink`) are the serial pass's own;
    eligible cones become serialized :class:`ConeTask` objects, the
    scheduler runs them, and results are merged in sink order, with one
    ``parallel.cone_stats`` row per dispatched task.  Worker
    failures degrade their cone to a structural copy and mark the
    context degraded — never fatal.

    Test/chaos params: ``fault_spec`` (``{sink: mode}`` with modes from
    :data:`repro.synth.conetask.FAULT_MODES`) injects worker faults;
    ``_abort_after_merges`` (int, ephemeral — see
    :meth:`Pipeline.to_config`) raises :class:`ConeShardAborted` after
    that many merges to exercise mid-shard checkpoint/resume.
    """

    name = "decompose_parallel"

    def run(self, context: SynthesisContext) -> None:
        source = context.source
        workers = max(1, int(self.opt(context, "parallel_workers") or 1))
        timeout = self.opt(context, "worker_timeout")
        fault_spec: dict[str, str] = self.params.get("fault_spec") or {}
        abort_after = self.params.get("_abort_after_merges")

        task_options = cone_options(partial(self.opt, context))
        order = TopologicalIndex(source)
        tasks = [
            extract_cone_task(
                source,
                sink,
                order=order,
                dc_cubes=self._cone_dc_cubes(context, sink, cone_inputs),
                options=task_options,
                node_budget=context.options.node_budget,
                time_budget=timeout,
                fault=fault_spec.get(sink),
            )
            for sink, cone_inputs in plan_sinks(
                context, self.opt(context, "max_cone_inputs"), order
            )
        ]

        context.artifacts["parallel.workers"] = workers
        if not tasks:
            context.artifacts.setdefault("parallel.degraded_cones", [])
            return

        # -- execution ---------------------------------------------------
        scheduler = ParallelConeScheduler(workers, timeout=timeout)
        if _obs.enabled():
            _obs.set_gauge("parallel.workers", workers)
            _obs.inc("parallel.tasks", len(tasks))
            # Progress gauges the RuntimeMonitor mirrors into status.json.
            _obs.set_gauge("parallel.cones.total", len(tasks))
            _obs.set_gauge("parallel.cones.merged", 0)
            _obs.set_gauge("parallel.cones.degraded", 0)
        _obs.event("shard.dispatch", cones=len(tasks), workers=workers)
        began = time.perf_counter()
        with _obs.span("algorithm1.parallel.execute"):
            results = scheduler.execute(tasks)
        if _obs.enabled():
            _obs.observe(
                "parallel.execute.elapsed", time.perf_counter() - began
            )
        context.artifacts["parallel.dispatch"] = {
            "order": [task.sink for task in tasks],
            "backend_option": task_options["backend"],
        }

        # -- deterministic merge (sink order, not completion order) ------
        degraded_cones: list[str] = []
        cone_stats: list[dict[str, Any]] = []
        merges = 0
        for task in tasks:
            sink = task.sink
            result = results.get(sink) or _failure(
                sink, "missing", "no result returned"
            )
            row = {
                "sink": sink, "task_key": task.task_key(),
                "cone_inputs": len(task.slice["inputs"]),
                **{key: result.get(key) for key in CONE_STAT_KEYS},
            }
            self._merge_one(context, row, result, degraded_cones, order)
            cone_stats.append(row)
            merges += 1
            if _obs.enabled():
                _obs.set_gauge("parallel.cones.merged", merges)
                _obs.set_gauge(
                    "parallel.cones.degraded", len(degraded_cones)
                )
            if context.mid_pass_checkpoint is not None:
                context.mid_pass_checkpoint()
            if abort_after is not None and merges >= int(abort_after):
                raise ConeShardAborted(
                    f"aborted after {merges} cone merge(s) (test hook)"
                )
        context.artifacts["parallel.degraded_cones"] = degraded_cones
        context.artifacts["parallel.tasks"] = {
            "total": len(tasks), "degraded": len(degraded_cones)
        }
        context.artifacts["parallel.cone_stats"] = cone_stats
        # The backend that handled each cone, next to the dispatch order.
        context.artifacts["parallel.dispatch"]["backends"] = {
            row["sink"]: row["backend"] for row in cone_stats
        }

    # -- helpers ----------------------------------------------------------

    def _cone_dc_cubes(
        self, context: SynthesisContext, sink: str, cone_inputs: list[str]
    ) -> Optional[list[list[list[Any]]]]:
        """The cone's unreachable-state set as portable cubes (parent
        side; ``None`` when no don't cares apply)."""
        if context.dc_manager is None:
            return None
        source = context.source
        ps_support = {n for n in cone_inputs if n in source.latches}
        if not ps_support:
            return None
        collapser = context.ensure_collapser()
        for name in sorted(ps_support):
            collapser.source_var(name)
        with _obs.span("algorithm1.dontcare"):
            unreachable = context.dc_manager.unreachable_for(
                ps_support, collapser.manager, collapser.var_of
            )
        cubes = dont_care_cubes(
            collapser.manager, unreachable, max_cubes=MAX_DC_CUBES
        )
        if cubes is None and _obs.enabled():
            _obs.inc("parallel.dc.overflow")
        return cubes

    def _merge_one(
        self,
        context: SynthesisContext,
        row: dict[str, Any],
        result: dict[str, Any],
        degraded_cones: list[str],
        order: TopologicalIndex,
    ) -> None:
        """Commit one task's result; ``row`` is its ``cone_stats`` row."""
        from repro.synth.conetask import merge_cone_result

        sink = row["sink"]
        nodes = result.get("nodes_allocated")
        if nodes:
            context.governor.add_external_nodes(int(nodes))
        outcome = ConeOutcome.from_json(result)
        splice = None
        if outcome.action == "decomposed":
            splice = partial(
                merge_cone_result, sink=sink, replacement=result["replacement"]
            )
        elif outcome.action == "failed":
            # The worker never delivered: structural copy, context
            # degraded, as for a worker that ran out of budget.
            outcome.action = "copied"
        extra = {
            "task_key": row["task_key"], "worker_pid": row["pid"],
            "started": result.get("started_wall"),
        }
        if not commit_sink(
            context, sink, row["cone_inputs"], outcome, order, splice, extra
        ):
            return
        if outcome.action == "copied":
            degraded_cones.append(sink)
            if _obs.enabled() and result["action"] == "copied":
                _obs.inc("parallel.tasks.worker_degraded")
        elif _obs.enabled():
            _obs.inc("parallel.tasks.completed")
