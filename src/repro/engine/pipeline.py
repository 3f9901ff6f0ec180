"""Pipeline: an ordered list of passes run over a shared context.

Build one programmatically::

    pipe = Pipeline().add("cleanup").add("decompose", max_support=10)
    pipe.add(MyCustomPass())

or declaratively from a dict/JSON config (the CLI's
``--pipeline-config``)::

    {"passes": ["cleanup", "dontcares",
                {"pass": "decompose", "max_support": 10},
                "finalize", "sweep", "strash", "sweep"]}

``run()`` executes the passes in order with per-pass obs spans/metrics,
asks the governor for a budget verdict at every pass boundary (latching
exhaustion so downstream passes degrade deterministically), and — when
given a checkpoint path — serialises the pipeline position plus the
context's network state after every completed pass, so a killed run can
be resumed with :func:`repro.engine.checkpoint.resume_pipeline`.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence, Union

from repro import obs as _obs
from repro.engine.context import SynthesisContext, SynthesisOptions
from repro.engine.passes import Pass, make_pass

PassLike = Union[str, Pass, dict]


class Pipeline:
    """An ordered, configurable sequence of synthesis passes."""

    def __init__(self, passes: Sequence[PassLike] = ()) -> None:
        self.passes: list[Pass] = []
        for entry in passes:
            self.add(entry)

    # -- building ---------------------------------------------------------

    def add(self, entry: PassLike, **params: Any) -> "Pipeline":
        """Append a pass: a registered name (plus params), a config dict
        (``{"pass": name, **params}``), or a ready pass object."""
        if isinstance(entry, str):
            self.passes.append(make_pass(entry, **params))
        elif isinstance(entry, dict):
            spec = dict(entry)
            name = spec.pop("pass", None) or spec.pop("name", None)
            if name is None:
                raise ValueError(f"pass config needs a 'pass' key: {entry!r}")
            spec.update(params)
            self.passes.append(make_pass(name, **spec))
        else:
            if params:
                raise ValueError("params only apply to passes given by name")
            self.passes.append(entry)
        return self

    @classmethod
    def from_config(cls, config: Union[dict, Sequence[PassLike]]) -> "Pipeline":
        """Build from a dict (``{"passes": [...]}``) or a bare list.
        Entries are pass names or ``{"pass": name, **params}`` dicts."""
        entries = config.get("passes", []) if isinstance(config, dict) else config
        return cls(entries)

    def to_config(self) -> dict[str, Any]:
        """Declarative form that :meth:`from_config` reconstructs (only
        registered passes survive the round trip).

        Params whose names start with ``_`` are *ephemeral*: they apply
        to the live run only and are dropped here — so a test hook like
        ``_abort_after_merges`` does not re-fire when a checkpointed run
        is resumed from its serialized config."""
        entries: list[Any] = []
        for pass_ in self.passes:
            params = {
                k: v for k, v in pass_.params.items()
                if not k.startswith("_")
            }
            if params:
                entries.append({"pass": pass_.name, **params})
            else:
                entries.append(pass_.name)
        return {"passes": entries}

    def pass_names(self) -> list[str]:
        return [pass_.name for pass_ in self.passes]

    # -- running ----------------------------------------------------------

    @staticmethod
    def _network_metrics(context: SynthesisContext) -> dict[str, int]:
        """Size of the pipeline's current product (nodes / literals /
        latches), for the per-pass delta rows: only these three, so the
        and/inv expansion of ``Network.stats`` is not walked.
        Best-effort: an unreadable network yields an empty dict, never an
        error."""
        try:
            network = context.result_network()
            return {
                "nodes": len(network.nodes),
                "literals": network.literal_count(),
                "latches": len(network.latches),
            }
        except Exception:
            return {}

    def run(
        self,
        context: SynthesisContext,
        checkpoint: Optional[str] = None,
        start: int = 0,
        stop_after: Optional[str] = None,
    ) -> SynthesisContext:
        """Run passes ``start:`` over ``context``.

        ``checkpoint`` (a path) persists pipeline position + network
        state after every completed pass.  ``stop_after`` ends the run
        cleanly after the named pass — with a checkpoint this stages a
        long run the same way a kill would, minus the kill.
        """
        from repro.obs import crashdump as _crash

        governor = context.governor
        for index, pass_ in enumerate(self.passes):
            if index < start:
                continue
            # Crash context is cheap and makes a post-mortem bundle name
            # the live pass even when the failure is deep inside it.
            _crash.set_crash_context(
                pipeline_pass=pass_.name,
                pipeline_index=index,
                pipeline_passes=self.pass_names(),
            )
            if checkpoint is not None:
                from repro.engine.checkpoint import save_checkpoint

                # Mid-pass hook: sharded passes call this between cone
                # merges; the saved position re-runs *this* pass, whose
                # per-cone work is skipped for already-merged signals.
                def _mid_pass(index: int = index) -> None:
                    save_checkpoint(checkpoint, self, context, index)

                context.mid_pass_checkpoint = _mid_pass
            before = self._network_metrics(context)
            began = time.perf_counter()
            try:
                with _obs.span(f"pipeline.{pass_.name}"):
                    pass_.run(context)
            except Exception as exc:
                if _obs.enabled():
                    _obs.event(
                        "pipeline.crash",
                        index=index,
                        pass_name=pass_.name,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                raise
            elapsed = time.perf_counter() - began
            context.mid_pass_checkpoint = None
            after = self._network_metrics(context)
            # Per-pass size deltas: what each pass *did* to the product
            # network, not just how long it took.  Note the decompose
            # and finalize passes grow ``rebuilt`` while the measured
            # product switches from ``source`` to ``rebuilt`` — the
            # delta spans that handover, which is exactly the work the
            # pass performed on the run's eventual output.
            log_entry: dict[str, Any] = {
                "pass": pass_.name, "elapsed": elapsed,
            }
            metrics: dict[str, int] = {}
            for key in ("nodes", "literals", "latches"):
                if key in after:
                    metrics[key] = after[key]
                    if key in before:
                        metrics[f"{key}_delta"] = after[key] - before[key]
            log_entry.update(metrics)
            context.pass_log.append(log_entry)
            # Auto-reorder safe point: between passes no pass-local node
            # handles are live, so the collapser manager may be rebuilt.
            context.maybe_compact_bdds()
            # Pass-boundary budget check: latch exhaustion now so every
            # remaining pass sees a consistent verdict.
            exhausted = governor.out_of_budget()
            if exhausted and context.rebuilt is None and not context.degraded:
                # No rebuild in flight to degrade — record the fact so
                # the report still says the run was cut short.
                context.mark_degraded(governor.reason or "budget exhausted")
            if _obs.enabled():
                _obs.inc("pipeline.passes")
            # One fact for every sink: the trace, the run log, and the
            # ledger's pass row (appended at the boundary, so a crashed
            # run still shows how far it got).
            _obs.event(
                "pipeline.pass",
                index=index,
                pass_name=pass_.name,
                elapsed=elapsed,
                exhausted=exhausted,
                **metrics,
            )
            if checkpoint is not None:
                from repro.engine.checkpoint import save_checkpoint

                save_checkpoint(checkpoint, self, context, index + 1)
                _crash.set_crash_context(
                    checkpoint=str(checkpoint), checkpoint_next_pass=index + 1
                )
            if stop_after is not None and pass_.name == stop_after:
                break
        return context


def standard_pipeline(options: Optional[SynthesisOptions] = None) -> Pipeline:
    """The Algorithm 1 pipeline ``algorithm1()`` assembles: latch
    cleanup, don't-care store, decompose loop (process-pool sharded when
    ``options.parallel_workers`` is set), finalize, and the
    sweep/strash/sweep structural cleanup."""
    options = options or SynthesisOptions()
    pipeline = Pipeline()
    if options.preprocess_latches:
        pipeline.add("cleanup")
    if options.use_unreachable_states:
        pipeline.add("dontcares")
    if options.parallel_workers:
        pipeline.add("decompose_parallel")
    else:
        pipeline.add("decompose")
    pipeline.add("finalize")
    pipeline.add("sweep")
    pipeline.add("strash")
    pipeline.add("sweep")
    return pipeline
