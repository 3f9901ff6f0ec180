"""The pass protocol, the pass registry, and the standard Algorithm 1
passes.

A pass is any object with a ``name`` string, a ``params`` dict (used for
declarative config round-trips) and a ``run(context)`` method that
mutates a :class:`~repro.engine.context.SynthesisContext`.  Registered
passes can be instantiated by name from JSON/dict pipeline configs (see
:mod:`repro.engine.pipeline`); anything else can still be appended to a
:class:`Pipeline` programmatically.

The standard passes re-express the stages of the paper's Algorithm 1
(latch cleanup, don't-care retrieval, interval widening +
bi-decomposition, instantiation, structural cleanup) that used to be
fused into one monolithic loop.  The decompose loop's per-sink step,
:func:`decompose_sink`, is also what a parallel worker runs on its cone
(see :mod:`repro.engine.parallel`).  Budget checks go through the context's
:class:`~repro.engine.governor.ResourceGovernor`: exhaustion downgrades
the remaining cones to structural copy and marks the context degraded —
it never raises.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any, Callable, Iterator, Mapping, Optional, Protocol, runtime_checkable,
)

from repro import obs as _obs
from repro.bdd.manager import FALSE
from repro.engine.context import (
    GATES, SignalRecord, SynthesisContext, SynthesisOptions, check_option,
)
from repro.engine.governor import ResourceGovernor
from repro.intervals import Interval
from repro.network.netlist import Network, TopologicalIndex
from repro.network.transform import (
    cleanup_latches,
    instantiate_dectree,
    strash,
    sweep,
)


@runtime_checkable
class Pass(Protocol):
    """What a pipeline stage must provide."""

    name: str
    params: dict[str, Any]

    def run(self, context: SynthesisContext) -> None: ...


_REGISTRY: dict[str, Callable[..., Pass]] = {}


def register_pass(name: str) -> Callable[[Callable[..., Pass]], Callable[..., Pass]]:
    """Class decorator: make a pass constructible by name from configs."""

    def decorate(factory: Callable[..., Pass]) -> Callable[..., Pass]:
        _REGISTRY[name] = factory
        return factory

    return decorate


def make_pass(name: str, **params: Any) -> Pass:
    """Instantiate a registered pass by name."""
    factory = _REGISTRY.get(name)
    if factory is None:
        # The parallel scheduler registers its pass on import; pull it
        # in so configs naming "decompose_parallel" work regardless of
        # which engine entry point ran first.
        import repro.engine.parallel  # noqa: F401 - registration side effect

        factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown pass {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return factory(**params)


def available_passes() -> list[str]:
    """Names instantiable via :func:`make_pass` / pipeline configs."""
    import repro.engine.parallel  # noqa: F401 - registration side effect

    return sorted(_REGISTRY)


class _BasePass:
    """Param bookkeeping shared by the standard passes.

    A parameter given at construction time overrides the same-named
    attribute of the context's :class:`SynthesisOptions`, which lets a
    declarative config retune one stage without forking the options,
    and gets their value check when the pipeline is built."""

    name = "base"

    def __init__(self, **params: Any) -> None:
        for key, value in params.items():
            if key in SynthesisOptions.__dataclass_fields__:
                check_option(key, value)
        self.params = params

    def opt(self, context: SynthesisContext, key: str) -> Any:
        if key in self.params:
            return self.params[key]
        return getattr(context.options, key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.params}>"


# ---------------------------------------------------------------------------
# Standard passes
# ---------------------------------------------------------------------------


@register_pass("cleanup")
class LatchCleanupPass(_BasePass):
    """Section 3.6 structural pre-processing of the source network."""

    name = "cleanup"

    def run(self, context: SynthesisContext) -> None:
        context.latch_cleanup = cleanup_latches(context.source)


@register_pass("dontcares")
class DontCarePass(_BasePass):
    """Attach the unreachable-state don't-care store (lazy per-partition
    reachability, budgets flowing from the governor)."""

    name = "dontcares"

    def run(self, context: SynthesisContext) -> None:
        source = context.source
        if not source.latches:
            return
        dc_source = self.opt(context, "dc_source")
        if dc_source == "reachability":
            from repro.reach.dontcare import DontCareManager

            context.dc_manager = DontCareManager(
                source,
                max_partition_size=self.opt(context, "max_partition_size"),
                time_budget=self.opt(context, "reach_time_budget"),
                governor=context.governor,
                auto_reorder=self.opt(context, "auto_reorder"),
                reorder_threshold=self.opt(context, "reorder_threshold"),
            )
        else:
            from repro.reach.induction import InductiveInvariant

            context.dc_manager = _InductionAdapter(InductiveInvariant(source))


@register_pass("decompose")
class DecomposePass(_BasePass):
    """The Algorithm 1 loop: run :func:`decompose_sink` on each sink in
    order, instantiating accepted trees straight into the rebuilt network
    so the cross-cone sharing table spans the whole design.

    Budget exhaustion (checked per signal through the governor) copies
    the remaining cones structurally and marks the context degraded."""

    name = "decompose"

    def run(self, context: SynthesisContext) -> None:
        source = context.source
        rebuilt = context.ensure_rebuilt()
        dc_manager = context.dc_manager
        options = cone_options(partial(self.opt, context))
        order = TopologicalIndex(source)
        # The per-sink safe point for --auto-reorder: between sinks the
        # only live collapser-manager handles are the cone cache and the
        # sharing table, both remapped by the compaction.
        for sink, cone_inputs in plan_sinks(
            context,
            self.opt(context, "max_cone_inputs"),
            order,
            safe_point=context.maybe_compact_bdds,
        ):
            collapser = context.ensure_collapser()
            ps_support = {n for n in cone_inputs if n in source.latches}
            outcome = decompose_sink(
                source, sink, collapser, rebuilt, options,
                governor=context.governor,
                share_table=context.share_table,
                dont_cares=(
                    lambda: dc_manager.unreachable_for(
                        ps_support, collapser.manager, collapser.var_of
                    )
                )
                if dc_manager is not None and ps_support
                else None,
            )
            commit_sink(context, sink, len(cone_inputs), outcome, order)


@register_pass("finalize")
class FinalizePass(_BasePass):
    """Wire the rebuilt network's interface: outputs, latch data inputs,
    and structural copies of any sink the decompose loop never reached."""

    name = "finalize"

    def run(self, context: SynthesisContext) -> None:
        source = context.source
        rebuilt = context.ensure_rebuilt()
        for output in source.outputs:
            rebuilt.add_output(context.signal_map.get(output, output))
        for latch in rebuilt.latches.values():
            latch.data_in = context.signal_map.get(latch.data_in, latch.data_in)
        # Make sure structurally copied sinks that were never reached exist.
        order = TopologicalIndex(source)
        for sink in rebuilt.combinational_sinks():
            if not rebuilt.is_signal(sink):
                copy_cone(source, rebuilt, sink, order)


@register_pass("sweep")
class SweepPass(_BasePass):
    """Propagate buffers/constants and drop dangling logic."""

    name = "sweep"

    def run(self, context: SynthesisContext) -> None:
        removed = sweep(context.result_network())
        context.artifacts["sweep.removed"] = (
            context.artifacts.get("sweep.removed", 0) + removed
        )


@register_pass("strash")
class StrashPass(_BasePass):
    """Structural hashing over the result network."""

    name = "strash"

    def run(self, context: SynthesisContext) -> None:
        merged = strash(context.result_network())
        context.artifacts["strash.merged"] = (
            context.artifacts.get("strash.merged", 0) + merged
        )


# ---------------------------------------------------------------------------
# Helpers shared by the passes (formerly privates of synth.algorithm1)
# ---------------------------------------------------------------------------


class _InductionAdapter:
    """Presents an :class:`InductiveInvariant` through the
    ``unreachable_for(ps_support, manager, var_of)`` interface of
    :class:`DontCareManager`."""

    def __init__(self, invariant) -> None:
        self._invariant = invariant

    def unreachable_for(self, ps_support, target, var_of):
        relevant = {
            name: var for name, var in var_of.items() if name in ps_support
        }
        return self._invariant.unreachable_for(target, relevant)


def copy_cone(
    source: Network,
    target: Network,
    sink: str,
    order: Optional[TopologicalIndex] = None,
) -> None:
    """Structurally copy a sink's cone into the rebuilt network, keeping
    original names (idempotent).  ``order`` is the calling pass's index
    over ``source``; without one, this call sorts the whole source."""
    order = order or TopologicalIndex(source)
    for name in order.sort(source.transitive_fanin([sink])):
        if not target.is_signal(name):
            node = source.nodes[name]
            target.add_node(name, node.op, list(node.fanins), node.cover)


def cone_literals(network: Network, sink: str) -> int:
    """Literal estimate of a sink's existing cone (nodes shared with other
    cones are charged fully — the acceptance test is deliberately
    conservative)."""
    total = 0
    cone = network.transitive_fanin([sink])
    for name in cone:
        node = network.nodes.get(name)
        if node is None:
            continue
        if node.op == "cover":
            assert node.cover is not None
            total += node.cover.literal_count()
        elif node.op in ("and", "or", "xor"):
            total += len(node.fanins)
        elif node.op == "not":
            total += 1
    return total


#: The decomposition knobs :func:`decompose_sink` reads.  The same dict
#: travels as a :class:`~repro.synth.conetask.ConeTask`'s ``options``, so
#: these keys are part of every task key and ledger row.
CONE_OPTION_KEYS = (
    "max_support", "gates", "objective", "sharing_choice",
    "enable_sharing", "acceptance_ratio", "backend", "cegar_iterations",
)


def cone_options(lookup: Callable[[str], Any]) -> dict[str, Any]:
    """The JSON-friendly cone-options dict, each key read through
    ``lookup`` (a pass's :meth:`_BasePass.opt`, or ``getattr`` on a
    :class:`SynthesisOptions`)."""
    options = {key: lookup(key) for key in CONE_OPTION_KEYS}
    options["gates"] = list(options["gates"])
    return options


@dataclass
class ConeOutcome:
    """What :func:`decompose_sink` did with one cone: the one per-cone
    record, published by :func:`commit_sink` as the ``cone`` event.

    ``action`` is ``decomposed`` (the tree is instantiated in the target
    network), ``kept-cost`` (the tree failed the acceptance test),
    ``copied`` (a budget tripped mid-cone; ``degrade_reason`` says which)
    or, for outcomes decided before the step, ``kept-large``.
    """

    action: str
    tree_cost: Optional[int] = None
    original_cost: Optional[int] = None
    backend: Optional[str] = None
    degrade_reason: Optional[str] = None
    #: The widened interval, once formed (hashed for the ``signature``).
    interval: Optional[Interval] = None
    #: The accepted tree's gate mix, ``{"or": n, "and": n, "xor": n}``.
    gates: Optional[dict[str, int]] = None
    #: Seconds spent in each phase the step ran, in order, and in the
    #: whole step.
    phases: dict[str, float] = field(default_factory=dict)
    elapsed: Optional[float] = None
    #: :func:`~repro.synth.conetask.interval_signature` of ``interval``:
    #: set by a worker, computed by :func:`commit_sink` on demand.
    signature: Optional[str] = None

    def to_json(self) -> dict[str, Any]:
        """Every field but the manager-bound ``interval``."""
        return {k: v for k, v in vars(self).items() if k != "interval"}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ConeOutcome":
        """The outcome in a :meth:`to_json` dict, or in a worker's
        result (which adds the transport's own keys)."""
        fields = cls.__dataclass_fields__
        return cls(**{k: v for k, v in data.items() if k in fields})


def decompose_sink(
    network: Network,
    sink: str,
    collapser: Any,
    target: Network,
    options: Mapping[str, Any],
    *,
    governor: ResourceGovernor,
    share_table: dict[int, str],
    dont_cares: Optional[Callable[[], int]],
) -> ConeOutcome:
    """Algorithm 1's per-signal step, shared by the serial pass and the
    parallel worker.

    Collapses ``sink``'s cone of ``network`` with ``collapser``, widens
    it with ``dont_cares()`` (the unreachable states in the collapser's
    manager; ``None`` = no don't cares), bi-decomposes the interval on
    the ``options`` backend, and — when the tree passes the
    acceptance test against the cone's literal count — instantiates it
    into ``target`` under ``sink``'s own name.  ``share_table`` carries
    equal-function sharing across the cones decomposed into the same
    ``target``.  Each phase (``collapse``, ``dontcare``, ``decompose``,
    ``instantiate``) runs in an ``algorithm1.<phase>`` obs span, which
    every installed span sink sees on either transport, and is timed
    into the outcome's ``phases``.  A governor budget
    that trips after the collapse or the decomposition ends the step
    with a ``copied`` outcome and leaves ``target`` untouched.
    """
    began = time.perf_counter()
    seconds: dict[str, float] = {}

    @contextmanager
    def timed(name: str) -> Iterator[None]:
        with _obs.span(f"algorithm1.{name}"):
            start = time.perf_counter()
            yield
            seconds[name] = time.perf_counter() - start

    def outcome(action: str, **fields: Any) -> ConeOutcome:
        return ConeOutcome(
            action, phases=seconds, elapsed=time.perf_counter() - began,
            **fields,
        )

    with timed("collapse"):
        f = collapser.node_function(sink)
    if governor.out_of_budget():
        return outcome("copied", degrade_reason=governor.reason)
    unreachable = FALSE
    if dont_cares is not None:
        with timed("dontcare"):
            unreachable = dont_cares()
    interval = Interval.with_dont_cares(collapser.manager, f, unreachable)
    with timed("decompose"):
        from repro.bidec.api import decompose_cone
        from repro.bidec.backends import backend_for_interval

        backend_name, backend = backend_for_interval(
            options["backend"], cegar_iterations=options["cegar_iterations"],
            governor=governor,
        )
        tree = decompose_cone(
            interval, max_support=options["max_support"],
            gates=tuple(options["gates"]), objective=options["objective"],
            sharing_choice=options["sharing_choice"],
            share_table=share_table, backend=backend,
        )
    if governor.out_of_budget():
        return outcome(
            "copied", backend=backend_name, degrade_reason=governor.reason,
            interval=interval,
        )
    original_cost = cone_literals(network, sink)
    tree_cost = tree.cost()
    if tree_cost > options["acceptance_ratio"] * max(original_cost, 1):
        return outcome(
            "kept-cost", tree_cost=tree_cost, original_cost=original_cost,
            backend=backend_name, interval=interval,
        )
    use_sharing = options["enable_sharing"] or options["sharing_choice"]
    var_to_signal = {var: name for name, var in collapser.var_of.items()}
    with timed("instantiate"):
        new_signal = instantiate_dectree(
            target, tree, var_to_signal, sink,
            share_table if use_sharing else None,
        )
        # Keep the sink's own name alive (primary-output names are part
        # of the interface; sweep squeezes the alias out elsewhere).
        target.add_node(sink, "buf", [new_signal])
    gates = dict.fromkeys(GATES, 0)
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.op != "leaf":
            gates[node.op] += 1
            stack.extend(node.children)
    return outcome(
        "decomposed", tree_cost=tree_cost, original_cost=original_cost,
        backend=backend_name, interval=interval, gates=gates,
    )


def plan_sinks(
    context: SynthesisContext,
    max_cone_inputs: int,
    order: TopologicalIndex,
    safe_point: Optional[Callable[[], Any]] = None,
) -> Iterator[tuple[str, list[str]]]:
    """Classify ``context.source``'s combinational sinks in order and
    yield ``(sink, cone_inputs)`` for each one to decompose.

    Cone sources and sinks already materialised in the rebuilt network
    are skipped; once the governor's budget is out, and for cones wider
    than ``max_cone_inputs``, the sink is committed as a structural copy
    right here (through the pass's ``order`` over the source).  A
    generator, so a serial caller's decompositions land before the next
    sink is classified; ``safe_point`` runs ahead of every sink.
    """
    source = context.source
    rebuilt = context.ensure_rebuilt()
    governor = context.governor
    for sink in source.combinational_sinks():
        if safe_point is not None:
            safe_point()
        if (
            sink in source.inputs
            or sink in source.latches
            or rebuilt.is_signal(sink)
        ):
            # A cone source, or materialised already — by an earlier
            # structural copy or a merge before a mid-shard checkpoint.
            context.signal_map[sink] = sink
            continue
        if governor.out_of_budget():
            copied = ConeOutcome("copied", degrade_reason=governor.reason)
            commit_sink(context, sink, 0, copied, order)
            continue
        cone_inputs = source.cone_inputs(sink)
        if len(cone_inputs) > max_cone_inputs:
            kept = ConeOutcome("kept-large")
            commit_sink(context, sink, len(cone_inputs), kept, order)
            continue
        yield sink, cone_inputs


def commit_sink(
    context: SynthesisContext,
    sink: str,
    cone_inputs: int,
    outcome: ConeOutcome,
    order: TopologicalIndex,
    splice: Optional[Callable[[Network], Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> bool:
    """Fold one sink's outcome into ``context``: its logic, the degraded
    flag and its :class:`SignalRecord`, and publish it as one ``cone``
    event.

    A decomposed cone is in place already (the serial step instantiates
    into the rebuilt network) or added by ``splice``; any other outcome
    is copied structurally, in the pass's ``order`` over the source.
    ``extra`` adds transport fields to the event (a parallel cone's
    ``task_key`` and ``worker_pid``).  Returns False, committing
    nothing, if the sink exists by then: a parallel merge can find it
    materialised by an earlier cone's structural copy, a sink the
    serial loop skips."""
    rebuilt = context.ensure_rebuilt()
    if outcome.action != "decomposed" or splice is not None:
        if rebuilt.is_signal(sink):
            return False
        if splice is not None:
            splice(rebuilt)
        else:
            copy_cone(context.source, rebuilt, sink, order)
    context.signal_map[sink] = sink
    if outcome.action == "copied":
        context.mark_degraded(outcome.degrade_reason or "budget exhausted")
        signal_record = SignalRecord(sink, cone_inputs, "copied")
    else:
        signal_record = SignalRecord(
            sink, cone_inputs, outcome.action, outcome.tree_cost,
            outcome.original_cost, backend=outcome.backend,
        )
    context.records.append(signal_record)
    if _obs.enabled() or _obs.sinks("event"):
        _publish_cone(signal_record, outcome, extra or {})
    return True


def _publish_cone(
    signal_record: SignalRecord,
    outcome: ConeOutcome,
    extra: Mapping[str, Any],
) -> None:
    """Emit one committed sink's ``cone`` event — the fact the ledger,
    bus, log and trace sinks read — and, with metrics on, count the
    ``algorithm1.*`` metrics from the same payload.

    The interval signature is computed here only when an event sink is
    installed (a worker has computed it already)."""
    if outcome.interval and outcome.signature is None and _obs.sinks("event"):
        from repro.synth.conetask import interval_signature

        outcome.signature = interval_signature(outcome.interval)
    cone = {
        **vars(signal_record),
        "degrade_reason": outcome.degrade_reason,
        "gates": outcome.gates,
        "phases": outcome.phases,
        "elapsed": outcome.elapsed,
        "signature": outcome.signature,
        **extra,
    }
    if _obs.enabled():
        _obs.inc("algorithm1.signals")
        _obs.inc("algorithm1.signals." + cone["action"].replace("-", "_"))
        if cone["cone_inputs"]:
            _obs.observe("algorithm1.cone.inputs", cone["cone_inputs"])
        if cone["tree_cost"] is not None:
            _obs.observe("algorithm1.tree.cost", cone["tree_cost"])
        if cone["original_cost"] is not None:
            _obs.observe("algorithm1.original.cost", cone["original_cost"])
        for gate, count in (cone["gates"] or {}).items():
            if count:
                _obs.inc(f"algorithm1.gates.{gate}", count)
        if cone["backend"] is not None:
            _obs.inc("algorithm1.backend." + cone["backend"].replace("-", "_"))
    _obs.event("cone", **cone)
