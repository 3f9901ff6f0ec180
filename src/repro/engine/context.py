"""Shared synthesis state: options, per-signal records, reports, and the
:class:`SynthesisContext` every pipeline pass reads and writes.

The context is the one object threaded through a pipeline run.  It owns
the working copy of the network, the BDD manager and cone collapser, the
don't-care store, the sharing table, and the :class:`ResourceGovernor`
that polices the run's wall-clock and node budgets.  Passes communicate
exclusively through it — which is what makes the pipeline
checkpointable: everything a later pass needs is either on the context
or rebuilt lazily from it.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from repro.bidec.backends import BACKEND_CHOICES
from repro.engine.governor import ResourceGovernor
from repro.network.netlist import Network

DC_SOURCES = ("reachability", "induction")
OBJECTIVES = ("balanced", "min_total")
GATES = ("or", "and", "xor")


def knob(
    default: Any,
    help: str,
    flag: Optional[str] = None,
    choices: Optional[tuple] = None,
) -> Any:
    """A :class:`SynthesisOptions` field: its default, its help text, its
    ``optimize``/``resynth`` flag (if any) and the values it accepts."""
    metadata = {"help": help, "flag": flag, "choices": choices}
    return field(default=default, metadata=metadata)


@dataclass
class SynthesisOptions:
    """Tuning knobs for Algorithm 1.  The CLI generates its flags from
    the field metadata, and construction checks every value."""

    use_unreachable_states: bool = knob(
        True, "disable unreachable-state don't cares", "--no-states"
    )
    #: "reachability" is the paper's partitioned traversal, "induction"
    #: the cheaper [7]-style invariant (see repro.reach.induction).
    dc_source: str = knob(
        "reachability", "how to approximate unreachable states",
        "--dc-source", DC_SOURCES,
    )
    #: The paper uses ~100 with a native BDD package; a pure-Python
    #: engine wants smaller partitions.
    max_partition_size: int = knob(
        16, "latch-partition size cap", "--partition-size"
    )
    reach_time_budget: Optional[float] = knob(
        20.0, "per-partition traversal time budget in seconds"
    )
    max_support: int = knob(
        12, "support size above which the greedy fallback replaces "
        "symbolic enumeration", "--max-support",
    )
    max_cone_inputs: int = knob(
        20, "cones wider than this are kept structurally", "--cone-inputs"
    )
    gates: tuple[str, ...] = knob(
        GATES, "decomposition gate repertoire", choices=GATES
    )
    objective: str = knob(
        "balanced", "partition-size objective", "--objective", OBJECTIVES
    )
    acceptance_ratio: float = knob(
        1.25, "accept a rebuilt cone only if its cost is at most this "
        "multiple of the original", "--acceptance-ratio",
    )
    #: Figure 3.2 sharing.
    enable_sharing: bool = knob(
        True, "disable cross-signal function reuse", "--no-sharing"
    )
    sharing_choice: bool = knob(
        False, "select partitions by sharing at every recursion level (the "
        "full Section 3.5.3 policy; slower than reusing equal functions at "
        "instantiation time only)",
    )
    preprocess_latches: bool = knob(
        True, "run the Section 3.6 latch cleanup first"
    )
    #: Both budgets are governor-enforced; the node budget sums every
    #: manager the run allocates.
    time_budget: Optional[float] = knob(
        None, "global wall-clock budget in seconds (exhaustion degrades, "
        "never fails)", "--time-budget",
    )
    node_budget: Optional[int] = knob(
        None, "global BDD-node budget (exhaustion degrades, never fails)",
        "--node-budget",
    )
    parallel_workers: int = knob(
        0, "shard cone decomposition over this many worker processes (0 "
        "= in-process; any count is bit-identical to --workers 1)",
        "--workers",
    )
    worker_timeout: Optional[float] = knob(
        None, "per-cone wall-clock limit in parallel mode; a cone whose "
        "worker exceeds it degrades to a structural copy",
        "--worker-timeout",
    )
    auto_reorder: bool = knob(
        False, "dynamically reorder/compact BDD managers at safe points "
        "once they grow past --reorder-threshold nodes (output is "
        "bit-identical either way)", "--auto-reorder",
    )
    reorder_threshold: int = knob(
        50000, "node growth since the last rebuild that triggers "
        "--auto-reorder", "--reorder-threshold",
    )
    backend: str = knob(
        "bdd", "bi-decomposition backend: the symbolic BDD enumeration "
        "or the CEGAR-solved 2QBF SAT search",
        "--backend", BACKEND_CHOICES,
    )
    cegar_iterations: int = knob(
        512, "CEGAR candidate budget per cone for the sat-cegar backend "
        "(exhaustion degrades to the BDD backend)", "--cegar-iterations",
    )

    def __post_init__(self) -> None:
        for spec in fields(self):
            check_option(spec.name, getattr(self, spec.name))
        self.gates = tuple(self.gates)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly view (tuples become lists)."""
        return {**vars(self), "gates": list(self.gates)}

    @classmethod
    def from_dict(
        cls, data: dict[str, Any], base: Optional["SynthesisOptions"] = None
    ) -> "SynthesisOptions":
        """Build options from a (possibly partial) dict, starting from
        ``base`` (or the defaults).  Unknown keys raise ``ValueError``."""
        for key in data:
            if key not in OPTION_TYPES:
                raise ValueError(
                    f"unknown synthesis option {key!r} "
                    f"(known: {', '.join(OPTION_TYPES)})"
                )
        return replace(base or cls(), **data)


#: ``{field: (value type, None allowed)}``, read from the annotations.
OPTION_TYPES = {
    name: (typing.get_args(hint)[0], True)
    if typing.get_origin(hint) is typing.Union
    else (typing.get_origin(hint) or hint, False)
    for name, hint in typing.get_type_hints(SynthesisOptions).items()
}


def check_option(name: str, value: Any) -> None:
    """Raise ``ValueError``, naming the allowed values, unless ``value``
    suits the :class:`SynthesisOptions` field ``name``."""
    kind, optional = OPTION_TYPES[name]
    choices = SynthesisOptions.__dataclass_fields__[name].metadata["choices"]
    if choices is not None:  # a tuple knob (gates) takes a list of them
        items = value if kind is tuple else [value]
        ok = isinstance(items, (tuple, list)) and len(items) > 0 and all(
            item in choices for item in items
        )
        allowed = ("a non-empty list of " if kind is tuple else "one of ")
        allowed += ", ".join(map(repr, choices))
    else:
        types = (int, float) if kind is float else kind
        ok = isinstance(value, types) and (
            isinstance(value, bool) == (kind is bool)
        )
        allowed = kind.__name__ + (" or None" if optional else "")
    if not ok and not (value is None and optional):
        raise ValueError(
            f"synthesis option {name}={value!r}: expected {allowed}"
        )


@dataclass
class SignalRecord:
    """Per-signal outcome for reporting."""

    signal: str
    cone_inputs: int
    action: str  # "decomposed" | "kept-cost" | "kept-large" | "copied"
    tree_cost: Optional[int] = None
    original_cost: Optional[int] = None
    #: Decomposition backend that handled the cone ("bdd"/"sat-cegar"),
    #: ``None`` when no decomposition was attempted (copied/kept-large).
    backend: Optional[str] = None


@dataclass
class SynthesisReport:
    """Result of one Algorithm 1 run."""

    network: Network
    records: list[SignalRecord] = field(default_factory=list)
    latch_cleanup: dict[str, int] = field(default_factory=dict)
    runtime: float = 0.0
    #: True when a resource budget tripped and part of the design was
    #: copied structurally instead of decomposed.  The network is still
    #: valid and equivalent — just less optimised.
    degraded: bool = False
    degrade_reason: Optional[str] = None
    #: Per-pass rows: wall time plus the product network's size after
    #: the pass and its delta across it —
    #: ``[{"pass", "elapsed", "nodes", "nodes_delta", "literals",
    #: "literals_delta", "latches", "latches_delta"}, ...]``.
    passes: list[dict[str, Any]] = field(default_factory=list)
    #: Free-form data custom passes left in ``context.artifacts``.
    artifacts: dict[str, Any] = field(default_factory=dict)

    def decomposed(self) -> int:
        return sum(1 for r in self.records if r.action == "decomposed")


class SynthesisContext:
    """Mutable state shared by every pass of a synthesis pipeline.

    ``source`` is a private copy of the caller's network (cleanup passes
    mutate it in place); ``rebuilt`` is the network the decompose and
    finalize passes grow.  The BDD manager, cone collapser and don't-care
    store are created lazily so cheap pipelines (for example pure
    structural cleanup) never pay for them.
    """

    def __init__(
        self,
        network: Network,
        options: Optional[SynthesisOptions] = None,
        governor: Optional[ResourceGovernor] = None,
    ) -> None:
        self.options = options or SynthesisOptions()
        self.governor = governor or ResourceGovernor(
            time_budget=self.options.time_budget,
            node_budget=self.options.node_budget,
        )
        self.source = network.copy()
        self.rebuilt: Optional[Network] = None
        self.collapser = None  # repro.network.bdd_build.ConeCollapser
        self.dc_manager = None  # duck-typed unreachable_for() provider
        self.share_table: dict[int, str] = {}
        self.signal_map: dict[str, str] = {}
        self.records: list[SignalRecord] = []
        self.latch_cleanup: dict[str, int] = {}
        self.degraded = False
        self.degrade_reason: Optional[str] = None
        self.pass_log: list[dict[str, Any]] = []
        #: Free-form pass-to-pass data (custom passes stash results here).
        self.artifacts: dict[str, Any] = {}
        #: Wall time accumulated before this context existed (set by
        #: checkpoint resume so reported runtimes stay cumulative).
        self.prior_elapsed = 0.0
        #: Mid-pass checkpoint hook: when the pipeline runs with a
        #: checkpoint path it points this at a zero-argument callable
        #: that re-serialises the *current* pass position, so long
        #: sharded passes (the parallel decompose) can persist progress
        #: between cone merges.  ``None`` outside a checkpointed run.
        self.mid_pass_checkpoint: Optional[Any] = None
        self._elapsed_at_start = self.governor.elapsed()

    # -- lazy substrate ---------------------------------------------------

    @property
    def manager(self):
        """The cone collapser's BDD manager (created on first use)."""
        return self.ensure_collapser().manager

    def ensure_collapser(self):
        """The :class:`ConeCollapser` over ``source`` (created on first
        use, its manager charged to the governor's node budget)."""
        if self.collapser is None:
            from repro.bdd.manager import BDDManager
            from repro.network.bdd_build import ConeCollapser

            threshold = (
                self.options.reorder_threshold
                if self.options.auto_reorder
                else None
            )
            manager = self.governor.attach_manager(
                BDDManager(auto_reorder_threshold=threshold)
            )
            self.collapser = ConeCollapser(self.source, manager)
        return self.collapser

    def maybe_compact_bdds(self) -> bool:
        """Auto-reorder safe-point hook: when ``--auto-reorder`` is on and
        the collapser manager's growth trigger has fired, rebuild it
        keeping only live nodes and remap every outstanding handle (the
        sharing table).  Returns True when a compaction ran.

        The collapser manager is deliberately *compacted* (same variable
        order) rather than sifted: bi-decomposition partition enumeration
        is keyed on variable indices, so only an order-preserving rebuild
        keeps synthesis output bit-identical.  Genuine sifting happens in
        the reachability managers (see repro.reach.traversal), where
        results are transferred out by name.
        """
        if not self.options.auto_reorder or self.collapser is None:
            return False
        manager = self.collapser.manager
        if not manager.reorder_due():
            return False
        from repro import obs as _obs

        nodes_before = manager.num_nodes
        node_map = self.collapser.compact(extra_roots=self.share_table)
        self.share_table = {
            node_map[node]: signal
            for node, signal in self.share_table.items()
        }
        self.governor.detach_manager(manager)
        self.governor.attach_manager(self.collapser.manager)
        _obs.event(
            "bdd.compact",
            nodes_before=nodes_before,
            nodes_after=self.collapser.manager.num_nodes,
        )
        return True

    def ensure_rebuilt(self) -> Network:
        """The output network seeded with ``source``'s interface."""
        if self.rebuilt is None:
            rebuilt = Network(self.source.name)
            for name in self.source.inputs:
                rebuilt.add_input(name)
            for latch in self.source.latches.values():
                rebuilt.add_latch(latch.name, latch.data_in, latch.init)
            self.rebuilt = rebuilt
        return self.rebuilt

    # -- degradation ------------------------------------------------------

    def mark_degraded(self, reason: str) -> None:
        """Record that budget exhaustion downgraded part of the run
        (first reason wins; never raises)."""
        if not self.degraded:
            self.degraded = True
            self.degrade_reason = reason

    # -- results ----------------------------------------------------------

    def runtime(self) -> float:
        """Wall time attributable to this context (cumulative across
        checkpoint resumes)."""
        return self.prior_elapsed + (
            self.governor.elapsed() - self._elapsed_at_start
        )

    def result_network(self) -> Network:
        """The pipeline's product: the rebuilt network if one was grown,
        otherwise the (possibly cleaned-up) source copy."""
        return self.rebuilt if self.rebuilt is not None else self.source

    def to_report(self) -> SynthesisReport:
        return SynthesisReport(
            network=self.result_network(),
            records=self.records,
            latch_cleanup=self.latch_cleanup,
            runtime=self.runtime(),
            degraded=self.degraded,
            degrade_reason=self.degrade_reason,
            passes=list(self.pass_log),
            artifacts=dict(self.artifacts),
        )
