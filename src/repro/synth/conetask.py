"""Serializable per-cone work units for parallel Algorithm 1.

Algorithm 1 rewrites each output cone independently once the don't-care
intervals are extracted, which makes cone-level resynthesis
embarrassingly parallel.  A :class:`ConeTask` captures everything one
cone rewrite needs in plain JSON-friendly data:

* the **cone slice** — the sink's transitive fanin as a standalone
  combinational network whose primary inputs are the cone's sources
  (latch outputs become plain inputs; the slice has a single output),
* the **don't-care spec** — the unreachable-state set over the cone's
  present-state support, shipped as disjoint BDD path cubes over latch
  *names* so the worker can rebuild the interval ``[f&~u, f|u]`` in a
  private manager with any variable numbering,
* the decomposition **options** (the
  :data:`~repro.engine.passes.CONE_OPTION_KEYS` dict) and per-task
  resource budgets.

:func:`run_cone_task` is the process-pool entry point — transport only:
it decodes the task, rebuilds the slice in a fresh
:class:`~repro.bdd.manager.BDDManager` under a worker-local governor,
and runs the same :func:`~repro.engine.passes.decompose_sink` step as
the serial pass, with a don't-care callback that rebuilds the shipped
cubes.  The step runs in a ``parallel.cone`` obs span around the step's
own ``algorithm1.<phase>`` spans, and an installed telemetry bus hears
of the cone's start and end.  It returns a serialized replacement
network (or a ``kept-cost``/``copied`` verdict) plus the step's
:class:`~repro.engine.passes.ConeOutcome` fields, the
:func:`interval_signature` among them.  It is deterministic — same task
dict, same result — which is what lets the scheduler promise
``workers=N`` bit-identical to ``workers=1``.  :func:`merge_cone_result`
folds a result back into the growing rebuilt network in the parent.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro import obs as _obs

CONE_TASK_VERSION = 1

#: Injected fault modes understood by :func:`run_cone_task` (test/chaos
#: hooks for the scheduler's degradation paths).
FAULT_MODES = ("raise", "hang", "exit", "starve")


@dataclass
class ConeTask:
    """One sink's bi-decomposition job, fully serialized."""

    sink: str
    #: ``network_to_dict`` dump of the cone slice (single-output).
    slice: dict[str, Any]
    #: Disjoint cubes over latch names (``[[name, bool], ...]`` lists)
    #: whose disjunction is the unreachable-state set, or ``None`` when
    #: no don't-care information applies (combinational cone, cube
    #: blow-up, or don't cares disabled).
    dc_cubes: Optional[list[list[list[Any]]]]
    #: Decomposition knobs the worker honours; a missing key takes its
    #: :class:`~repro.engine.context.SynthesisOptions` default.
    options: dict[str, Any] = field(default_factory=dict)
    #: Per-task budgets enforced by a worker-local governor.
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None
    #: Test-only fault injection (see :data:`FAULT_MODES`).
    fault: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": CONE_TASK_VERSION,
            "sink": self.sink,
            "slice": self.slice,
            "dc_cubes": self.dc_cubes,
            "options": dict(self.options),
            "node_budget": self.node_budget,
            "time_budget": self.time_budget,
            "fault": self.fault,
        }

    def task_key(self) -> str:
        """Structural identity of this cone job, known *before* any BDD
        is built.

        A sha256 over the canonical JSON of the cone slice, the shipped
        don't-care cubes, and the decomposition options — everything
        that determines the worker's output.  Slice extraction is
        deterministic (sorted cone inputs, topological node order), so
        the same cone of the same design under the same knobs always
        hashes the same.  This is the key the ledger records costs
        under; the *exact*
        function-canonical key (the interval signature) is computed
        worker-side by :func:`interval_signature` once the BDD exists.
        """
        payload = json.dumps(
            {
                "slice": self.slice,
                "dc_cubes": self.dc_cubes,
                "options": self.options,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ConeTask":
        version = data.get("version")
        if version != CONE_TASK_VERSION:
            raise ValueError(
                f"unsupported cone task version {version!r} "
                f"(expected {CONE_TASK_VERSION})"
            )
        return cls(
            sink=data["sink"],
            slice=data["slice"],
            dc_cubes=data.get("dc_cubes"),
            options=dict(data.get("options", {})),
            node_budget=data.get("node_budget"),
            time_budget=data.get("time_budget"),
            fault=data.get("fault"),
        )


# ---------------------------------------------------------------------------
# Parent side: extraction and merge
# ---------------------------------------------------------------------------


def extract_cone_slice(source, sink: str, order=None):
    """The sink's cone as a standalone single-output network.

    Cone sources (primary inputs *and* latch outputs) become primary
    inputs, in the sorted order of :meth:`Network.cone_inputs`, and the
    nodes follow the source's topological order, so the slice is purely
    combinational and its serialization deterministic.  ``order`` is the
    calling pass's :class:`~repro.network.netlist.TopologicalIndex` over
    ``source``; without one, this call sorts the whole source.
    """
    from repro.network.netlist import Network, TopologicalIndex

    order = order or TopologicalIndex(source)
    piece = Network(f"{source.name}::{sink}")
    for name in source.cone_inputs(sink):
        piece.add_input(name)
    for name in order.sort(source.transitive_fanin([sink])):
        node = source.nodes[name]
        piece.add_node(name, node.op, list(node.fanins), node.cover)
    piece.add_output(sink)
    return piece


def extract_cone_task(
    source,
    sink: str,
    *,
    order=None,
    dc_cubes: Optional[list[list[list[Any]]]] = None,
    options: Optional[dict[str, Any]] = None,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    fault: Optional[str] = None,
) -> ConeTask:
    """Build the serialized task for one sink of ``source`` (``order`` as
    for :func:`extract_cone_slice`)."""
    from repro.engine.checkpoint import network_to_dict

    return ConeTask(
        sink=sink,
        slice=network_to_dict(extract_cone_slice(source, sink, order)),
        dc_cubes=dc_cubes,
        options=dict(options or {}),
        node_budget=node_budget,
        time_budget=time_budget,
        fault=fault,
    )


def dont_care_cubes(
    manager, unreachable: int, max_cubes: int = 2048
) -> Optional[list[list[list[Any]]]]:
    """Serialize an unreachable-state BDD as name-keyed path cubes.

    Returns ``None`` (meaning "ship no don't cares" — sound, merely less
    optimising) when the path count exceeds ``max_cubes``.
    """
    from repro.bdd.count import iter_cubes

    cubes = iter_cubes(manager, unreachable, max_cubes=max_cubes)
    if cubes is None:
        return None
    return [
        sorted(
            [[manager.var_name(var), bool(pol)] for var, pol in cube.items()]
        )
        for cube in cubes
    ]


def merge_cone_result(rebuilt, sink: str, replacement: dict[str, Any]) -> int:
    """Fold a worker's replacement network into ``rebuilt``.

    Node names are kept when free and deterministically renamed on
    collision (the rename map applies to downstream fanins within the
    replacement).  The slice's inputs already exist in ``rebuilt`` as
    primary inputs or latches, so only logic nodes are added.  Returns
    the number of nodes merged.  Raises ``ValueError``, leaving
    ``rebuilt`` untouched, when ``sink`` is already defined there: the
    sink's own name must survive as the cone's output alias.
    """
    from repro.engine.checkpoint import network_from_dict

    if rebuilt.is_signal(sink):
        raise ValueError(
            f"cone sink {sink!r} already defined in the rebuilt network"
        )
    piece = network_from_dict(replacement)
    rename: dict[str, str] = {}
    for name, node in piece.nodes.items():
        fanins = [rename.get(f, f) for f in node.fanins]
        target_name = name
        if rebuilt.is_signal(target_name):
            target_name = rebuilt.fresh_name(f"{name}_p")
            rename[name] = target_name
        rebuilt.add_node(target_name, node.op, fanins, node.cover)
    return len(piece.nodes)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def interval_signature(interval) -> str:
    """Exact function-canonical signature of a don't-care interval.

    BDDs over one variable order are canonical: two cones compute the
    same incompletely specified function iff their ``[lower, upper]``
    BDDs, built with the same order, are isomorphic.  This hashes both
    bounds with their support variables ranked by name — in the
    interval's own manager when it already orders them so (a worker's
    slice manager creates its variables in sorted-name order), else
    after a transfer into a scratch manager that does.  The shared DAG
    gets sequential canonical ids in a deterministic postorder
    (terminals pinned to 0/1, internal nodes keyed by
    ``(var_name, lo_id, hi_id)``), so the digest is independent of node
    numbering, variable creation order and reordering.  Recorded in the
    ledger's cone rows — the lookup key a future cross-run cone cache
    needs.
    """
    manager, roots = interval.manager, [interval.lower, interval.upper]
    support = sorted(interval.support())
    names = [manager.var_name(var) for var in support]
    if names != sorted(names):
        from repro.bdd.compose import transfer_multi
        from repro.bdd.manager import BDDManager

        scratch = BDDManager()
        var_map = {
            var: scratch.new_var(manager.var_name(var))
            for var in sorted(support, key=manager.var_name)
        }
        roots = transfer_multi(manager, roots, scratch, var_map)
        manager = scratch
    ids: dict[int, int] = {0: 0, 1: 1}
    entries: list[list[Any]] = []

    def canonize(root: int) -> None:
        stack = [root]
        while stack:
            node = stack.pop()
            if node in ids:
                continue
            lo, hi = manager.lo(node), manager.hi(node)
            if lo in ids and hi in ids:
                ids[node] = len(ids)
                entries.append(
                    [manager.var_name(manager.top_var(node)),
                     ids[lo], ids[hi]]
                )
            else:
                stack.append(node)
                if hi not in ids:
                    stack.append(hi)
                if lo not in ids:
                    stack.append(lo)

    for root in roots:
        canonize(root)
    payload = json.dumps(
        {"nodes": entries, "roots": [ids[root] for root in roots]},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _apply_fault(fault: Optional[str]) -> None:
    if not fault:
        return
    if fault == "raise":
        raise RuntimeError("injected worker fault")
    if fault == "hang":
        time.sleep(3600)
    elif fault == "exit":
        os._exit(13)
    # "starve" is handled by the caller (budget of zero).


def run_cone_task(data: dict[str, Any]) -> dict[str, Any]:
    """Process-pool entry point: execute one serialized cone task.

    Rebuilds the slice in a private manager under a worker-local
    governor and runs :func:`~repro.engine.passes.decompose_sink` on it
    in a ``parallel.cone`` span, instantiating an accepted tree into a
    fresh replacement network.
    Always returns a result dict: the outcome's
    :meth:`~repro.engine.passes.ConeOutcome.to_json` fields (``action``
    of ``decomposed``, ``kept-cost`` or ``copied``) plus the transport's
    own.  Unexpected exceptions propagate to the parent through the
    executor so their tracebacks reach the crash bundle.  Worker-local
    budget exhaustion is *not* an error — it comes back as
    ``action="copied"`` with a ``degrade_reason``.
    """
    from repro.bdd.manager import BDDManager, FALSE
    from repro.engine.checkpoint import network_from_dict, network_to_dict
    from repro.engine.context import SynthesisOptions
    from repro.engine.governor import ResourceGovernor
    from repro.engine.passes import cone_options, decompose_sink
    from repro.network.bdd_build import ConeCollapser
    from repro.network.netlist import Network

    task = ConeTask.from_dict(data)
    sink = task.sink
    # The installed telemetry buses (none on a run without the flags);
    # a bus also reports the step's phase spans while the cone is open.
    buses = _obs.sinks("cone_started")

    _apply_fault(task.fault)
    node_budget = 0 if task.fault == "starve" else task.node_budget
    governor = ResourceGovernor(
        time_budget=task.time_budget, node_budget=node_budget
    )
    slice_net = network_from_dict(task.slice)
    for bus in buses:
        bus.cone_started(sink, cone_inputs=len(slice_net.inputs))

    manager = governor.attach_manager(BDDManager())
    collapser = ConeCollapser(
        slice_net, manager, source_order=list(slice_net.inputs)
    )

    def dont_cares() -> int:
        unreachable = FALSE
        for cube in task.dc_cubes:
            literals = {collapser.var_of[name]: bool(pol) for name, pol in cube}
            unreachable = manager.apply_or(unreachable, manager.cube(literals))
        return unreachable

    replacement = Network(f"{slice_net.name}::rebuilt")
    for name in slice_net.inputs:
        replacement.add_input(name)
    defaults = cone_options(partial(getattr, SynthesisOptions()))
    # Where the parent's trace places this cone's step.
    started_wall = time.time()
    with _obs.span("parallel.cone"):
        outcome = decompose_sink(
            slice_net, sink, collapser, replacement,
            {**defaults, **task.options},
            governor=governor,
            # Sharing stays within the cone: node ids are manager-local.
            share_table={},
            dont_cares=dont_cares if task.dc_cubes else None,
        )
    decomposed = outcome.action == "decomposed"
    if decomposed:
        replacement.add_output(sink)
    if outcome.interval is not None:
        outcome.signature = interval_signature(outcome.interval)
    for bus in buses:
        bus.cone_finished(
            sink, outcome.action, elapsed=round(outcome.elapsed, 6),
            degrade_reason=outcome.degrade_reason,
        )
    return {
        **outcome.to_json(),
        "version": CONE_TASK_VERSION,
        "sink": sink,
        "cone_inputs": len(slice_net.inputs),
        "replacement": network_to_dict(replacement) if decomposed else None,
        "pid": os.getpid(),
        "started_wall": started_wall,
        "nodes_allocated": governor.nodes_allocated(),
    }


def format_worker_error(exc: BaseException) -> dict[str, str]:
    """Exception → JSON-friendly record, preserving the remote traceback
    text ``concurrent.futures`` chains onto pool exceptions."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }
