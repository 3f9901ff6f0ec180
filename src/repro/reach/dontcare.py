"""Unreachable-state don't cares (Section 3.5.1).

Per-partition reachability results are computed lazily ("computation of
unreachable states is delayed until being requested by a function that
depends on its present-state signals") and cached; retrieving don't cares
for a signal conjoins the projections of all relevant partitions' reached
sets in the requesting manager's node space, then complements — yielding
a sound *under*-approximation of the unreachable states over exactly the
signal's present-state support.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.bdd import quantify as _quantify
from repro.bdd.compose import transfer
from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.network.netlist import Network, TopologicalIndex
from repro.reach.partition import (
    LatchPartition,
    partitions_for_support,
    select_latch_partitions,
)
from repro.reach.transition import TransitionSystem
from repro.reach.traversal import ReachabilityResult, forward_reachable


class DontCareManager:
    """Lazy provider of unreachable-state don't cares for one network."""

    def __init__(
        self,
        network: Network,
        partitions: Optional[Sequence[LatchPartition]] = None,
        max_partition_size: int = 24,
        max_iterations: Optional[int] = None,
        time_budget: Optional[float] = None,
        strategy: str = "early",
        governor=None,
        auto_reorder: bool = False,
        reorder_threshold: int = 50000,
    ) -> None:
        self.network = network
        self.partitions = list(
            partitions
            if partitions is not None
            else select_latch_partitions(network, max_size=max_partition_size)
        )
        self.max_iterations = max_iterations
        self.time_budget = time_budget
        self.strategy = strategy
        #: Optional :class:`repro.engine.governor.ResourceGovernor`.
        #: When set, per-partition traversals run inside the governor's
        #: global wall-clock/node budget (the per-partition
        #: ``time_budget`` still caps each traversal individually), and
        #: partitions whose traversal has not started by the time the
        #: budget trips contribute no don't-care information.
        self.governor = governor
        #: Dynamic reordering for the per-partition traversal managers
        #: (the ``--auto-reorder`` knob): re-sift when a traversal's
        #: manager grows by ``reorder_threshold`` nodes.  Don't-care
        #: results leave through name-keyed transfer, so this is
        #: output-invariant.
        self.auto_reorder = auto_reorder
        self.reorder_threshold = reorder_threshold
        self._results: dict[int, ReachabilityResult] = {}
        #: One topological index shared by every partition's system
        #: (each result keeps its system alive, so one per partition
        #: would add up).
        self._index = TopologicalIndex(network)

    def reachability(self, index: int) -> ReachabilityResult:
        """Reachability result for partition ``index`` (computed on first
        request, cached in the partition's own node space)."""
        result = self._results.get(index)
        if result is None:
            manager = None
            if self.auto_reorder:
                manager = BDDManager(
                    auto_reorder_threshold=self.reorder_threshold
                )
            ts = TransitionSystem(
                self.network, self.partitions[index].latches,
                manager=manager, index=self._index,
            )
            budget = self.time_budget
            if self.governor is not None:
                budget = self.governor.time_slice(budget)
            result = forward_reachable(
                ts,
                strategy=self.strategy,
                max_iterations=self.max_iterations,
                time_budget=budget,
                governor=self.governor,
                auto_reorder=self.auto_reorder,
            )
            self._results[index] = result
        return result

    def unreachable_for(
        self,
        ps_support: set[str],
        target: BDDManager,
        var_of: Mapping[str, int],
    ) -> int:
        """Under-approximate unreachable states over ``ps_support``.

        ``var_of`` maps latch names to variables of the ``target``
        manager.  Partitions whose traversal did not converge contribute
        no information (their bounded reached set is not a fixpoint
        over-approximation).  The result is the complement of the
        conjunction of per-partition projections.
        """
        care = TRUE
        for index in partitions_for_support(self.partitions, ps_support):
            if (
                self.governor is not None
                and index not in self._results
                and self.governor.out_of_budget()
            ):
                # Out of budget: an uncomputed partition contributes no
                # information (sound — fewer don't cares, never wrong).
                continue
            result = self.reachability(index)
            if not result.converged:
                continue
            projected = self._project(result, ps_support)
            mapping = {
                result.ts.ps_var[latch]: var_of[latch]
                for latch in result.ts.latches
                if latch in ps_support
            }
            care = target.apply_and(
                care, transfer(result.ts.manager, projected, target, mapping)
            )
        return target.negate(care)

    def _project(self, result: ReachabilityResult, keep: set[str]) -> int:
        drop = [
            result.ts.ps_var[latch]
            for latch in result.ts.latches
            if latch not in keep
        ]
        return _quantify.exists(result.ts.manager, result.reached, drop)

    # -- reporting --------------------------------------------------------

    def compute_all(self) -> None:
        """Force reachability on every partition (benchmarks use this to
        time the analysis as a whole)."""
        for index in range(len(self.partitions)):
            self.reachability(index)

    def approximate_log2_states(self) -> float:
        """``log2`` of the conjunctive reachable-state over-approximation,
        estimated over a disjoint regrouping of the partitions (each
        latch is counted in the first partition that contains it); the
        Table 3.1 ``log2 states`` column.

        Latches outside every partition count as free (a factor of 2
        each).
        """
        assigned: set[str] = set()
        total_log2 = 0.0
        for index, partition in enumerate(self.partitions):
            own = [l for l in partition.latches if l not in assigned]
            if not own:
                continue
            assigned.update(own)
            result = self.reachability(index)
            if not result.converged:
                total_log2 += len(own)
                continue
            projected = self._project(result, set(own))
            manager = result.ts.manager
            from repro.bdd.count import sat_count

            count = sat_count(manager, projected, manager.num_vars) // (
                1 << (manager.num_vars - len(own))
            )
            total_log2 += math.log2(count) if count else 0.0
        total_log2 += len(
            [l for l in self.network.latches if l not in assigned]
        )
        return total_log2
