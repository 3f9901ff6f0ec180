"""Symbolic transition systems for (subsets of) a network's latches.

A :class:`TransitionSystem` owns a dedicated BDD manager with an
interleaved present-state/next-state variable order per latch; primary
inputs — and latches *outside* the chosen subset, which behave as free
inputs (this is what makes per-partition reachability an
over-approximation) — get variables lazily as the next-state cones are
collapsed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bdd.manager import BDDManager
from repro.network.bdd_build import ConeCollapser
from repro.network.netlist import Network, TopologicalIndex


class TransitionSystem:
    """Next-state functions and state encodings for a latch subset.

    Attributes
    ----------
    latches:
        The latch names of this (sub)system, in variable order.
    ps_var / ns_var:
        Maps from latch name to its present-state / next-state variable.
    next_functions:
        Map from latch name to the BDD of its next-state function over
        present-state and free variables.

    Systems over the same network can share one ``index`` (its
    topological positions) instead of each sorting the network.
    """

    def __init__(
        self,
        network: Network,
        latches: Optional[Sequence[str]] = None,
        manager: Optional[BDDManager] = None,
        index: Optional[TopologicalIndex] = None,
    ) -> None:
        self.network = network
        self.latches = list(latches if latches is not None else network.latches)
        unknown = [l for l in self.latches if l not in network.latches]
        if unknown:
            raise ValueError(f"not latches of the network: {unknown}")
        self.manager = manager if manager is not None else BDDManager()
        self.collapser = ConeCollapser(network, self.manager, index=index)
        self.ps_var: dict[str, int] = {}
        self.ns_var: dict[str, int] = {}
        for latch in self.latches:
            self.ps_var[latch] = self.collapser.source_var(latch)
            self.ns_var[latch] = self.manager.new_var(f"{latch}__ns")
        self.next_functions: dict[str, int] = {
            latch: self.collapser.node_function(network.latches[latch].data_in)
            for latch in self.latches
        }
        # Traversal never collapses again, and a reachability result keeps
        # its system alive: do not keep every partition's cone cache.
        self.collapser._cache = {}

    # -- variable sets ---------------------------------------------------

    def ps_vars(self) -> list[int]:
        return [self.ps_var[l] for l in self.latches]

    def ns_vars(self) -> list[int]:
        return [self.ns_var[l] for l in self.latches]

    def free_vars(self) -> list[int]:
        """Variables that are neither PS nor NS of this subset: primary
        inputs and out-of-subset latches (treated as free)."""
        owned = set(self.ps_vars()) | set(self.ns_vars())
        return [
            var
            for name, var in self.collapser.var_of.items()
            if var not in owned
        ]

    def ns_to_ps(self) -> dict[int, int]:
        return {self.ns_var[l]: self.ps_var[l] for l in self.latches}

    # -- relations ---------------------------------------------------------

    def initial_states(self) -> int:
        """Cube of the reset state over PS variables."""
        return self.manager.cube(
            {
                self.ps_var[l]: self.network.latches[l].init
                for l in self.latches
            }
        )

    def part_relations(self) -> list[int]:
        """The per-latch transition relation conjuncts
        ``ns_i ≡ f_i(ps, inputs)``."""
        return [
            self.manager.apply_xnor(
                self.manager.var(self.ns_var[latch]), self.next_functions[latch]
            )
            for latch in self.latches
        ]

    def monolithic_relation(self) -> int:
        """Single conjoined transition relation (ablation baseline; the
        partitioned form with early quantification is the default)."""
        return self.manager.conjoin(self.part_relations())

    def num_state_bits(self) -> int:
        return len(self.latches)

    # -- dynamic reordering -------------------------------------------------

    def reorder_manager(self, extra: Sequence[int] = ()) -> list[int]:
        """Sift this system's manager and rebuild every owned handle
        (next-state functions, PS/NS variable maps, the collapser's
        source-variable map) under the improved order.

        ``extra`` is the caller's live roots (reached set, frontier);
        their remapped handles are returned in order.  Safe to call only
        between image steps.  Everything this manager exports leaves via
        *name*-keyed transfer (see ``DontCareManager.unreachable_for``),
        so an internal order change is invisible downstream — which is
        exactly why genuine sifting is allowed here but not in the
        synthesis collapser manager.
        """
        from repro.bdd.reorder import reorder as _reorder

        roots = [self.next_functions[latch] for latch in self.latches]
        split = len(roots)
        roots.extend(extra)
        new_manager, moved, var_map = _reorder(self.manager, roots)
        self.manager = new_manager
        self.collapser.manager = new_manager
        self.collapser._var_of = {
            name: var_map[var]
            for name, var in self.collapser._var_of.items()
        }
        # Cached cone functions are old-manager nodes; drop them (they
        # are lazily recomputed — traversal never re-collapses anyway).
        self.collapser._cache = {}
        self.ps_var = {l: var_map[self.ps_var[l]] for l in self.latches}
        self.ns_var = {l: var_map[self.ns_var[l]] for l in self.latches}
        self.next_functions = dict(zip(self.latches, moved[:split]))
        return moved[split:]
