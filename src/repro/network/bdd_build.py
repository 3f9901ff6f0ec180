"""Building BDDs for network cones (the "selectively collapse logic" step
of Algorithm 1)."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.network.netlist import Network, TopologicalIndex


class ConeCollapser:
    """Collapses combinational cones of a network into BDDs.

    One manager hosts a variable per combinational source (primary input
    or latch output), created lazily in a caller-controllable order; node
    functions are cached so overlapping cones share work.

    Collapsing a signal evaluates the nodes of its cone not evaluated yet
    (those behind a cut point too) in the network's topological order,
    which fixes the order source variables are created in; the cost grows
    with those nodes, not with the network.  The network must not be
    edited while a collapser over it is in use: cached functions would go
    stale, and of the edits only an added node is noticed.
    """

    def __init__(
        self,
        network: Network,
        manager: Optional[BDDManager] = None,
        source_order: Optional[Sequence[str]] = None,
        cut_points: Optional[set[str]] = None,
        index: Optional[TopologicalIndex] = None,
    ) -> None:
        self.network = network
        self.manager = manager if manager is not None else BDDManager()
        #: Internal signals treated as free variables (cut points) — used
        #: by observability-don't-care computation.
        self.cut_points = set(cut_points or ())
        self._var_of: dict[str, int] = {}
        self._cache: dict[str, int] = {}
        # Topological positions of the network's nodes (shareable by
        # collapsers over the same network).
        self._index = index if index is not None else TopologicalIndex(network)
        if source_order is not None:
            for name in source_order:
                self.source_var(name)

    def source_var(self, name: str) -> int:
        """Manager variable index for a combinational source signal (or a
        declared cut point)."""
        var = self._var_of.get(name)
        if var is None:
            is_source = (
                name in self.network.inputs or name in self.network.latches
            )
            if not is_source and name not in self.cut_points:
                raise KeyError(f"{name!r} is not a combinational source")
            var = self.manager.new_var(name)
            self._var_of[name] = var
        return var

    @property
    def var_of(self) -> Mapping[str, int]:
        """Read-only view of the source-to-variable assignment."""
        return dict(self._var_of)

    def node_function(self, signal: str) -> int:
        """BDD of ``signal`` in terms of combinational sources (and cut
        points)."""
        if (
            signal in self.network.inputs
            or signal in self.network.latches
            or signal in self.cut_points
        ):
            return self.manager.var(self.source_var(signal))
        cached = self._cache.get(signal)
        if cached is not None:
            return cached
        for name in self._index.sort(self._unevaluated(signal)):
            if name in self.cut_points:
                continue  # read as a free variable, never evaluated
            node = self.network.nodes[name]
            operands = [self._signal_node(fanin) for fanin in node.fanins]
            self._cache[name] = self._apply(node, operands)
        return self._cache[signal]

    def _unevaluated(self, signal: str) -> set[str]:
        """``signal``'s cone down to the evaluated nodes: an iterative
        walk (deep cones would hit Python's recursion limit) that stops
        at cached nodes and passes through cut points."""
        nodes = self.network.nodes
        cache = self._cache
        found: set[str] = set()
        stack = [signal]
        while stack:
            name = stack.pop()
            if name in found or name in cache:
                continue
            found.add(name)
            node = nodes.get(name)
            if node is not None:
                stack.extend(node.fanins)
        return found

    def _signal_node(self, name: str) -> int:
        if (
            name in self.network.inputs
            or name in self.network.latches
            or name in self.cut_points
        ):
            return self.manager.var(self.source_var(name))
        return self._cache[name]

    def _apply(self, node, operands: list[int]) -> int:
        manager = self.manager
        if node.op == "and":
            return manager.conjoin(operands)
        if node.op == "or":
            return manager.disjoin(operands)
        if node.op == "xor":
            result = FALSE
            for operand in operands:
                result = manager.apply_xor(result, operand)
            return result
        if node.op == "not":
            return manager.negate(operands[0])
        if node.op == "buf":
            return operands[0]
        if node.op == "const0":
            return FALSE
        if node.op == "const1":
            return TRUE
        # cover
        assert node.cover is not None
        result = FALSE
        for cube in node.cover:
            term = TRUE
            for position, polarity in cube.literals:
                literal = operands[position]
                term = manager.apply_and(
                    term, literal if polarity else manager.negate(literal)
                )
            result = manager.apply_or(result, term)
        return result

    def functions(self, signals: Iterable[str]) -> dict[str, int]:
        """Collapse several signals at once (shared subcones are reused)."""
        return {signal: self.node_function(signal) for signal in signals}

    def compact(self, extra_roots: Iterable[int] = ()) -> dict[int, int]:
        """Rebuild the manager keeping only live nodes (cached signal
        functions plus ``extra_roots``), dropping everything dead.

        The variable order and names are preserved exactly, so rebuilt
        functions are semantically identical; only node *handles* change.
        Returns the old-node -> new-node map of the roots (the cached
        signal functions and ``extra_roots``) so holders of outstanding
        handles (share tables, context caches) can remap themselves.
        This is the safe-point shrink the engine's ``--auto-reorder``
        hook applies to the long-lived collapser manager — order-neutral
        on synthesis output, unlike genuine sifting, because variable
        indices (which partition enumeration orders depend on) never
        move.
        """
        from repro.bdd.compose import transfer_multi

        old = self.manager
        target = BDDManager(
            native=old.native,
            auto_reorder_threshold=old.auto_reorder_threshold,
        )
        for name in self._var_of:
            target.new_var(name)
        roots = list(self._cache.values())
        roots.extend(extra_roots)
        node_map = dict(zip(roots, transfer_multi(old, roots, target)))
        self._cache = {
            signal: node_map[node] for signal, node in self._cache.items()
        }
        self.manager = target
        target.mark_reordered()
        return node_map
