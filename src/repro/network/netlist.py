"""Sequential logic networks.

A :class:`Network` is a named directed acyclic graph of logic nodes over
primary inputs, with latches providing sequential state: a latch's output
is a combinational source and its data input a combinational sink, so the
combinational core is always acyclic.

Node operators cover the simple primitives the synthesis flow emits
(``and``/``or``/``xor``/``not``/``buf``/``const0``/``const1``), plus
``cover`` nodes carrying an SOP over their fanins (the BLIF ``.names``
representation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.logic.sop import Cover, Cube

#: Operators with arbitrary fanin count.
VARIADIC_OPS = {"and", "or", "xor"}
#: All legal node operators.
NODE_OPS = VARIADIC_OPS | {"not", "buf", "const0", "const1", "cover"}


@dataclass
class Node:
    """A combinational node: ``name = op(fanins)``.

    For ``op == "cover"`` the on-set is ``cover``, whose cube literals are
    *positions* into ``fanins`` (not global variable ids).
    """

    name: str
    op: str
    fanins: list[str] = field(default_factory=list)
    cover: Optional[Cover] = None

    def __post_init__(self) -> None:
        if self.op not in NODE_OPS:
            raise ValueError(f"unknown node op {self.op!r}")
        if self.op in ("const0", "const1") and self.fanins:
            raise ValueError("constants take no fanins")
        if self.op in ("not", "buf") and len(self.fanins) != 1:
            raise ValueError(f"{self.op} takes exactly one fanin")
        if self.op == "cover" and self.cover is None:
            raise ValueError("cover nodes need a cover")


@dataclass
class Latch:
    """A D-type latch: output signal ``name``, next-state signal
    ``data_in``, reset value ``init``."""

    name: str
    data_in: str
    init: bool = False


class Network:
    """A sequential netlist with named signals.

    Signals come in three kinds: primary inputs, latch outputs, and node
    outputs.  Primary outputs are references to any signal.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.latches: dict[str, Latch] = {}
        self.nodes: dict[str, Node] = {}

    # -- construction ----------------------------------------------------

    def add_input(self, name: str) -> str:
        self._check_fresh(name)
        self.inputs.append(name)
        return name

    def add_output(self, signal: str) -> None:
        self.outputs.append(signal)

    def add_latch(self, name: str, data_in: str, init: bool = False) -> str:
        self._check_fresh(name)
        self.latches[name] = Latch(name, data_in, init)
        return name

    def add_node(
        self,
        name: str,
        op: str,
        fanins: Sequence[str] = (),
        cover: Optional[Cover] = None,
    ) -> str:
        self._check_fresh(name)
        self.nodes[name] = Node(name, op, list(fanins), cover)
        return name

    def _check_fresh(self, name: str) -> None:
        if name in self.nodes or name in self.latches or name in self.inputs:
            raise ValueError(f"signal {name!r} already defined")

    def fresh_name(self, prefix: str = "n") -> str:
        """An unused signal name with the given prefix."""
        index = len(self.nodes)
        while True:
            candidate = f"{prefix}{index}"
            if (
                candidate not in self.nodes
                and candidate not in self.latches
                and candidate not in self.inputs
            ):
                return candidate
            index += 1

    # -- structure -------------------------------------------------------

    def is_signal(self, name: str) -> bool:
        return name in self.nodes or name in self.latches or name in self.inputs

    def combinational_sources(self) -> list[str]:
        """Primary inputs plus latch outputs — the sources of the
        combinational core."""
        return self.inputs + list(self.latches)

    def combinational_sinks(self) -> list[str]:
        """Primary-output signals plus latch data inputs (deduplicated,
        order-preserving)."""
        seen: set[str] = set()
        sinks: list[str] = []
        for signal in self.outputs + [l.data_in for l in self.latches.values()]:
            if signal not in seen:
                seen.add(signal)
                sinks.append(signal)
        return sinks

    def fanins(self, signal: str) -> list[str]:
        node = self.nodes.get(signal)
        return list(node.fanins) if node else []

    def fanout_map(self) -> dict[str, set[str]]:
        """Map from each signal to the set of node names reading it."""
        fanouts: dict[str, set[str]] = {}
        for node in self.nodes.values():
            for fanin in node.fanins:
                fanouts.setdefault(fanin, set()).add(node.name)
        return fanouts

    def topological_order(self) -> list[str]:
        """Node names in fanin-before-fanout order.

        Raises ``ValueError`` on a combinational cycle or an undefined
        fanin.
        """
        order: list[str] = []
        state: dict[str, int] = {}  # 0 = visiting, 1 = done
        for root in self.nodes:
            if root in state:
                continue
            stack: list[tuple[str, int]] = [(root, 0)]
            while stack:
                name, child_index = stack.pop()
                if name not in self.nodes or state.get(name) == 1:
                    continue
                if child_index == 0:
                    if state.get(name) == 0:
                        raise ValueError(f"combinational cycle through {name!r}")
                    state[name] = 0
                node = self.nodes[name]
                advanced = False
                for i in range(child_index, len(node.fanins)):
                    fanin = node.fanins[i]
                    if not self.is_signal(fanin):
                        raise ValueError(f"undefined fanin {fanin!r} of {name!r}")
                    if fanin in self.nodes and state.get(fanin) != 1:
                        stack.append((name, i + 1))
                        stack.append((fanin, 0))
                        advanced = True
                        break
                if not advanced:
                    state[name] = 1
                    order.append(name)
        return order

    def transitive_fanin(self, signals: Iterable[str]) -> set[str]:
        """All signals (nodes, latches, inputs) in the cone of the given
        signals, including the signals themselves."""
        cone: set[str] = set()
        stack = list(signals)
        while stack:
            name = stack.pop()
            if name in cone:
                continue
            cone.add(name)
            node = self.nodes.get(name)
            if node:
                stack.extend(node.fanins)
        return cone

    def cone_inputs(self, signal: str) -> list[str]:
        """Sources (inputs/latches) feeding the cone of ``signal``,
        sorted for determinism."""
        cone = self.transitive_fanin([signal])
        return sorted(
            name for name in cone if name in self.latches or name in self.inputs
        )

    def latch_support(self, signal: str) -> set[str]:
        """The present-state portion of a signal's structural support —
        the paper's ``supp_ps(f)`` (Section 3.5.1)."""
        return {name for name in self.cone_inputs(signal) if name in self.latches}

    # -- statistics -------------------------------------------------------

    def num_gates(self) -> int:
        """Number of logic nodes (constants and buffers excluded)."""
        return sum(
            1 for node in self.nodes.values() if node.op not in ("const0", "const1", "buf")
        )

    def literal_count(self) -> int:
        """Technology-independent area: SOP literals for cover nodes,
        fanin count for primitive gates, 1 for an inverter."""
        total = 0
        for node in self.nodes.values():
            if node.op == "cover":
                assert node.cover is not None
                total += node.cover.literal_count()
            elif node.op in VARIADIC_OPS:
                total += len(node.fanins)
            elif node.op == "not":
                total += 1
        return total

    def and_inv_count(self) -> int:
        """Size of the network's and/inv expansion: each k-input
        AND/OR contributes ``k-1`` two-input ANDs, each XOR ``3(k-1)``
        (the Table 3.2 "AND" column metric)."""
        total = 0
        for node in self.nodes.values():
            arity = len(node.fanins)
            if node.op in ("and", "or"):
                total += max(0, arity - 1)
            elif node.op == "xor":
                total += 3 * max(0, arity - 1)
            elif node.op == "cover":
                assert node.cover is not None
                for cube in node.cover:
                    total += max(0, len(cube) - 1)
                total += max(0, len(node.cover.cubes) - 1)
        return total

    def stats(self) -> dict[str, int]:
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "latches": len(self.latches),
            "nodes": len(self.nodes),
            "literals": self.literal_count(),
            "and_inv": self.and_inv_count(),
        }

    # -- editing -----------------------------------------------------------

    def remove_node(self, name: str) -> None:
        del self.nodes[name]

    def replace_node(self, name: str, node: Node) -> None:
        """Swap in a new definition for an existing node name."""
        if name not in self.nodes:
            raise KeyError(name)
        node.name = name
        self.nodes[name] = node

    def prune_dangling(self) -> int:
        """Remove nodes not in the transitive fanin of any sink; returns
        the number removed."""
        live = self.transitive_fanin(self.combinational_sinks())
        dead = [name for name in self.nodes if name not in live]
        for name in dead:
            del self.nodes[name]
        return len(dead)

    def copy(self) -> "Network":
        """Deep copy (covers are shared; they are immutable in practice)."""
        duplicate = Network(self.name)
        duplicate.inputs = list(self.inputs)
        duplicate.outputs = list(self.outputs)
        duplicate.latches = {
            name: Latch(latch.name, latch.data_in, latch.init)
            for name, latch in self.latches.items()
        }
        duplicate.nodes = {
            name: Node(node.name, node.op, list(node.fanins), node.cover)
            for name, node in self.nodes.items()
        }
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<Network {self.name!r} i/o={s['inputs']}/{s['outputs']} "
            f"latches={s['latches']} nodes={s['nodes']}>"
        )


class TopologicalIndex:
    """Each node's position in a network's :meth:`~Network.topological_order`.

    Sorting a cone by these positions yields exactly the whole-network
    order filtered to the cone, in time proportional to the cone.  The
    positions are computed on first use and recomputed when a cone names
    a node they lack, so added nodes are found; an edit that rewires
    existing nodes goes unnoticed.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._position: dict[str, int] = {}

    def sort(self, names: Iterable[str]) -> list[str]:
        """The node names among ``names`` (sources dropped), in
        topological order."""
        nodes = self.network.nodes
        cone = [name for name in names if name in nodes]
        position = self._position
        if any(name not in position for name in cone):
            position = self._position = {
                name: index
                for index, name in enumerate(self.network.topological_order())
            }
        cone.sort(key=position.__getitem__)
        return cone
