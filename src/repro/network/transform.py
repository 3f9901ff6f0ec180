"""Structural network transformations.

Covers the paper's pre-processing ("each circuit was structurally
pre-processed to remove cloned, dead, and constant latches",
Section 3.6), cover/primitive expansions used before technology mapping,
structural hashing for sharing, and instantiation of decomposition trees
back into the network.

:func:`cleanup_latches`, :func:`sweep` and :func:`strash` are also
exposed as registered pipeline passes (``"cleanup"``, ``"sweep"``,
``"strash"``) through :mod:`repro.engine.passes`, so declarative
pipeline configs can sequence them freely.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.bidec.recursive import DecTree
from repro.logic.factoring import AndExpr, ConstExpr, Expr, Lit, OrExpr, factor
from repro.logic.sop import Cover, Cube
from repro.network.netlist import Network, Node


# ---------------------------------------------------------------------------
# Latch cleanup (Section 3.6 pre-processing)
# ---------------------------------------------------------------------------


def remove_dead_latches(network: Network) -> int:
    """Drop latches whose outputs drive nothing (transitively): a latch
    feeding only dead logic or other dead latches is dead too."""
    removed_total = 0
    while True:
        # A latch only kept alive by its own (or other dead latches')
        # next-state logic is still dead; iterate to a fixpoint by first
        # considering only primary outputs plus live-latch data.
        live = network.transitive_fanin(network.outputs)
        changed = True
        while changed:
            changed = False
            for latch in network.latches.values():
                if latch.name in live:
                    additions = network.transitive_fanin([latch.data_in])
                    if not additions <= live:
                        live |= additions
                        changed = True
        dead = [name for name in network.latches if name not in live]
        for name in dead:
            del network.latches[name]
        removed_total += len(dead)
        if not dead:
            break
    network.prune_dangling()
    return removed_total


def remove_constant_latches(network: Network) -> int:
    """Replace latches whose next state is a constant equal to their init
    value by that constant."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for name, latch in list(network.latches.items()):
            driver = network.nodes.get(latch.data_in)
            if driver is None or driver.op not in ("const0", "const1"):
                continue
            value = driver.op == "const1"
            if value != latch.init:
                continue
            del network.latches[name]
            network.add_node(name, "const1" if value else "const0")
            removed += 1
            changed = True
    return removed


def merge_cloned_latches(network: Network) -> int:
    """Merge latches with identical data input and init value, rewiring
    readers of the clones to the representative."""
    groups: dict[tuple[str, bool], list[str]] = {}
    for name, latch in network.latches.items():
        groups.setdefault((latch.data_in, latch.init), []).append(name)
    protected = set(network.outputs)
    replacements: dict[str, str] = {}
    for clones in groups.values():
        # Prefer keeping a latch that is itself a primary output.
        keeper = min(clones, key=lambda n: (n not in protected, n))
        for clone in clones:
            if clone == keeper:
                continue
            del network.latches[clone]
            if clone in protected:
                # Preserve the output name as an alias of the keeper.
                network.add_node(clone, "buf", [keeper])
            else:
                replacements[clone] = keeper
    if replacements:
        _rewire(network, replacements)
    return len(replacements)


def _rewire(network: Network, replacements: Mapping[str, str]) -> None:
    for node in network.nodes.values():
        node.fanins = [replacements.get(f, f) for f in node.fanins]
    network.outputs = [replacements.get(o, o) for o in network.outputs]
    for latch in network.latches.values():
        latch.data_in = replacements.get(latch.data_in, latch.data_in)


def cleanup_latches(network: Network) -> dict[str, int]:
    """Full Section 3.6 pre-processing pass; returns removal counts."""
    stats = {
        "constant": remove_constant_latches(network),
        "cloned": merge_cloned_latches(network),
        "dead": remove_dead_latches(network),
    }
    return stats


# ---------------------------------------------------------------------------
# Expansion and sharing
# ---------------------------------------------------------------------------


def expand_covers(network: Network) -> int:
    """Replace every cover node by AND/OR/NOT primitives (covers become
    a two-level network); returns the number of covers expanded."""
    expanded = 0
    for name in list(network.nodes):
        node = network.nodes[name]
        if node.op != "cover":
            continue
        assert node.cover is not None
        expression = factor(node.cover)
        position_to_signal = {i: f for i, f in enumerate(node.fanins)}
        replacement = _instantiate_expr(network, expression, position_to_signal, name)
        network.replace_node(name, replacement)
        expanded += 1
    return expanded


def _instantiate_expr(
    network: Network,
    expression: Expr,
    leaf_signal: Mapping[int, str],
    target: str,
) -> Node:
    """Build gates for an expression tree; the root is returned as a Node
    to be installed under ``target``'s name, the rest get fresh names."""

    def emit(expr: Expr) -> str:
        node = build(expr)
        name = network.fresh_name(f"{target}_f")
        network.nodes[name] = node
        node.name = name
        return name

    def build(expr: Expr) -> Node:
        if isinstance(expr, ConstExpr):
            return Node("", "const1" if expr.value else "const0")
        if isinstance(expr, Lit):
            signal = leaf_signal[expr.var]
            if expr.polarity:
                return Node("", "buf", [signal])
            return Node("", "not", [signal])
        op = "and" if isinstance(expr, AndExpr) else "or"
        fanins = [emit(term) for term in expr.terms]
        return Node("", op, fanins)

    return build(expression)


def expand_to_two_input(network: Network) -> None:
    """Decompose every variadic AND/OR/XOR into balanced trees of 2-input
    gates (the subject-graph form the technology mapper consumes)."""
    expand_covers(network)
    for name in list(network.nodes):
        node = network.nodes[name]
        if node.op not in ("and", "or", "xor") or len(node.fanins) <= 2:
            continue
        fanins = list(node.fanins)
        while len(fanins) > 2:
            next_level = []
            for i in range(0, len(fanins) - 1, 2):
                pair_name = network.fresh_name(f"{name}_t")
                network.add_node(pair_name, node.op, [fanins[i], fanins[i + 1]])
                next_level.append(pair_name)
            if len(fanins) % 2:
                next_level.append(fanins[-1])
            fanins = next_level
        network.replace_node(name, Node(name, node.op, fanins))


def strash(network: Network) -> int:
    """Structural hashing: merge nodes with identical op and fanins
    (commutative ops sorted), propagating merges forward; returns the
    number of nodes merged away."""
    merged = 0
    protected = set(network.outputs)
    replacements: dict[str, str] = {}
    table: dict[tuple, str] = {}
    for name in network.topological_order():
        node = network.nodes[name]
        fanins = [replacements.get(f, f) for f in node.fanins]
        if node.op in ("and", "or", "xor"):
            key_fanins = tuple(sorted(fanins))
        else:
            key_fanins = tuple(fanins)
        if node.op == "cover":
            assert node.cover is not None
            key = (node.op, key_fanins, tuple(c.literals for c in node.cover))
        else:
            key = (node.op, key_fanins)
        node.fanins = fanins
        existing = table.get(key)
        if existing is not None and existing != name:
            if name in protected:
                # Keep the output name alive as an alias of the keeper.
                network.replace_node(name, Node(name, "buf", [existing]))
            else:
                replacements[name] = existing
                del network.nodes[name]
            merged += 1
        else:
            table[key] = name
    if replacements:
        _rewire(network, replacements)
    return merged


def sweep(network: Network) -> int:
    """Propagate buffers and constants through the network and drop
    dangling logic; returns the number of nodes removed."""
    before = len(network.nodes)
    protected = set(network.outputs)
    changed = True
    while changed:
        changed = False
        replacements: dict[str, str] = {}
        for name in network.topological_order():
            node = network.nodes.get(name)
            if node is None:
                continue
            node.fanins = [replacements.get(f, f) for f in node.fanins]
            if name in protected:
                continue
            if node.op == "buf":
                replacements[name] = node.fanins[0]
                del network.nodes[name]
                changed = True
            elif node.op in ("and", "or") and len(node.fanins) == 1:
                replacements[name] = node.fanins[0]
                del network.nodes[name]
                changed = True
        if replacements:
            _rewire(network, replacements)
    network.prune_dangling()
    return before - len(network.nodes)


# ---------------------------------------------------------------------------
# Decomposition-tree instantiation (Algorithm 1's rebuild step)
# ---------------------------------------------------------------------------


def instantiate_dectree(
    network: Network,
    tree: DecTree,
    var_to_signal: Mapping[int, str],
    target: str,
    share_table: Optional[dict[int, str]] = None,
) -> str:
    """Materialise a decomposition tree as network gates driving a fresh
    signal (returned).  ``var_to_signal`` maps the BDD variables of the
    tree's covers to network signal names.

    ``share_table`` (BDD node -> existing signal) enables the Figure 3.2
    logic-sharing optimisation: subtrees whose function already exists in
    the network are replaced by a reference to the existing signal.  The
    table is extended with the signals created here so later calls share
    them.
    """
    if share_table is not None:
        existing = share_table.get(tree.function)
        if existing is not None:
            return existing
    if tree.op == "leaf":
        assert tree.cover is not None
        signal = _instantiate_cover(network, tree.cover, var_to_signal, target)
    else:
        left = instantiate_dectree(
            network, tree.children[0], var_to_signal, target, share_table
        )
        right = instantiate_dectree(
            network, tree.children[1], var_to_signal, target, share_table
        )
        signal = network.fresh_name(f"{target}_g")
        network.add_node(signal, tree.op, [left, right])
    if share_table is not None:
        share_table[tree.function] = signal
    return signal


def _instantiate_cover(
    network: Network,
    cover: Cover,
    var_to_signal: Mapping[int, str],
    target: str,
) -> str:
    variables = sorted({var for cube in cover for var, _ in cube.literals})
    position_of = {var: i for i, var in enumerate(variables)}
    local = Cover(
        [
            Cube.from_dict(
                {position_of[var]: pol for var, pol in cube.literals}
            )
            for cube in cover
        ]
    )
    signal = network.fresh_name(f"{target}_c")
    network.add_node(
        signal, "cover", [var_to_signal[var] for var in variables], local
    )
    return signal


def replace_signal_definition(
    network: Network, signal: str, new_driver: str
) -> None:
    """Redefine an existing node ``signal`` as a buffer of ``new_driver``
    (callers run :func:`sweep` afterwards to squeeze the buffer out)."""
    network.replace_node(signal, Node(signal, "buf", [new_driver]))
