"""Functional composition, variable renaming and cross-manager transfer."""

from __future__ import annotations

from typing import Mapping

from repro.bdd.manager import BDDManager, FALSE, TRUE


def compose(manager: BDDManager, f: int, var: int, g: int) -> int:
    """Substitute function ``g`` for variable ``var`` in ``f``."""
    return vector_compose(manager, f, {var: g})


def vector_compose(manager: BDDManager, f: int, substitution: Mapping[int, int]) -> int:
    """Simultaneous substitution of functions for variables.

    ``substitution`` maps variable indices to replacement nodes; variables
    not mentioned are left alone.  The substitution is simultaneous: the
    replacement functions are *not* themselves rewritten.
    """
    if not substitution:
        return f
    cache: dict[int, int] = {}

    def walk(node: int) -> int:
        if node <= 1:
            return node
        hit = cache.get(node)
        if hit is not None:
            return hit
        level = manager.level(node)
        lo = walk(manager.lo(node))
        hi = walk(manager.hi(node))
        selector = substitution.get(level)
        if selector is None:
            selector = manager.var(level)
        result = manager.ite(selector, hi, lo)
        cache[node] = result
        return result

    try:
        return walk(f)
    finally:
        del walk  # it holds itself (and the manager) through its closure


def rename(manager: BDDManager, f: int, mapping: Mapping[int, int]) -> int:
    """Rename variables of ``f`` according to ``{old_var: new_var}``.

    A special case of :func:`vector_compose`; the mapping must be injective
    on the support of ``f``.
    """
    return vector_compose(
        manager, f, {old: manager.var(new) for old, new in mapping.items()}
    )


def transfer(
    source: BDDManager,
    f: int,
    target: BDDManager,
    var_map: Mapping[int, int] | None = None,
) -> int:
    """Rebuild function ``f`` from ``source`` inside ``target``.

    ``var_map`` maps source variable indices to target variable indices
    (identity by default).  Used to re-order a function by transferring it
    into a manager with a different variable creation order.
    """
    return transfer_multi(source, [f], target, var_map)[0]


def transfer_multi(
    source: BDDManager,
    roots: "list[int] | tuple[int, ...]",
    target: BDDManager,
    var_map: Mapping[int, int] | None = None,
    node_map: dict[int, int] | None = None,
) -> list[int]:
    """Rebuild several functions from ``source`` inside ``target``,
    sharing one translation cache across all roots.

    The walk is iterative (chain-shaped BDDs can be thousands of levels
    deep — compaction must not hit the recursion limit).  ``node_map``,
    when given, is used as the shared cache and is left filled with the
    complete source-node -> target-node translation afterwards — that is
    the remap table compaction hands back to handle holders.
    """
    if var_map is None:
        var_map = {v: v for v in range(source.num_vars)}
    cache = node_map if node_map is not None else {}
    cache.setdefault(FALSE, FALSE)
    cache.setdefault(TRUE, TRUE)
    src_lo = source.lo
    src_hi = source.hi
    src_top = source.top_var
    out: list[int] = []
    for root in roots:
        if root in cache:
            out.append(cache[root])
            continue
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in cache:
                continue
            if expanded:
                lo = cache[src_lo(node)]
                hi = cache[src_hi(node)]
                var = target.var(var_map[src_top(node)])
                cache[node] = target.ite(var, hi, lo)
                continue
            stack.append((node, True))
            stack.append((src_hi(node), False))
            stack.append((src_lo(node), False))
        out.append(cache[root])
    return out
