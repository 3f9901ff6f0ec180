"""Functional composition, variable renaming and cross-manager transfer.

On native managers :func:`vector_compose` (and through it
:func:`compose`, :func:`rename` and the parameterized replacements of
:mod:`repro.bidec.parameterize`) and :func:`transfer_multi` run as
kernel walks.  They make their literal nodes and ``ite`` calls in the
order of the Python walks below (``_py_vector_compose``,
``_py_transfer_multi``), which stay as the pure-Python fallback and the
parity reference, so node numbering is the same on both kernels.
"""

from __future__ import annotations

from typing import Mapping

from repro.bdd.manager import BDDManager, FALSE, TRUE, _BAD_VAR, _bad_node


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
    if manager._st is None:
        return _py_vector_compose(manager, f, substitution)
    lib = manager._lib
    st = manager._st
    walk = manager._walk
    try:
        code = lib.bdd_walk_table(
            st,
            walk,
            list(substitution),
            list(substitution.values()),
            len(substitution),
            manager.num_vars,
            1,
        )
        if code:
            manager._grow(code)  # raises: a bad substitute, or no memory
        return manager._native_walk(lib.bdd_vector_compose, st, walk, f)
    finally:
        lib.bdd_walk_clear(walk)


def _py_vector_compose(
    manager: BDDManager, f: int, substitution: Mapping[int, int]
) -> int:
    """:func:`vector_compose` for a non-empty substitution: a post-order
    walk that finishes the lo subtree, then the hi subtree, then calls
    ``ite`` on the level's substitute (or its literal node)."""
    for node in (f, *substitution.values()):
        if not 0 <= node < manager.num_nodes:
            raise _bad_node(node)
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
    the remap table compaction hands back to handle holders.  A source
    variable that ``var_map`` lacks raises ``KeyError``, and one it maps
    to an undeclared target variable ``ValueError``.

    The kernel walk runs when both managers are native and ``node_map``
    starts empty, as compaction passes it; a translation the caller
    already holds is walked in Python.
    """
    if source._st is None or target._st is None or not roots or node_map:
        return _py_transfer_multi(source, roots, target, var_map, node_map)
    ffi = target._ffi
    lib = target._lib
    st = target._st
    walk = target._walk
    if node_map is not None:
        node_map[FALSE] = FALSE
        node_map[TRUE] = TRUE
    out = ffi.new("int64_t[]", list(roots))
    try:
        if var_map is None:
            code = lib.bdd_walk_table(
                st, walk, ffi.NULL, ffi.NULL, 0, source.num_vars, 0
            )
        else:
            code = lib.bdd_walk_table(
                st, walk, list(var_map), list(var_map.values()), len(var_map),
                source.num_vars, 0,
            )
        if code:
            target._grow(code)  # raises: no memory
        code = target._native_walk(
            lib.bdd_transfer, source._st, st, walk, out, len(roots),
            target.num_vars, node_map is not None,
        )
        if walk.log_len:
            pairs = iter(ffi.unpack(walk.log, 2 * walk.log_len))
            node_map.update(zip(pairs, pairs))
        if code == _BAD_VAR:
            level = walk.err
            if var_map is not None and level not in var_map:
                raise KeyError(level)
            var = level if var_map is None else var_map[level]
            raise ValueError(f"variable {var} not declared")
        return ffi.unpack(out, len(roots))
    finally:
        lib.bdd_walk_clear(walk)


def _py_transfer_multi(
    source: BDDManager,
    roots: "list[int] | tuple[int, ...]",
    target: BDDManager,
    var_map: Mapping[int, int] | None = None,
    node_map: dict[int, int] | None = None,
) -> list[int]:
    """:func:`transfer_multi` walked in Python: roots in order, each a
    post-order walk that finishes the lo subtree, then the hi subtree,
    then makes the target literal node and calls ``ite`` on it."""
    if var_map is None:
        var_map = {v: v for v in range(source.num_vars)}
    cache = node_map if node_map is not None else {}
    for root in roots:
        if not 0 <= root < source.num_nodes:
            raise _bad_node(root)
    for node in cache.values():
        if not 0 <= node < target.num_nodes:
            raise _bad_node(node)
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
