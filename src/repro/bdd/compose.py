"""Functional composition, variable renaming and cross-manager transfer.

On native managers :func:`vector_compose` (and through it
:func:`compose` and :func:`rename`) runs as the one-step ``rename``
program and :func:`transfer_multi` as the one-step ``transfer`` program
of :mod:`repro.bdd.program`.  Their kernel walks make the literal nodes
and ``ite`` calls in the order of the Python walks below
(``_py_vector_compose``, ``_py_transfer_multi``), which stay as the
pure-Python fallback and the parity reference, so node numbering is the
same on both kernels.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from repro.bdd import program as _program
from repro.bdd.manager import BDDManager, FALSE, TRUE, _bad_node, iter_nodes
from repro.bdd.program import Program

#: ``f`` (register 0) with the nodes of slot 1 substituted for the
#: levels of slot 0, into register 1.
_RENAME = Program((("rename", 1, 0, 0, 1),), 2, (0,))


@lru_cache(maxsize=256)
def _transfer(count: int) -> Program:
    """The ``count`` roots (registers ``0 … count - 1``, in the source
    manager) rebuilt in place, source levels (slot 0) mapped to target
    variables (slot 1)."""
    return Program((("transfer", 0, 0, count, 0, 1),), count, range(count))


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
    vectors = (list(substitution), list(substitution.values()))
    return _program.run(manager, _RENAME, (f,), vectors)[1][1]


def _py_vector_compose(
    manager: BDDManager, f: int, substitution: Mapping[int, int]
) -> int:
    """:func:`vector_compose` for a non-empty substitution: a post-order
    walk that finishes the lo subtree, then the hi subtree, then calls
    ``ite`` on the level's substitute (or its literal node)."""
    for node in (f, *substitution.values()):
        if not 0 <= node < manager.num_nodes:
            raise _bad_node(node)
    done: dict[int, int] = {}
    for node in iter_nodes(manager, f):
        if node <= 1:
            done[node] = node
            continue
        level = manager.level(node)
        selector = substitution.get(level)
        if selector is None:
            selector = manager.var(level)
        hi = done[manager.hi(node)]
        done[node] = manager.ite(selector, hi, done[manager.lo(node)])
    return done[f]


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
) -> list[int]:
    """Rebuild several functions from ``source`` inside ``target``,
    sharing one translation cache across all roots.

    The walk is iterative (chain-shaped BDDs can be thousands of levels
    deep — compaction must not hit the recursion limit).  ``var_map``
    maps source variables to target variables (identity by default).  A
    source variable that ``var_map`` lacks raises ``KeyError``, and one
    it maps to an undeclared target variable ``ValueError``.
    """
    if source._st is None or target._st is None:
        return _py_transfer_multi(source, roots, target, var_map)
    if not roots:
        return []
    if var_map is None:
        levels = range(source.num_vars)
        vectors = (levels, levels)
    else:
        vectors = (list(var_map), list(var_map.values()))
    return _program.run(target, _transfer(len(roots)), roots, vectors, source)[1]


def _py_transfer_multi(
    source: BDDManager,
    roots: "list[int] | tuple[int, ...]",
    target: BDDManager,
    var_map: Mapping[int, int] | None = None,
) -> list[int]:
    """:func:`transfer_multi` walked in Python: roots in order, each a
    post-order walk that finishes the lo subtree, then the hi subtree,
    then makes the target literal node and calls ``ite`` on it."""
    if var_map is None:
        var_map = {v: v for v in range(source.num_vars)}
    for root in roots:
        if not 0 <= root < source.num_nodes:
            raise _bad_node(root)
    cache = {FALSE: FALSE, TRUE: TRUE}
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
