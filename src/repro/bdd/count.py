"""Counting, support computation and model iteration."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence

from repro.bdd.builders import _check_vars
from repro.bdd.manager import BDDManager, FALSE, TRUE, iter_nodes


def dag_size(manager: BDDManager, root: int) -> int:
    """Number of distinct nodes in the diagram rooted at ``root``
    (terminals included) — the "BDD size" reported in the paper's tables."""
    return sum(1 for _ in iter_nodes(manager, root))


def dag_size_multi(manager: BDDManager, roots: Sequence[int]) -> int:
    """Number of distinct nodes in the shared diagram of several roots."""
    seen: set[int] = set()
    for root in roots:
        for node in iter_nodes(manager, root):
            seen.add(node)
    return len(seen)


def support(manager: BDDManager, root: int) -> set[int]:
    """Set of variables ``root`` structurally depends on, as a fresh set
    the caller may change (the manager memoises the support itself, see
    :meth:`BDDManager.support`)."""
    return set(manager.support(root))


def support_multi(manager: BDDManager, roots: Sequence[int]) -> set[int]:
    """Union of the supports of several roots."""
    variables: set[int] = set()
    for root in roots:
        variables |= manager.support(root)
    return variables


def sat_count(manager: BDDManager, root: int, num_vars: Optional[int] = None) -> int:
    """Number of satisfying assignments over ``num_vars`` variables
    (defaults to all variables declared in the manager)."""
    if num_vars is None:
        num_vars = manager.num_vars
    # Work with the density (fraction of satisfying points), then scale;
    # this avoids tracking per-node level gaps explicitly.  Children come
    # before parents, so each node's children are done when it is.
    density: dict[int, Fraction] = {}
    for node in iter_nodes(manager, root):
        density[node] = (
            Fraction(node)
            if node <= 1
            else (density[manager.lo(node)] + density[manager.hi(node)]) / 2
        )
    total = density[root] * (2 ** num_vars)
    assert total.denominator == 1
    return int(total)


def pick_one(manager: BDDManager, root: int) -> Optional[dict[int, bool]]:
    """One satisfying partial assignment (``None`` if unsatisfiable).

    Only variables on the chosen path are bound; absent variables may take
    either value.
    """
    if root == FALSE:
        return None
    assignment: dict[int, bool] = {}
    node = root
    while node > 1:
        var = manager.top_var(node)
        if manager.hi(node) != FALSE:
            assignment[var] = True
            node = manager.hi(node)
        else:
            assignment[var] = False
            node = manager.lo(node)
    return assignment


#: Models per kernel refill of :func:`iter_models`: the first refill is
#: small (partition scans stop at the first partition that extracts),
#: and each later one doubles up to the cap.
_MODELS_FIRST = 16
_MODELS_MAX = 4096
_BOOLS = (False, True)


def iter_models(
    manager: BDDManager, root: int, variables: Sequence[int]
) -> Iterator[dict[int, bool]]:
    """Iterate total assignments to ``variables`` that satisfy ``root``.

    ``variables`` must be distinct declared variables that cover the
    support of ``root`` (``ValueError`` otherwise); variables in the list
    but absent from a path are expanded to both polarities, so each
    yielded dict binds every listed variable exactly once.  Models come
    depth first over the sorted variables, 0 before 1.

    On a native manager the kernel (``bdd_models``) enumerates the
    models into a buffer that each refill doubles, resuming where it
    stopped, so a consumer that stops early leaves the rest unvisited;
    :func:`_py_iter_models` is the pure-Python fallback.  Neither makes
    a node, so the consumer may make nodes in between.
    """
    _check_vars(manager, variables, "model variables")
    order = sorted(variables)
    missing = manager.support(root).difference(order)
    if missing:
        raise ValueError(f"variable {min(missing)} in support but not listed")
    if manager._st is None:
        yield from _py_iter_models(manager, root, order)
        return
    ffi = manager._ffi
    fn = manager._lib.bdd_models
    n = len(order)
    keys = order[::-1]  # the key order of the Python recursion's dicts
    c_order = ffi.new("int64_t[]", order)
    path = ffi.new("int64_t[]", 2 * n + 3)
    cap = _MODELS_FIRST
    while True:
        out = ffi.new("char[]", cap * n)
        count = fn(manager._st, root, c_order, n, path, out, cap)
        if count < 0:
            manager._grow(count)  # raises: a root the manager never made
        values = ffi.unpack(out, count * n)
        for k in range(count):
            yield dict(zip(keys, map(_BOOLS.__getitem__, values[k * n : k * n + n])))
        if count < cap:
            return
        cap = min(2 * cap, _MODELS_MAX)


def _py_iter_models(
    manager: BDDManager, root: int, order: Sequence[int]
) -> Iterator[dict[int, bool]]:
    """:func:`iter_models` over the checked, sorted ``order`` as a
    depth-first walk with an explicit path, as ``bdd_models`` walks:
    ``nodes[d]`` is the node at depth ``d`` and ``values[d]`` the value
    taken there."""
    n = len(order)
    keys = order[::-1]  # the value of the deepest variable comes first
    nodes = [root] * (n + 1)
    values = [False] * n
    depth = 0
    while True:
        node = nodes[depth]
        if node != FALSE:
            if depth == n:
                yield dict(zip(keys, values[::-1]))
            else:
                values[depth] = False
                if node > 1 and manager.top_var(node) == order[depth]:
                    node = manager.lo(node)
                depth += 1
                nodes[depth] = node
                continue
        # Back up to the deepest depth that took 0, and take 1 there.
        while depth > 0 and values[depth - 1]:
            depth -= 1
        if depth == 0:
            return
        depth -= 1
        values[depth] = True
        node = nodes[depth]
        if node > 1 and manager.top_var(node) == order[depth]:
            node = manager.hi(node)
        depth += 1
        nodes[depth] = node


def iter_cubes(
    manager: BDDManager, root: int, max_cubes: Optional[int] = None
) -> Optional[list[dict[int, bool]]]:
    """Disjoint satisfying cubes of ``root`` — one per BDD path to TRUE.

    Each cube binds only the variables on its path; their disjunction
    (over :meth:`BDDManager.cube`) reconstructs ``root`` exactly, which
    makes this a manager-independent serialisation of a function (the
    parallel cone scheduler ships don't-care sets to workers this way).
    Path counts can blow up on dense functions, so ``max_cubes`` bounds
    the enumeration: ``None`` is returned once the bound is exceeded and
    callers fall back to an under-approximation.
    """
    if root == FALSE:
        return []
    cubes: list[dict[int, bool]] = []
    # Explicit DFS stack of (node, path literals) — no Python recursion.
    stack: list[tuple[int, tuple[tuple[int, bool], ...]]] = [(root, ())]
    while stack:
        node, path = stack.pop()
        if node == FALSE:
            continue
        if node == TRUE:
            cubes.append(dict(path))
            if max_cubes is not None and len(cubes) > max_cubes:
                return None
            continue
        var = manager.top_var(node)
        stack.append((manager.lo(node), path + ((var, False),)))
        stack.append((manager.hi(node), path + ((var, True),)))
    return cubes


def shortest_cube(manager: BDDManager, root: int) -> Optional[dict[int, bool]]:
    """A satisfying cube with the fewest literals (``None`` if UNSAT).

    Used to pick decomposition-variable assignments that abstract as many
    variables as possible.  On a tie the 0-branch wins.
    """
    if root == FALSE:
        return None
    # Per node, children before parents: the literals in its shortest
    # cube (None: unsatisfiable) and whether that cube takes the
    # 1-branch.
    best: dict[int, tuple[Optional[int], bool]] = {}
    for node in iter_nodes(manager, root):
        if node <= 1:
            best[node] = (0 if node == TRUE else None, False)
            continue
        lo = best[manager.lo(node)][0]
        hi = best[manager.hi(node)][0]
        take_hi = lo is None or (hi is not None and hi < lo)
        best[node] = (1 + (hi if take_hi else lo), take_hi)
    path: list[tuple[int, bool]] = []
    node = root
    while node > 1:
        take_hi = best[node][1]
        path.append((manager.top_var(node), take_hi))
        node = manager.hi(node) if take_hi else manager.lo(node)
    return dict(reversed(path))  # the deepest variable first
