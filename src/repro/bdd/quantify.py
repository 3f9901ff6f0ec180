"""Quantification over BDD variables: the public functions.

Existential and universal abstraction, the paper's interval abstraction
``∀x [l, u] = [∃x l, ∀x u]``, and the fused ``and_exists`` (relational
product) used by image computation, where conjoining and quantifying in
one pass avoids building the full intermediate conjunction.

The cores and their caches belong to the manager, which owns the
tables' allocation, growth, rehash, :meth:`BDDManager.clear_caches`,
:meth:`BDDManager.reset` and metrics: ∃ and ∀ run one core selected by
their cache table, and ``and_exists`` its own.  Results are cached
*persistently* in lossless tables keyed by the node and the interned
:class:`~repro.bdd.manager.VarCube`, so repeated ``∃x f`` / ``∀x f``
over the same variable set (the ``ITE(c_x, f, ∀x f)``
parameterization loops, image iterations) hit the cache instead of
re-walking.  The walks are iterative (explicit stacks), so deep
chain-shaped BDDs do not hit the interpreter recursion limit.

Every function takes its variables as an iterable or an interned cube;
a variable the manager has not declared raises ``ValueError``, as does
a node id it never made.
"""

from __future__ import annotations

from typing import Iterable

from repro.bdd.manager import BDDManager, VarCube


def exists(
    manager: BDDManager, f: int, variables: "Iterable[int] | VarCube"
) -> int:
    """Existential quantification ``∃ variables . f``."""
    return manager._quantify("exists", f, variables)


def forall(
    manager: BDDManager, f: int, variables: "Iterable[int] | VarCube"
) -> int:
    """Universal quantification ``∀ variables . f``."""
    return manager._quantify("forall", f, variables)


def and_exists(
    manager: BDDManager, f: int, g: int, variables: "Iterable[int] | VarCube"
) -> int:
    """Relational product ``∃ variables . (f & g)`` computed in one pass.

    This is the classic fused operator of symbolic model checking: the
    conjunction is never materialised for subgraphs where quantification
    collapses it first.
    """
    return manager._quantify("and_exists", f, variables, g)


def abstract_interval(
    manager: BDDManager, lower: int, upper: int, variables: Iterable[int]
) -> tuple[int, int]:
    """The paper's interval abstraction ``∀x [l, u] = [∃x l, ∀x u]``
    (Section 3.2.1, Example 3.2).

    Returns the (possibly empty) abstracted interval as a bound pair; the
    result is consistent iff ``∃x l <= ∀x u``.
    """
    cube = manager.intern_cube(variables)
    return exists(manager, lower, cube), forall(manager, upper, cube)
