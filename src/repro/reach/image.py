"""Image computation for symbolic traversal.

One image operator, over a static schedule of the relation's conjuncts
(:func:`image_schedule`): the states are folded through the conjuncts in
order, and each quantified variable — present-state or free — leaves
the product at the last conjunct that mentions it, through the fused
relational product ``and_exists``, so the full conjunction is never
built.  The A1 ablation bench compares two schedules of it:

* early quantification (the default) — the per-latch conjuncts, with
  each variable quantified as soon as no later conjunct mentions it
  (the standard IWLS-era schedule);
* monolithic — one conjunct, the whole relation, with every quantified
  variable at that one position.

A schedule depends only on the relation, so it is built once per
relation and reused by every image step.  :func:`reach_step` runs one
whole fixpoint iteration — the fold, the rename to present-state
variables and the frontier and reached-set updates — as one kernel call
on native managers (``bdd_reach_step``), and through the same public
operations in the same order on pure-Python ones
(:func:`_py_reach_step`, also the parity reference), so both kernels
make the same nodes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, NamedTuple, Optional, Sequence

from repro import obs as _obs
from repro.bdd import quantify as _quantify
from repro.bdd.compose import rename, vector_compose
from repro.bdd.manager import BDDManager, VarCube
from repro.reach.transition import TransitionSystem


class ImageSchedule(NamedTuple):
    """The static quantification schedule of a relation's conjuncts."""

    #: The conjuncts, in fold order.
    parts: tuple[int, ...]
    #: For each position, the interned cube of the variables that leave
    #: the product there, or ``None`` (a plain AND).
    cubes: tuple[Optional[VarCube], ...]
    #: The rename of the product: next-state variable -> the literal node
    #: of its present-state variable.
    rename: dict[int, int]
    #: The schedule as ``bdd_reach_step`` reads it (``None`` on
    #: pure-Python managers).
    kernel: Optional[tuple[Any, ...]]


def image_schedule(ts: TransitionSystem, parts: Sequence[int]) -> ImageSchedule:
    """Schedule the conjuncts ``parts`` of ``ts``'s relation.

    Each quantified variable (present-state and free) goes to the last
    position whose conjunct mentions it; a present-state variable that no
    conjunct mentions goes to position 0, since the states may mention
    it, and a free one that no conjunct mentions to none.  Each
    position's variables are interned as one cube, in position order,
    and the present-state literals of the rename are made here.

    Nodes never change, so a schedule stays valid for as long as its
    manager does; a reorder that rebuilds the relation in a new manager
    needs a new schedule."""
    manager = ts.manager
    quantified = set(ts.ps_vars()) | set(ts.free_vars())
    position = dict.fromkeys(ts.ps_vars(), 0)
    for index, part in enumerate(parts):
        for var in manager.support(part) & quantified:
            position[var] = index
    groups: list[list[int]] = [[] for _ in parts]
    for var, index in position.items():
        groups[index].append(var)
    cubes = tuple(manager.intern_cube(group) if group else None for group in groups)
    substitution = {ns: manager.var(ps) for ns, ps in ts.ns_to_ps().items()}
    if _obs.enabled():
        _obs.inc("reach.image.early_quantified", len(position))
    kernel = None
    if manager._st is not None:
        new = manager._ffi.new
        levels = [var for cube in cubes if cube is not None for var in cube.levels]
        ends = list(accumulate(0 if cube is None else len(cube) for cube in cubes))
        kernel = (
            new("int64_t[]", list(parts)),
            new("int64_t[]", [0 if c is None else c.cube_id for c in cubes]),
            new("int64_t[]", levels),
            new("int64_t[]", ends),
            len(parts),
            new("int64_t[]", list(substitution)),
            new("int64_t[]", list(substitution.values())),
            len(substitution),
        )
    return ImageSchedule(tuple(parts), cubes, substitution, kernel)


def _image(manager: BDDManager, schedule: ImageSchedule, states: int) -> int:
    """The image of ``states`` through the public operations: per
    position ``and_exists`` on its cube (or ``apply_and``), then the
    rename to present-state variables."""
    product = states
    for part, cube in zip(schedule.parts, schedule.cubes):
        if cube is None:
            product = manager.apply_and(product, part)
        else:
            product = _quantify.and_exists(manager, product, part, cube)
    return vector_compose(manager, product, schedule.rename)


def image_early(
    ts: TransitionSystem, states: int, schedule: ImageSchedule
) -> int:
    """``∃ ps, free . states(ps) & T(ps, free, ns)`` renamed to PS vars,
    through ``schedule`` (built by :func:`image_schedule`)."""
    return _image(ts.manager, schedule, states)


def image_monolithic(
    ts: TransitionSystem, states: int, relation: int
) -> int:
    """The same image over the one-conjunct schedule of the whole
    ``relation``."""
    return image_early(ts, states, image_schedule(ts, [relation]))


def reach_step(
    manager: BDDManager, schedule: ImageSchedule, frontier: int, reached: int
) -> tuple[int, int]:
    """One fixpoint iteration: the image of ``frontier`` under
    ``schedule``, the new frontier ``image & ~reached`` and the new
    reached set ``reached | frontier'``, returned as that pair.  One
    kernel call (plus growth restarts) on native managers; the same
    operations through :func:`_py_reach_step` otherwise."""
    if schedule.kernel is None:
        return _py_reach_step(manager, schedule, frontier, reached)
    lib = manager._lib
    walk = manager._walk
    try:
        frontier = manager._native_walk(
            lib.bdd_reach_step, manager._st, walk, frontier, reached,
            *schedule.kernel, manager.num_vars,
        )
        return frontier, walk.reg[2]
    finally:
        lib.bdd_walk_clear(walk)


def _py_reach_step(
    manager: BDDManager, schedule: ImageSchedule, frontier: int, reached: int
) -> tuple[int, int]:
    """:func:`reach_step` through the public operations, in the order
    ``bdd_reach_step`` makes them: the image, ``negate(reached)``, the
    AND that gives the new frontier, the OR that gives the new reached
    set."""
    image = _image(manager, schedule, frontier)
    frontier = manager.apply_and(image, manager.negate(reached))
    return frontier, manager.apply_or(reached, frontier)


def preimage_monolithic(
    ts: TransitionSystem, states: int, relation: int
) -> int:
    """``∃ ns, free . states(ns) & T(ps, free, ns)`` — backward step
    (used by tests to cross-check forward reachability)."""
    manager = ts.manager
    states_ns = rename(
        manager, states, {ps: ns for ns, ps in ts.ns_to_ps().items()}
    )
    return _quantify.and_exists(
        manager, states_ns, relation, ts.ns_vars() + ts.free_vars()
    )
