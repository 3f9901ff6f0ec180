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
relation, with the kernel's buffer for its runs, and reused by every
image step.  One step program (:mod:`repro.bdd.program`), made once per
pattern of quantifying positions, runs :func:`reach_step`'s whole
fixpoint iteration — the fold, the rename to present-state variables
and the frontier and reached-set updates — and, from an empty reached
set, the image alone.  Each run is one kernel call on native managers
and the same public operations, in the same order, on pure-Python ones,
so both kernels make the same nodes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, NamedTuple, Optional, Sequence

from repro import obs as _obs
from repro.bdd import program as _program
from repro.bdd import quantify as _quantify
from repro.bdd.compose import rename
from repro.bdd.manager import BDDManager, FALSE, VarCube
from repro.bdd.program import Program
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
    #: One fixpoint iteration as a step program (see :func:`_step_program`).
    step: Program
    #: The program's vectors: the rename's levels and literal nodes, then
    #: each position's cube variables.
    vectors: tuple[Sequence[int], ...]
    #: The kernel's buffer for :attr:`step`'s runs (``None`` on
    #: pure-Python managers), prepared once.
    prepared: Any


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
    vectors = (
        tuple(substitution),
        tuple(substitution.values()),
        *(() if cube is None else tuple(cube.levels) for cube in cubes),
    )
    step = _step_program(tuple(cube is not None for cube in cubes))
    prepared = None
    if manager._st is not None:
        prepared = _program.prepare(manager, step, vectors)
    return ImageSchedule(tuple(parts), cubes, substitution, step, vectors, prepared)


@lru_cache(maxsize=256)
def _step_program(quantifies: tuple[bool, ...]) -> Program:
    """One fixpoint iteration over a schedule whose positions
    ``quantifies`` says have a cube.  Registers 0 and 1 hold the frontier
    and the reached set, the conjuncts follow (inputs).  Per position,
    ``and_exists`` on its cube (vector ``2 + i``) or a plain AND; the
    rename (vectors 0 and 1) into register ``2 + 2n``, the image; then
    ``¬reached``, the new frontier ``image ∧ ¬reached`` and the new
    reached set ``reached ∨ frontier'``."""
    count = len(quantifies)
    steps: list[tuple] = []
    product = 0
    for index, quantified in enumerate(quantifies):
        dst, part = 2 + count + index, 2 + index
        if quantified:
            steps.append(("and_exists", dst, product, part, 2 + index))
        else:
            steps.append(("and", dst, product, part))
        product = dst
    image = 2 + 2 * count
    steps += [
        ("rename", image, product, 0, 1),
        ("not", image + 1, 1),
        ("and", image + 2, image, image + 1),
        ("or", image + 3, 1, image + 2),
    ]
    return Program(steps, image + 4, range(2 + count))


def image_early(
    ts: TransitionSystem, states: int, schedule: ImageSchedule
) -> int:
    """``∃ ps, free . states(ps) & T(ps, free, ns)`` renamed to PS vars,
    through ``schedule`` (built by :func:`image_schedule`): the new
    frontier of an iteration from an empty reached set, whose updates
    all end at a terminal short-circuit."""
    return reach_step(ts.manager, schedule, states, FALSE)[0]


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
    reached set ``reached | frontier'``, returned as that pair — one run
    of the schedule's step program."""
    _, regs = _program.run(
        manager,
        schedule.step,
        (frontier, reached, *schedule.parts),
        schedule.vectors,
        prepared=schedule.prepared,
    )
    return regs[-2], regs[-1]


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
