"""Image computation for symbolic traversal.

Two strategies, compared by the A1 ablation bench:

* monolithic — conjoin the full transition relation once, then a single
  relational product per step;
* early quantification — keep the relation as per-latch conjuncts and
  quantify each variable as soon as no remaining conjunct mentions it
  (the standard IWLS-era schedule).  The schedule depends only on the
  relation, so it is built once per relation (:func:`image_schedule`)
  and reused by every image step.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro import obs as _obs
from repro.bdd import count as _count
from repro.bdd import quantify as _quantify
from repro.bdd.compose import rename
from repro.bdd.manager import BDDManager
from repro.reach.transition import TransitionSystem


def image_monolithic(
    ts: TransitionSystem, states: int, relation: int
) -> int:
    """``∃ ps, free . states(ps) & T(ps, free, ns)`` renamed to PS vars."""
    manager = ts.manager
    quantified = _quantify.and_exists(
        manager, states, relation, ts.ps_vars() + ts.free_vars()
    )
    return rename(manager, quantified, ts.ns_to_ps())


class ImageSchedule(NamedTuple):
    """The early-quantification schedule of a partitioned relation."""

    #: The conjuncts, in fold order.
    parts: tuple[int, ...]
    #: Each conjunct's support.
    supports: tuple[frozenset[int], ...]
    #: For each position, the union of the supports of the conjuncts
    #: after it: a variable outside it may leave the product there.
    later: tuple[frozenset[int], ...]


def image_schedule(manager: BDDManager, parts: Sequence[int]) -> ImageSchedule:
    """Schedule the conjuncts ``parts`` of a relation in ``manager``.

    Nodes never change, so a schedule stays valid for as long as its
    manager does; a reorder that rebuilds the relation in a new manager
    needs a new schedule."""
    supports = tuple(manager.support(part) for part in parts)
    later: list[frozenset[int]] = []
    running: frozenset[int] = frozenset()
    for support in reversed(supports):
        later.append(running)
        running |= support
    later.reverse()
    return ImageSchedule(tuple(parts), supports, tuple(later))


def image_early(
    ts: TransitionSystem, states: int, schedule: ImageSchedule
) -> int:
    """Clustered image with early quantification.

    Conjuncts are folded in one at a time in ``schedule`` order; after
    each fold, the variables that no later conjunct mentions are
    existentially quantified away immediately, keeping intermediate
    products small.
    """
    manager = ts.manager
    track = _obs.enabled()
    to_quantify = set(ts.ps_vars()) | set(ts.free_vars())
    current = states
    # Running (over-approximate) support of the growing product: start
    # from the states' support and fold in each conjunct's, subtracting
    # quantified variables as they leave.  A superset is sound — ∃x f = f
    # when x is not in f's support — and avoids re-walking the ever-larger
    # product for its exact support on every fold (which made the
    # schedule itself quadratic in the number of conjuncts).
    current_support = _count.support(manager, states)
    steps = zip(schedule.parts, schedule.supports, schedule.later)
    for index, (part, support, later) in enumerate(steps):
        current = manager.apply_and(current, part)
        current_support |= support
        ready = (to_quantify & current_support) - later
        if ready:
            current = _quantify.exists(manager, current, ready)
            to_quantify -= ready
            current_support -= ready
            if track:
                # The quantification schedule: how many variables leave
                # the product at each fold position, and how big the
                # intermediate product was when they did.
                _obs.inc("reach.image.early_quantified", len(ready))
                _obs.observe("reach.image.schedule_position", index)
                _obs.observe(
                    "reach.image.product_size",
                    _count.dag_size(manager, current),
                )
    if to_quantify:
        current = _quantify.exists(manager, current, to_quantify)
        if track:
            _obs.inc("reach.image.late_quantified", len(to_quantify))
    return rename(manager, current, ts.ns_to_ps())


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
