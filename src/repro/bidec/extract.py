"""Derivation of the decomposition functions ``g1`` and ``g2`` once a
feasible support partition is known (Section 3.5.2, last paragraph).

* OR: read directly off the existence condition (3.2) — ``g_j`` is the
  upper bound universally quantified of the variables ``g_j`` is vacuous
  in; an optional refinement narrows ``g1`` to its own interval and picks
  a simpler member via ISOP.
* AND: dual through the complement interval.
* XOR: the constructive algorithm from [17] (cofactor at a reference
  block assignment) generalised to intervals by candidate-and-verify.

On a native manager the minimised OR and AND extractions run as one
kernel entry (``bdd_extract``) that makes the calls of the Python
compositions (:func:`_py_extract_or`, :func:`_py_extract_and`) in the
same order, the ISOP walk included; the AND pair's final check stays
here, in :meth:`ExtractedPair.verify`.  The compositions are the
pure-Python path and the parity reference.  XOR extraction runs in
Python on both kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.bdd import count as _count
from repro.bdd import quantify as _quantify
from repro.bdd.manager import BDDManager
from repro.intervals import Interval
from repro.logic.sop import _isop


@dataclass(frozen=True)
class ExtractedPair:
    """Concrete decomposition functions, as nodes in the interval's
    manager."""

    gate: str
    g1: int
    g2: int

    def recompose(self, manager: BDDManager) -> int:
        """``h(g1, g2)`` for the pair's gate."""
        if self.gate == "or":
            return manager.apply_or(self.g1, self.g2)
        if self.gate == "and":
            return manager.apply_and(self.g1, self.g2)
        if self.gate == "xor":
            return manager.apply_xor(self.g1, self.g2)
        raise ValueError(f"unknown gate {self.gate!r}")

    def verify(self, interval: Interval) -> bool:
        """Check the recomposition is a member of the target interval."""
        return interval.contains(self.recompose(interval.manager))


def extract_or(
    interval: Interval,
    support1: Iterable[int],
    support2: Iterable[int],
    minimize: bool = True,
) -> ExtractedPair:
    """OR decomposition functions for a feasible partition.

    ``support1``/``support2`` are the variable sets the components may
    depend on.  The canonical solution sets ``g2 = ∀(x \\ support2) u``;
    with ``minimize`` the remaining freedom for ``g1`` — the interval
    ``[∃xbar1 (l & ~g2), ∀xbar1 u]`` — is exercised by taking an ISOP
    member, which tends to have fewer literals than the canonical upper
    bound.  Raises ``ValueError`` when the partition is not OR-feasible.
    """
    if minimize and interval.manager._st is not None:
        return _native_extract("or", interval, support1, support2)
    return _py_extract_or(interval, support1, support2, minimize)


def _py_extract_or(
    interval: Interval,
    support1: Iterable[int],
    support2: Iterable[int],
    minimize: bool = True,
) -> ExtractedPair:
    """:func:`extract_or` as the Python composition of public calls."""
    manager = interval.manager
    all_vars = interval.support()
    xbar1 = sorted(all_vars - set(support1))
    xbar2 = sorted(all_vars - set(support2))
    g2 = _quantify.forall(manager, interval.upper, xbar2)
    g1_upper = _quantify.forall(manager, interval.upper, xbar1)
    if minimize:
        g1_lower = _quantify.exists(
            manager,
            manager.apply_and(interval.lower, manager.negate(g2)),
            xbar1,
        )
        if not manager.leq(g1_lower, g1_upper):
            raise ValueError("partition is not OR-feasible")
        _, g1 = _isop(manager, g1_lower, g1_upper, False)
    else:
        g1 = g1_upper
    pair = ExtractedPair("or", g1, g2)
    if not pair.verify(interval):
        raise ValueError("partition is not OR-feasible")
    return pair


def extract_and(
    interval: Interval,
    support1: Iterable[int],
    support2: Iterable[int],
    minimize: bool = True,
) -> ExtractedPair:
    """AND decomposition via OR on the complement interval: if
    ``~[l,u] = [~u,~l] = h1 + h2`` then ``[l,u] ∋ ~h1 & ~h2``.  Raises
    ``ValueError`` when the partition is not AND-feasible."""
    if minimize and interval.manager._st is not None:
        return _native_extract("and", interval, support1, support2)
    return _py_extract_and(interval, support1, support2, minimize)


def _py_extract_and(
    interval: Interval,
    support1: Iterable[int],
    support2: Iterable[int],
    minimize: bool = True,
) -> ExtractedPair:
    """:func:`extract_and` as the Python composition of public calls."""
    manager = interval.manager
    or_pair = _py_extract_or(interval.complement(), support1, support2, minimize)
    pair = ExtractedPair(
        "and", manager.negate(or_pair.g1), manager.negate(or_pair.g2)
    )
    if not pair.verify(interval):
        raise ValueError("partition is not AND-feasible")
    return pair


def _native_extract(
    gate: str, interval: Interval, support1: Iterable[int], support2: Iterable[int]
) -> ExtractedPair:
    """:func:`extract_or` or :func:`extract_and`, minimised, as one kernel
    entry (``bdd_extract``): for AND, the complement, the OR chain with
    its check and the two negations, and then the AND pair's check here,
    as the composition makes it.  The cubes of ``xbar2`` and ``xbar1``
    are interned first, in the composition's order: their ids key the
    quantify caches.  The complement's support is the interval's."""
    manager = interval.manager
    all_vars = interval.support()
    cube2 = manager.intern_cube(all_vars.difference(support2))
    cube1 = manager.intern_cube(all_vars.difference(support1))
    lib = manager._lib
    walk = manager._walk
    try:
        found = manager._native_walk(
            lib.bdd_extract,
            manager._st,
            walk,
            _GATE_OP[gate],
            interval.lower,
            interval.upper,
            *_cube_args(cube2),
            *_cube_args(cube1),
        )
        pair = ExtractedPair(gate, walk.reg[0], walk.reg[1])
    finally:
        lib.bdd_walk_clear(walk)
    if not found:
        raise ValueError("partition is not OR-feasible")
    if gate == "and" and not pair.verify(interval):
        raise ValueError("partition is not AND-feasible")
    return pair


#: Each gate's ``bdd_apply`` op code, which ``bdd_extract`` takes.
_GATE_OP = {"and": 0, "or": 1}


def _cube_args(cube) -> tuple:
    """An interned cube as the kernel's quantifiers take it."""
    return cube.cube_id, cube.view, len(cube.vars), cube.max_level


def extract_xor_cs(
    manager: BDDManager,
    f: int,
    exclusive1: Sequence[int],
    exclusive2: Sequence[int],
) -> Optional[ExtractedPair]:
    """[17]-style construction for a completely specified function:

    ``g1 = f|x2←0``, ``g2 = f|x1←0 ⊕ f|x1←0,x2←0``.

    Returns ``None`` when the construction does not recompose ``f`` —
    which, for completely specified functions, happens exactly when the
    partition is infeasible.
    """
    zero1 = {var: False for var in exclusive1}
    zero2 = {var: False for var in exclusive2}
    g1 = manager.restrict(f, zero2)
    g2 = manager.apply_xor(
        manager.restrict(f, zero1), manager.restrict(f, {**zero1, **zero2})
    )
    if manager.apply_xor(g1, g2) != f:
        return None
    return ExtractedPair("xor", g1, g2)


def extract_xor(
    interval: Interval,
    support1: Iterable[int],
    support2: Iterable[int],
    max_candidates: int = 4,
) -> Optional[ExtractedPair]:
    """XOR decomposition functions for an interval.

    ``support1``/``support2`` are the supports of ``g1``/``g2``; variables
    outside ``support2`` are exclusive to ``g1`` and vice versa.

    Strategy: propose candidate ``g1`` functions (cofactors of the bounds
    at a few reference assignments of the ``g2``-exclusive block — the
    natural interval generalisation of the [17] construction), then solve
    exactly for the ``g2`` interval

    ``[ ∃x1 ((~g1 & l) | (g1 & ~u)),  ∀x1 ((~g1 & u) | (g1 & ~l)) ]``

    and verify.  Complete for completely specified functions; for proper
    intervals it may miss exotic solutions (see DESIGN.md) — callers
    treat ``None`` as "no decomposition found".
    """
    manager = interval.manager
    all_vars = interval.support()
    support1 = set(support1)
    support2 = set(support2)
    exclusive1 = sorted(all_vars - support2)
    exclusive2 = sorted(all_vars - support1)
    if interval.is_exact():
        return extract_xor_cs(manager, interval.lower, exclusive1, exclusive2)

    candidates: list[int] = []
    reference_blocks = [
        {var: False for var in exclusive2},
        {var: True for var in exclusive2},
    ]
    for block in reference_blocks:
        candidates.append(manager.restrict(interval.lower, block))
        candidates.append(manager.restrict(interval.upper, block))
    seen: set[int] = set()
    tried = 0
    for g1 in candidates:
        if g1 in seen:
            continue
        seen.add(g1)
        if tried >= max_candidates:
            break
        tried += 1
        # Make sure g1 really avoids the g2-exclusive block.
        g1 = _quantify.exists(manager, g1, exclusive2)
        pair = _solve_g2(interval, g1, exclusive1)
        if pair is not None:
            return pair
    return None


def _solve_g2(
    interval: Interval, g1: int, exclusive1: Sequence[int]
) -> Optional[ExtractedPair]:
    """Given a fixed ``g1``, the set of valid ``g2`` is itself an interval
    (pointwise: ``g1 = 0`` forces ``l <= g2 <= u``, ``g1 = 1`` forces
    ``~u <= g2 <= ~l``); quantify the ``g1``-exclusive block out and check
    consistency."""
    manager = interval.manager
    not_g1 = manager.negate(g1)
    lower_body = manager.apply_or(
        manager.apply_and(not_g1, interval.lower),
        manager.apply_and(g1, manager.negate(interval.upper)),
    )
    upper_body = manager.apply_or(
        manager.apply_and(not_g1, interval.upper),
        manager.apply_and(g1, manager.negate(interval.lower)),
    )
    g2_lower = _quantify.exists(manager, lower_body, exclusive1)
    g2_upper = _quantify.forall(manager, upper_body, exclusive1)
    if not manager.leq(g2_lower, g2_upper):
        return None
    pair = ExtractedPair("xor", g1, g2_lower)
    if not pair.verify(interval):
        return None
    return pair


def extract(
    interval: Interval,
    gate: str,
    support1: Iterable[int],
    support2: Iterable[int],
) -> Optional[ExtractedPair]:
    """Dispatch on gate type; returns ``None`` when extraction fails."""
    if gate == "or":
        try:
            return extract_or(interval, support1, support2)
        except ValueError:
            return None
    if gate == "and":
        try:
            return extract_and(interval, support1, support2)
        except ValueError:
            return None
    if gate == "xor":
        return extract_xor(interval, support1, support2)
    raise ValueError(f"unknown gate {gate!r}")
