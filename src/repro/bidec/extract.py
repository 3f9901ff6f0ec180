"""Derivation of the decomposition functions ``g1`` and ``g2`` once a
feasible support partition is known (Section 3.5.2, last paragraph).

* OR: read directly off the existence condition (3.2) — ``g_j`` is the
  upper bound universally quantified of the variables ``g_j`` is vacuous
  in; an optional refinement narrows ``g1`` to its own interval and picks
  a simpler member via ISOP.
* AND: dual through the complement interval.
* XOR: the constructive algorithm from [17] (cofactor at a reference
  block assignment) generalised to intervals by candidate-and-verify.

The OR and AND extractions are step programs (:mod:`repro.bdd.program`),
one per gate (and per ``minimize`` setting), declared once here: one
kernel call on native managers, the same public calls on pure-Python
ones.  A failed check of the program raises :class:`InfeasiblePartition`;
the AND pair's own check stays here, in :meth:`ExtractedPair.verify`.
XOR extraction runs in Python on both kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.bdd import program as _program
from repro.bdd import quantify as _quantify
from repro.bdd.manager import BDDManager
from repro.bdd.program import Program
from repro.intervals import Interval


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


class InfeasiblePartition(ValueError):
    """The partition fails a check of the extraction: the interval has no
    pair of the gate over these supports."""


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
    bound.  Raises :class:`InfeasiblePartition` (a ``ValueError``) when
    the partition is not OR-feasible.
    """
    return _extract("or", interval, support1, support2, minimize)


def extract_and(
    interval: Interval,
    support1: Iterable[int],
    support2: Iterable[int],
    minimize: bool = True,
) -> ExtractedPair:
    """AND decomposition via OR on the complement interval: if
    ``~[l,u] = [~u,~l] = h1 + h2`` then ``[l,u] ∋ ~h1 & ~h2``.  Raises
    :class:`InfeasiblePartition` when the partition is not
    AND-feasible."""
    return _extract("and", interval, support1, support2, minimize)


def _extraction(gate: str, minimize: bool) -> tuple[Program, tuple[int, int]]:
    """The extraction program of ``gate`` and the registers of its pair.
    Inputs: ``[l, u]``; vectors: ``x̄2`` and ``x̄1``, the support outside
    ``support2`` and ``support1``.  For AND the OR chain runs on the
    complement ``[¬u, ¬l]`` (registers 2, 3) and the pair is negated at
    the end.  The chain: ``g2 = ∀x̄2 U`` (4) and ``∀x̄1 U`` (5); with
    ``minimize``, ``∃x̄1 (L ∧ ¬g2)`` (8), the check that it is below
    ``∀x̄1 U`` and the ISOP member ``g1`` of that interval (9), else ``g1 =
    ∀x̄1 U``; then the check of ``g1 ∨ g2`` (10) against ``[L, U]``."""
    steps: list[tuple] = []
    lower, upper = 0, 1
    if gate == "and":
        steps += [("not", 2, 1), ("not", 3, 0)]
        lower, upper = 2, 3
    g1 = 5
    steps += [("forall", 4, upper, 0), ("forall", 5, upper, 1)]
    if minimize:
        g1 = 9
        steps += [
            ("not", 6, 4),
            ("and", 7, lower, 6),
            ("exists", 8, 7, 1),
            ("leq", None, 8, 5),
            ("isop", 9, 8, 5),
        ]
    steps += [("or", 10, g1, 4), ("leq", None, lower, 10), ("leq", None, 10, upper)]
    if gate == "or":
        return Program(steps, 13, (0, 1)), (g1, 4)
    steps += [("not", 11, g1), ("not", 12, 4)]
    return Program(steps, 13, (0, 1)), (11, 12)


_EXTRACTIONS = {
    (gate, minimize): _extraction(gate, minimize)
    for gate in ("or", "and")
    for minimize in (False, True)
}


def _extract(
    gate: str,
    interval: Interval,
    support1: Iterable[int],
    support2: Iterable[int],
    minimize: bool,
) -> ExtractedPair:
    """:func:`extract_or` or :func:`extract_and`: the gate's program, then
    for AND the pair's own check."""
    all_vars = interval.support()
    program, (first, second) = _EXTRACTIONS[gate, minimize]
    found, regs = _program.run(
        interval.manager,
        program,
        (interval.lower, interval.upper),
        (all_vars.difference(support2), all_vars.difference(support1)),
    )
    if not found:
        raise InfeasiblePartition("partition is not OR-feasible")
    pair = ExtractedPair(gate, regs[first], regs[second])
    if gate == "and" and not pair.verify(interval):
        raise InfeasiblePartition("partition is not AND-feasible")
    return pair


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
    """Dispatch on gate type; returns ``None`` when the partition fails a
    check of the extraction.  A node id the interval's manager never made
    raises ``ValueError`` for every gate."""
    if gate in ("or", "and"):
        extractor = extract_or if gate == "or" else extract_and
        try:
            return extractor(interval, support1, support2)
        except InfeasiblePartition:
            return None
    if gate == "xor":
        return extract_xor(interval, support1, support2)
    raise ValueError(f"unknown gate {gate!r}")
