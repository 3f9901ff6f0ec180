"""High-level bi-decomposition entry points.

These tie together the symbolic partition enumeration (Section 3.4), the
support-size selection machinery (Section 3.5.2) and the function
extraction, returning verified :class:`BiDecomposition` results in the
caller's manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro import obs as _obs
from repro.bdd.manager import BDDManager
from repro.bidec.extract import ExtractedPair
from repro.bidec.extract import extract as _extract_pair
from repro.bidec import symbolic as _symbolic
from repro.intervals import Interval


@dataclass(frozen=True)
class BiDecomposition:
    """A verified bi-decomposition ``h(g1(x1), g2(x2))`` of an interval.

    ``g1``/``g2`` are BDD nodes in the interval's manager, and
    ``support1``/``support2`` the variable sets they were allotted (their
    true supports may be smaller).
    """

    gate: str
    g1: int
    g2: int
    support1: frozenset[int]
    support2: frozenset[int]
    interval: Interval

    def recompose(self) -> int:
        """The composed function ``h(g1, g2)``."""
        return ExtractedPair(self.gate, self.g1, self.g2).recompose(
            self.interval.manager
        )

    def verify(self) -> bool:
        """Recomposition is a member of the target interval."""
        return self.interval.contains(self.recompose())

    @property
    def max_support_size(self) -> int:
        """``max(|x1|, |x2|)`` — the quantity whose reduction Table 3.1
        reports."""
        return max(len(self.support1), len(self.support2))

    def reduction_ratio(self) -> float:
        """``max(|x1|, |x2|) / |support(f)|`` — the per-function value
        averaged in Table 3.1's *avg. reduct.* column."""
        total = len(self.interval.support())
        if total == 0:
            return 0.0
        return self.max_support_size / total

    def is_nontrivial(self) -> bool:
        """Both components dropped at least one variable of the original
        support."""
        total = self.interval.support()
        return (
            len(self.support1 & total) < len(total)
            and len(self.support2 & total) < len(total)
        )


def _size_key(k1: int, k2: int, order: int) -> tuple[int, int, int]:
    """The rank of a decomposition with supports of ``k1`` and ``k2``
    variables found by the gate at position ``order`` of a gate loop:
    ``(max(k1, k2), k1 + k2, order)``, the smallest best."""
    return max(k1, k2), k1 + k2, order


def _cannot_win(
    key: tuple[int, int, int], best_key: Optional[tuple[int, int, int]]
) -> bool:
    """Whether a gate whose result would rank ``key`` — or no better,
    when ``key`` is a lower bound — loses to the best decomposition found
    so far, ranked ``best_key`` (see :func:`_size_key`).  The gate loops
    of :func:`decompose_interval` and of the sat-cegar backend ask this
    one predicate before building a gate's space and before extracting
    its partition."""
    return best_key is not None and key > best_key


def _support_floor(interval: Interval, size: int) -> tuple[int, int]:
    """The least ``(max(|x1|, |x2|), |x1| + |x2|)`` a decomposition of
    ``interval``, whose support has ``size`` variables, can have.  Every
    variable of an exact interval's support is essential, since a
    reduced BDD depends on each variable it mentions, so the two
    supports must cover it: ``(⌈size/2⌉, size)``.  A member of a proper
    interval may drop variables, so its floor is ``(0, 0)``."""
    if interval.is_exact():
        return (size + 1) // 2, size
    return 0, 0


def _decompose_with_space(
    interval: Interval,
    space: _symbolic.PartitionSpace,
    require_nontrivial: bool,
    objective: str,
    max_partition_tries: int = 8,
    *,
    order: int = 0,
    best_key: Optional[tuple[int, int, int]] = None,
) -> Optional[BiDecomposition]:
    _obs.inc(f"bidec.attempt.{space.gate}")
    if require_nontrivial:
        space = space.nontrivial()
    if not space.is_feasible():
        return None
    if objective == "balanced":
        best = space.best_balanced_pair()
    elif objective == "min_total":
        best = space.min_total_pair()
    else:
        raise ValueError(f"unknown objective {objective!r}")
    if best is None:
        return None
    k1, k2 = best
    if _cannot_win(_size_key(k1, k2, order), best_key):
        # Every partition of these sizes ranks exactly this key.
        _obs.inc(f"bidec.pruned.{space.gate}")
        return None
    for support1, support2 in space.iter_partitions(k1, k2, max_partition_tries):
        pair = _extract_pair(interval, space.gate, support1, support2)
        if pair is not None:
            _obs.inc(f"bidec.extracted.{space.gate}")
            return BiDecomposition(
                gate=space.gate,
                g1=pair.g1,
                g2=pair.g2,
                support1=frozenset(support1),
                support2=frozenset(support2),
                interval=interval,
            )
    return None


def or_bidecompose(
    interval: Interval,
    require_nontrivial: bool = True,
    objective: str = "balanced",
) -> Optional[BiDecomposition]:
    """Best OR bi-decomposition of an interval via the symbolic
    enumeration of equation (3.8), or ``None`` if infeasible."""
    if len(interval.support()) < 2:
        return None
    space = _symbolic.or_partition_space(interval)
    return _decompose_with_space(interval, space, require_nontrivial, objective)


def and_bidecompose(
    interval: Interval,
    require_nontrivial: bool = True,
    objective: str = "balanced",
) -> Optional[BiDecomposition]:
    """Best AND bi-decomposition (OR on the complement interval)."""
    if len(interval.support()) < 2:
        return None
    space = _symbolic.and_partition_space(interval)
    return _decompose_with_space(interval, space, require_nontrivial, objective)


def xor_bidecompose(
    interval: Interval,
    require_nontrivial: bool = True,
    objective: str = "balanced",
) -> Optional[BiDecomposition]:
    """Best XOR bi-decomposition via the symbolic enumeration of equation
    (3.9) and its interval extension (Section 3.3.2)."""
    if len(interval.support()) < 2:
        return None
    space = _symbolic.xor_partition_space(interval)
    return _decompose_with_space(interval, space, require_nontrivial, objective)


def decompose_cone(
    interval: Interval,
    *,
    max_support: int = 12,
    gates: Sequence[str] = ("or", "and", "xor"),
    objective: str = "balanced",
    sharing_choice: bool = False,
    share_table: Optional[dict[int, str]] = None,
    backend=None,
):
    """One Algorithm 1 decompose step: recursively bi-decompose a widened
    cone interval into a :class:`~repro.bidec.recursive.DecTree`.

    With ``sharing_choice`` the full Section 3.5.3 policy is used —
    partitions are selected for reuse against ``share_table`` (BDD node
    -> existing network signal) at every recursion level; otherwise the
    plain recursive decomposition with the given ``objective`` runs.
    This is the seam the engine's decompose pass calls through.

    ``backend`` optionally substitutes a registered decomposition
    backend (:mod:`repro.bidec.backends`) for the per-level symbolic
    search; the sharing-aware path is BDD-only (its partition scoring
    enumerates the symbolic space) and ignores it.
    """
    if sharing_choice:
        from repro.bidec.recursive import decompose_recursive_shared

        return decompose_recursive_shared(
            interval,
            share_table if share_table is not None else {},
            max_support=max_support,
            gates=tuple(gates),
        )
    from repro.bidec.recursive import decompose_recursive

    return decompose_recursive(
        interval,
        max_support=max_support,
        gates=tuple(gates),
        objective=objective,
        backend=backend,
    )


def decompose_interval(
    interval: Interval,
    gates: Sequence[str] = ("or", "and", "xor"),
    require_nontrivial: bool = True,
    objective: str = "balanced",
    max_support: int = 14,
) -> Optional[BiDecomposition]:
    """Try each gate type and return the decomposition with the smallest
    ``max(|x1|, |x2|)`` (ties broken by smaller total support, then by
    the order of ``gates``).

    A gate that cannot beat the best decomposition found so far is cut
    short (:func:`_cannot_win`), and the result is the one the full loop
    would return:

    * once its space gives its best size pair ``(k1, k2)``, a gate whose
      rank ``(max(k1, k2), k1 + k2, order)`` loses is not extracted
      (``bidec.pruned.<gate>``), since each of its partitions would rank
      exactly that;
    * once the best rank reaches the support floor of an exact interval
      of ``n`` support variables, ``(⌈n/2⌉, n)``, no later gate's space
      is built (``bidec.skipped.<gate>``), since every decomposition
      covers the whole support.

    ``max_support`` bounds the support size for which the exhaustive
    symbolic enumeration is used; above the bound the greedy procedure of
    :mod:`repro.bidec.greedy` (which the paper says the symbolic form was
    "used to tune") takes over.
    """
    support = interval.support()
    if len(support) < 2:
        return None
    if len(support) > max_support:
        from repro.bidec.greedy import greedy_decompose

        _obs.inc("bidec.greedy_fallback")
        return greedy_decompose(interval, gates, require_nontrivial)
    best: Optional[BiDecomposition] = None
    best_key: Optional[tuple[int, int, int]] = None
    floor = _support_floor(interval, len(support))
    for order, gate in enumerate(gates):
        if _cannot_win((*floor, order), best_key):
            _obs.inc(f"bidec.skipped.{gate}")
            continue
        space = _symbolic.partition_space(interval, gate)
        result = _decompose_with_space(
            interval,
            space,
            require_nontrivial,
            objective,
            order=order,
            best_key=best_key,
        )
        _symbolic.release_space(space)
        if result is None:
            continue
        key = _size_key(len(result.support1), len(result.support2), order)
        if best_key is None or key < best_key:
            best, best_key = result, key
    if best is not None:
        _obs.inc(f"bidec.accepted.{best.gate}")
    return best
