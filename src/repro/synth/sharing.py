"""Sharing-aware decomposition choice (Figure 3.2).

The symbolic enumeration yields many feasible partitions; "from a
generated set of choices, partition that best improves timing and logic
sharing is selected" (Section 3.5.3).  Here a decomposition whose ``g1``
or ``g2`` coincides with a function already present in the network — even
outside the signal's fanin, as in Figure 3.2 — is preferred, since the
existing node is reused at zero cost.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.bidec.extract import extract as _extract_pair
from repro.bidec import symbolic as _symbolic
from repro.bidec.api import BiDecomposition
from repro.intervals import Interval


def estimated_arrival(
    supports: Sequence[frozenset[int] | set[int]],
    arrivals: Mapping[int, float],
) -> float:
    """Depth estimate for ``h(g1, g2)``: each component is assumed to be a
    balanced tree over its support (``log2 |support|`` levels), so its
    output settles at ``max input arrival + log2 |support|``; the root
    gate adds one more level."""
    import math

    component_times = []
    for component in supports:
        if not component:
            component_times.append(0.0)
            continue
        latest = max(arrivals.get(var, 0.0) for var in component)
        component_times.append(latest + math.log2(max(len(component), 2)))
    return max(component_times) + 1.0


def decompose_with_sharing(
    interval: Interval,
    existing: Mapping[int, str],
    gates: Sequence[str] = ("or", "and", "xor"),
    max_partition_tries: int = 16,
    objective: str = "balanced",
    arrivals: Optional[Mapping[int, float]] = None,
) -> Optional[tuple[BiDecomposition, int]]:
    """Best bi-decomposition preferring component reuse and, optionally,
    timing.

    ``existing`` maps BDD nodes (in the interval's manager) of functions
    already realised in the network to their signal names.  ``arrivals``
    optionally maps variables to input arrival times; when given, ties
    among equally shared choices are broken by the estimated output
    arrival (Section 3.5.3: "partition that best improves timing and
    logic sharing is selected") — this is what lets the selector put a
    late-arriving input into a shallow component.  Returns the chosen
    decomposition and the number of its components found in ``existing``
    (0-2), or ``None``.
    """
    support = interval.support()
    if len(support) < 2:
        return None
    best: Optional[tuple[BiDecomposition, int]] = None
    best_key: Optional[tuple] = None
    for order, gate in enumerate(gates):
        space = _symbolic.partition_space(interval, gate).nontrivial()
        if not space.is_feasible():
            _symbolic.release_space(space)
            continue
        if arrivals is not None:
            pairs = space.size_pairs()
        elif objective == "balanced":
            best_pair = space.best_balanced_pair()
            pairs = [best_pair] if best_pair else []
        else:
            best_pair = space.min_total_pair()
            pairs = [best_pair] if best_pair else []
        for pair in pairs:
            for support1, support2 in space.iter_partitions(
                pair[0], pair[1], max_partition_tries
            ):
                extracted = _extract_pair(interval, gate, support1, support2)
                if extracted is None:
                    continue
                shared = int(extracted.g1 in existing) + int(
                    extracted.g2 in existing
                )
                decomposition = BiDecomposition(
                    gate=gate,
                    g1=extracted.g1,
                    g2=extracted.g2,
                    support1=frozenset(support1),
                    support2=frozenset(support2),
                    interval=interval,
                )
                timing = (
                    estimated_arrival([support1, support2], arrivals)
                    if arrivals is not None
                    else 0.0
                )
                key = (
                    -shared,
                    timing,
                    decomposition.max_support_size,
                    len(support1) + len(support2),
                    order,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = (decomposition, shared)
        _symbolic.release_space(space)
        # A fully shared decomposition cannot be beaten on the primary
        # criterion; stop early when timing is not being optimised.
        if best is not None and best[1] == 2 and arrivals is None:
            break
    return best
