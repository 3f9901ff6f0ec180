"""The symbolic BDD backend — a thin registered wrapper around
:func:`repro.bidec.api.decompose_interval` (the paper's own algorithm).

The engine deliberately does *not* construct this wrapper on the
default path (``backend_for_interval`` returns ``None`` for ``bdd``);
it exists so the registry is complete, so ``sat-cegar`` has a fallback
object to delegate to, and so the differential harness can drive both
backends through one protocol.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bidec import api as _api
from repro.bidec.api import BiDecomposition
from repro.bidec.backends import register_backend
from repro.intervals import Interval


@register_backend("bdd")
class BddBackend:
    """Symbolic all-partitions bi-decomposition (Sections 3.3-3.4)."""

    def __init__(self, **_params) -> None:
        # Extra parameters (CEGAR knobs, governor) are accepted
        # and ignored so the engine can instantiate any backend with one
        # call signature.
        pass

    def decompose_interval(
        self,
        interval: Interval,
        *,
        gates: Sequence[str] = ("or", "and", "xor"),
        require_nontrivial: bool = True,
        objective: str = "balanced",
        max_support: int = 12,
    ) -> Optional[BiDecomposition]:
        return _api.decompose_interval(
            interval,
            gates=tuple(gates),
            require_nontrivial=require_nontrivial,
            objective=objective,
            max_support=max_support,
        )
