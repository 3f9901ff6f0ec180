"""Partitioned forward reachability and unreachable-state don't-care
extraction (Section 3.5.1)."""

from repro.reach.transition import TransitionSystem
from repro.reach.image import (
    ImageSchedule,
    image_early,
    image_monolithic,
    image_schedule,
    preimage_monolithic,
)
from repro.reach.traversal import (
    ReachabilityResult,
    forward_reachable,
    explicit_reachable_states,
)
from repro.reach.partition import (
    LatchPartition,
    signal_ps_supports,
    select_latch_partitions,
    partitions_for_support,
)
from repro.reach.dontcare import DontCareManager
from repro.reach.induction import (
    Candidate,
    InductiveInvariant,
    propose_candidates,
)

__all__ = [
    "Candidate",
    "InductiveInvariant",
    "propose_candidates",
    "TransitionSystem",
    "ImageSchedule",
    "image_monolithic",
    "image_early",
    "image_schedule",
    "preimage_monolithic",
    "ReachabilityResult",
    "forward_reachable",
    "explicit_reachable_states",
    "LatchPartition",
    "signal_ps_supports",
    "select_latch_partitions",
    "partitions_for_support",
    "DontCareManager",
]
