"""Forward reachability fixpoints (Section 3.5.1 state-space
exploration)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from repro import obs as _obs
from repro.bdd import count as _count
from repro.bdd.manager import FALSE
from repro.reach.image import image_schedule, reach_step
from repro.reach.transition import TransitionSystem


@dataclass
class ReachabilityResult:
    """Outcome of a traversal: the reached-state set over PS variables
    plus run statistics."""

    ts: TransitionSystem
    reached: int
    iterations: int
    converged: bool
    runtime: float

    def num_states(self) -> int:
        """Number of reached states (over this subsystem's latches).

        The reached set only mentions PS variables, so the manager-wide
        satisfying count is scaled down by the non-state variables.
        """
        total_vars = self.ts.manager.num_vars
        full = _count.sat_count(self.ts.manager, self.reached, total_vars)
        return full // (1 << (total_vars - self.ts.num_state_bits()))

    def _count_states(self) -> int:
        return self.num_states()

    def log2_states(self) -> float:
        """``log2`` of the reached-state count — the Table 3.1 column."""
        count = self._count_states()
        return math.log2(count) if count else float("-inf")

    def unreachable(self) -> int:
        """Complement of the reached set (exact for a converged run on
        the full latch set; an under-approximation of the unreachable
        states otherwise)."""
        return self.ts.manager.negate(self.reached)


def forward_reachable(
    ts: TransitionSystem,
    strategy: str = "early",
    max_iterations: Optional[int] = None,
    time_budget: Optional[float] = None,
    governor=None,
    auto_reorder: bool = False,
) -> ReachabilityResult:
    """Least fixpoint of the image operator from the initial states.

    ``strategy`` is ``"early"`` (partitioned relation, early
    quantification) or ``"monolithic"`` (the whole relation as one
    conjunct); each iteration is one :func:`~repro.reach.image.reach_step`
    over that schedule.  If ``max_iterations``,
    ``time_budget`` or an exhausted ``governor`` (a
    :class:`repro.engine.governor.ResourceGovernor`, checked between
    image steps; its node budget covers this traversal's manager) stops
    the run early the result is marked unconverged — its complement is
    still sound.  With ``auto_reorder`` on, iteration boundaries poll
    the manager's growth trigger (``BDDManager.reorder_due``) and
    re-sift the whole system (``TransitionSystem.reorder_manager``)
    when it fires; the reached set leaves this function only through
    name-keyed transfer, so the final synthesis output is unchanged.
    An unconverged complement is
    still a sound unreachable-state under-approximation *only* when
    treated per-partition (the reached set is an over-approximation of
    what is reachable in bounded steps but an under-approximation of
    nothing); callers therefore widen an unconverged reached set to
    TRUE-equivalent semantics by checking ``converged``.
    """
    manager = ts.manager
    if governor is not None:
        governor.attach_manager(manager)
    track = _obs.enabled()
    start = time.perf_counter()
    with _obs.span("reach.fixpoint"):
        schedule = _schedule(ts, strategy)
        if track and strategy == "early":
            _obs.observe("reach.relation.parts", ts.num_state_bits())
        reached = ts.initial_states()
        frontier = reached
        iterations = 0
        converged = True
        while frontier != FALSE:
            if max_iterations is not None and iterations >= max_iterations:
                converged = False
                break
            if (
                time_budget is not None
                and time.perf_counter() - start > time_budget
            ):
                converged = False
                break
            if governor is not None and governor.out_of_budget():
                converged = False
                break
            if auto_reorder and manager.reorder_due():
                # Iteration boundary = safe point: the only live handles
                # are the reached set and frontier, passed through the
                # rebuild; the relation and its schedule are rebuilt
                # against the re-sifted manager.
                size_before = manager.num_nodes
                with _obs.span("reach.reorder"):
                    reached, frontier = ts.reorder_manager(
                        [reached, frontier]
                    )
                if governor is not None:
                    governor.detach_manager(manager)
                    governor.attach_manager(ts.manager)
                manager = ts.manager
                schedule = _schedule(ts, strategy)
                if track:
                    _obs.event(
                        "bdd.reorder.reach",
                        iteration=iterations,
                        nodes_before=size_before,
                        nodes_after=manager.num_nodes,
                    )
            image_start = time.perf_counter()
            frontier, reached = reach_step(manager, schedule, frontier, reached)
            iterations += 1
            if track:
                _obs.inc("reach.iterations")
                _obs.observe(
                    "reach.image.time", time.perf_counter() - image_start
                )
                _obs.observe(
                    "reach.frontier.size", _count.dag_size(manager, frontier)
                )
    if track:
        _obs.inc("reach.runs")
        _obs.inc(f"reach.strategy.{strategy}")
        _obs.inc("reach.converged" if converged else "reach.cutoff")
        _obs.observe("reach.reached.size", _count.dag_size(manager, reached))
    return ReachabilityResult(
        ts=ts,
        reached=reached,
        iterations=iterations,
        converged=converged,
        runtime=time.perf_counter() - start,
    )


def _schedule(ts: TransitionSystem, strategy: str):
    """The image schedule over ``ts``'s current manager: the relation
    and its quantification schedule are built here once, for every step
    until a reorder replaces the manager."""
    if strategy == "monolithic":
        return image_schedule(ts, [ts.monolithic_relation()])
    if strategy == "early":
        return image_schedule(ts, ts.part_relations())
    raise ValueError(f"unknown image strategy {strategy!r}")


def explicit_reachable_states(network, latches=None, max_states: int = 1 << 20) -> set[tuple[bool, ...]]:
    """Explicit-state BFS oracle for tests: enumerate reachable latch
    valuations by simulating all input combinations breadth-first.

    Exponential in inputs and states; only for small circuits.
    """
    from repro.network.simulate import evaluate_combinational

    latches = list(latches if latches is not None else network.latches)
    initial = tuple(network.latches[l].init for l in latches)
    num_inputs = len(network.inputs)
    seen = {initial}
    queue = [initial]
    while queue:
        state = queue.pop()
        for input_bits in range(1 << num_inputs):
            sources = {
                name: (1 if (input_bits >> i) & 1 else 0)
                for i, name in enumerate(network.inputs)
            }
            for latch_name, value in zip(latches, state):
                sources[latch_name] = 1 if value else 0
            # Latches outside the tracked subset take both values: the
            # oracle only supports full-latch-set usage, enforced here.
            if set(latches) != set(network.latches):
                raise ValueError("explicit oracle needs the full latch set")
            values = evaluate_combinational(network, sources, 1)
            successor = tuple(
                bool(values[network.latches[l].data_in]) for l in latches
            )
            if successor not in seen:
                if len(seen) >= max_states:
                    raise RuntimeError("state explosion in explicit oracle")
                seen.add(successor)
                queue.append(successor)
    return seen
