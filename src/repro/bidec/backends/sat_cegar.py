"""CEGAR-solved 2QBF bi-decomposition backend.

*QBF-Based Boolean Function Bi-Decomposition* (Chen/Janota/Marques-Silva)
phrases the variable-partitioning question as a 2QBF: ∃ partition
selectors ∀ points, the gate's decomposability condition holds.  This
backend solves that formula by counterexample-guided abstraction
refinement over the repo's CDCL solver (:mod:`repro.sat.solver`):

* the **abstraction** is a SAT formula over per-variable selector pairs
  ``a_v`` ("v is in the b-freed block e1") and ``b_v`` ("v is in e2"),
  constrained only to nontrivial disjoint partitions;
* each abstraction model is a **candidate partition**, checked by one
  incremental SAT call on the shared three-copy interval encoding
  (:class:`~repro.bidec.sat_encoding.SelectorCnf` — the same CNF the
  Lee–Jiang–Hung baseline uses);
* a failed check refutes not just the candidate but every superset pair
  (feasibility is anti-monotone: growing an exclusive block only shrinks
  what each component may read), so the learnt blocking clause
  ``⋁_{v∈e1} ¬a_v ∨ ⋁_{v∈e2} ¬b_v`` prunes exponentially many
  partitions per counterexample and guarantees the loop never repeats a
  candidate.

An UNSAT abstraction is a proof that no nontrivial partition exists —
exactly the emptiness of the BDD backend's partition space, which is
what the differential harness cross-checks.  Exhausting the iteration
budget (or the engine's resource governor) is *not* a proof; the search
degrades governor-style — flags the cutoff, optionally falls back to
the BDD backend, and never raises.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro import obs as _obs
from repro.bidec import api as _api
from repro.bidec import symbolic as _symbolic
from repro.bidec.api import BiDecomposition
from repro.bidec.backends import register_backend
from repro.bidec.extract import extract as _extract_pair
from repro.bidec.sat_encoding import SelectorCnf
from repro.intervals import Interval
from repro.sat.solver import Solver

#: Default CEGAR candidate budget per ``decompose_interval`` call,
#: shared across the gate loop (``--cegar-iterations``).
DEFAULT_MAX_ITERATIONS = 512


class CegarPartitionSearch:
    """One CEGAR loop: find a partition ``(e1, e2)`` accepted by
    ``check``, refining an abstraction over selector variables.

    ``check(e1, e2)`` must be anti-monotone — if it rejects a pair it
    must reject every pair of supersets — which holds for every gate's
    decomposability condition.  Instances are single-use but
    re-entrant: :meth:`find` may be called again after a success to
    enumerate further feasible partitions (already-blocked and
    already-found candidates are never revisited).

    Attributes useful to callers and tests:

    * ``candidates`` — every candidate proposed, in order (never
      contains a repeat);
    * ``iterations`` — candidates consumed from the budget;
    * ``exhausted`` — the budget or governor cut the search short
      (*inconclusive*: a feasible partition may still exist);
    * ``infeasible`` — the abstraction went UNSAT (*definitive*: no
      nontrivial partition passes ``check``).
    """

    def __init__(
        self,
        support: Sequence[int],
        check: Callable[[frozenset[int], frozenset[int]], bool],
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        governor=None,
    ) -> None:
        self.support = sorted(support)
        self.check = check
        self.max_iterations = max_iterations
        self.governor = governor
        self.iterations = 0
        self.candidates: list[tuple[frozenset[int], frozenset[int]]] = []
        self.exhausted = False
        self.infeasible = False
        solver = Solver()
        self._a = {v: solver.new_var() for v in self.support}
        self._b = {v: solver.new_var() for v in self.support}
        ok = True
        for v in self.support:
            # Blocks are disjoint ...
            ok &= solver.add_clause([-self._a[v], -self._b[v]])
        # ... and both nonempty, so every candidate is nontrivial.
        ok &= solver.add_clause([self._a[v] for v in self.support])
        ok &= solver.add_clause([self._b[v] for v in self.support])
        self._solver = solver
        self._feasible = ok

    def find(self) -> Optional[tuple[set[int], set[int]]]:
        """Run the refinement loop to the next accepted partition.

        Returns ``None`` when the abstraction is UNSAT (see
        ``infeasible``) or the budget ran out (see ``exhausted``).
        """
        while True:
            if self.governor is not None and self.governor.out_of_budget():
                self.exhausted = True
                return None
            if self.iterations >= self.max_iterations:
                self.exhausted = True
                return None
            if not self._feasible or not self._solver.solve():
                self.infeasible = True
                return None
            model = self._solver.model()
            e1 = frozenset(
                v for v in self.support if model.get(self._a[v], False)
            )
            e2 = frozenset(
                v for v in self.support if model.get(self._b[v], False)
            )
            self.iterations += 1
            self.candidates.append((e1, e2))
            accepted = self.check(e1, e2)
            # Block the candidate either way: on failure the clause is
            # the superset-refuting refinement; on success it steers a
            # subsequent find() call to a new partition.
            clause = [-self._a[v] for v in sorted(e1)]
            clause += [-self._b[v] for v in sorted(e2)]
            if not self._solver.add_clause(clause):
                self._feasible = False
            if accepted:
                return set(e1), set(e2)


class _GateCheckers:
    """Lazy per-gate feasibility checks over one shared
    :class:`SelectorCnf`.

    Solver snapshots are taken in a safe order: the XOR extension adds
    the 4-way parity as a *unit clause* to the shared builder, so the
    OR/AND solvers must be snapshotted first — the backend therefore
    always processes ``xor`` after the other gates.
    """

    def __init__(self, interval: Interval, support: Sequence[int]) -> None:
        self.interval = interval
        self.cnf = SelectorCnf(
            interval.manager,
            interval.lower,
            interval.upper,
            support=support,
        )
        self.checks_performed = 0
        self._solvers: dict[str, Solver] = {}

    def _solver_for(self, gate: str) -> Solver:
        solver = self._solvers.get(gate)
        if solver is not None:
            return solver
        cnf = self.cnf
        if gate == "or":
            # Feasible iff  l(x) ∧ ¬u(b) ∧ ¬u(c)  is UNSAT (eq. (3.2)
            # with the universal quantifications refuted pointwise).
            solver = cnf.builder.to_solver()
            solver.add_clause([cnf.lower_x])
            solver.add_clause([-cnf.upper_b])
            solver.add_clause([-cnf.upper_c])
        elif gate == "and":
            # Dual through the complement interval: ¬u(x) ∧ l(b) ∧ l(c).
            cnf.extend_complement()
            solver = cnf.builder.to_solver()
            solver.add_clause([-cnf.upper_x])
            solver.add_clause([cnf.lower_b])
            solver.add_clause([cnf.lower_c])
        elif gate == "xor":
            assert cnf.is_exact, "XOR CEGAR check is for exact intervals"
            cnf.extend_xor()
            solver = cnf.builder.to_solver()
        else:  # pragma: no cover - guarded by the backend's gate loop
            raise ValueError(f"unknown gate {gate!r}")
        self._solvers[gate] = solver
        return solver

    def checker(
        self, gate: str
    ) -> Callable[[frozenset[int], frozenset[int]], bool]:
        solver = self._solver_for(gate)

        def check(e1: frozenset[int], e2: frozenset[int]) -> bool:
            self.checks_performed += 1
            return not solver.solve(self.cnf.selector_assumptions(e1, e2))

        return check


@register_backend("sat-cegar")
class SatCegarBackend:
    """Bi-decomposition through CEGAR-refined SAT partition search.

    ``max_iterations`` bounds the CEGAR candidates per cone (shared
    across the gate loop); ``fallback`` re-routes the cone to the BDD
    backend when the budget cuts the search short without an answer.
    Cumulative ``stats`` survive across calls so the engine can report
    per-cone outcomes.
    """

    def __init__(
        self,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        fallback: bool = True,
        governor=None,
        **_params,
    ) -> None:
        self.max_iterations = max_iterations
        self.fallback = fallback
        self.governor = governor
        self.stats = {
            "calls": 0,
            "candidates": 0,
            "checks": 0,
            "cutoffs": 0,
            "fallbacks": 0,
        }

    # -- helpers --------------------------------------------------------

    def _grow(
        self,
        check: Callable[[frozenset[int], frozenset[int]], bool],
        support: Sequence[int],
        e1: set[int],
        e2: set[int],
    ) -> tuple[set[int], set[int]]:
        """Balanced greedy growth of a feasible seed pair (the
        baseline's strategy): larger exclusive blocks mean smaller, more
        useful component supports."""
        for v in support:
            if v in e1 or v in e2:
                continue
            first, second = (
                (e1, e2) if len(e1) <= len(e2) else (e2, e1)
            )
            if check(frozenset(first | {v}), frozenset(second)):
                first.add(v)
            elif check(frozenset(first), frozenset(second | {v})):
                second.add(v)
        return e1, e2

    def _gate_result(
        self,
        interval: Interval,
        gate: str,
        checkers: _GateCheckers,
        budget: int,
    ) -> tuple[Optional[BiDecomposition], int, bool]:
        """CEGAR one gate; returns (result, iterations_used, cut_off)."""
        support = checkers.cnf.support
        check = checkers.checker(gate)
        search = CegarPartitionSearch(
            support, check, max_iterations=budget, governor=self.governor
        )
        _obs.inc(f"bidec.attempt.{gate}")
        found = search.find()
        self.stats["candidates"] += search.iterations
        if found is None:
            return None, search.iterations, search.exhausted
        e1, e2 = self._grow(check, support, *found)
        all_vars = set(support)
        support1 = all_vars - e2
        support2 = all_vars - e1
        pair = _extract_pair(interval, gate, support1, support2)
        if pair is None:  # pragma: no cover - feasible checks extract
            return None, search.iterations, search.exhausted
        _obs.inc(f"bidec.extracted.{gate}")
        result = BiDecomposition(
            gate=gate,
            g1=pair.g1,
            g2=pair.g2,
            support1=frozenset(support1),
            support2=frozenset(support2),
            interval=interval,
        )
        return result, search.iterations, False

    def _xor_symbolic(
        self,
        interval: Interval,
        require_nontrivial: bool,
        objective: str,
    ) -> Optional[BiDecomposition]:
        """XOR over a *proper* interval: the 4-copy parity check only
        matches the completely-specified case, so delegate to the exact
        symbolic space — both backends then agree by construction."""
        _obs.inc("bidec.attempt.xor")
        space = _symbolic.partition_space(interval, "xor")
        result = _api._decompose_with_space(
            interval, space, require_nontrivial, objective
        )
        _symbolic.release_space(space)
        return result

    # -- backend protocol -----------------------------------------------

    def decompose_interval(
        self,
        interval: Interval,
        *,
        gates: Sequence[str] = ("or", "and", "xor"),
        require_nontrivial: bool = True,
        objective: str = "balanced",
        max_support: int = 12,
    ) -> Optional[BiDecomposition]:
        if not require_nontrivial:
            # The abstraction bakes nontriviality in; the degenerate
            # trivial-allowed query is answered by the reference path.
            return _api.decompose_interval(
                interval,
                gates=tuple(gates),
                require_nontrivial=False,
                objective=objective,
                max_support=max_support,
            )
        self.stats["calls"] += 1
        support = sorted(interval.support())
        if len(support) < 2:
            return None
        checkers = _GateCheckers(interval, support)
        # XOR last: its parity extension appends a unit clause to the
        # shared CNF builder, which must not leak into OR/AND solvers.
        indexed = sorted(
            (
                (gate == "xor", order, gate)
                for order, gate in enumerate(gates)
                if gate in ("or", "and", "xor")
            )
        )
        best: Optional[BiDecomposition] = None
        best_key: Optional[tuple[int, int, int]] = None
        cut_off = False
        remaining = self.max_iterations
        for _, order, gate in indexed:
            if gate == "xor" and not interval.is_exact():
                if len(support) > max_support:
                    continue
                result = self._xor_symbolic(
                    interval, require_nontrivial, objective
                )
            else:
                if remaining <= 0:
                    cut_off = True
                    continue
                result, used, gate_cut = self._gate_result(
                    interval, gate, checkers, remaining
                )
                remaining -= used
                cut_off |= gate_cut
            if result is None:
                continue
            key = (
                result.max_support_size,
                len(result.support1) + len(result.support2),
                order,
            )
            if best_key is None or key < best_key:
                best, best_key = result, key
        self.stats["checks"] += checkers.checks_performed
        if best is not None:
            _obs.inc(f"bidec.accepted.{best.gate}")
            return best
        if cut_off:
            self.stats["cutoffs"] += 1
            _obs.inc("bidec.cegar.cutoff")
            if self.fallback:
                self.stats["fallbacks"] += 1
                _obs.inc("bidec.backend.fallback")
                _obs.event(
                    "bidec.backend.fallback",
                    support=len(support),
                    budget=self.max_iterations,
                )
                return _api.decompose_interval(
                    interval,
                    gates=tuple(gates),
                    require_nontrivial=require_nontrivial,
                    objective=objective,
                    max_support=max_support,
                )
        return best
