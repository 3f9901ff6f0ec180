"""Unit tests for the CEGAR 2QBF partition search in isolation
(:mod:`repro.bidec.backends.sat_cegar`): monotone counterexample
progress, definitive UNSAT termination, and governor-style degradation
on budget cutoff."""

import pytest

from repro.bdd import BDDManager
from repro.bidec.backends import make_backend
from repro.bidec.backends.sat_cegar import (
    CegarPartitionSearch,
    SatCegarBackend,
)
from repro.intervals import Interval


def majority_interval():
    """3-input majority — nontrivially indecomposable for or/and/xor
    (the BDD backend agrees; see test_definitive_unsat_matches_bdd)."""
    m = BDDManager(3)
    x, y, z = m.var(0), m.var(1), m.var(2)
    maj = m.apply_or(
        m.apply_or(m.apply_and(x, y), m.apply_and(x, z)), m.apply_and(y, z)
    )
    return m, Interval.exact(m, maj)


class TestCegarLoop:
    def test_no_repeated_candidate_under_total_rejection(self):
        """Every counterexample must make monotone progress: with a
        check that rejects everything, the loop enumerates distinct
        candidates until the abstraction is UNSAT — never a repeat,
        never an infinite loop."""
        search = CegarPartitionSearch(
            [0, 1, 2, 3], lambda e1, e2: False, max_iterations=10_000
        )
        assert search.find() is None
        assert search.infeasible and not search.exhausted
        assert len(search.candidates) == len(set(search.candidates))
        # Superset blocking prunes far below the 50 nontrivial disjoint
        # pairs over 4 variables.
        assert 1 <= len(search.candidates) < 50
        for e1, e2 in search.candidates:
            assert e1 and e2 and not (e1 & e2)

    def test_superset_blocking_refutes_whole_cones(self):
        """Rejecting a candidate refutes every superset pair: no later
        candidate may contain an earlier rejected one."""
        search = CegarPartitionSearch(
            [0, 1, 2], lambda e1, e2: False, max_iterations=10_000
        )
        search.find()
        seen: list = []
        for e1, e2 in search.candidates:
            for p1, p2 in seen:
                assert not (p1 <= e1 and p2 <= e2)
            seen.append((e1, e2))

    def test_accepting_check_terminates_with_valid_partition(self):
        search = CegarPartitionSearch([0, 1, 2, 3], lambda e1, e2: True)
        found = search.find()
        assert found is not None
        e1, e2 = found
        assert e1 and e2 and not (e1 & e2)
        assert search.iterations == 1 and not search.exhausted

    def test_budget_cutoff_degrades_instead_of_raising(self):
        """Exhausting the candidate budget flags ``exhausted`` (an
        inconclusive answer) — the governor idiom, not an exception."""
        search = CegarPartitionSearch(
            list(range(6)), lambda e1, e2: False, max_iterations=3
        )
        assert search.find() is None
        assert search.exhausted and not search.infeasible
        assert search.iterations == 3
        assert len(search.candidates) == 3

    def test_governor_exhaustion_cuts_the_search(self):
        class Exhausted:
            reason = "test budget"

            def out_of_budget(self):
                return True

        search = CegarPartitionSearch(
            [0, 1, 2], lambda e1, e2: True, governor=Exhausted()
        )
        assert search.find() is None
        assert search.exhausted and not search.candidates


class TestSatCegarBackend:
    def test_definitive_unsat_matches_bdd(self):
        """On a known-indecomposable cone the abstraction goes UNSAT —
        a proof, not a timeout — and both backends return None."""
        _, interval = majority_interval()
        sat = SatCegarBackend(fallback=False)
        bdd = make_backend("bdd")
        assert sat.decompose_interval(interval) is None
        assert bdd.decompose_interval(interval) is None
        assert sat.stats["cutoffs"] == 0  # ran to UNSAT, not out of budget

    def test_zero_budget_cutoff_returns_none_without_fallback(self):
        m = BDDManager(4)
        f = m.apply_or(
            m.apply_and(m.var(0), m.var(1)), m.apply_and(m.var(2), m.var(3))
        )
        interval = Interval.exact(m, f)
        sat = SatCegarBackend(max_iterations=0, fallback=False)
        assert sat.decompose_interval(interval) is None
        assert sat.stats["cutoffs"] == 1
        assert sat.stats["fallbacks"] == 0

    def test_zero_budget_falls_back_to_bdd_backend(self):
        """With fallback on, a cutoff re-routes the cone to the BDD
        backend — the decomposition is still found."""
        m = BDDManager(4)
        f = m.apply_or(
            m.apply_and(m.var(0), m.var(1)), m.apply_and(m.var(2), m.var(3))
        )
        interval = Interval.exact(m, f)
        sat = SatCegarBackend(max_iterations=0, fallback=True)
        result = sat.decompose_interval(interval)
        assert result is not None and result.verify()
        assert sat.stats["fallbacks"] == 1

    def test_decomposable_cone_found_and_verified(self):
        m = BDDManager(4)
        f = m.apply_or(
            m.apply_and(m.var(0), m.var(1)), m.apply_and(m.var(2), m.var(3))
        )
        interval = Interval.exact(m, f)
        sat = SatCegarBackend(fallback=False)
        result = sat.decompose_interval(interval)
        assert result is not None
        assert result.gate == "or"
        assert result.verify() and result.is_nontrivial()
        assert sat.stats["candidates"] >= 1

    def test_xor_fallback_counts_one_attempt(self):
        """XOR over a proper interval runs on the symbolic space; that
        attempt is counted once, as the space is."""
        from repro import obs

        m = BDDManager(4)
        x = [m.var(i) for i in range(4)]
        f = m.apply_xor(m.apply_and(x[0], x[1]), m.apply_and(x[2], x[3]))
        interval = Interval.with_dont_cares(m, f, m.conjoin(x))
        assert not interval.is_exact()
        obs.disable()
        obs.reset()
        try:
            with obs.scope():
                SatCegarBackend().decompose_interval(interval)
            counters = obs.report()["counters"]
        finally:
            obs.reset()
        assert counters["bidec.attempt.xor"] == 1
        assert counters["bidec.spaces.xor"] == 1

    def test_backend_registry_round_trip(self):
        from repro.bidec.backends import available_backends

        assert available_backends() == ["bdd", "sat-cegar"]
        sat = make_backend("sat-cegar", max_iterations=7)
        assert isinstance(sat, SatCegarBackend)
        assert sat.max_iterations == 7
        with pytest.raises(ValueError):
            make_backend("qbf-expansion")
