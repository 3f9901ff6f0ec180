"""Tests for the CDCL SAT solver, cross-validated against brute force.

The test classes run on the pure-Python core; each has a ``...Native``
subclass that reruns it on the C core (skipped when the native kernel is
unavailable).  ``tests/test_sat_parity.py`` checks that both cores take
the same steps."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import native as _native
from repro.sat import Solver

requires_native = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)


def brute_force_sat(num_vars, clauses):
    for assignment in itertools.product([False, True], repeat=num_vars):
        if all(
            any(
                assignment[abs(lit) - 1] == (lit > 0)
                for lit in clause
            )
            for clause in clauses
        ):
            return True
    return False


def random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


class TestBasics:
    native = False

    def test_empty_formula_sat(self):
        assert Solver(native=self.native).solve()

    def test_unit_clauses(self):
        solver = Solver(native=self.native)
        solver.add_clause([1])
        solver.add_clause([-2])
        assert solver.solve()
        model = solver.model()
        assert model[1] is True and model[2] is False

    def test_contradiction(self):
        solver = Solver(native=self.native)
        solver.add_clause([1])
        assert not solver.add_clause([-1]) or not solver.solve()

    def test_tautological_clause_ignored(self):
        solver = Solver(native=self.native)
        assert solver.add_clause([1, -1])
        assert solver.solve()

    def test_simple_unsat(self):
        solver = Solver(native=self.native)
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            solver.add_clause(clause)
        assert not solver.solve()

    def test_model_satisfies(self):
        rng = random.Random(3)
        clauses = random_cnf(rng, 8, 20)
        solver = Solver(native=self.native)
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve():
            model = solver.model()
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)


class TestAgainstBruteForce:
    native = False

    def test_random_formulas(self):
        rng = random.Random(42)
        for trial in range(60):
            num_vars = rng.randint(2, 8)
            num_clauses = rng.randint(1, 24)
            clauses = random_cnf(rng, num_vars, num_clauses)
            solver = Solver(native=self.native)
            ok = True
            for clause in clauses:
                ok = solver.add_clause(clause) and ok
            got = ok and solver.solve()
            want = brute_force_sat(num_vars, clauses)
            assert got == want, (trial, clauses)

    def test_pigeonhole_3_2(self):
        """3 pigeons, 2 holes: classically UNSAT (needs real conflict
        analysis to finish quickly)."""
        solver = Solver(native=self.native)
        # var (p,h) = p*2 + h + 1 for p in 0..2, h in 0..1
        def v(p, h):
            return p * 2 + h + 1

        for p in range(3):
            solver.add_clause([v(p, 0), v(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-v(p1, h), -v(p2, h)])
        assert not solver.solve()

    def test_php_5_4(self):
        solver = Solver(native=self.native)

        def v(p, h):
            return p * 4 + h + 1

        for p in range(5):
            solver.add_clause([v(p, h) for h in range(4)])
        for h in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    solver.add_clause([-v(p1, h), -v(p2, h)])
        assert not solver.solve()


class TestAssumptions:
    native = False

    def test_assumptions_restrict(self):
        solver = Solver(native=self.native)
        solver.add_clause([1, 2])
        assert solver.solve([-1])
        assert solver.model()[2] is True
        assert solver.solve([1])

    def test_assumption_conflict(self):
        solver = Solver(native=self.native)
        solver.add_clause([1])
        assert not solver.solve([-1])

    def test_incremental_reuse(self):
        """The same solver answers a sequence of assumption queries
        correctly (the usage pattern of the SAT baseline)."""
        rng = random.Random(9)
        clauses = random_cnf(rng, 6, 14)
        solver = Solver(native=self.native)
        ok = True
        for clause in clauses:
            ok = solver.add_clause(clause) and ok
        for _ in range(20):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 7), rng.randint(0, 3))
            ]
            got = ok and solver.solve(assumptions)
            want = brute_force_sat(6, clauses + [[a] for a in assumptions])
            assert got == want, assumptions


class TestIncrementalAfterSat:
    """Clauses added after a satisfiable solve(), whose trail is still in
    place: add_clause simplifies at level 0 and asserts units there."""

    native = False

    def _solved(self):
        solver = Solver(native=self.native)
        solver.add_clause([-3])
        solver.add_clause([1, 2])
        assert solver.solve()
        return solver

    def test_clause_false_under_model_stays_satisfiable(self):
        """[1, 3] is false under the model just found (1=F, 3=F) and
        reduces to the unit 1 at the root; 1=T satisfies the formula."""
        solver = self._solved()
        assert solver.add_clause([1, 3])
        assert solver.solve()
        model = solver.model()
        assert model[1] and not model[3]
        assert solver.solve([-2])

    def test_root_unit_survives_backtracking(self):
        """[2, 3] reduces to the unit 2 at the root, so assuming -2 must
        fail instead of returning a model that violates the clause."""
        solver = self._solved()
        assert solver.add_clause([2, 3])
        assert not solver.solve([-2])
        assert solver.solve()
        assert solver.model()[2]


@requires_native
class TestBasicsNative(TestBasics):
    native = True


@requires_native
class TestAgainstBruteForceNative(TestAgainstBruteForce):
    native = True


@requires_native
class TestAssumptionsNative(TestAssumptions):
    native = True


@requires_native
class TestIncrementalAfterSatNative(TestIncrementalAfterSat):
    native = True


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_vars=st.integers(min_value=2, max_value=7),
    num_clauses=st.integers(min_value=1, max_value=20),
)
def test_property_solver_matches_bruteforce(seed, num_vars, num_clauses):
    rng = random.Random(seed)
    clauses = random_cnf(rng, num_vars, num_clauses)
    solver = Solver()
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    assert (ok and solver.solve()) == brute_force_sat(num_vars, clauses)
