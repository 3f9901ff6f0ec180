"""The gate loops' pruning: a gate that cannot beat the best
decomposition found so far is cut short (``repro.bidec.api._cannot_win``).

* Rule 1: once a gate's space gives its best size pair, a gate whose
  rank loses is not extracted (``bidec.pruned.<gate>``).
* Rule 2: once the best rank reaches an exact interval's support floor
  ``(⌈n/2⌉, n)``, later gates are not built (``bidec.skipped.<gate>``).

Both loops — :func:`~repro.bidec.api.decompose_interval` and
:class:`~repro.bidec.backends.sat_cegar.SatCegarBackend` — must return
exactly what they return with the predicate patched to never prune.
"""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.bdd import BDDManager
from repro.bidec import api
from repro.bidec.api import decompose_interval
from repro.bidec.backends.sat_cegar import SatCegarBackend
from repro.intervals import Interval

from strategies import cones_with_dontcares, truth_table_pairs

GATE_TUPLES = st.sampled_from(
    [
        ("or", "and", "xor"),
        ("xor", "or", "and"),
        ("and",),
        ("and", "xor", "or"),
        ("xor", "and"),
    ]
)
OBJECTIVES = st.sampled_from(["balanced", "min_total"])


@st.composite
def table_intervals(draw):
    """An exact interval ``[f, f]`` or a proper one ``[f ∧ g, f ∨ g]``
    over 2–6 variables, from a pair of truth tables."""
    left, right = draw(truth_table_pairs(min_vars=2, max_vars=6))
    manager = BDDManager(left.num_vars)
    variables = list(range(left.num_vars))
    f = left.to_bdd(manager, variables)
    if draw(st.booleans()):
        return manager, Interval.exact(manager, f)
    g = right.to_bdd(manager, variables)
    return manager, Interval(manager, manager.apply_and(f, g), manager.apply_or(f, g))


def _outcome(result):
    if result is None:
        return None
    return (result.gate, result.support1, result.support2, result.g1, result.g2)


def _assert_unpruned_agrees(decompose):
    """``decompose()`` as it runs equals ``decompose()`` with the
    predicate patched to never prune.  Both runs share the interval's
    manager, so equal functions are equal nodes."""
    pruned = _outcome(decompose())
    with mock.patch.object(api, "_cannot_win", return_value=False):
        assert _outcome(decompose()) == pruned


def _check_api(interval, gates, objective, require_nontrivial):
    _assert_unpruned_agrees(
        lambda: decompose_interval(
            interval,
            gates=gates,
            objective=objective,
            require_nontrivial=require_nontrivial,
        )
    )


def _check_sat_cegar(interval, gates, objective):
    _assert_unpruned_agrees(
        lambda: SatCegarBackend().decompose_interval(
            interval, gates=gates, objective=objective
        )
    )


class TestPrunedEqualsExhaustive:
    @given(table_intervals(), GATE_TUPLES, OBJECTIVES, st.booleans())
    def test_decompose_interval_on_tables(self, cone, gates, objective, nontrivial):
        _check_api(cone[1], gates, objective, nontrivial)

    @given(cones_with_dontcares(min_vars=2), GATE_TUPLES, OBJECTIVES, st.booleans())
    def test_decompose_interval_on_cones(self, cone, gates, objective, nontrivial):
        _check_api(cone[1], gates, objective, nontrivial)

    @given(table_intervals(), GATE_TUPLES, OBJECTIVES)
    def test_sat_cegar_on_tables(self, cone, gates, objective):
        _check_sat_cegar(cone[1], gates, objective)

    @given(cones_with_dontcares(min_vars=2), GATE_TUPLES, OBJECTIVES)
    def test_sat_cegar_on_cones(self, cone, gates, objective):
        _check_sat_cegar(cone[1], gates, objective)


@pytest.fixture
def counters():
    """Run a call with collection on; returns its ``bidec.*`` counters."""
    obs.disable()
    obs.reset()

    def run(call):
        with obs.scope():
            result = call()
        found = {
            name: value
            for name, value in obs.report()["counters"].items()
            if name.startswith("bidec.") and not name.startswith("bidec.param.")
        }
        obs.reset()
        return result, found

    yield run
    obs.reset()


def _two_ands():
    """``x0x1 + x2x3``: OR-decomposes at the support floor ``(2, 4)``."""
    m = BDDManager(4)
    x = [m.var(i) for i in range(4)]
    return m, x, m.apply_or(m.apply_and(x[0], x[1]), m.apply_and(x[2], x[3]))


class TestRules:
    def test_predicate_and_floor(self):
        assert not api._cannot_win((5, 9, 2), None)
        assert api._cannot_win((2, 4, 1), (2, 4, 0))
        assert not api._cannot_win((2, 4, 0), (2, 4, 1))
        assert not api._cannot_win((2, 3, 2), (2, 4, 0))
        m, _, f = _two_ands()
        assert api._support_floor(Interval.exact(m, f), 4) == (2, 4)
        assert api._support_floor(Interval.exact(m, f), 5) == (3, 5)
        proper = Interval.with_dont_cares(m, f, m.var(0))
        assert api._support_floor(proper, 4) == (0, 0)

    def test_floor_skips_later_gates(self, counters):
        m, _, f = _two_ands()
        result, found = counters(lambda: decompose_interval(Interval.exact(m, f)))
        assert result.gate == "or"
        assert found["bidec.skipped.and"] == found["bidec.skipped.xor"] == 1
        assert found["bidec.spaces.or"] == found["bidec.attempt.or"] == 1
        assert "bidec.spaces.and" not in found and "bidec.spaces.xor" not in found

    def test_floor_skips_later_cegar_searches(self, counters):
        m, _, f = _two_ands()
        sat = SatCegarBackend(fallback=False)
        result, found = counters(lambda: sat.decompose_interval(Interval.exact(m, f)))
        assert result.gate == "or"
        assert found["bidec.skipped.and"] == found["bidec.skipped.xor"] == 1
        assert "bidec.attempt.and" not in found and "bidec.attempt.xor" not in found

    def test_cegar_runs_a_losing_gate_before_one_that_can_win(self, counters):
        """With XOR listed first but searched last, an OR at the floor
        still lets XOR win a tie, so AND runs: skipping it alone would
        hand the XOR search more of the shared budget."""
        m, _, f = _two_ands()
        gates = ("xor", "or", "and")
        interval = Interval.exact(m, f)
        _, found = counters(
            lambda: SatCegarBackend().decompose_interval(interval, gates=gates)
        )
        assert found["bidec.attempt.and"] == 1
        assert "bidec.skipped.and" not in found
        _, found = counters(lambda: decompose_interval(interval, gates=gates))
        assert found["bidec.skipped.and"] == 1

    def test_proper_interval_has_no_floor(self, counters):
        """The best OR of ``x0x1 + x2x3`` with a don't care at
        ``x0x1x2x3`` sits at ``(2, 4)``, but a member of a proper
        interval may drop variables, so AND and XOR are still built."""
        m, x, f = _two_ands()
        interval = Interval.with_dont_cares(m, f, m.conjoin(x))
        _, found = counters(lambda: decompose_interval(interval))
        assert found["bidec.spaces.and"] == found["bidec.spaces.xor"] == 1
        assert not any(name.startswith("bidec.skipped.") for name in found)

    def test_losing_extraction_is_pruned(self, counters):
        """The multiplexer ``x0 ? x1 : x2`` OR-decomposes over
        ``{x0, x2}, {x0, x1}``, rank ``(2, 4, 0)``, above the floor
        ``(2, 3)``; AND's best pair ranks ``(2, 4, 1)``, so its space is
        built but never extracted."""
        m = BDDManager(3)
        f = m.ite(m.var(0), m.var(1), m.var(2))
        result, found = counters(lambda: decompose_interval(Interval.exact(m, f)))
        assert result.gate == "or"
        assert found["bidec.spaces.and"] == found["bidec.attempt.and"] == 1
        assert found["bidec.pruned.and"] == 1
        assert "bidec.extracted.and" not in found
        assert found["bidec.extracted.or"] == 1

    def test_losing_cegar_partition_is_not_extracted(self, counters):
        """On sat-cegar the multiplexer's AND and XOR searches each grow
        a partition of supports ``{x0, x2}, {x0, x1}``, ranked below
        OR's, so neither is extracted."""
        m = BDDManager(3)
        f = m.ite(m.var(0), m.var(1), m.var(2))
        sat = SatCegarBackend(fallback=False)
        result, found = counters(lambda: sat.decompose_interval(Interval.exact(m, f)))
        assert result.gate == "or"
        assert found["bidec.pruned.and"] == found["bidec.pruned.xor"] == 1
        assert "bidec.extracted.and" not in found
        assert "bidec.extracted.xor" not in found

    @pytest.mark.parametrize("backend", ["bdd", "sat-cegar"])
    def test_tie_goes_to_the_gate_listed_first(self, backend):
        """The multiplexer is ``x0x1 ⊕ ¬x0x2`` as well as ``x0x1 + ¬x0x2``:
        with XOR listed first it wins the tie, though sat-cegar searches
        it last."""
        from repro.bidec.backends import make_backend

        m = BDDManager(3)
        f = m.ite(m.var(0), m.var(1), m.var(2))
        result = make_backend(backend).decompose_interval(
            Interval.exact(m, f), gates=("xor", "or", "and")
        )
        assert result.gate == "xor"
        assert {result.support1, result.support2} == {
            frozenset({0, 1}),
            frozenset({0, 2}),
        }
