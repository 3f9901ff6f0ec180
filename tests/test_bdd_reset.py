"""``BDDManager.reset`` and the partition spaces' reused scratch manager.

A reset manager keeps its arrays' capacity but must be indistinguishable
from a fresh one to every caller: same nodes, same growth decisions, same
table layouts, same gauges and statistics.  The partition-space builders
take one such manager back from the callers that own a space's whole
life, and only from them."""

import gc

import pytest

from repro import obs
from repro.bdd import native as _native
from repro.bdd import quantify
from repro.bdd.manager import (
    _C_MASK,
    _C_NNODES,
    _C_UNIQ_MASK,
    _TABLE_ARRAYS,
    BDDManager,
)
from repro.bidec import api as _api
from repro.bidec import symbolic as _symbolic
from repro.intervals import Interval
from repro.synth.sharing import decompose_with_sharing

from test_bdd_kernel_tables import _random_workload

KERNELS = [
    pytest.param(False, id="python"),
    pytest.param(
        True,
        id="native",
        marks=pytest.mark.skipif(
            _native.kernel() is None, reason="native kernel unavailable"
        ),
    ),
]


def _prefixes(m):
    """Each table's live prefix, and whether every word past it is 0."""
    ctrl = m._ctrl
    n = ctrl[_C_NNODES]
    tables = {
        name: list(getattr(m, "_" + name))
        for name in ("level", "lo", "hi")
    }
    zero_tail = all(not any(getattr(m, "_" + name)[n:]) for name in tables)
    for name in tables:
        tables[name] = tables[name][:n]
    size = ctrl[_C_UNIQ_MASK] + 1
    tables["uniq"] = list(m._uniq[:size])
    zero_tail = zero_tail and not any(m._uniq[size:])
    for index, names in enumerate(_TABLE_ARRAYS):
        size = ctrl[_C_MASK + index] + 1 if ctrl[_C_MASK + index] else 0
        for name in names:
            arr = getattr(m, "_" + name)
            tables[name] = list(arr[:size]) if arr is not None else []
            zero_tail = zero_tail and (arr is None or not any(arr[size:]))
    return tables, zero_tail


def _big_unrelated_workload(m):
    for v in range(18):
        m.new_var(f"v{v}")
    _random_workload(m, steps=2500, seed=3, num_vars=18)
    quantify.exists(m, m.apply_xor(m.var(0), m.var(9)), [0, 5])
    m.intern_cube([1, 2, 3])
    m.support(m.var(4))


@pytest.mark.parametrize("native", KERNELS)
class TestResetEqualsFresh:
    def test_reads_as_fresh(self, native):
        m = BDDManager(native=native)
        _big_unrelated_workload(m)
        fresh = BDDManager(native=native)
        assert m.reset() is m
        assert m.num_nodes == 2 and m.num_vars == 0
        assert list(m._ctrl) == list(fresh._ctrl)
        assert list(m._stat_arr) == list(fresh._stat_arr)
        for read in ("cache_sizes", "cache_capacities", "table_metrics", "monitor_sample"):
            assert getattr(m, read)() == getattr(fresh, read)(), read
        assert m._supports == {} and m._var_nodes == [] and m._cube_table == {}
        m.new_var()
        assert m.intern_cube([0]).cube_id == 0
        assert _prefixes(m)[1]  # every word past a live prefix is zero

    def test_same_workload_same_everything(self, native):
        m = BDDManager(native=native)
        _big_unrelated_workload(m)
        m.reset()
        for _ in range(10):
            m.new_var()
        fresh = BDDManager(10, native=native)
        stats = [m.enable_stats(), fresh.enable_stats()]
        logs = [_random_workload(x, steps=1500) for x in (m, fresh)]
        assert logs[0] == logs[1]
        assert list(m._ctrl) == list(fresh._ctrl)
        assert _prefixes(m) == _prefixes(fresh)
        assert m.cache_capacities() == fresh.cache_capacities()
        assert m.table_metrics() == fresh.table_metrics()
        counters = [stat.as_dict() for stat in stats]
        calls = [counter.pop("kernel_calls") for counter in counters]
        assert counters[0] == counters[1]
        # The kernel doubles in place what fits the kept arrays, without
        # the calls a growth made in Python costs.
        assert calls[0] < calls[1] if native else calls == [0, 0]
        assert len(m._level) > len(fresh._level)  # the capacity was kept

    def test_growth_within_capacity_allocates_nothing(self, native):
        m = BDDManager(native=native)
        _big_unrelated_workload(m)
        arrays = {name: getattr(m, "_" + name) for name in ("level", "uniq", "and_k", "ex_k")}
        lengths = {name: len(arr) for name, arr in arrays.items()}
        m.reset()
        pointed = []
        real_point = m._point
        m._point = lambda *names: (pointed.extend(names), real_point(*names))
        for _ in range(10):
            m.new_var()
        _random_workload(m, steps=600)
        assert m.num_nodes > 256 and m.cache_capacities()["and"] > 256
        assert pointed == []
        for name, arr in arrays.items():
            assert getattr(m, "_" + name) is arr and len(arr) == lengths[name]

    def test_reset_after_clear_caches(self, native):
        m = BDDManager(6, native=native)
        _random_workload(m, steps=300, num_vars=6)
        m.clear_caches()
        m.reset()
        for _ in range(6):
            m.new_var()
        fresh = BDDManager(6, native=native)
        assert _random_workload(m, steps=300, num_vars=6) == _random_workload(
            fresh, steps=300, num_vars=6
        )
        assert list(m._ctrl) == list(fresh._ctrl)


@pytest.fixture
def clean_obs():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestResetObservability:
    def test_lives_are_counted_and_folded(self, clean_obs):
        obs.enable()
        m = BDDManager(4)
        m.apply_and(m.var(0), m.var(1))
        inserts = m.stats.inserts
        m.reset()
        m.new_var()
        m.new_var()
        m.apply_or(m.var(0), m.var(1))
        second = m.stats.inserts
        report = obs.report()
        assert report["gauges"]["bdd.managers.total"] == 2
        assert report["gauges"]["bdd.managers.reused"] == 1
        assert report["gauges"]["bdd.managers.live"] == 1
        assert report["counters"]["bdd.unique.inserts"] == inserts + second
        assert report["gauges"]["bdd.nodes.peak"] == max(inserts, second) + 2
        del m
        gc.collect()
        assert obs.report()["counters"]["bdd.unique.inserts"] == inserts + second

    def test_manager_built_while_off_is_tracked_after_reset(self, clean_obs):
        m = BDDManager(3)
        m.apply_and(m.var(0), m.var(1))
        assert m.stats is None
        obs.enable()
        m.reset()
        assert m.stats is not None and m.stats.inserts == 0
        m.new_var()
        m.var(0)
        report = obs.report()
        assert report["gauges"]["bdd.managers.total"] == 1
        assert report["gauges"]["bdd.managers.reused"] == 1
        assert report["counters"]["bdd.unique.inserts"] == 1

    def test_reset_while_off_untracks(self, clean_obs):
        obs.enable()
        m = BDDManager(2)
        m.var(0)
        obs.disable()
        m.reset()
        assert m.stats is None
        assert obs.report()["counters"]["bdd.unique.inserts"] == 1


def _interval(seed=0):
    m = BDDManager(6)
    x = [m.var(i) for i in range(6)]
    f = m.apply_or(m.apply_and(x[0], x[1]), m.apply_xor(x[2], m.apply_and(x[3], x[4])))
    care = m.negate(m.apply_and(x[5], x[seed % 5]))
    return Interval(m, m.apply_and(f, care), m.apply_or(f, m.negate(care)))


def _summary(result):
    return result.gate, result.support1, result.support2, result.g1, result.g2


class TestHandBack:
    def test_second_call_reuses_the_spare(self, monkeypatch):
        monkeypatch.setattr(_symbolic, "_spares", [])
        first = _api.decompose_interval(_interval())
        assert [type(m) for m in _symbolic._spares] == [BDDManager]

        def no_new_manager(*args, **kwargs):
            raise AssertionError("built a new manager")

        monkeypatch.setattr(_symbolic, "BDDManager", no_new_manager)
        second = _api.decompose_interval(_interval())
        assert _summary(second) == _summary(first)

    def test_reuse_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(_symbolic, "_spares", [])
        reused = [_summary(_api.decompose_interval(_interval(s))) for s in range(4)]
        # Without hand-back every space gets a fresh manager.
        monkeypatch.setattr(_symbolic, "release_space", lambda space: None)
        monkeypatch.setattr(_symbolic, "_spares", [])
        fresh = [_summary(_api.decompose_interval(_interval(s))) for s in range(4)]
        assert reused == fresh

    def test_directly_built_space_is_never_reset(self, monkeypatch):
        monkeypatch.setattr(_symbolic, "_spares", [])
        _api.decompose_interval(_interval(1))  # leaves a spare
        space = _symbolic.or_partition_space(_interval(2))  # takes it
        best = space.best_balanced_pair()
        m = space.manager
        snapshot = (m.num_nodes, list(m._level[: m.num_nodes]), list(m._lo[: m.num_nodes]))
        for seed in range(3):
            _api.decompose_interval(_interval(seed))
        decompose_with_sharing(_interval(3), {})
        assert m not in _symbolic._spares
        assert snapshot == (m.num_nodes, list(m._level[: m.num_nodes]), list(m._lo[: m.num_nodes]))
        assert space.best_balanced_pair() == best

    def test_or_body_on_reset_scratch_equals_fresh(self, monkeypatch):
        """After an OR body, a reset scratch manager's interned cubes —
        ids and variable sets — and every table, the quantify caches
        included, equal a fresh manager's."""
        monkeypatch.setattr(_symbolic, "_spares", [])
        first = _symbolic.or_partition_space(_interval(0))
        _symbolic.release_space(first)
        reused = _symbolic.or_partition_space(_interval(1))
        assert reused.manager is first.manager
        monkeypatch.setattr(_symbolic, "_spares", [])
        fresh = _symbolic.or_partition_space(_interval(1))
        assert fresh.manager is not reused.manager
        assert reused.bi == fresh.bi

        def cubes(m):
            return [(cube.cube_id, sorted(cube.vars)) for cube in m._cube_table.values()]

        assert cubes(reused.manager) == cubes(fresh.manager)
        assert len(cubes(fresh.manager)) == len(reused.variables) + 1
        assert list(reused.manager._ctrl) == list(fresh.manager._ctrl)
        assert _prefixes(reused.manager) == _prefixes(fresh.manager)

    def test_sharing_choice_hands_back(self, monkeypatch):
        monkeypatch.setattr(_symbolic, "_spares", [])
        decompose_with_sharing(_interval(), {})
        assert [type(m) for m in _symbolic._spares] == [BDDManager]

    def test_traced_lives_and_reuses(self, monkeypatch, clean_obs):
        monkeypatch.setattr(_symbolic, "_spares", [])
        built = []
        real = _symbolic._make_scratch
        monkeypatch.setattr(
            _symbolic, "_make_scratch", lambda *a, **k: built.append(1) or real(*a, **k)
        )
        obs.enable()
        for seed in range(2):
            _api.decompose_interval(_interval(seed))
        gauges = obs.report()["gauges"]
        assert gauges["bdd.managers.total"] == len(built) + 2  # + the intervals'
        assert gauges["bdd.managers.reused"] == len(built) - 1
