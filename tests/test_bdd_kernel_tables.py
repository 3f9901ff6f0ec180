"""Unit tests for the open-addressed array kernel: unique-table rehash,
direct-mapped op-cache eviction, clear semantics, gauge surfaces, and
native/pure-Python node-id parity.

The table-semantics classes run on the pure-Python cores; each has a
``...Native`` subclass that reruns it on the C kernel (skipped when the
kernel is unavailable)."""

import random

import pytest

from repro.bdd import native as _native
from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.bdd import quantify

requires_native = pytest.mark.skipif(
    _native.kernel() is None, reason="native kernel unavailable"
)


def _random_workload(manager, steps=1500, seed=7, num_vars=10):
    """A deterministic mixed-operator workload; returns the result log."""
    rng = random.Random(seed)
    nodes = [manager.var(i) for i in range(num_vars)]
    nodes += [manager.nvar(i) for i in range(num_vars)]
    log = []
    for step in range(steps):
        op = rng.randrange(5)
        f, g, h = (rng.choice(nodes) for _ in range(3))
        if op == 0:
            r = manager.apply_and(f, g)
        elif op == 1:
            r = manager.apply_or(f, g)
        elif op == 2:
            r = manager.apply_xor(f, g)
        elif op == 3:
            r = manager.ite(f, g, h)
        else:
            r = manager.negate(f)
        nodes.append(r)
        log.append(r)
        if step % 300 == 299:
            subset = sorted(rng.sample(range(num_vars), 3))
            log.append(quantify.exists(manager, r, subset))
            log.append(quantify.forall(manager, r, subset))
            log.append(quantify.and_exists(manager, f, g, subset))
    return log


class TestUniqueRehash:
    def test_canonicity_survives_rehash(self):
        """Nodes made before several rehashes are still found, not
        duplicated, afterwards."""
        m = BDDManager(16, native=False)
        early = [m._mk(0, FALSE, TRUE), m._mk(3, TRUE, FALSE)]
        # Grow well past several doublings of the initial 512 slots.
        made = {}
        rng = random.Random(1)
        for _ in range(4000):
            lvl = rng.randrange(16)
            lo, hi = rng.randrange(2), rng.randrange(2)
            if lo == hi:
                continue
            made[(lvl, lo, hi)] = m._mk(lvl, lo, hi)
        chain = TRUE
        for lvl in reversed(range(16)):
            chain = m._mk(lvl, FALSE, chain)
        for _ in range(3000):
            chain = m.apply_xor(chain, m.var(rng.randrange(16)))
        assert m.unique_size > 512  # really rehashed
        # Identical triples resolve to the identical pre-rehash nodes.
        assert m._mk(0, FALSE, TRUE) == early[0]
        assert m._mk(3, TRUE, FALSE) == early[1]
        for (lvl, lo, hi), node in made.items():
            assert m._mk(lvl, lo, hi) == node
        # Load factor invariant: rehash keeps occupancy under 75%.
        assert m.unique_load_factor() <= 0.75

    def test_node_arrays_grow_in_place(self):
        m = BDDManager(12, native=False)
        rng = random.Random(3)
        total = FALSE
        for _ in range(120):
            cube = m.cube({v: rng.random() < 0.5 for v in range(12)})
            total = m.apply_or(total, cube)
        assert m.num_nodes > 256  # grew past the initial capacity
        assert m.lo(m.num_nodes - 1) != m.hi(m.num_nodes - 1)
        assert m.evaluate(total, [False] * 12) in (True, False)


class TestOpCacheEviction:
    native = False

    def test_in_place_overwrites_are_counted(self):
        m = BDDManager(10, native=self.native)
        stats = m.enable_stats()
        _random_workload(m, steps=3000)
        # A direct-mapped bounded cache under a 3000-op random load must
        # have overwritten entries; the counter reflects it.
        assert stats.cache_evicted > 0
        sizes = m.cache_sizes()
        caps = m.cache_capacities()
        for name, used in sizes.items():
            assert 0 <= used <= max(caps[name], 1)

    def test_eviction_does_not_change_results(self):
        """The unique table is lossless, so cache eviction may cost time
        but never correctness — the same workload on a fresh manager
        (cold caches) produces the same nodes."""
        m1 = BDDManager(10, native=self.native)
        log1 = _random_workload(m1, steps=2500)
        m2 = BDDManager(10, native=self.native)
        log2 = _random_workload(m2, steps=2500)
        assert log1 == log2

    def test_caches_grow_deterministically(self):
        m = BDDManager(10, native=self.native)
        _random_workload(m, steps=2000)
        caps = m.cache_capacities()
        # Initial size is 256; a 2000-op workload grows the hot caches.
        assert caps["and"] >= 256 and caps["not"] >= 256
        m2 = BDDManager(10, native=self.native)
        _random_workload(m2, steps=2000)
        assert m2.cache_capacities() == caps

    def test_doubling_drops_entries(self):
        """An op cache past 50% occupancy doubles at the next operation
        and drops what it held: every dropped entry is an eviction."""
        m = BDDManager(12, native=self.native)
        stats = m.enable_stats()
        rng = random.Random(11)
        nodes = [m.var(i) for i in range(12)] + [m.nvar(i) for i in range(12)]
        nodes.append(m.apply_and(nodes[0], nodes[1]))  # allocates the caches
        # Only AND operations, so the occupancy check between them is the
        # AND cache's own entry check.
        while m.cache_sizes()["and"] * 2 <= m.cache_capacities()["and"] - 1:
            node = m.apply_and(*rng.sample(nodes, 2))
            if node > TRUE:
                nodes.append(node)
        held = m.cache_sizes()["and"]
        capacity = m.cache_capacities()["and"]
        evicted = stats.cache_evicted
        m.apply_and(m.var(0), m.var(1))
        assert m.cache_capacities()["and"] == 2 * capacity
        assert stats.cache_evicted - evicted >= held


@requires_native
class TestOpCacheEvictionNative(TestOpCacheEviction):
    native = True


def _thrash_one_apply(native):
    """Shrink the AND cache to 4 slots, then run one apply whose
    recursion has far more live subproblems than that.  Without the
    mid-call thrash escape the direct-mapped cache evicts its way into
    exponential recomputation; with it the cache doubles during the
    call.  Returns (result, capacities)."""
    from array import array

    from repro.bdd import manager as mgr

    m = BDDManager(14, native=native)
    # Two offset parity chains: their conjunction recurses over ~4 live
    # (a, b) pairs per level across 13 levels — far more than 4 slots.
    f = FALSE
    for i in range(13):
        f = m.apply_xor(f, m.var(i))
    g = FALSE
    for i in range(1, 14):
        g = m.apply_xor(g, m.var(i))
    m._and_k = array("q", bytes(8 * 4))
    m._and_v = array("q", bytes(8 * 4))
    m._ctrl[mgr._C_AND_MASK] = 3
    m._ctrl[mgr._C_AND_USED] = 0
    m._point("and_k", "and_v")
    return m.apply_and(f, g), m.cache_capacities()


class TestThrashGrowth:
    def test_python_core_grows_mid_call(self):
        result, caps = _thrash_one_apply(native=False)
        assert caps["and"] > 4

    @requires_native
    def test_native_core_grows_mid_call(self):
        """The C core signals thrash with a grow code; the restart must
        produce the same node id as the pure-Python escape."""
        result_py, _ = _thrash_one_apply(native=False)
        result_c, caps = _thrash_one_apply(native=True)
        assert result_c == result_py
        assert caps["and"] > 4


class TestQuantifyCaches:
    native = False

    def test_lossless_growth(self):
        """Quantification caches never evict: every previously computed
        (node, cube) result still hits after heavy growth."""
        m = BDDManager(12, native=self.native)
        rng = random.Random(5)
        funcs = []
        for _ in range(60):
            f = TRUE
            for v in rng.sample(range(12), 6):
                lit = m.var(v) if rng.random() < 0.5 else m.nvar(v)
                f = m.apply_and(f, m.apply_or(lit, m.var(rng.randrange(12))))
            funcs.append(f)
        subsets = [sorted(rng.sample(range(12), k)) for k in (2, 3, 4)]
        first = [
            quantify.exists(m, f, s) for f in funcs for s in subsets
        ]
        assert m.cache_sizes()["exists"] > 0
        assert m.cache_capacities()["exists"] > 256  # really rehashed
        stats = m.enable_stats()
        again = [
            quantify.exists(m, f, s) for f in funcs for s in subsets
        ]
        assert first == again
        assert stats.exists_misses == 0  # every repeat was a pure hit


@requires_native
class TestQuantifyCachesNative(TestQuantifyCaches):
    native = True


class TestClearCaches:
    native = False

    def test_clear_resets_all_tables_and_counts(self):
        m = BDDManager(10, native=self.native)
        stats = m.enable_stats()
        log = _random_workload(m, steps=800)
        expected = sum(m.cache_sizes().values())
        assert expected > 0
        evicted_before = stats.cache_evicted
        assert m.clear_caches() == expected
        assert all(v == 0 for v in m.cache_sizes().values())
        assert all(v == 0 for v in m.cache_capacities().values())
        assert stats.cache_evicted == evicted_before + expected
        assert stats.cache_clears == 1
        # No stale probe chains: the identical workload replays to the
        # identical results on the cleared caches.
        assert _random_workload(m, steps=800) == log


@requires_native
class TestClearCachesNative(TestClearCaches):
    native = True


class TestGauges:
    def test_monitor_sample_keys(self):
        m = BDDManager(6, native=False)
        _random_workload(m, steps=200, num_vars=6)
        sample = m.monitor_sample()
        for key in (
            "nodes", "unique", "cache_entries", "vars",
            "unique_capacity", "unique_load", "cache_capacity",
        ):
            assert key in sample
        assert sample["unique_capacity"] >= sample["unique"]
        assert 0.0 < sample["unique_load"] <= 0.75

    def test_table_metrics_shape(self):
        m = BDDManager(6, native=False)
        _random_workload(m, steps=200, num_vars=6)
        metrics = m.table_metrics()
        assert set(metrics) == {
            "unique", "cache.ite", "cache.and", "cache.or", "cache.xor",
            "cache.not", "cache.exists", "cache.forall",
            "cache.and_exists",
        }
        for row in metrics.values():
            assert row["used"] <= row["capacity"] or row["capacity"] == 0
            assert 0.0 <= row["load"] <= 1.0

    def test_stats_window_semantics(self):
        """enable_stats starts counting from now, not from birth."""
        m = BDDManager(8, native=False)
        _random_workload(m, steps=300, num_vars=8)
        stats = m.enable_stats()
        assert stats.inserts == 0
        m.apply_and(m.var(0), m.var(1))
        assert stats.inserts >= 1


@requires_native
class TestNativeParity:
    def test_node_ids_bit_identical(self):
        py = BDDManager(10, native=False)
        nat = BDDManager(10, native=True)
        assert not py.native and nat.native
        assert _random_workload(py, steps=4000) == _random_workload(
            nat, steps=4000
        )
        assert py.num_nodes == nat.num_nodes

    def test_stats_structural_parity(self):
        """Node-structure counters are exact across kernels.  Probe
        hit/miss counters may differ slightly: the native grow-and-
        restart protocol re-probes the partially-finished operation
        after a growth abort, recounting a few hits/misses the pure
        kernel (which grows inline) never sees, and op-cache occupancy
        differs with it."""
        py = BDDManager(10, native=False)
        nat = BDDManager(10, native=True)
        py.enable_stats()
        nat.enable_stats()
        _random_workload(py, steps=2000)
        _random_workload(nat, steps=2000)
        sp, sn = py.stats_snapshot(), nat.stats_snapshot()
        assert sp["unique.inserts"] == sn["unique.inserts"]
        assert sp["num_nodes"] == sn["num_nodes"]
        assert sp["unique_size"] == sn["unique_size"]
        for name in ("ite", "and", "or", "xor", "not"):
            p = sp[f"cache.{name}.hits"] + sp[f"cache.{name}.misses"]
            n = sn[f"cache.{name}.hits"] + sn[f"cache.{name}.misses"]
            assert abs(p - n) <= max(64, p // 100)

    def test_growth_restart_protocol(self):
        """Force node/unique growth inside native calls (initial
        capacities are tiny) and check canonicity afterwards."""
        nat = BDDManager(14, native=True)
        parity = FALSE
        for v in range(14):
            parity = nat.apply_xor(parity, nat.var(v))
        ref = BDDManager(14, native=False)
        parity_ref = FALSE
        for v in range(14):
            parity_ref = ref.apply_xor(parity_ref, ref.var(v))
        assert parity == parity_ref
        assert nat.num_nodes == ref.num_nodes

    def test_quantify_growth_parity(self):
        """The C rehash of the quantify caches matches the Python one:
        over a workload that doubles the exists, forall and and_exists
        caches several times, both kernels return the same nodes and
        hold the same quantify-cache entries."""
        managers = [BDDManager(16, native=flag) for flag in (False, True)]
        logs = []
        for m in managers:
            rng = random.Random(9)
            funcs = []
            for _ in range(40):
                f = FALSE
                for _ in range(4):
                    cube = {v: rng.random() < 0.5 for v in rng.sample(range(16), 5)}
                    f = m.apply_or(f, m.cube(cube))
                funcs.append(f)
            log = []
            for k in range(60):
                subset = sorted(rng.sample(range(16), 2 + k % 5))
                f, g = rng.sample(funcs, 2)
                log.append(quantify.exists(m, f, subset))
                log.append(quantify.forall(m, g, subset))
                log.append(quantify.and_exists(m, f, g, subset))
            logs.append(log)
        py, nat = managers
        assert logs[0] == logs[1]
        assert py.num_nodes == nat.num_nodes
        for name in ("exists", "forall", "and_exists"):
            assert py.cache_capacities()[name] >= 4 * 256  # doubled twice+
            assert py.cache_sizes()[name] == nat.cache_sizes()[name]
            assert py.cache_capacities()[name] == nat.cache_capacities()[name]


class TestRequireMode:
    def test_failed_load_raises_on_every_call(self, monkeypatch):
        """Under REPRO_NATIVE=require a failed build keeps failing: no
        later call quietly falls back to the pure-Python cores."""

        def failing_build():
            raise RuntimeError("simulated compiler failure")

        monkeypatch.setenv("REPRO_NATIVE", "require")
        monkeypatch.setattr(_native, "_build_and_load", failing_build)
        monkeypatch.setattr(_native, "_loaded", False)
        monkeypatch.setattr(_native, "_handle", None)
        monkeypatch.setattr(_native, "_failure", None)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="simulated compiler failure"):
                _native.kernel()
        with pytest.raises(RuntimeError, match="REPRO_NATIVE=require"):
            BDDManager()
