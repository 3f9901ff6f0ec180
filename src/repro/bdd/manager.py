"""Core binary decision diagram manager.

This module implements a reduced ordered BDD (ROBDD) package from scratch:
a shared unique table, the generic ``ite`` operator, and specialised binary
operators (AND, OR, XOR) with operation caches.  Nodes are plain integers
indexing into parallel arrays; the
:class:`~repro.bdd.function.Function` wrapper offers an operator-overloaded
facade on top of this integer API.

Storage layout
--------------

All hot-path state lives in flat preallocated ``array('q')`` buffers —
no per-probe tuple or boxed-key allocation, and the same memory is
shared byte-for-byte with the optional native kernel
(:mod:`repro.bdd.native`):

* ``_level/_lo/_hi`` — parallel node arrays with explicit capacity and a
  node counter (``ctrl[NNODES]``); they grow in place by doubling.
* ``_uniq`` — the unique table as an open-addressed, linearly probed
  power-of-two slot array holding node indices (0 = empty; the
  terminals never occupy a slot).  Key comparison reads the node arrays
  directly, so the ``(level, lo, hi)`` triple never needs to fit one
  packed word.  The table grows by rehash above 75% load; every
  internal node is always live (there is no garbage collection), so a
  rehash is a straight re-seating of nodes ``2..n``.
* operation caches (``ite``/AND/OR/XOR/NOT) — bounded direct-mapped
  tables (a linear probe of length one) with in-place eviction, CUDD
  style: binary keys pack as ``f << 31 | g`` into one 64-bit word, the
  ternary ``ite`` key keeps its third operand in a parallel array.
  They start small and double deterministically at 50% occupancy up to
  a fixed cap, then evict in place.  A doubling *drops* the cache's
  entries rather than re-seating them: op caches never decide node
  numbering, so a dropped entry costs at most a recomputation.  Every
  in-place overwrite and every dropped entry counts as an eviction in
  :class:`ManagerStats`.
* quantification caches (``exists``/``forall``/``and_exists``) — *lossless*
  open-addressed tables that grow by rehash (no eviction): persistence
  across calls is what the image-computation loops rely on.  The cores
  that fill them live here too, behind the public functions of
  :mod:`repro.bdd.quantify`: one core for ∃ and ∀, selected by the
  table's index, and one for ``and_exists``.
* ``ctrl`` — a 20-slot control block holding the node count and
  capacity, the unique table's mask and occupancy, and the mask and
  occupancy of each of the eight cache tables.
* ``stat_arr`` — the counters behind :class:`ManagerStats`: cache table
  ``t`` counts its hits at ``2t`` and its misses at ``2t + 1``, then
  come the unique-table inserts, cache clears and evictions.
* ``calls`` — one word that every kernel entry bumps once per call from
  Python (``kernel_calls`` in :class:`ManagerStats`; 0 on pure-Python
  managers).  It is kept apart from ``stat_arr``, so a kernel entry and
  the Python loop it replaces leave the same statistics.

Every cache table is found by its index ``t`` in ``_TABLES`` alone —
its arrays, its mask and occupancy in ``ctrl``, its counters — in both
kernels.

A table's *capacity* — the length of its arrays — is separate from its
*mask*, the size the growth policy has reached.  :meth:`BDDManager.reset`
returns a manager to the state of a fresh one: it zeroes the prefix of
each buffer the ending life used and writes the fresh masks and node
capacity into ``ctrl``, but every array keeps its length.  A doubling
that fits the capacity then happens in place — an op cache zeroes its
entries, the unique table and a quantification cache re-seat theirs in
their own zeroed prefix — with no new array and no re-pointing of the
kernel; only a doubling past the capacity extends the arrays.  Every
word past a table's mask (past the node count, for the node arrays)
stays zero, so a reset manager takes the same growth decisions and
leaves the same layouts as a fresh one.

The operator cores are *iterative*: each runs an explicit work stack
instead of recursing, so chain-shaped BDDs thousands of levels deep
neither pay per-frame Python call overhead nor hit the interpreter
recursion limit.  When the native kernel is available the frames run in
C over the same buffers, reached through one ``bdd_state`` struct that
the manager builds once and re-points only when a growth replaces or
resizes a buffer; the kernel checks op-cache occupancy and rehashes the
quantification caches itself.  The pure-Python cores below are the
fallback and mirror the C traversal order exactly, so **node numbering
is bit-identical across kernels** — determinism contracts hold no
matter which side executed.

Conventions
-----------

* Node ``0`` is the constant FALSE terminal and node ``1`` the constant
  TRUE terminal.
* Variables are integers ``0, 1, 2, ...`` in creation order, and the
  variable index *is* the level: variable 0 is at the top of every diagram.
  (Reordering is done by rebuilding into a fresh manager, see
  :func:`repro.bdd.compose.transfer`.)
* Every internal node satisfies the ROBDD invariants: ``lo != hi`` and the
  children's levels are strictly greater than the node's level.
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence

from repro import obs as _obs

#: Pseudo-level assigned to the two terminal nodes; larger than any real
#: variable level so that terminals always sort below internal nodes.
TERMINAL_LEVEL = 1 << 30

FALSE = 0
TRUE = 1

# Hash multipliers shared with the C kernel (see _kernel.c).  Operands
# stay below 2^31, so the mixed sums stay below 2^64 and Python's exact
# integers agree with C's uint64 arithmetic without masking.
_M1 = 2654435761  # 0x9E3779B1
_M2 = 2246822519  # 0x85EBCA77
_M3 = 3266489917  # 0xC2B2AE3D

# ctrl[] slots — keep in sync with _kernel.c.  Cache table t (see
# _TABLES) keeps its slot mask at _C_MASK + t (0 while unallocated) and
# its live-entry count at _C_USED + t.
_C_NNODES = 0
_C_NODECAP = 1
_C_UNIQ_MASK = 2
_C_UNIQ_USED = 3
_C_MASK = 4
_C_USED = 12
_CTRL_SLOTS = 20

#: Cache tables in ctrl[], stats[] and kernel growth-code order: the five
#: direct-mapped op caches, then the three lossless quantify caches.
_TABLES = ("and", "or", "xor", "not", "ite", "exists", "forall", "and_exists")
_T_AND, _T_OR, _T_XOR, _T_NOT, _T_ITE, _T_EX, _T_FA, _T_AE = range(8)
_TABLE_INDEX = {name: index for index, name in enumerate(_TABLES)}
_N_OPCACHES = _T_EX

#: Each table's arrays, keys first and values last: manager attribute
#: ``_<name>``, ``bdd_state`` field ``<name>``.
_TABLE_ARRAYS = (
    ("and_k", "and_v"),
    ("or_k", "or_v"),
    ("xor_k", "xor_v"),
    ("not_k", "not_v"),
    ("ite_ka", "ite_kb", "ite_v"),
    ("ex_k", "ex_v"),
    ("fa_k", "fa_v"),
    ("ae_k1", "ae_k2", "ae_v"),
)
_OPCACHE_ARRAYS = sum(_TABLE_ARRAYS[:_N_OPCACHES], ())
_QCACHE_ARRAYS = sum(_TABLE_ARRAYS[_N_OPCACHES:], ())
#: Reads a manager's arrays of table t, in _TABLE_ARRAYS order.
_ARRAYS_OF = tuple(
    attrgetter(*("_" + name for name in names)) for names in _TABLE_ARRAYS
)

# stats[] slots — keep in sync with _kernel.c.  Cache table t counts its
# hits at 2t and its misses at 2t + 1; the unique-table inserts, cache
# clears and evictions follow.
_S_INSERTS = 2 * len(_TABLES)
_S_CLEARS = _S_INSERTS + 1
_S_EVICTED = _S_INSERTS + 2
_N_STATS = _S_INSERTS + 3

# Kernel return codes besides growth requests (keep in sync with
# _kernel.c): a node id the manager never made, a transfer level that
# var_map lacks or maps to an undeclared variable, a step program's op
# code the interpreter does not know, and an isop step on an interval
# whose lower bound is not below its upper one.
_BAD_NODE = -4
_BAD_VAR = -5
_BAD_OP = -64
_INCONSISTENT = -65

#: Initial node-array capacity (entries).
_NODE_INIT = 1 << 8
#: Initial unique-table slot count; grows by rehash above 75% load.
_UNIQUE_INIT = 1 << 9
#: Initial / maximum direct-mapped op-cache slot counts.  Caches double
#: deterministically at 50% occupancy until the cap, then evict in place.
_OPCACHE_INIT = 1 << 8
_OPCACHE_MAX = 1 << 16
#: Initial quantification-cache slot count (grows by rehash, lossless).
_QCACHE_INIT = 1 << 8


def _zero(arr: array, count: int) -> None:
    """Zero the first ``count`` entries of ``arr`` in place (the
    pure-Python side of the kernel's prefix clears)."""
    arr[:count] = array("q", bytes(8 * count))


def _bad_node(node: int) -> ValueError:
    return ValueError(f"node {node} was not made by this manager")


def _first_bad(count: int, *nodes: int) -> int:
    """The first of ``nodes`` that is not below the node count ``count``."""
    return next(node for node in nodes if not 0 <= node < count)


class VarCube:
    """An interned set of quantification variables.

    Quantification results are cached at the manager level under
    ``(node, cube_id)`` keys; interning the variable set once gives every
    repeat of ``∃x f`` / ``∀x f`` a stable small integer to key on.
    Obtain instances through :meth:`BDDManager.intern_cube` — identity
    matters, do not construct these directly.
    """

    __slots__ = ("cube_id", "vars", "max_level", "_levels", "_view", "_ffi")

    def __init__(
        self, cube_id: int, vars: FrozenSet[int], max_level: int, ffi=None
    ) -> None:
        self.cube_id = cube_id
        self.vars = vars
        self.max_level = max_level
        self._levels: Optional[array] = None
        self._view = None
        self._ffi = ffi

    @property
    def levels(self) -> array:
        """Sorted flat copy of ``vars``, made on first use: the native
        quantify core scans it for level membership, while the loop
        entries key one-variable cubes by id alone."""
        if self._levels is None:
            self._levels = array("q", sorted(self.vars))
        return self._levels

    @property
    def view(self):
        """``levels`` exported to the native kernel, once, on first use
        (``None`` on pure-Python managers)."""
        if self._view is None and self._ffi is not None:
            self._view = self._ffi.from_buffer("int64_t[]", self.levels)
        return self._view

    def __iter__(self) -> Iterator[int]:
        return iter(self.vars)

    def __len__(self) -> int:
        return len(self.vars)

    def __contains__(self, var: int) -> bool:
        return var in self.vars

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VarCube #{self.cube_id} vars={sorted(self.vars)}>"


#: Every counter as (``ManagerStats`` attribute, obs ``bdd`` key), in
#: stats-slot order.
_COUNTERS = tuple(
    (f"{name}_{kind}", f"cache.{name}.{kind}")
    for name in _TABLES
    for kind in ("hits", "misses")
) + (
    ("inserts", "unique.inserts"),
    ("cache_clears", "cache.clears"),
    ("cache_evicted", "cache.evicted"),
)
#: Attribute -> stats-array slot, defining the public counter API.
_STAT_INDEX = {attribute: slot for slot, (attribute, _) in enumerate(_COUNTERS)}


class ManagerStats:
    """Per-manager instrumentation counters.

    The raw counters live in the manager's shared ``array('q')`` stats
    buffer — the C kernel increments them for free, the Python cores
    with one array store — and this object is a *window* over that
    buffer: each named counter reads as the delta since
    :meth:`BDDManager.enable_stats` captured its baseline, preserving
    the historical "counting begins now" semantics.  ``kernel_calls``
    reads the manager's kernel call counter the same way (0 on
    pure-Python managers).  ``None`` on untracked managers.

    Structural counters (``inserts``) are exact and kernel-independent;
    probe counters (hits/misses), ``cache_evicted`` and op-cache
    occupancy can differ marginally between the native and pure-Python
    kernels, because the native grow-and-restart protocol re-probes a
    partially-finished operation after a growth abort and the kernels
    may double (and so drop) an op cache at slightly different points.
    Node numbering is unaffected either way.
    """

    __slots__ = ("_arr", "_base", "_calls", "_calls_base")

    def __init__(
        self, arr: array, base: array, calls: array, calls_base: int
    ) -> None:
        object.__setattr__(self, "_arr", arr)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_calls", calls)
        object.__setattr__(self, "_calls_base", calls_base)

    def __getattr__(self, name: str) -> int:
        if name == "kernel_calls":
            return self._calls[0] - self._calls_base
        try:
            index = _STAT_INDEX[name]
        except KeyError:
            raise AttributeError(name) from None
        return self._arr[index] - self._base[index]

    def __setattr__(self, name: str, value: int) -> None:
        try:
            index = _STAT_INDEX[name]
        except KeyError:
            raise AttributeError(name) from None
        self._arr[index] = value + self._base[index]

    def as_dict(self) -> dict[str, int]:
        """Counter snapshot under the names the obs ``bdd`` family uses."""
        arr = self._arr
        base = self._base
        counters = {
            key: arr[slot] - base[slot] for slot, (_, key) in enumerate(_COUNTERS)
        }
        counters["kernel_calls"] = self._calls[0] - self._calls_base
        return counters


class BDDManager:
    """A shared pool of ROBDD nodes over a common variable order.

    All functions created through one manager may be freely combined with
    each other; mixing nodes from different managers is an error (use
    :func:`repro.bdd.compose.transfer` to move functions between managers).

    Parameters
    ----------
    num_vars:
        Number of variables to pre-declare (they get default names
        ``x0, x1, ...``).  More can be added later with :meth:`new_var`.
    native:
        ``True``/``False`` forces the native C kernel on or off for this
        manager; ``None`` (the default) uses it when
        :func:`repro.bdd.native.kernel` loads.  Both kernels produce
        identical node numbering.
    auto_reorder_threshold:
        When set, :meth:`reorder_due` reports ``True`` once the manager
        has grown by this many nodes since the last
        :meth:`mark_reordered` — the growth trigger the engine's
        auto-reorder hooks poll at safe points.  ``None`` disables the
        trigger.
    """

    def __init__(
        self,
        num_vars: int = 0,
        native: Optional[bool] = None,
        auto_reorder_threshold: Optional[int] = None,
    ) -> None:
        self._ctrl = array("q", bytes(8 * _CTRL_SLOTS))
        self._stat_arr = array("q", bytes(8 * _N_STATS))
        self._calls = array("q", [0])
        # Parallel node arrays; slots 0/1 are the terminals.
        self._level = array("q", bytes(8 * _NODE_INIT))
        self._lo = array("q", bytes(8 * _NODE_INIT))
        self._hi = array("q", bytes(8 * _NODE_INIT))
        self._level[0] = TERMINAL_LEVEL
        self._level[1] = TERMINAL_LEVEL
        self._hi[1] = 1
        self._lo[1] = 1
        self._ctrl[_C_NNODES] = 2
        self._ctrl[_C_NODECAP] = _NODE_INIT
        self._uniq = array("q", bytes(8 * _UNIQUE_INIT))
        self._ctrl[_C_UNIQ_MASK] = _UNIQUE_INIT - 1
        # Operation caches are allocated lazily on the first operator
        # call — transfer-only managers (reordering cost probes) never
        # pay for them.
        self._and_k = self._and_v = None
        self._or_k = self._or_v = None
        self._xor_k = self._xor_v = None
        self._not_k = self._not_v = None
        self._ite_ka = self._ite_kb = self._ite_v = None
        # Persistent quantification caches, keyed by (node, cube_id) —
        # see "Quantification" below.  Interned cubes live for the
        # manager's lifetime (bounded by the number of distinct variable
        # sets).
        self._ex_k = self._ex_v = None
        self._fa_k = self._fa_v = None
        self._ae_k1 = self._ae_k2 = self._ae_v = None
        self._cube_table: dict[FrozenSet[int], VarCube] = {}
        self._var_names: list[str] = []
        self._name_to_var: dict[str, int] = {}
        # Per-manager memos of facts that never change, because nodes
        # are append-only and never renumbered: each variable's positive
        # literal node (0 until first asked for) and each queried root's
        # support (dropped by clear_caches).
        self._var_nodes: list[int] = []
        self._supports: dict[int, FrozenSet[int]] = {}
        self._stats: Optional[ManagerStats] = None
        # Native kernel wiring: the kernel's bdd_state (one pointer per
        # buffer) and the cffi views that keep those buffers exported.
        self._ffi = None
        self._lib = None
        self._st = None
        self._walk = None
        self._views: Optional[dict] = None
        if native is not False:
            from repro.bdd import native as _native

            handle = _native.kernel()
            if handle is not None:
                self._ffi, self._lib = handle
                self._init_state()
            elif native is True:
                raise RuntimeError(
                    "native=True but the native BDD kernel is unavailable"
                )
        # Auto-reorder growth trigger (polled by engine/reach hooks).
        self.auto_reorder_threshold = auto_reorder_threshold
        self.reorders = 0
        self._last_reorder_nodes = 2
        if _obs.enabled():
            self.enable_stats()
        for _ in range(num_vars):
            self.new_var()

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    @property
    def stats(self) -> Optional[ManagerStats]:
        """Cache/unique-table counters, or ``None`` when untracked."""
        return self._stats

    def enable_stats(self) -> ManagerStats:
        """Start tracking operation statistics on this manager (counting
        begins now; managers built while ``repro.obs`` is enabled track
        from birth automatically)."""
        if self._stats is None:
            self._stats = ManagerStats(
                self._stat_arr, array("q", self._stat_arr), self._calls, self._calls[0]
            )
            _obs.track_bdd_manager(self)
        return self._stats

    @property
    def native(self) -> bool:
        """True when this manager's operator cores run in the C kernel."""
        return self._lib is not None

    @property
    def unique_size(self) -> int:
        """Number of unique-table entries (internal nodes)."""
        return self._ctrl[_C_UNIQ_USED]

    def cache_sizes(self) -> dict[str, int]:
        """Current entry counts of the operation and quantification
        caches (see :meth:`table_metrics` for occupancy *and* capacity)."""
        ctrl = self._ctrl
        return {name: ctrl[_C_USED + index] for index, name in enumerate(_TABLES)}

    def cache_capacities(self) -> dict[str, int]:
        """Allocated slot counts per cache (0 while lazily unallocated)."""
        return {name: self._capacity(index) for index, name in enumerate(_TABLES)}

    def _capacity(self, index: int) -> int:
        mask = self._ctrl[_C_MASK + index]
        return mask + 1 if mask else 0

    def unique_load_factor(self) -> float:
        """Unique-table occupancy fraction (entries / slots)."""
        return self._ctrl[_C_UNIQ_USED] / (self._ctrl[_C_UNIQ_MASK] + 1)

    def table_metrics(self) -> dict[str, dict[str, float]]:
        """Per-table pressure gauges: occupancy, capacity, and load
        factor for the unique table and every cache — the detail view
        behind the RuntimeMonitor heartbeat and ``repro trace``
        summaries."""
        metrics: dict[str, dict[str, float]] = {
            "unique": {
                "used": self._ctrl[_C_UNIQ_USED],
                "capacity": self._ctrl[_C_UNIQ_MASK] + 1,
                "load": round(self.unique_load_factor(), 4),
            }
        }
        capacities = self.cache_capacities()
        for name, used in self.cache_sizes().items():
            capacity = capacities[name]
            metrics[f"cache.{name}"] = {
                "used": used,
                "capacity": capacity,
                "load": round(used / capacity, 4) if capacity else 0.0,
            }
        return metrics

    def monitor_sample(self) -> dict[str, int]:
        """Cheap structural gauges for the runtime monitor: node/unique
        counts, summed cache entries/capacity, and the unique-table load
        factor.  Reads only scalar counters, so it is safe to call from
        a sampler thread while operator cores are running."""
        ctrl = self._ctrl
        tables = range(len(_TABLES))
        cache_entries = sum(ctrl[_C_USED + index] for index in tables)
        capacity = sum(self._capacity(index) for index in tables)
        unique_capacity = ctrl[_C_UNIQ_MASK] + 1
        return {
            "nodes": ctrl[_C_NNODES],
            "unique": ctrl[_C_UNIQ_USED],
            "cache_entries": cache_entries,
            "vars": self.num_vars,
            "unique_capacity": unique_capacity,
            "unique_load": round(ctrl[_C_UNIQ_USED] / unique_capacity, 4),
            "cache_capacity": capacity,
        }

    def stats_snapshot(self) -> dict[str, int]:
        """Point-in-time statistics: structure gauges plus (when tracked)
        the operation counters."""
        snapshot = {
            "num_vars": self.num_vars,
            "num_nodes": self.num_nodes,
            "unique_size": self.unique_size,
            **{
                f"cache.{name}.size": size
                for name, size in self.cache_sizes().items()
            },
        }
        if self._stats is not None:
            snapshot.update(self._stats.as_dict())
        return snapshot

    # ------------------------------------------------------------------
    # Auto-reorder growth trigger
    # ------------------------------------------------------------------

    def reorder_due(self) -> bool:
        """True when the node count has grown past the configured
        threshold since the last :meth:`mark_reordered` — the signal the
        engine's pass-boundary and reach-iteration hooks poll."""
        threshold = self.auto_reorder_threshold
        if threshold is None:
            return False
        return self._ctrl[_C_NNODES] - self._last_reorder_nodes >= threshold

    def mark_reordered(self) -> None:
        """Reset the growth trigger (called after a reorder/compaction
        rebuilt the working set, on the manager that carries on)."""
        self._last_reorder_nodes = self._ctrl[_C_NNODES]

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var_names)

    def new_var(self, name: Optional[str] = None) -> int:
        """Declare a fresh variable (appended at the bottom of the order).

        Returns the variable index.  Raises ``ValueError`` on a duplicate
        name.
        """
        index = len(self._var_names)
        if name is None:
            name = f"x{index}"
        if name in self._name_to_var:
            raise ValueError(f"duplicate variable name: {name!r}")
        self._var_names.append(name)
        self._name_to_var[name] = index
        self._var_nodes.append(0)
        return index

    def new_vars(self, count: int, prefix: str = "x") -> list[int]:
        """Declare ``count`` fresh variables named ``{prefix}{i}``."""
        start = len(self._var_names)
        return [self.new_var(f"{prefix}{start + i}") for i in range(count)]

    def declare_vars(self, names: Sequence[str]) -> range:
        """Declare one fresh variable per name, in order, in one call:
        the same indices, names and :meth:`var_index` results as a
        :meth:`new_var` per name.  Returns the new indices.  Raises
        ``ValueError``, declaring nothing, when a name repeats or is
        taken."""
        start = len(self._var_names)
        indices = range(start, start + len(names))
        table = dict(zip(names, indices))
        if len(table) != len(names) or not table.keys().isdisjoint(self._name_to_var):
            seen = set(self._name_to_var)
            for name in names:
                if name in seen:
                    raise ValueError(f"duplicate variable name: {name!r}")
                seen.add(name)
        self._var_names.extend(names)
        self._name_to_var.update(table)
        self._var_nodes.extend([0] * len(names))
        return indices

    def var_name(self, var: int) -> str:
        """Name of variable ``var``."""
        return self._var_names[var]

    def var_index(self, name: str) -> int:
        """Variable index for ``name``; raises ``KeyError`` if unknown."""
        return self._name_to_var[name]

    def var(self, var: int) -> int:
        """Node for the positive literal of variable ``var``.

        The node is made on the first call and remembered: later calls
        return it without probing the unique table."""
        nodes = self._var_nodes
        if not 0 <= var < len(nodes):
            raise ValueError(f"variable {var} not declared")
        node = nodes[var]
        if node == 0:
            node = nodes[var] = self._mk(var, FALSE, TRUE)
        return node

    def nvar(self, var: int) -> int:
        """Node for the negative literal of variable ``var``."""
        if not 0 <= var < len(self._var_names):
            raise ValueError(f"variable {var} not declared")
        return self._mk(var, TRUE, FALSE)

    def literal(self, var: int, positive: bool) -> int:
        """Node for the literal of ``var`` with the given polarity."""
        return self.var(var) if positive else self.nvar(var)

    # ------------------------------------------------------------------
    # Quantification cubes
    # ------------------------------------------------------------------

    def intern_cube(self, variables: "Iterable[int] | VarCube") -> VarCube:
        """Intern a set of variables as a :class:`VarCube`.

        The same variable set always maps to the same cube object (and
        ``cube_id``), which is what makes the persistent quantification
        caches shareable across calls.  Passing an existing cube returns
        it unchanged.  A new cube over a variable outside
        ``0..num_vars-1`` raises ``ValueError``.
        """
        if isinstance(variables, VarCube):
            return variables
        key = frozenset(variables)
        cube = self._cube_table.get(key)
        if cube is None:
            max_level = -1
            if key:
                # The extremes bound the rest.
                low, max_level = min(key), max(key)
                for var in (low, max_level):
                    if not 0 <= var < len(self._var_names):
                        raise ValueError(f"variable {var} not declared")
            cube = VarCube(len(self._cube_table), key, max_level, self._ffi)
            self._cube_table[key] = cube
        return cube

    # ------------------------------------------------------------------
    # Node structure access
    # ------------------------------------------------------------------

    def level(self, node: int) -> int:
        """Level (== variable index) of ``node``; terminals report a
        sentinel larger than any variable level."""
        return self._level[node]

    def top_var(self, node: int) -> int:
        """Top variable of a non-terminal ``node``."""
        lvl = self._level[node]
        if lvl == TERMINAL_LEVEL:
            raise ValueError("terminal node has no top variable")
        return lvl

    def lo(self, node: int) -> int:
        """Low (else) child of ``node``."""
        return self._lo[node]

    def hi(self, node: int) -> int:
        """High (then) child of ``node``."""
        return self._hi[node]

    def is_terminal(self, node: int) -> bool:
        """True for the constant nodes 0 and 1."""
        return node <= 1

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ever created (including terminals)."""
        return self._ctrl[_C_NNODES]

    def support(self, root: int) -> FrozenSet[int]:
        """Set of variables ``root`` structurally depends on.

        Computed by one walk over the node arrays on the first call for
        ``root``, then remembered for the manager's lifetime: a node and
        everything below it never change, so neither does its support.
        :meth:`clear_caches` drops the memo."""
        supports = self._supports
        found = supports.get(root)
        if found is not None:
            return found
        if not 0 <= root < self._ctrl[_C_NNODES]:
            raise _bad_node(root)
        variables: set[int] = set()
        if root > 1:
            level = self._level
            lo = self._lo
            hi = self._hi
            add = variables.add
            seen = {root}
            mark = seen.add
            stack = [root]
            push = stack.append
            pop = stack.pop
            while stack:
                node = pop()
                add(level[node])
                child = lo[node]
                if child > 1 and child not in seen:
                    mark(child)
                    push(child)
                child = hi[node]
                if child > 1 and child not in seen:
                    mark(child)
                    push(child)
        found = supports[root] = frozenset(variables)
        return found

    def _mk(self, level: int, lo: int, hi: int) -> int:
        """Find-or-create the node ``(level, lo, hi)``: the linear-probe
        unique-table lookup that enforces canonicity.  The operator cores
        (C and Python alike) inline this logic; out-of-line callers
        (builders, compose, quantify) use this method."""
        if lo == hi:
            return lo
        ctrl = self._ctrl
        uniq = self._uniq
        mask = ctrl[_C_UNIQ_MASK]
        la = self._level
        loa = self._lo
        ha = self._hi
        slot = (level * _M1 + lo * _M2 + hi * _M3) & mask
        while True:
            node = uniq[slot]
            if node == 0:
                break
            if la[node] == level and loa[node] == lo and ha[node] == hi:
                return node
            slot = (slot + 1) & mask
        if (ctrl[_C_UNIQ_USED] + 1) * 4 > (mask + 1) * 3:
            self._grow_unique()
            return self._mk(level, lo, hi)
        n = ctrl[_C_NNODES]
        if n >= ctrl[_C_NODECAP]:
            self._grow_nodes()
        la[n] = level
        loa[n] = lo
        ha[n] = hi
        uniq[slot] = n
        ctrl[_C_NNODES] = n + 1
        ctrl[_C_UNIQ_USED] += 1
        self._stat_arr[_S_INSERTS] += 1
        return n

    # ------------------------------------------------------------------
    # Storage growth
    # ------------------------------------------------------------------

    def _init_state(self) -> None:
        """Build the kernel's ``bdd_state``, once per manager: one
        pointer per buffer, each backed by a cffi view in ``_views``
        that keeps the buffer exported.  The control block, the stats
        array and the call counter never move; every other field is
        re-pointed by :meth:`_point` after a growth replaces or resizes
        its array.  The builder walks' ``bdd_walk`` is made here too."""
        self._st = self._ffi.new("bdd_state *")
        self._walk = self._ffi.new("bdd_walk *")
        self._views = {}
        # The caches are unallocated: their fields start NULL.
        self._point("ctrl", "stat_arr", "calls", "level", "lo", "hi", "uniq")

    def _point(self, *names: str) -> None:
        """Point the named ``bdd_state`` fields at the current
        ``_<name>`` arrays (NULL for an unallocated cache), replacing
        the views that kept the old arrays exported.  A no-op on
        pure-Python managers."""
        st = self._st
        if st is None:
            return
        ffi = self._ffi
        views = self._views
        for name in names:
            arr = getattr(self, "_" + name)
            view = ffi.NULL if arr is None else ffi.from_buffer("int64_t[]", arr)
            views[name] = view
            setattr(st, name, view)

    def _room(self, names: Sequence[str], capacity: int) -> None:
        """Give each named array at least ``capacity`` zeroed entries.
        An array that already has the room is left alone, and the kernel
        keeps its pointer.  A short one is extended in place (the same
        object, so locals bound in running cores stay valid) and a
        missing one is made; both are re-pointed."""
        moved = []
        try:
            for name in names:
                arr = getattr(self, "_" + name)
                if arr is not None and len(arr) >= capacity:
                    continue
                moved.append(name)
                if arr is None:
                    setattr(self, "_" + name, array("q", bytes(8 * capacity)))
                    continue
                if self._views is not None:
                    # An array with an exported buffer refuses to resize:
                    # release the kernel's view, re-export it after.
                    self._views[name] = None
                arr.frombytes(bytes(8 * (capacity - len(arr))))
        finally:  # the kernel must never see a released buffer
            if moved:
                self._point(*moved)

    def _grow_nodes(self) -> None:
        """Double the node capacity, extending the arrays only when
        they are shorter."""
        capacity = 2 * self._ctrl[_C_NODECAP]
        self._room(("level", "lo", "hi"), capacity)
        self._ctrl[_C_NODECAP] = capacity

    def _grow_unique(self) -> None:
        """Double the unique table and re-seat every live node (all
        internal nodes are always live, so this is a straight rehash)."""
        ctrl = self._ctrl
        old_size = ctrl[_C_UNIQ_MASK] + 1
        mask = 2 * old_size - 1
        self._room(("uniq",), mask + 1)
        if self._st is not None:
            self._lib.bdd_grow_unique(self._st, mask)
            return
        slots = self._uniq
        _zero(slots, old_size)
        la = self._level
        loa = self._lo
        ha = self._hi
        for node in range(2, ctrl[_C_NNODES]):
            slot = (la[node] * _M1 + loa[node] * _M2 + ha[node] * _M3) & mask
            while slots[slot] != 0:
                slot = (slot + 1) & mask
            slots[slot] = node
        ctrl[_C_UNIQ_MASK] = mask

    def _alloc_op_caches(self) -> None:
        ctrl = self._ctrl
        self._room(_OPCACHE_ARRAYS, _OPCACHE_INIT)
        for index in range(_N_OPCACHES):
            ctrl[_C_MASK + index] = _OPCACHE_INIT - 1
            ctrl[_C_USED + index] = 0

    def _grow_op_cache(self, index: int) -> None:
        """Double op cache ``index`` (0=and, 1=or, 2=xor, 3=not, 4=ite)
        and drop its entries, counting each dropped live entry as an
        eviction.  Op caches never decide node numbering — a dropped
        subproblem recomputes to the identical nodes through the
        lossless unique table — so dropping costs only recomputation,
        which is cheaper than re-seating every entry on each doubling.
        The first call on unallocated caches allocates all five.

        Two triggers land here: the entry-time occupancy policy
        (:meth:`_prep_op`, or the kernel's own check) and the mid-call
        thrash escape, for a single operation that evicts more entries
        than the cache holds — where the entry-time trigger never gets a
        chance to fire (in-place overwrites do not raise ``used``).
        Without it a direct-mapped cache can thrash a big recursion into
        exponential recomputation."""
        ctrl = self._ctrl
        if ctrl[_C_MASK + _T_AND] == 0:
            self._alloc_op_caches()
            return
        old_size = ctrl[_C_MASK + index] + 1
        self._room(_TABLE_ARRAYS[index], 2 * old_size)
        if self._st is not None:
            self._lib.bdd_grow_table(self._st, index, 2 * old_size - 1)
            return
        for arr in _ARRAYS_OF[index](self):
            _zero(arr, old_size)
        self._stat_arr[_S_EVICTED] += ctrl[_C_USED + index]
        ctrl[_C_MASK + index] = 2 * old_size - 1
        ctrl[_C_USED + index] = 0

    def _prep_op(self, *nodes: int) -> None:
        """Per-operation entry hook of the pure-Python cores: reject an
        operand the manager never made (``ValueError``, as the kernel's
        entries do), allocate the op caches on first use and apply the
        deterministic growth policy (double at 50% occupancy until the
        cap, then evict in place).  The native kernel applies the same
        policy in C at each entry.  Growth decisions depend only on the
        operation sequence for a given kernel; a thrashing call may
        additionally double its cache mid-operation (grow-and-restart in
        C, in place in Python), which never changes node numbering
        because recomputation re-derives nodes through the lossless
        unique table."""
        ctrl = self._ctrl
        for node in nodes:
            if not 0 <= node < ctrl[_C_NNODES]:
                raise _bad_node(node)
        if ctrl[_C_MASK + _T_AND] == 0:
            self._alloc_op_caches()
        elif ctrl[_C_MASK + _T_AND] + 1 < _OPCACHE_MAX:
            for index in range(_N_OPCACHES):
                if ctrl[_C_USED + index] * 2 > ctrl[_C_MASK + index]:
                    self._grow_op_cache(index)

    # ------------------------------------------------------------------
    # Native dispatch
    # ------------------------------------------------------------------

    def _grow(self, code: int) -> None:
        """Grow the structure a C core's negative return code names:
        -1 the node arrays, -2 the unique table, ``-6 - i`` cache table
        ``i`` (see ``_TABLES``).  ``_BAD_NODE``, ``_BAD_OP`` and
        ``_INCONSISTENT`` raise ``ValueError``, and an allocation
        failure ``MemoryError``."""
        if code == -1:
            self._grow_nodes()
        elif code == -2:
            self._grow_unique()
        elif -6 - len(_TABLES) < code <= -6 - _N_OPCACHES:
            self._grow_quantify(-6 - code)
        elif -6 - _N_OPCACHES < code <= -6:
            self._grow_op_cache(-6 - code)
        elif code == _BAD_NODE:
            raise ValueError("a node id was not made by this manager")
        elif code == _BAD_OP:
            raise ValueError("the kernel does not know a step's op code")
        elif code == _INCONSISTENT:
            raise ValueError("inconsistent interval: lower is not <= upper")
        else:
            raise MemoryError("native BDD kernel allocation failed")

    def _native_walk(self, fn, *args) -> int:
        """Run kernel builder ``fn(*args)`` — one of the walks that
        take this manager's ``bdd_walk`` — to the end: grow what each
        growth code names and call it again.  The walk keeps what it
        finished, so each restart re-runs only the operation that asked
        for the growth.  Returns the result, or ``_BAD_VAR`` for the
        caller to raise on; the caller clears the walk afterwards."""
        while True:
            code = fn(*args)
            if code >= 0 or code == _BAD_VAR:
                return code
            self._grow(code)

    def _native_retry(self, code: int, fn, *args: int) -> int:
        """Finish a C core that returned the growth code ``code``: grow
        what it asked for and re-run it until it returns a node.  The
        nodes an aborted attempt created live in the unique table, so
        the restart finds them again and creates only the rest, in the
        same order: numbering is unchanged.  Unless an op cache was just
        dropped, the partial results also still sit in the caches and
        the restart is near-free."""
        st = self._st
        while True:
            self._grow(code)
            code = fn(st, *args)
            if code >= 0:
                return code

    # ------------------------------------------------------------------
    # Boolean operators
    # ------------------------------------------------------------------
    #
    # Each public operator applies the terminal short-circuits, then
    # hands the general case to the C kernel when available (one call
    # with the manager's bdd_state, plus growth restarts), else to the
    # matching pure-Python core below.  A short-circuit return first
    # checks the call's operands against the node count; the general
    # case keeps its one check in the core's entry.  The cores are
    # post-order walks driven by two explicit stacks: ``tasks`` holds
    # tagged frames (tag 0 = expand a subproblem, tag 1 = reduce with
    # children's results), ``results`` accumulates one value per
    # finished subproblem.
    # Expanding pushes the reduce frame first, then the hi and lo
    # children, so children complete before their reduce frame pops —
    # the traversal order both kernels share.  A core finds its cache
    # table's arrays, mask, occupancy and counters by the table's index;
    # a growth in mid-walk extends the arrays in place (see _room), so
    # the core re-reads only the mask.

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | ~f & h``.

        The workhorse ternary operator; all other connectives reduce to it,
        though AND/OR/XOR have specialised fast paths below.
        """
        if f <= TRUE or g == h or (g <= TRUE and h <= TRUE):
            count = self._ctrl[_C_NNODES]
            if not (0 <= f < count and 0 <= g < count and 0 <= h < count):
                raise _bad_node(_first_bad(count, f, g, h))
            if f == TRUE:
                return g
            if f == FALSE:
                return h
            if g == h:
                return g
            if g == TRUE:  # and h == FALSE
                return f
            return self.negate(f)  # g == FALSE and h == TRUE
        st = self._st
        if st is not None:
            fn = self._lib.bdd_ite
            result = fn(st, f, g, h)
            return result if result >= 0 else self._native_retry(result, fn, f, g, h)
        self._prep_op(f, g, h)
        return self._py_ite(f, g, h)

    def negate(self, f: int) -> int:
        """Complement ``~f``."""
        if 0 <= f <= 1:
            return 1 - f
        st = self._st
        if st is not None:
            fn = self._lib.bdd_negate
            result = fn(st, f)
            return result if result >= 0 else self._native_retry(result, fn, f)
        self._prep_op(f)
        return self._py_negate(f)

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction ``f & g``."""
        if f == g or f <= TRUE or g <= TRUE:
            count = self._ctrl[_C_NNODES]
            if not (0 <= f < count and 0 <= g < count):
                raise _bad_node(_first_bad(count, f, g))
            if f == g:
                return f
            if f == FALSE or g == FALSE:
                return FALSE
            return g if f == TRUE else f
        if f > g:
            f, g = g, f
        st = self._st
        if st is not None:
            fn = self._lib.bdd_apply
            result = fn(st, 0, f, g)
            return result if result >= 0 else self._native_retry(result, fn, 0, f, g)
        self._prep_op(f, g)
        return self._py_apply(0, f, g)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction ``f | g`` (direct core — no De Morgan detour
        through two negations and an AND)."""
        if f == g or f <= TRUE or g <= TRUE:
            count = self._ctrl[_C_NNODES]
            if not (0 <= f < count and 0 <= g < count):
                raise _bad_node(_first_bad(count, f, g))
            if f == g:
                return f
            if f == TRUE or g == TRUE:
                return TRUE
            return g if f == FALSE else f
        if f > g:
            f, g = g, f
        st = self._st
        if st is not None:
            fn = self._lib.bdd_apply
            result = fn(st, 1, f, g)
            return result if result >= 0 else self._native_retry(result, fn, 1, f, g)
        self._prep_op(f, g)
        return self._py_apply(1, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or ``f ^ g``."""
        if f == g or f <= TRUE or g <= TRUE:
            count = self._ctrl[_C_NNODES]
            if not (0 <= f < count and 0 <= g < count):
                raise _bad_node(_first_bad(count, f, g))
            if f == g:
                return FALSE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            return self.negate(g if f == TRUE else f)
        if f > g:
            f, g = g, f
        st = self._st
        if st is not None:
            fn = self._lib.bdd_apply
            result = fn(st, 2, f, g)
            return result if result >= 0 else self._native_retry(result, fn, 2, f, g)
        self._prep_op(f, g)
        return self._py_apply(2, f, g)

    # -- pure-Python fallback cores ------------------------------------

    def _py_negate(self, f: int) -> int:
        sarr = self._stat_arr
        ctrl = self._ctrl
        nk, nv = _ARRAYS_OF[_T_NOT](self)
        nmask = ctrl[_C_MASK + _T_NOT]
        slot = (f * _M1) & nmask
        if nk[slot] == f:
            sarr[2 * _T_NOT] += 1
            return nv[slot]
        la = self._level
        loa = self._lo
        ha = self._hi
        mk = self._mk
        ev = 0
        tasks: list[tuple[int, int]] = [(0, f)]
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        while tasks:
            tag, n = tasks.pop()
            if tag == 0:
                if n <= 1:
                    rpush(1 - n)
                    continue
                slot = (n * _M1) & nmask
                if nk[slot] == n:
                    sarr[2 * _T_NOT] += 1
                    rpush(nv[slot])
                    continue
                sarr[2 * _T_NOT + 1] += 1
                push((1, n))
                push((0, ha[n]))
                push((0, loa[n]))
            else:
                hi = results.pop()
                node = mk(la[n], results[-1], hi)
                slot = (n * _M1) & nmask
                old = nk[slot]
                if old == 0:
                    ctrl[_C_USED + _T_NOT] += 1
                elif old != n:
                    sarr[_S_EVICTED] += 1
                    ev += 1
                nk[slot] = n
                nv[slot] = node
                slot = (node * _M1) & nmask
                old = nk[slot]
                if old == 0:
                    ctrl[_C_USED + _T_NOT] += 1
                elif old != node:
                    sarr[_S_EVICTED] += 1
                    ev += 1
                nk[slot] = node
                nv[slot] = n
                if ev > nmask and nmask + 1 < _OPCACHE_MAX:
                    self._grow_op_cache(_T_NOT)
                    nmask = ctrl[_C_MASK + _T_NOT]
                    ev = 0
                results[-1] = node
        return results[0]

    def _py_apply(self, op: int, f: int, g: int) -> int:
        # ``op`` is the table index of the connective's cache.
        sarr = self._stat_arr
        ctrl = self._ctrl
        ck, cv = _ARRAYS_OF[op](self)
        cmask = ctrl[_C_MASK + op]
        s_hit = 2 * op
        s_miss = s_hit + 1
        slot = (f * _M1 + g * _M2) & cmask
        if ck[slot] == (f << 31) | g:
            sarr[s_hit] += 1
            return cv[slot]
        la = self._level
        loa = self._lo
        ha = self._hi
        mk = self._mk
        negate = self._py_negate
        ev = 0
        tasks: list[tuple] = [(0, f, g)]
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        while tasks:
            frame = tasks.pop()
            if frame[0] == 0:
                _, a, b = frame
                if op == 0:
                    if a == b:
                        rpush(a)
                        continue
                    if a == FALSE or b == FALSE:
                        rpush(FALSE)
                        continue
                    if a == TRUE:
                        rpush(b)
                        continue
                    if b == TRUE:
                        rpush(a)
                        continue
                elif op == 1:
                    if a == b:
                        rpush(a)
                        continue
                    if a == TRUE or b == TRUE:
                        rpush(TRUE)
                        continue
                    if a == FALSE:
                        rpush(b)
                        continue
                    if b == FALSE:
                        rpush(a)
                        continue
                else:
                    if a == b:
                        rpush(FALSE)
                        continue
                    if a == FALSE:
                        rpush(b)
                        continue
                    if b == FALSE:
                        rpush(a)
                        continue
                    if a == TRUE:
                        rpush(negate(b))
                        continue
                    if b == TRUE:
                        rpush(negate(a))
                        continue
                if a > b:
                    a, b = b, a
                key = (a << 31) | b
                slot = (a * _M1 + b * _M2) & cmask
                if ck[slot] == key:
                    sarr[s_hit] += 1
                    rpush(cv[slot])
                    continue
                sarr[s_miss] += 1
                la_ = la[a]
                lb_ = la[b]
                if la_ < lb_:
                    top = la_
                    a0 = loa[a]
                    a1 = ha[a]
                    b0 = b1 = b
                elif lb_ < la_:
                    top = lb_
                    a0 = a1 = a
                    b0 = loa[b]
                    b1 = ha[b]
                else:
                    top = la_
                    a0 = loa[a]
                    a1 = ha[a]
                    b0 = loa[b]
                    b1 = ha[b]
                push((1, key, top))
                push((0, a1, b1))
                push((0, a0, b0))
            else:
                _, key, top = frame
                hi = results.pop()
                lo = results[-1]
                node = lo if lo == hi else mk(top, lo, hi)
                slot = ((key >> 31) * _M1 + (key & 0x7FFFFFFF) * _M2) & cmask
                old = ck[slot]
                if old == 0:
                    ctrl[_C_USED + op] += 1
                elif old != key:
                    sarr[_S_EVICTED] += 1
                    ev += 1
                ck[slot] = key
                cv[slot] = node
                if ev > cmask and cmask + 1 < _OPCACHE_MAX:
                    # Thrash escape: this one call has overwritten more
                    # entries than the cache holds, so grow it (entries
                    # are dropped).
                    self._grow_op_cache(op)
                    cmask = ctrl[_C_MASK + op]
                    ev = 0
                results[-1] = node
        return results[0]

    def _py_ite(self, f: int, g: int, h: int) -> int:
        sarr = self._stat_arr
        ctrl = self._ctrl
        ika, ikb, iv = _ARRAYS_OF[_T_ITE](self)
        imask = ctrl[_C_MASK + _T_ITE]
        slot = (f * _M1 + g * _M2 + h * _M3) & imask
        if ika[slot] == (f << 31) | g and ikb[slot] == h:
            sarr[2 * _T_ITE] += 1
            return iv[slot]
        la = self._level
        loa = self._lo
        ha = self._hi
        mk = self._mk
        negate = self._py_negate
        ev = 0
        tasks: list[tuple] = [(0, f, g, h)]
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        while tasks:
            frame = tasks.pop()
            if frame[0] == 0:
                _, a, b, c = frame
                if a == TRUE:
                    rpush(b)
                    continue
                if a == FALSE:
                    rpush(c)
                    continue
                if b == c:
                    rpush(b)
                    continue
                if b == TRUE and c == FALSE:
                    rpush(a)
                    continue
                if b == FALSE and c == TRUE:
                    rpush(negate(a))
                    continue
                ka = (a << 31) | b
                slot = (a * _M1 + b * _M2 + c * _M3) & imask
                if ika[slot] == ka and ikb[slot] == c:
                    sarr[2 * _T_ITE] += 1
                    rpush(iv[slot])
                    continue
                sarr[2 * _T_ITE + 1] += 1
                lf = la[a]
                lg = la[b]
                lh = la[c]
                top = lf
                if lg < top:
                    top = lg
                if lh < top:
                    top = lh
                if lf == top:
                    f0 = loa[a]
                    f1 = ha[a]
                else:
                    f0 = f1 = a
                if lg == top:
                    g0 = loa[b]
                    g1 = ha[b]
                else:
                    g0 = g1 = b
                if lh == top:
                    h0 = loa[c]
                    h1 = ha[c]
                else:
                    h0 = h1 = c
                push((1, ka, c, top))
                push((0, f1, g1, h1))
                push((0, f0, g0, h0))
            else:
                _, ka, kb, top = frame
                hi = results.pop()
                lo = results[-1]
                node = lo if lo == hi else mk(top, lo, hi)
                slot = ((ka >> 31) * _M1 + (ka & 0x7FFFFFFF) * _M2
                        + kb * _M3) & imask
                old = ika[slot]
                if old == 0:
                    ctrl[_C_USED + _T_ITE] += 1
                elif old != ka or ikb[slot] != kb:
                    sarr[_S_EVICTED] += 1
                    ev += 1
                ika[slot] = ka
                ikb[slot] = kb
                iv[slot] = node
                if ev > imask and imask + 1 < _OPCACHE_MAX:
                    self._grow_op_cache(_T_ITE)
                    imask = ctrl[_C_MASK + _T_ITE]
                    ev = 0
                results[-1] = node
        return results[0]

    # ------------------------------------------------------------------
    # Derived connectives
    # ------------------------------------------------------------------

    def apply_xnor(self, f: int, g: int) -> int:
        """Equivalence ``~(f ^ g)``."""
        return self.negate(self.apply_xor(f, g))

    def implies(self, f: int, g: int) -> int:
        """Implication ``~f | g``."""
        return self.apply_or(self.negate(f), g)

    def leq(self, f: int, g: int) -> bool:
        """The paper's "less-than-or-equal" relation: ``f <= g`` holds iff
        ``f -> g`` is a tautology (Section 3.2.1)."""
        return self.implies(f, g) == TRUE

    def conjoin(self, nodes: Iterable[int]) -> int:
        """AND of an iterable of nodes (TRUE for an empty iterable).

        On native managers a list or tuple of three or more nodes is
        folded in one kernel call (:meth:`_native_fold`).  Two or fewer
        are folded here: the first AND with TRUE short-circuits, so the
        loop makes at most one core call and costs less than the kernel
        fold's set-up.  Any other iterable is folded here too, one
        operand at a time: a generator may make nodes while it is
        consumed, and materialising it first would renumber them."""
        if self._st is not None and type(nodes) in (list, tuple) and len(nodes) > 2:
            return self._native_fold(_T_AND, nodes)
        result = TRUE
        for node in nodes:
            result = self.apply_and(result, node)
            if result == FALSE:
                return FALSE
        return result

    def disjoin(self, nodes: Iterable[int]) -> int:
        """OR of an iterable of nodes (FALSE for an empty iterable); a
        list or tuple of three or more is folded in the kernel, as by
        :meth:`conjoin`."""
        if self._st is not None and type(nodes) in (list, tuple) and len(nodes) > 2:
            return self._native_fold(_T_OR, nodes)
        result = FALSE
        for node in nodes:
            result = self.apply_or(result, node)
            if result == TRUE:
                return TRUE
        return result

    def _native_fold(self, op: int, nodes: "list[int] | tuple[int, ...]") -> int:
        """The fold of :meth:`conjoin` (op 0) / :meth:`disjoin` (op 1)
        as one kernel walk: from the neutral terminal, each operand
        checked when the fold reaches it, then the public AND (OR)
        entry, stopping at the dominating terminal."""
        lib = self._lib
        walk = self._walk
        try:
            return self._native_walk(
                lib.bdd_fold, self._st, walk, op, nodes, len(nodes)
            )
        finally:
            lib.bdd_walk_clear(walk)

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------
    #
    # ∃ and ∀ share one core, selected by the index of their cache table
    # (_T_EX or _T_FA): the index fixes the arrays and the counters, and
    # the table's quantifier fixes the terminal at which a quantified
    # level stops early (TRUE for ∃, FALSE for ∀) and the connective that
    # combines its two cofactors (OR for ∃, AND for ∀).  The fused
    # and_exists has its own core over its own table.  All three tables
    # are lossless open-addressed caches that grow by rehash and never
    # evict, keyed by the node (the operand pair) and the interned cube
    # id, so a repeat over the same cube hits across calls.

    def _quantify(
        self,
        table: str,
        f: int,
        variables: "Iterable[int] | VarCube",
        g: Optional[int] = None,
    ) -> int:
        """The entry behind :mod:`repro.bdd.quantify`: ``∃ variables . f``
        (``table`` ``"exists"``), ``∀ variables . f`` (``"forall"``), or
        ``∃ variables . (f & g)`` (``"and_exists"``).  ∃ and ∀ check the
        node, short-circuit a cube that lies wholly above ``f``
        (terminals and the empty cube included), allocate the caches,
        then run the core — in C after a probe in Python, which saves a
        warm repeat its FFI round trip."""
        cube = self.intern_cube(variables)
        index = _TABLE_INDEX[table]
        if index == _T_AE:
            return self._and_exists(f, g, cube)
        if not 0 <= f < self._ctrl[_C_NNODES]:
            raise _bad_node(f)
        if self._level[f] > cube.max_level:
            return f
        self._ensure_quantify_caches()
        st = self._st
        if st is None:
            return self._py_quantify(index, f, cube)
        cid = cube.cube_id
        hit = self._q_get(index, f, cid)
        if hit >= 0:
            self._stat_arr[2 * index] += 1
            return hit
        fn = self._lib.bdd_quantify
        args = (index, f, cid, cube.view, len(cube.vars), cube.max_level)
        result = fn(st, *args)
        return result if result >= 0 else self._native_retry(result, fn, *args)

    def _py_quantify(self, index: int, f: int, cube: VarCube) -> int:
        """The ∃/∀ core of quantify cache ``index`` walked in Python; the
        C ``quantify_core`` mirrors it frame for frame.  Tags: 0 expand;
        1 rebuild an unquantified level; 2 lo-cofactor of a quantified
        level done (stop at the dominating terminal, else expand hi); 3
        both cofactors done (combine them)."""
        stop = TRUE if index == _T_EX else FALSE
        combine = self.apply_or if index == _T_EX else self.apply_and
        var_set = cube.vars
        max_level = cube.max_level
        cid = cube.cube_id
        sarr = self._stat_arr
        s_hit = 2 * index
        s_miss = s_hit + 1
        get = self._q_get
        put = self._q_put
        level = self._level
        lo_arr = self._lo
        hi_arr = self._hi
        mk = self._mk
        tasks: list[tuple] = [(0, f)]
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        while tasks:
            frame = tasks.pop()
            tag = frame[0]
            if tag == 0:
                n = frame[1]
                if level[n] > max_level:
                    rpush(n)
                    continue
                cached = get(index, n, cid)
                if cached >= 0:
                    sarr[s_hit] += 1
                    rpush(cached)
                    continue
                sarr[s_miss] += 1
                lvl = level[n]
                if lvl in var_set:
                    push((2, n, hi_arr[n]))
                    push((0, lo_arr[n]))
                else:
                    push((1, n, lvl))
                    push((0, hi_arr[n]))
                    push((0, lo_arr[n]))
            elif tag == 1:
                _, n, lvl = frame
                hi = results.pop()
                lo = results[-1]
                node = lo if lo == hi else mk(lvl, lo, hi)
                put(index, n, cid, node)
                results[-1] = node
            elif tag == 2:
                _, n, hi_child = frame
                if results[-1] == stop:
                    put(index, n, cid, stop)
                    continue
                push((3, n))
                push((0, hi_child))
            else:
                n = frame[1]
                hi = results.pop()
                node = combine(results[-1], hi)
                put(index, n, cid, node)
                results[-1] = node
        return results[0]

    def _and_exists(self, f: int, g: int, cube: VarCube) -> int:
        """``∃ cube . (f & g)``: the node checks — before the caches are
        allocated — then a plain AND for the empty cube, else the core,
        in C when the kernel is loaded."""
        count = self._ctrl[_C_NNODES]
        if not (0 <= f < count and 0 <= g < count):
            raise _bad_node(_first_bad(count, f, g))
        if not cube.vars:
            return self.apply_and(f, g)
        self._ensure_quantify_caches()
        st = self._st
        if st is None:
            return self._py_and_exists(f, g, cube)
        fn = self._lib.bdd_and_exists
        args = (f, g, cube.cube_id, cube.view, len(cube.vars), cube.max_level)
        result = fn(st, *args)
        return result if result >= 0 else self._native_retry(result, fn, *args)

    def _py_and_exists(self, f: int, g: int, cube: VarCube) -> int:
        """The and_exists core walked in Python; the C
        ``and_exists_core`` mirrors it frame for frame.  Tags: 0 expand
        an (a, b) product; 1 rebuild an unquantified level; 2 lo-product
        of a quantified level done (stop at TRUE, else expand the
        hi-product); 3 both products done (OR them)."""
        var_set = cube.vars
        max_level = cube.max_level
        cid = cube.cube_id
        sarr = self._stat_arr
        ctrl = self._ctrl
        qk1, qk2, qv = _ARRAYS_OF[_T_AE](self)
        put = self._ae_put
        level = self._level
        lo_arr = self._lo
        hi_arr = self._hi
        mk = self._mk
        tasks: list[tuple] = [(0, f, g)]
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        while tasks:
            frame = tasks.pop()
            tag = frame[0]
            if tag == 0:
                _, a, b = frame
                if a == FALSE or b == FALSE:
                    rpush(FALSE)
                    continue
                if a == TRUE or b == TRUE:
                    other = b if a == TRUE else a
                    if other != TRUE:
                        other = self._quantify("exists", other, cube)
                    rpush(other)
                    continue
                la = level[a]
                lb = level[b]
                if la > max_level and lb > max_level:
                    # No quantified variable below either operand: the
                    # product degenerates to a plain conjunction.
                    rpush(self.apply_and(a, b))
                    continue
                if a > b:
                    a, b = b, a
                    la, lb = lb, la
                key1 = (a << 31) | b
                qmask = ctrl[_C_MASK + _T_AE]
                slot = (a * _M1 + b * _M2 + cid * _M3) & qmask
                cached = -1
                while True:
                    k = qk1[slot]
                    if k == 0:
                        break
                    if k == key1 and qk2[slot] == cid:
                        cached = qv[slot]
                        break
                    slot = (slot + 1) & qmask
                if cached >= 0:
                    sarr[2 * _T_AE] += 1
                    rpush(cached)
                    continue
                sarr[2 * _T_AE + 1] += 1
                if la < lb:
                    top = la
                    a0 = lo_arr[a]
                    a1 = hi_arr[a]
                    b0 = b1 = b
                elif lb < la:
                    top = lb
                    a0 = a1 = a
                    b0 = lo_arr[b]
                    b1 = hi_arr[b]
                else:
                    top = la
                    a0 = lo_arr[a]
                    a1 = hi_arr[a]
                    b0 = lo_arr[b]
                    b1 = hi_arr[b]
                if top in var_set:
                    push((2, a, b, a1, b1))
                    push((0, a0, b0))
                else:
                    push((1, a, b, top))
                    push((0, a1, b1))
                    push((0, a0, b0))
            elif tag == 1:
                _, a, b, top = frame
                hi = results.pop()
                lo = results[-1]
                node = lo if lo == hi else mk(top, lo, hi)
                put(a, b, cid, node)
                results[-1] = node
            elif tag == 2:
                _, a, b, a1, b1 = frame
                if results[-1] == TRUE:
                    put(a, b, cid, TRUE)
                    continue
                push((3, a, b))
                push((0, a1, b1))
            else:
                _, a, b = frame
                hi = results.pop()
                node = self.apply_or(results[-1], hi)
                put(a, b, cid, node)
                results[-1] = node
        return results[0]

    def _ensure_quantify_caches(self) -> None:
        ctrl = self._ctrl
        if ctrl[_C_MASK + _T_EX] == 0:
            self._room(_QCACHE_ARRAYS, _QCACHE_INIT)
            for index in (_T_EX, _T_FA, _T_AE):
                ctrl[_C_MASK + index] = _QCACHE_INIT - 1
                ctrl[_C_USED + index] = 0

    def _grow_quantify(self, index: int) -> None:
        """Double quantify cache ``index`` and re-seat every entry,
        visiting the old slots in index order: a lossless rehash (these
        caches never evict).  The C kernel runs the rehash when it is
        loaded; the Python loop is the fallback, and the reference the
        parity tests hold the C rehash to.  While the quantify caches are
        unallocated, this allocates all three instead: the kernel's loop
        entries ask for them by this growth code where the quantifiers
        would allocate them."""
        ctrl = self._ctrl
        if ctrl[_C_MASK + _T_EX] == 0:
            self._ensure_quantify_caches()
            return
        old_size = ctrl[_C_MASK + index] + 1
        mask = 2 * old_size - 1
        self._room(_TABLE_ARRAYS[index], mask + 1)
        if self._st is not None:
            if self._lib.bdd_grow_table(self._st, index, mask):
                raise MemoryError("native BDD kernel allocation failed")
            return
        arrays = _ARRAYS_OF[index](self)
        old = [arr[:old_size] for arr in arrays]
        for arr in arrays:
            _zero(arr, old_size)
        keys, values = arrays[0], arrays[-1]
        second = old[1] if index == _T_AE else None
        for i, k in enumerate(old[0]):
            if k == 0:
                continue
            mix = (k >> 31) * _M1 + (k & 0x7FFFFFFF) * _M2
            if second is not None:
                mix += second[i] * _M3
            slot = mix & mask
            while keys[slot] != 0:
                slot = (slot + 1) & mask
            keys[slot] = k
            if second is not None:
                arrays[1][slot] = second[i]
            values[slot] = old[-1][i]
        ctrl[_C_MASK + index] = mask

    def _q_get(self, index: int, n: int, cid: int) -> int:
        """The exists or forall cache ``index``'s result for node ``n``
        over cube ``cid``, or -1."""
        keys, values = _ARRAYS_OF[index](self)
        mask = self._ctrl[_C_MASK + index]
        key = (n << 31) | cid
        slot = (n * _M1 + cid * _M2) & mask
        while True:
            k = keys[slot]
            if k == key:
                return values[slot]
            if k == 0:
                return -1
            slot = (slot + 1) & mask

    def _q_put(self, index: int, n: int, cid: int, value: int) -> None:
        """Lossless linear-probe insert of ``(n, cid)`` into the exists
        or forall cache ``index``, growing by rehash above 75% load (a
        key is inserted only after it missed, so keys never repeat)."""
        ctrl = self._ctrl
        used = ctrl[_C_USED + index]
        if (used + 1) * 4 > (ctrl[_C_MASK + index] + 1) * 3:
            self._grow_quantify(index)
        keys, values = _ARRAYS_OF[index](self)
        mask = ctrl[_C_MASK + index]
        key = (n << 31) | cid
        slot = (n * _M1 + cid * _M2) & mask
        while keys[slot] != 0:
            if keys[slot] == key:
                values[slot] = value
                return
            slot = (slot + 1) & mask
        keys[slot] = key
        values[slot] = value
        ctrl[_C_USED + index] = used + 1

    def _ae_put(self, a: int, b: int, cid: int, value: int) -> None:
        """Lossless insert into the two-word-key and_exists cache."""
        ctrl = self._ctrl
        used = ctrl[_C_USED + _T_AE]
        if (used + 1) * 4 > (ctrl[_C_MASK + _T_AE] + 1) * 3:
            self._grow_quantify(_T_AE)
        k1 = (a << 31) | b
        karr1, karr2, varr = _ARRAYS_OF[_T_AE](self)
        mask = ctrl[_C_MASK + _T_AE]
        slot = (a * _M1 + b * _M2 + cid * _M3) & mask
        while karr1[slot] != 0:
            if karr1[slot] == k1 and karr2[slot] == cid:
                varr[slot] = value
                return
            slot = (slot + 1) & mask
        karr1[slot] = k1
        karr2[slot] = cid
        varr[slot] = value
        ctrl[_C_USED + _T_AE] = used + 1

    # ------------------------------------------------------------------
    # Cofactors and evaluation
    # ------------------------------------------------------------------

    def cofactor(self, f: int, var: int, value: bool) -> int:
        """Shannon cofactor of ``f`` with respect to one literal."""
        return self.restrict(f, {var: value})

    def restrict(self, f: int, assignment: dict[int, bool]) -> int:
        """Simultaneous cofactor by a partial assignment ``{var: value}``."""
        if not assignment or f <= 1:
            return f
        level = self._level
        lo_arr = self._lo
        hi_arr = self._hi
        mk = self._mk
        max_level = max(assignment)
        memo: dict[int, int] = {}
        # Tags: 0 expand, 1 rebuild from two children, 2 forward the
        # single (assigned-variable) child's result.
        tasks: list[tuple[int, int]] = [(0, f)]
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        while tasks:
            tag, n = tasks.pop()
            if tag == 0:
                if n <= 1 or level[n] > max_level:
                    rpush(n)
                    continue
                hit = memo.get(n)
                if hit is not None:
                    rpush(hit)
                    continue
                lvl = level[n]
                if lvl in assignment:
                    push((2, n))
                    push((0, hi_arr[n] if assignment[lvl] else lo_arr[n]))
                else:
                    push((1, n))
                    push((0, hi_arr[n]))
                    push((0, lo_arr[n]))
            elif tag == 1:
                hi = results.pop()
                lo = results[-1]
                node = lo if lo == hi else mk(level[n], lo, hi)
                memo[n] = node
                results[-1] = node
            else:
                memo[n] = results[-1]
        return results[0]

    def evaluate(self, f: int, assignment: Sequence[bool] | dict[int, bool]) -> bool:
        """Evaluate ``f`` under a total assignment.

        ``assignment`` is either a sequence indexed by variable or a dict;
        variables not on ``f``'s path are ignored.  Raises ``ValueError``
        when a variable on the evaluation path has no assigned value.
        """
        node = f
        while node > 1:
            level = self._level[node]
            try:
                value = assignment[level]
            except (KeyError, IndexError):
                raise ValueError(
                    f"assignment is missing variable "
                    f"{self._var_names[level]!r} (index {level}), which lies "
                    f"on the evaluation path"
                ) from None
            node = self._hi[node] if value else self._lo[node]
        return node == TRUE

    def cube(self, literals: dict[int, bool]) -> int:
        """Conjunction of literals given as ``{var: polarity}``."""
        order = sorted(literals, reverse=True)
        for var in order[:1] + order[-1:]:  # the extremes bound the rest
            if not 0 <= var < len(self._var_names):
                raise ValueError(f"variable {var} not declared")
        node = TRUE
        for var in order:
            node = self._mk(
                var,
                FALSE if literals[var] else node,
                node if literals[var] else FALSE,
            )
        return node

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def clear_caches(self) -> int:
        """Drop all operation caches, including the persistent
        quantification caches, and the support memo (the unique table,
        the literal nodes and the interned cube table are kept — the
        last is bounded by the number of distinct variable sets ever
        quantified).

        The array-backed caches are released wholesale and reallocated
        lazily at their initial size, so no stale probe chain can ever
        survive a clear.  Useful between phases of a long-running
        computation to bound memory; correctness is unaffected.  Returns
        the number of evicted cache entries and, on instrumented
        managers, emits a ``bdd.clear_caches`` obs event so mid-run
        evictions are visible in reports.
        """
        ctrl = self._ctrl
        evicted = 0
        for index, names in enumerate(_TABLE_ARRAYS):
            evicted += ctrl[_C_USED + index]
            ctrl[_C_MASK + index] = ctrl[_C_USED + index] = 0
            for name in names:
                setattr(self, "_" + name, None)
        self._point(*_OPCACHE_ARRAYS, *_QCACHE_ARRAYS)
        self._supports = {}
        self._stat_arr[_S_CLEARS] += 1
        self._stat_arr[_S_EVICTED] += evicted
        if self._stats is not None:
            _obs.event(
                "bdd.clear_caches",
                evicted=evicted,
                unique=ctrl[_C_UNIQ_USED],
            )
        return evicted

    def reset(self) -> "BDDManager":
        """Return this manager to the state of a fresh manager — no
        variables, the same kernel and reorder threshold — while every
        array keeps its capacity.  Returns the manager.

        Afterwards nothing a caller can read tells the two apart:
        ``num_nodes`` is 2; there are no variables, literal nodes,
        support memos or interned cubes, and cube ids restart at 0;
        :meth:`cache_sizes`, :meth:`cache_capacities`,
        :meth:`table_metrics` and :meth:`monitor_sample` read as on a
        fresh manager (a cache a fresh manager has not allocated reads
        as unallocated); and every later sequence of operations makes
        the same nodes, takes the same growth decisions and leaves the
        same table layouts, because only the arrays' lengths differ.
        Only the prefix of each buffer that the ending life used is
        zeroed, in one kernel call on the native path; every word past
        it is zero already.

        Every node, cube and stats window of the ending life becomes
        invalid, so only a caller that owns the manager's whole life may
        reset it.  Under :mod:`repro.obs` the ending life's counters fold
        into the totals as a collected manager's do, and the new life is
        tracked as a fresh manager's would be, counted in
        ``bdd.managers.total`` and ``bdd.managers.reused``; its
        ``kernel_calls`` start with the kernel call that cleared the
        buffers.
        """
        if self._stats is not None:
            _obs.retire_bdd_manager(self)
        calls = self._calls[0]
        ctrl = self._ctrl
        if self._st is not None:
            self._lib.bdd_clear(self._st)
        else:
            for arr in (self._level, self._lo, self._hi):
                _zero(arr, ctrl[_C_NNODES])
            _zero(self._uniq, ctrl[_C_UNIQ_MASK] + 1)
            for index, arrays_of in enumerate(_ARRAYS_OF):
                if ctrl[_C_MASK + index]:
                    for arr in arrays_of(self):
                        _zero(arr, ctrl[_C_MASK + index] + 1)
            _zero(self._stat_arr, _N_STATS)
            _zero(ctrl, _CTRL_SLOTS)
        self._level[0] = self._level[1] = TERMINAL_LEVEL
        self._lo[1] = self._hi[1] = TRUE
        ctrl[_C_NNODES] = 2
        ctrl[_C_NODECAP] = _NODE_INIT
        ctrl[_C_UNIQ_MASK] = _UNIQUE_INIT - 1
        self._cube_table = {}
        self._var_names = []
        self._name_to_var = {}
        self._var_nodes = []
        self._supports = {}
        self._stats = None
        self.reorders = 0
        self._last_reorder_nodes = 2
        if _obs.enabled():
            self._stats = ManagerStats(
                self._stat_arr, array("q", self._stat_arr), self._calls, calls
            )
            _obs.track_bdd_manager(self, reused=True)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BDDManager vars={self.num_vars} nodes={self.num_nodes} "
            f"unique={self.unique_size} native={self.native}>"
        )


def iter_nodes(manager: BDDManager, root: int) -> Iterator[int]:
    """Yield every node reachable from ``root`` exactly once (terminals
    included), children before parents (iterative postorder)."""
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded or node <= 1:
            seen.add(node)
            yield node
            continue
        stack.append((node, True))
        stack.append((manager.hi(node), False))
        stack.append((manager.lo(node), False))
