"""On-demand build and load of the native kernel.

The native kernel is one shared object compiled from two C sources:

* ``_kernel.c`` (next to this module) — the BDD manager's hot operator
  cores (`ite`, AND/OR/XOR, negate), quantification cores
  (exists/forall/and_exists), table growth and reset, the loop
  entries behind ``Interval.reduce_support``, ``iter_models`` and
  ``conjoin``/``disjoin``, the ISOP walk behind ``logic.sop.isop``,
  and ``bdd_run``, the interpreter of the step programs of
  :mod:`repro.bdd.program`.  Its ops run the flow's composite chains
  (the partition-space bodies and analyses, the OR/AND extraction and
  the reachability step) and, as one-step programs, the builder walks
  and loops behind ``weight_functions``, ``count_relation_from``,
  ``vector_compose``, ``transfer_multi`` and the parameterized
  quantifications and replacements.  They work directly on the
  manager's flat ``array('q')`` buffers, reached through one
  ``bdd_state`` struct of buffer pointers per manager, which also
  points at the manager's kernel call counter; a walk, loop or program
  run keeps what must survive its growth restarts in a ``bdd_walk`` — a
  program run its program counter too, the ISOP walk its open frames
  and its cover's cubes.
* ``repro/sat/_solver.c`` — the CDCL core behind
  :class:`repro.sat.solver.Solver`.  It owns its state (one
  ``sat_solver`` per solver, freed through ``ffi.gc``), because a solve
  appends learnt clauses mid-search and cannot be restarted the way a
  BDD operation is.

Both are declared in :data:`_CDEF`.  This module compiles them once per
digest of both sources, the declarations and the cffi version
(``cc -O2 -shared -fPIC``) into ``_build/`` next to this module, and
writes cffi's out-of-line ABI module for the same digest beside the
shared object: the declarations, parsed once at build time.  Every load
imports that module and opens the object with its ``dlopen``, so a
process that finds both built imports only ``_cffi_backend`` — not
``cffi`` and its C parser.  No setuptools, no extension machinery, and
a silent fallback to the pure-Python cores when a compiler or cffi is
unavailable.

Environment gate ``REPRO_NATIVE`` (one gate for both cores):

* unset or ``"1"``/``"auto"`` — try to build/load, fall back silently;
* ``"0"`` — never load the native kernel (pure-Python cores);
* ``"require"`` — every :func:`kernel` call raises ``RuntimeError``
  while the kernel cannot load (used by differential tests and
  benchmarks that would silently test nothing).

Each C core mirrors its pure-Python counterpart step for step: the BDD
cores create nodes in the same order, and the solver makes the same
decisions and learns the same clauses.  So synthesis output is
identical either way; :func:`kernel` only decides how fast it runs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import threading
from typing import Any, Optional

_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCES = (
    os.path.join(_DIR, "_kernel.c"),
    os.path.join(os.path.dirname(_DIR), "sat", "_solver.c"),
)
_BUILD_DIR = os.path.join(_DIR, "_build")

#: cffi declarations for both cores' state and entry points (ABI mode),
#: compiled into the out-of-line module at build time; the field order
#: of ``bdd_state`` and ``bdd_walk`` must match ``_kernel.c`` (and the
#: length of ``room`` its ``N_ROOM``), and ``sat_solver`` is opaque.
_CDEF = """
typedef struct {
    int64_t *ctrl;
    int64_t *level, *lo, *hi;
    int64_t *uniq;
    int64_t *and_k, *and_v, *or_k, *or_v, *xor_k, *xor_v, *not_k, *not_v;
    int64_t *ite_ka, *ite_kb, *ite_v;
    int64_t *ex_k, *ex_v, *fa_k, *fa_v;
    int64_t *ae_k1, *ae_k2, *ae_v;
    int64_t *stat_arr;
    int64_t *calls;
    int64_t room[10];
} bdd_state;
int64_t bdd_negate(const bdd_state *st, int64_t f);
int64_t bdd_apply(const bdd_state *st, int64_t op, int64_t f, int64_t g);
int64_t bdd_ite(const bdd_state *st, int64_t f, int64_t g, int64_t h);
int64_t bdd_quantify(const bdd_state *st, int64_t op, int64_t f,
    int64_t cid, const int64_t *cube, int64_t cube_len, int64_t max_level);
int64_t bdd_and_exists(const bdd_state *st, int64_t f, int64_t g,
    int64_t cid, const int64_t *cube, int64_t cube_len, int64_t max_level);
void bdd_clear(const bdd_state *st);
void bdd_grow_unique(const bdd_state *st, int64_t new_mask);
int64_t bdd_grow_table(const bdd_state *st, int64_t t, int64_t new_mask);
typedef struct {
    int64_t *memo;
    int64_t memo_mask, memo_used;
    int64_t *table;
    int64_t table_len;
    int64_t *log;
    int64_t log_len, log_cap;
    int64_t step, acc, acc2;
    int64_t part[3];
    int64_t started, err;
    int64_t stage;
    int64_t *stack;
    int64_t stack_len, stack_cap;
    int64_t *cubes;
    int64_t cubes_len, cubes_cap;
} bdd_walk;
void bdd_walk_clear(bdd_walk *w);
int64_t bdd_reduce_support(const bdd_state *st, bdd_walk *w,
    int64_t lower, int64_t upper, const int64_t *vars, const int64_t *cids,
    int64_t n, int64_t *dropped);
int64_t bdd_fold(const bdd_state *st, bdd_walk *w, int64_t op,
    const int64_t *nodes, int64_t n);
int64_t bdd_models(const bdd_state *st, int64_t root, const int64_t *order,
    int64_t n, int64_t *path, char *out, int64_t cap);
int64_t bdd_isop(const bdd_state *st, bdd_walk *w, int64_t lower,
    int64_t upper, int64_t cubes);
int64_t bdd_run(const bdd_state *src, const bdd_state *st, bdd_walk *w,
    const int64_t *prog, int64_t nsteps, int64_t *regs, const int64_t *vecs,
    int64_t nvars);
typedef struct sat_solver sat_solver;
sat_solver *sat_new(void);
void sat_free(sat_solver *s);
int32_t sat_num_vars(const sat_solver *s);
int sat_set_num_vars(sat_solver *s, int32_t n);
int sat_add_clause(sat_solver *s, const int32_t *lits, int32_t n);
int sat_add_clauses(sat_solver *s, const int32_t *lits,
    const int32_t *sizes, int32_t count);
int sat_solve(sat_solver *s, const int32_t *assumptions, int32_t count);
void sat_model(const sat_solver *s, _Bool *out);
int32_t sat_num_clauses(const sat_solver *s);
const int32_t *sat_clause(const sat_solver *s, int32_t i, int32_t *size);
"""

_lock = threading.Lock()
_loaded = False
_handle: Optional[tuple[Any, Any]] = None
_failure: Optional[str] = None


def _mode() -> str:
    return os.environ.get("REPRO_NATIVE", "auto").strip().lower()


def _compiler() -> Optional[str]:
    import shutil

    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _build_and_load() -> tuple[Any, Any]:
    import _cffi_backend

    digest = hashlib.sha256()
    for path in _SOURCES:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    digest.update(_CDEF.encode())
    digest.update(_cffi_backend.__version__.encode())
    name = f"repro_native_{digest.hexdigest()[:16]}"
    so_path = os.path.join(_BUILD_DIR, name + ".so")
    module_path = os.path.join(_BUILD_DIR, name + ".py")
    if not (os.path.exists(so_path) and os.path.exists(module_path)):
        _build(name, so_path, module_path)
    spec = importlib.util.spec_from_file_location(name, module_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ffi = module.ffi
    return ffi, ffi.dlopen(so_path)


def _build(name: str, so_path: str, module_path: str) -> None:
    """Compile the shared object and write the out-of-line ABI module,
    whichever is missing.  Each is written under a per-pid scratch name
    and renamed into place, so concurrent builds (parallel workers
    importing simultaneously) never race."""
    os.makedirs(_BUILD_DIR, exist_ok=True)
    scratch = os.path.join(_BUILD_DIR, f".tmp_{os.getpid()}")
    if not os.path.exists(so_path):
        cc = _compiler()
        if cc is None:
            raise RuntimeError("no C compiler found (cc/gcc/clang)")
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", scratch + ".so", *_SOURCES],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(scratch + ".so", so_path)
    if not os.path.exists(module_path):
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(name, None, compiler_verbose=False)
        ffi.emit_python_code(scratch + ".py")
        os.replace(scratch + ".py", module_path)


def kernel() -> Optional[tuple[Any, Any]]:
    """The loaded ``(ffi, lib)`` pair, or ``None`` when native cores are
    disabled or unavailable.  Build/load happens once per process; under
    ``REPRO_NATIVE=require`` every call after a failed load raises."""
    global _loaded, _handle, _failure
    if not _loaded:
        with _lock:
            if not _loaded:
                if _mode() == "0":
                    _failure = "disabled by REPRO_NATIVE=0"
                else:
                    try:
                        _handle = _build_and_load()
                    except Exception as exc:  # missing cffi/cc, compile error
                        _failure = f"{type(exc).__name__}: {exc}"
                _loaded = True
    if _handle is None and _mode() == "require":
        raise RuntimeError(
            f"REPRO_NATIVE=require but the native kernel (BDD and SAT "
            f"cores) failed to load: {_failure}"
        )
    return _handle


def native_status() -> dict[str, Any]:
    """Diagnostic view: whether the kernel is loaded and, if not, why."""
    return {
        "mode": _mode(),
        "loaded": _handle is not None,
        "attempted": _loaded,
        "failure": _failure,
    }
