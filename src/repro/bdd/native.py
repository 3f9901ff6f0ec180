"""On-demand build and load of the native kernel.

The native kernel is one shared object compiled from two C sources:

* ``_kernel.c`` (next to this module) — the BDD manager's hot operator
  cores (`ite`, AND/OR/XOR, negate) and quantification cores
  (exists/forall/and_exists).  They work directly on the manager's flat
  ``array('q')`` buffers, reached through one ``bdd_state`` struct of
  buffer pointers per manager.
* ``repro/sat/_solver.c`` — the CDCL core behind
  :class:`repro.sat.solver.Solver`.  It owns its state (one
  ``sat_solver`` per solver, freed through ``ffi.gc``), because a solve
  appends learnt clauses mid-search and cannot be restarted the way a
  BDD operation is.

Both are declared in :data:`_CDEF`.  This module compiles them once per
digest of both sources and the declarations (``cc -O2 -shared -fPIC``)
into ``_build/`` next to this module and loads the result through
cffi's ABI mode — no setuptools, no extension machinery, and a silent
fallback to the pure-Python cores when a compiler or cffi is
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

#: cffi declarations for both cores' state and entry points (ABI mode);
#: ``bdd_state``'s field order must match ``_kernel.c``, and
#: ``sat_solver`` is opaque.
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
} bdd_state;
int64_t bdd_negate(const bdd_state *st, int64_t f);
int64_t bdd_apply(const bdd_state *st, int64_t op, int64_t f, int64_t g);
int64_t bdd_ite(const bdd_state *st, int64_t f, int64_t g, int64_t h);
int64_t bdd_quantify(const bdd_state *st, int64_t op, int64_t f,
    int64_t cid, const int64_t *cube, int64_t cube_len, int64_t max_level);
int64_t bdd_and_exists(const bdd_state *st, int64_t f, int64_t g,
    int64_t cid, const int64_t *cube, int64_t cube_len, int64_t max_level);
void bdd_rehash_unique(const bdd_state *st, int64_t *slots,
    int64_t new_mask);
void bdd_rehash_quantify(const bdd_state *st, int64_t q, int64_t *k,
    int64_t *k2, int64_t *v, int64_t new_mask);
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
    from cffi import FFI

    digest = hashlib.sha256()
    for path in _SOURCES:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    digest.update(_CDEF.encode())
    so_path = os.path.join(
        _BUILD_DIR, f"repro_native_{digest.hexdigest()[:16]}.so"
    )
    if not os.path.exists(so_path):
        cc = _compiler()
        if cc is None:
            raise RuntimeError("no C compiler found (cc/gcc/clang)")
        os.makedirs(_BUILD_DIR, exist_ok=True)
        # Per-pid scratch name + atomic rename, so concurrent builds
        # (parallel workers importing simultaneously) never race.
        scratch = os.path.join(_BUILD_DIR, f".tmp_{os.getpid()}.so")
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", scratch, *_SOURCES],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(scratch, so_path)
    ffi = FFI()
    ffi.cdef(_CDEF)
    lib = ffi.dlopen(so_path)
    return ffi, lib


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
