"""On-demand build and load of the native BDD operator kernel.

The manager's hot operator cores (`ite`, AND/OR/XOR, negate) and the
quantification cores (exists/forall/and_exists) have a C
implementation in ``_kernel.c`` that works directly on the manager's
flat ``array('q')`` buffers, reached through one ``bdd_state`` struct
of buffer pointers per manager (declared in :data:`_CDEF`).  This
module compiles it once per source digest (``cc -O2 -shared -fPIC``)
into ``_build/`` next to the source and loads it through cffi's ABI
mode — no setuptools, no extension machinery, and a silent fallback to
the pure-Python cores when a compiler or cffi is unavailable.

Environment gate ``REPRO_NATIVE``:

* unset or ``"1"``/``"auto"`` — try to build/load, fall back silently;
* ``"0"`` — never load the native kernel (pure-Python cores);
* ``"require"`` — every :func:`kernel` call raises ``RuntimeError``
  while the kernel cannot load (used by differential tests and
  benchmarks that would silently test nothing).

Both kernels share one storage layout and one traversal order, so node
numbering — and therefore synthesis output — is identical either way;
:func:`kernel` only decides how fast the frames run.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import threading
from typing import Any, Optional

_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_DIR, "_kernel.c")
_BUILD_DIR = os.path.join(_DIR, "_build")

#: cffi declarations for the kernel's state struct and entry points (ABI
#: mode); the struct's field order must match ``_kernel.c``.
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

    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    digest = hashlib.sha256(source + _CDEF.encode()).hexdigest()[:16]
    so_path = os.path.join(_BUILD_DIR, f"repro_bdd_kernel_{digest}.so")
    if not os.path.exists(so_path):
        cc = _compiler()
        if cc is None:
            raise RuntimeError("no C compiler found (cc/gcc/clang)")
        os.makedirs(_BUILD_DIR, exist_ok=True)
        # Per-pid scratch name + atomic rename, so concurrent builds
        # (parallel workers importing simultaneously) never race.
        scratch = os.path.join(_BUILD_DIR, f".tmp_{os.getpid()}.so")
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", scratch, _SOURCE],
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
            f"REPRO_NATIVE=require but the native BDD kernel failed to "
            f"load: {_failure}"
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
