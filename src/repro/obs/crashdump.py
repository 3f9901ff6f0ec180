"""Crash diagnostics: capture everything a post-mortem needs, then die.

Long synthesis runs fail at the worst time — hours in, inside an opaque
symbolic step.  :func:`write_crash_bundle` snapshots the run's state
into one JSON file *before* the exception propagates: the exception and
formatted traceback, the full obs report (spans, counters, events — the
``governor.exhausted`` and ``pipeline.pass`` events make degraded runs
attributable), per-manager BDD statistics, whatever *crash context* the
engine registered on the way down (the live pass, the latest checkpoint
path), and the keys each installed obs sink contributes through its
``crash_keys()`` — the trace recorder's tail, the run log's tail, the
ledger run's identity.

The engine layers call :func:`set_crash_context` at cheap, meaningful
moments (pass start, checkpoint write); the CLI's top-level handler
calls :func:`write_crash_bundle` on any unhandled exception and then
re-raises.  Bundle writing is best-effort throughout — a diagnostic
failure must never mask the original error.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Optional

from repro.obs.registry import registry as _global_registry
from repro.obs.registry import report as _obs_report
from repro.obs.registry import sinks as _sinks

BUNDLE_VERSION = 1

_context_lock = threading.Lock()
_crash_context: dict[str, Any] = {}


def set_crash_context(**fields: Any) -> None:
    """Merge ``fields`` into the process-wide crash context (last write
    per key wins).  Cheap — a dict update under a lock — so engine code
    can call it at every pass boundary."""
    with _context_lock:
        _crash_context.update(fields)


def clear_crash_context() -> None:
    """Drop all crash context (start of a fresh run)."""
    with _context_lock:
        _crash_context.clear()


def crash_context() -> dict[str, Any]:
    """A copy of the current crash context."""
    with _context_lock:
        return dict(_crash_context)


#: Cap on remembered worker failures — a mass pool failure should not
#: balloon the crash bundle.
MAX_WORKER_FAILURES = 20


def record_worker_failure(
    sink: str,
    kind: str,
    error: Optional[dict[str, Any]] = None,
    **fields: Any,
) -> None:
    """Append a parallel-worker failure to the crash context.

    Worker exceptions are *handled* in the parent (the cone degrades to a
    structural copy), so they never reach the top-level crash handler on
    their own — but if the run later dies for any reason, the bundle
    should still show which workers failed and with what remote
    traceback.  ``kind`` is one of ``exception`` / ``timeout`` /
    ``pool-broken``; ``error`` carries the serialized exception from
    :func:`repro.synth.conetask.format_worker_error`."""
    entry: dict[str, Any] = {"sink": sink, "kind": kind, "at": time.time()}
    if error:
        entry["error"] = dict(error)
    entry.update(fields)
    with _context_lock:
        failures = _crash_context.setdefault("worker_failures", [])
        failures.append(entry)
        del failures[:-MAX_WORKER_FAILURES]


def build_crash_bundle(exc: BaseException) -> dict[str, Any]:
    """Assemble the diagnostic bundle dict for ``exc`` (every section is
    individually best-effort)."""
    bundle: dict[str, Any] = {
        "version": BUNDLE_VERSION,
        "written_at": time.time(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
        "exception": {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        },
        "context": crash_context(),
    }
    try:
        bundle["obs_report"] = _obs_report()
    except Exception as report_exc:  # pragma: no cover - defensive
        bundle["obs_report"] = {"error": repr(report_exc)}
    bundle["bdd_managers"] = _global_registry().live_bdd()["per_manager"]
    for sink in _sinks("crash_keys"):
        try:
            bundle.update(sink.crash_keys())
        except Exception:  # pragma: no cover - defensive
            pass
    return bundle


def write_crash_bundle(path: str | Path, exc: BaseException) -> Optional[Path]:
    """Write the bundle for ``exc`` to ``path`` (atomically); returns
    the path, or ``None`` when even best-effort writing failed."""
    try:
        bundle = build_crash_bundle(exc)
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch = target.with_suffix(target.suffix + ".tmp")
        scratch.write_text(json.dumps(bundle, indent=1, default=repr) + "\n")
        scratch.replace(target)
        return target
    except Exception:
        return None


def load_crash_bundle(path: str | Path) -> dict[str, Any]:
    """Read a bundle back (plain ``json.loads`` with a version check)."""
    data = json.loads(Path(path).read_text())
    if data.get("version") != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported crash bundle version {data.get('version')!r}"
        )
    return data
