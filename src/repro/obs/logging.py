"""Structured JSONL run log (``--log-json PATH``).

One JSON object per line: an obs record (:func:`repro.obs.record` —
``v``, ``ev``, ``t`` in unix time, ``pid``, ``run`` when a sink names
the run, then the fact's own fields such as ``sink`` or ``pass_name``)
plus its ``level``.  Installed as an obs sink (``obs.install(logger)``)
it has three consumers:

* the file itself — greppable, ``jq``-able, append-only; every obs
  event (pass boundaries, committed cones, ...) lands here at ``info``;
* a bounded in-memory tail (a :class:`~repro.obs.registry.Ring` that
  counts what it drops) that :mod:`repro.obs.crashdump` embeds in
  crash bundles, so a post-mortem shows the run's last words even when
  the log file is unavailable;
* the telemetry bus mirrors its worker records here (at ``debug``,
  ``ev`` prefixed ``bus.``, the worker's ``t`` kept), so one file
  interleaves pass boundaries, cone lifecycle, and worker events.

Only the CLI imports this module, when ``--log-json`` is given.  (The
absolute-import policy means this name never shadows the stdlib
``logging`` either.)
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Optional

from repro.obs.registry import Ring

#: Records kept in memory for crash bundles.
DEFAULT_TAIL = 200

#: Of those, the newest ones a crash bundle embeds.
CRASH_TAIL = 50


class StructuredLogger:
    """Append-only JSONL writer with a bounded in-memory tail.

    Writing never raises into the host run — an unwritable path
    degrades to tail-only operation, counted in :attr:`write_errors`.
    """

    def __init__(
        self,
        path: Optional[str | Path] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self.path = Path(path) if path else None
        self.run_id = run_id
        self.records_written = 0
        self.write_errors = 0
        self.tail = Ring(DEFAULT_TAIL)
        self._lock = threading.Lock()
        self._handle = None
        if self.path is not None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", buffering=1)
            except OSError:
                self._handle = None
                self.write_errors += 1

    def log(self, record: dict[str, Any], level: str) -> None:
        """Sink method: keep ``record`` plus ``level`` as one line."""
        line = {**record, "level": level}
        self.tail.append(line)
        text = json.dumps(line, separators=(",", ":"), default=str)
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.write(text + "\n")
                    self.records_written += 1
                except (OSError, ValueError):
                    self.write_errors += 1

    def event(self, record: dict[str, Any]) -> None:
        """Sink method: an obs event becomes an ``info`` line."""
        self.log(record, "info")

    def crash_keys(self) -> dict[str, Any]:
        """Sink method: the run's last words for a crash bundle."""
        tail = self.tail.tail(CRASH_TAIL)
        return {"log_tail": tail} if tail else {}

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def __enter__(self) -> "StructuredLogger":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False
