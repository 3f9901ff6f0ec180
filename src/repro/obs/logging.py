"""Structured JSONL run log (``--log-json PATH``).

One JSON object per line, leveled and run/cone-correlated: every record
carries ``t`` (unix time), ``level``, ``event``, ``pid``, the run id
(the logger's own, else the one the obs sink list names), and whatever
keyword fields the call site adds (``sink``, ``pass``, ...).  Installed
as an obs sink (``obs.install(logger)``) it has three consumers:

* the file itself — greppable, ``jq``-able, append-only; every obs
  event (pass boundaries, cone merges, ...) lands here at ``info``;
* a bounded in-memory tail that :mod:`repro.obs.crashdump` embeds in
  crash bundles, so a post-mortem shows the run's last words even when
  the log file is unavailable;
* the telemetry bus mirrors its worker records here (at ``debug``), so
  one file interleaves pass boundaries, cone lifecycle, and worker
  events in wall-clock order.

Only the CLI imports this module, when ``--log-json`` is given.  (The
absolute-import policy means this name never shadows the stdlib
``logging`` either.)
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Optional

from repro.obs.registry import run_id as _run_id

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Records kept in memory for crash bundles.
DEFAULT_TAIL = 200

#: Of those, the newest ones a crash bundle embeds.
CRASH_TAIL = 50


class StructuredLogger:
    """Append-only JSONL writer with a bounded in-memory tail.

    ``level`` is the *threshold*: records below it are discarded (the
    default ``debug`` keeps everything, including the bus mirror).
    Writing never raises into the host run — an unwritable path
    degrades to tail-only operation, counted in :attr:`write_errors`.
    """

    def __init__(
        self,
        path: Optional[str | Path] = None,
        level: str = "debug",
        run_id: Optional[str] = None,
        tail: int = DEFAULT_TAIL,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown log level {level!r} (choose from {sorted(LEVELS)})"
            )
        self.path = Path(path) if path else None
        self.level = level
        self.threshold = LEVELS[level]
        self.run_id = run_id
        self.records_written = 0
        self.write_errors = 0
        self.tail: deque[dict[str, Any]] = deque(maxlen=tail)
        self._lock = threading.Lock()
        self._handle = None
        if self.path is not None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", buffering=1)
            except OSError:
                self._handle = None
                self.write_errors += 1

    def log(self, level: str, event: str, **fields: Any) -> bool:
        """Record one event; returns False when filtered or unwritten."""
        severity = LEVELS.get(level)
        if severity is None or severity < self.threshold:
            return False
        record: dict[str, Any] = {
            "t": time.time(),
            "level": level,
            "event": event,
            "pid": os.getpid(),
        }
        run = self.run_id or _run_id()
        if run is not None:
            record["run"] = run
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            self.tail.append(record)
            if self._handle is not None:
                try:
                    self._handle.write(line + "\n")
                    self.records_written += 1
                except (OSError, ValueError):
                    self.write_errors += 1
            return True

    def debug(self, event: str, **fields: Any) -> bool:
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> bool:
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> bool:
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> bool:
        return self.log("error", event, **fields)

    def tail_records(self, limit: Optional[int] = None) -> list[dict[str, Any]]:
        """The newest retained records, oldest first."""
        with self._lock:
            records = list(self.tail)
        if limit is not None:
            records = records[-limit:]
        return records

    def event(self, name: str, fields: dict[str, Any]) -> None:
        """Sink method: an obs event becomes an ``info`` record."""
        self.log("info", name, **fields)

    def crash_keys(self) -> dict[str, Any]:
        """Sink method: the run's last words for a crash bundle."""
        tail = self.tail_records(CRASH_TAIL)
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
