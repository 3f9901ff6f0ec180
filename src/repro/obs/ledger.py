"""Run ledger: persistent, append-only cross-run telemetry.

PRs 1 and 4 made a *single* run observable — metrics, traces, a status
heartbeat, crash bundles — but every record died with the process.  The
ledger is the cross-run memory: an SQLite database (WAL-mode, safe for
concurrent appenders) holding one row per run, per pipeline pass, and
per decomposed cone, so tooling can compare run N against run N-1.

Three tables:

``runs``
    One row per CLI invocation: command, argv, input path, a canonical
    netlist signature, a config hash, worker count, wall time, peak BDD
    nodes, literal counts before/after, degradation counts, and whether
    obs instrumentation was live (timings from instrumented runs are not
    comparable with uninstrumented ones — same rule as the bench gate).
``passes``
    One row per completed pipeline pass (name, elapsed, exhausted flag),
    appended *at the pass boundary* so a crashed run still shows how far
    it got.
``cones``
    One row per committed sink, on either transport: the action taken,
    the backend, both costs, the step's elapsed time, and the exact
    function-canonical interval ``signature`` (canonical over the
    support variables ranked by name — the key a future cross-run cone
    cache needs).  A parallel cone adds the structural
    :meth:`~repro.synth.conetask.ConeTask.task_key` (known before
    dispatch) and the worker's pid.

Everything here is **off by default**: no CLI flag, no import, no I/O.
A :class:`LedgerRun` installed as an obs sink turns the engine's
``pipeline.pass`` and ``cone`` event records into rows; only the CLI imports
this module, so a run without ``--ledger`` never loads it
(``tests/test_telemetry.py`` asserts exactly that).

The JSONL export (:meth:`RunLedger.export_jsonl`) is the artifact form:
one self-contained JSON object per run, nested passes and cones
included, for CI uploads and offline diffing.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
import uuid
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.obs.registry import ENVELOPE

SCHEMA_VERSION = 1

#: How long a writer waits on a locked database before failing (seconds).
#: Two processes appending to the same ledger (parallel workers, two
#: overlapping CLI runs) serialise on this instead of corrupting it.
BUSY_TIMEOUT = 10.0

_RUN_FIELDS = (
    "wall",
    "peak_nodes",
    "literals_before",
    "literals_after",
    "area",
    "delay",
    "latches",
    "decomposed",
    "degraded",
    "degraded_cones",
)


class LedgerError(RuntimeError):
    """A ledger file that cannot be opened or read (missing, corrupt, or
    not an SQLite database)."""


def netlist_signature(network: Any) -> str:
    """Canonical signature of a network's structure (sha256 over the
    deterministic :func:`~repro.engine.checkpoint.network_to_dict` dump).
    Two runs over the same design get the same signature, which is what
    lets ``repro history`` group trajectories per design."""
    from repro.engine.checkpoint import network_to_dict

    payload = json.dumps(
        network_to_dict(network), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def config_hash(options: Any, pipeline_passes: Optional[list[str]] = None) -> str:
    """Hash of the synthesis configuration (options dict + pass list), so
    history comparisons can tell "same design, different knobs" apart
    from a genuine regression."""
    data = {
        "options": options.to_dict() if hasattr(options, "to_dict") else options,
        "passes": list(pipeline_passes or []),
    }
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class RunLedger:
    """Append-only SQLite store of run/pass/cone telemetry.

    ``RunLedger(path)`` creates the file (and schema) when missing;
    ``RunLedger(path, readonly=True)`` refuses to create and raises
    :class:`LedgerError` on a missing or corrupt file — the mode the
    ``repro history`` commands use.
    """

    def __init__(self, path: str | Path, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        if readonly and not self.path.exists():
            raise LedgerError(f"no ledger at {self.path}")
        try:
            if readonly:
                self._conn = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True,
                    timeout=BUSY_TIMEOUT,
                )
            else:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT)
            self._conn.row_factory = sqlite3.Row
            if not readonly:
                # WAL lets a reader (history, a dashboard) coexist with a
                # live appender; the busy timeout makes concurrent
                # appenders queue instead of erroring.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute(
                    f"PRAGMA busy_timeout={int(BUSY_TIMEOUT * 1000)}"
                )
                self._ensure_schema()
            else:
                self._probe()
        except sqlite3.Error as exc:
            raise LedgerError(
                f"{self.path} is not a readable run ledger: {exc}"
            ) from exc

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def _ensure_schema(self) -> None:
        with self._conn:
            self._conn.executescript(
                """
                CREATE TABLE IF NOT EXISTS meta (
                    key TEXT PRIMARY KEY, value TEXT);
                CREATE TABLE IF NOT EXISTS runs (
                    id TEXT PRIMARY KEY,
                    started_at REAL NOT NULL,
                    finished_at REAL,
                    status TEXT NOT NULL DEFAULT 'running',
                    command TEXT,
                    argv TEXT,
                    input TEXT,
                    netlist_signature TEXT,
                    config_hash TEXT,
                    workers INTEGER,
                    instrumented INTEGER,
                    wall REAL,
                    peak_nodes INTEGER,
                    literals_before INTEGER,
                    literals_after INTEGER,
                    area REAL,
                    delay REAL,
                    latches INTEGER,
                    decomposed INTEGER,
                    degraded INTEGER,
                    degraded_cones INTEGER,
                    extra TEXT);
                CREATE TABLE IF NOT EXISTS passes (
                    seq INTEGER PRIMARY KEY AUTOINCREMENT,
                    run_id TEXT NOT NULL,
                    idx INTEGER NOT NULL,
                    pass TEXT NOT NULL,
                    elapsed REAL,
                    exhausted INTEGER DEFAULT 0);
                CREATE TABLE IF NOT EXISTS cones (
                    seq INTEGER PRIMARY KEY AUTOINCREMENT,
                    run_id TEXT NOT NULL,
                    sink TEXT NOT NULL,
                    task_key TEXT,
                    signature TEXT,
                    cone_inputs INTEGER,
                    action TEXT,
                    elapsed REAL,
                    tree_cost INTEGER,
                    original_cost INTEGER,
                    pid INTEGER);
                CREATE INDEX IF NOT EXISTS idx_passes_run ON passes(run_id);
                CREATE INDEX IF NOT EXISTS idx_cones_run ON cones(run_id);
                CREATE INDEX IF NOT EXISTS idx_cones_key ON cones(task_key);
                """
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES "
                "('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        # Additive migration: per-pass network metrics (JSON of node/
        # literal/latch counts and deltas).  Purely extra data — readers
        # of older files see NULL — so the schema version is unchanged
        # and pre-existing ledgers upgrade in place.
        try:
            with self._conn:
                self._conn.execute(
                    "ALTER TABLE passes ADD COLUMN metrics TEXT"
                )
        except sqlite3.OperationalError:
            pass  # column already present
        # Additive migration: the decomposition backend that handled
        # each cone (bdd / sat-cegar; NULL in pre-backend ledgers).
        try:
            with self._conn:
                self._conn.execute(
                    "ALTER TABLE cones ADD COLUMN backend TEXT"
                )
        except sqlite3.OperationalError:
            pass  # column already present

    def _probe(self) -> None:
        """Fail fast (``LedgerError`` via the caller) on a non-ledger
        file opened for reading."""
        rows = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'"
        ).fetchall()
        names = {row["name"] for row in rows}
        if "runs" not in names:
            raise sqlite3.DatabaseError("missing 'runs' table")

    # -- writing --------------------------------------------------------

    def begin_run(
        self,
        command: str,
        argv: Optional[list[str]] = None,
        input: Optional[str] = None,
        netlist_signature: Optional[str] = None,
        config_hash: Optional[str] = None,
        workers: int = 0,
        instrumented: bool = False,
        extra: Optional[dict[str, Any]] = None,
    ) -> str:
        run_id = uuid.uuid4().hex[:12]
        with self._conn:
            self._conn.execute(
                "INSERT INTO runs (id, started_at, status, command, argv, "
                "input, netlist_signature, config_hash, workers, "
                "instrumented, extra) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
                (
                    run_id,
                    time.time(),
                    "running",
                    command,
                    json.dumps(argv) if argv is not None else None,
                    input,
                    netlist_signature,
                    config_hash,
                    int(workers),
                    int(bool(instrumented)),
                    json.dumps(extra) if extra else None,
                ),
            )
        return run_id

    def finish_run(
        self, run_id: str, status: str = "finished", **fields: Any
    ) -> None:
        """Finalise a run row.  ``fields`` may be any of the result
        columns (``wall``, ``peak_nodes``, ``literals_before/after``,
        ``area``, ``delay``, ``latches``, ``decomposed``, ``degraded``,
        ``degraded_cones``) plus ``extra`` (merged into the JSON blob)."""
        known = {k: fields[k] for k in _RUN_FIELDS if k in fields}
        unknown = set(fields) - set(known) - {"extra"}
        if unknown:
            raise ValueError(f"unknown run fields: {sorted(unknown)}")
        sets = ["finished_at=?", "status=?"]
        values: list[Any] = [time.time(), status]
        for key, value in known.items():
            sets.append(f"{key}=?")
            if key == "degraded":
                value = int(bool(value))
            values.append(value)
        extra = fields.get("extra")
        if extra:
            row = self._conn.execute(
                "SELECT extra FROM runs WHERE id=?", (run_id,)
            ).fetchone()
            merged = dict(json.loads(row["extra"]) if row and row["extra"] else {})
            merged.update(extra)
            sets.append("extra=?")
            values.append(json.dumps(merged, default=str))
        values.append(run_id)
        with self._conn:
            self._conn.execute(
                f"UPDATE runs SET {', '.join(sets)} WHERE id=?", values
            )

    def record_pass(
        self,
        run_id: str,
        index: int,
        name: str,
        elapsed: Optional[float],
        exhausted: bool = False,
        metrics: Optional[dict[str, Any]] = None,
    ) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT INTO passes (run_id, idx, pass, elapsed, exhausted, "
                "metrics) VALUES (?,?,?,?,?,?)",
                (
                    run_id, index, name, elapsed, int(bool(exhausted)),
                    json.dumps(metrics, sort_keys=True) if metrics else None,
                ),
            )

    def record_cones(
        self, run_id: str, rows: Iterable[dict[str, Any]]
    ) -> int:
        """Append per-cone rows (dicts with any of ``sink``, ``task_key``,
        ``signature``, ``cone_inputs``, ``action``, ``elapsed``,
        ``tree_cost``, ``original_cost``, ``pid``, ``backend``)."""
        payload = [
            (
                run_id,
                row.get("sink"),
                row.get("task_key"),
                row.get("signature"),
                row.get("cone_inputs"),
                row.get("action"),
                row.get("elapsed"),
                row.get("tree_cost"),
                row.get("original_cost"),
                row.get("pid"),
                row.get("backend"),
            )
            for row in rows
        ]
        with self._conn:
            self._conn.executemany(
                "INSERT INTO cones (run_id, sink, task_key, signature, "
                "cone_inputs, action, elapsed, tree_cost, original_cost, "
                "pid, backend) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
                payload,
            )
        return len(payload)

    # -- reading --------------------------------------------------------

    @staticmethod
    def _run_row(row: sqlite3.Row) -> dict[str, Any]:
        data = dict(row)
        for key in ("argv", "extra"):
            if data.get(key):
                try:
                    data[key] = json.loads(data[key])
                except (TypeError, ValueError):
                    pass
        data["degraded"] = bool(data.get("degraded"))
        data["instrumented"] = bool(data.get("instrumented"))
        return data

    def runs(
        self,
        command: Optional[str] = None,
        input: Optional[str] = None,
        status: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> list[dict[str, Any]]:
        """Run rows, oldest first, optionally filtered.  With ``limit``
        the *newest* ``limit`` rows are returned (still oldest-first)."""
        clauses, values = [], []
        for column, value in (
            ("command", command), ("input", input), ("status", status)
        ):
            if value is not None:
                clauses.append(f"{column}=?")
                values.append(value)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = f"SELECT * FROM runs {where} ORDER BY started_at DESC, id DESC"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        rows = [self._run_row(r) for r in self._conn.execute(sql, values)]
        rows.reverse()
        return rows

    def run(self, run_id: str) -> dict[str, Any]:
        """One run by exact id or unique prefix (raises
        :class:`LedgerError` on no / ambiguous match)."""
        rows = self._conn.execute(
            "SELECT * FROM runs WHERE id LIKE ? ORDER BY started_at",
            (run_id + "%",),
        ).fetchall()
        exact = [r for r in rows if r["id"] == run_id]
        if exact:
            rows = exact
        if not rows:
            raise LedgerError(f"no run {run_id!r} in {self.path}")
        if len(rows) > 1:
            ids = ", ".join(r["id"] for r in rows)
            raise LedgerError(f"ambiguous run prefix {run_id!r}: {ids}")
        return self._run_row(rows[0])

    def passes(self, run_id: str) -> list[dict[str, Any]]:
        rows = []
        for r in self._conn.execute(
            "SELECT idx, pass, elapsed, exhausted, metrics FROM passes "
            "WHERE run_id=? ORDER BY seq",
            (run_id,),
        ):
            row = dict(r)
            if row.get("metrics"):
                try:
                    row["metrics"] = json.loads(row["metrics"])
                except (TypeError, ValueError):
                    pass
            rows.append(row)
        return rows

    def cones(self, run_id: str) -> list[dict[str, Any]]:
        return [
            dict(r)
            for r in self._conn.execute(
                "SELECT sink, task_key, signature, cone_inputs, action, "
                "elapsed, tree_cost, original_cost, pid, backend "
                "FROM cones WHERE run_id=? ORDER BY seq",
                (run_id,),
            )
        ]

    # -- export ---------------------------------------------------------

    def export_jsonl(self, path: str | Path) -> int:
        """Write every run (with nested passes/cones) as one JSON object
        per line; returns the number of runs written."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with target.open("w") as handle:
            for run in self.runs():
                run["passes"] = self.passes(run["id"])
                run["cones"] = self.cones(run["id"])
                handle.write(json.dumps(run, default=str) + "\n")
                count += 1
        return count


# ---------------------------------------------------------------------------
# Run comparison (the quality analogue of benchmarks/check_regression.py)
# ---------------------------------------------------------------------------

#: Metrics where *larger is worse* and any increase beyond the absolute
#: tolerance is a quality regression.
_QUALITY_METRICS = (
    ("literals_after", 0),
    ("area", 0),
    ("degraded_cones", 0),
)

#: Shortest base-run wall time (seconds) worth a wall-time verdict:
#: below it, scheduler noise outweighs any slowdown the threshold could
#: catch, so :func:`compare_runs` adds a note instead.
MIN_COMPARED_WALL = 0.5


def compare_runs(
    base: dict[str, Any],
    current: dict[str, Any],
    wall_threshold: float = 0.25,
) -> dict[str, Any]:
    """Compare two run rows the way ``check_regression.py`` compares
    bench timings, generalised to synthesis quality.

    Quality metrics (literal count, mapped area, degraded-cone count)
    regress on *any* increase; wall time regresses beyond
    ``wall_threshold`` (fractional) — but wall is only compared when both
    runs agree on the ``instrumented`` flag, same as the bench gate, and
    the base run took longer than :data:`MIN_COMPARED_WALL`.
    Returns ``{"rows": [...], "regressions": [...], "notes": [...]}``.
    """
    rows: list[dict[str, Any]] = []
    regressions: list[str] = []
    notes: list[str] = []
    if base.get("netlist_signature") != current.get("netlist_signature"):
        notes.append(
            "netlist signatures differ — runs are over different designs"
        )
    if base.get("config_hash") != current.get("config_hash"):
        notes.append(
            "config hashes differ — knobs changed between runs"
        )
    for metric, tolerance in _QUALITY_METRICS:
        b, c = base.get(metric), current.get(metric)
        if b is None or c is None:
            continue
        regressed = c > b + tolerance
        rows.append(
            {"metric": metric, "base": b, "current": c,
             "regressed": regressed}
        )
        if regressed:
            regressions.append(
                f"{metric}: {b} -> {c} (quality regression)"
            )
    b_wall, c_wall = base.get("wall"), current.get("wall")
    if b_wall and c_wall:
        if bool(base.get("instrumented")) != bool(current.get("instrumented")):
            notes.append(
                "instrumented flag differs — wall times not comparable, "
                "skipped"
            )
        elif b_wall <= MIN_COMPARED_WALL:
            notes.append(
                f"base run took {b_wall:.3f}s, within the "
                f"{MIN_COMPARED_WALL}s noise floor — wall times not compared"
            )
        else:
            ratio = c_wall / b_wall
            regressed = ratio > 1 + wall_threshold
            rows.append(
                {"metric": "wall", "base": round(b_wall, 4),
                 "current": round(c_wall, 4), "ratio": round(ratio, 3),
                 "regressed": regressed}
            )
            if regressed:
                regressions.append(
                    f"wall: {b_wall:.3f}s -> {c_wall:.3f}s "
                    f"({ratio:.2f}x > {1 + wall_threshold:.2f}x)"
                )
    return {"rows": rows, "regressions": regressions, "notes": notes}


def trajectory_regressions(
    ledger: RunLedger, wall_threshold: float = 0.25
) -> list[dict[str, Any]]:
    """Scan every (command, input) group: compare the latest finished run
    against its predecessor.  Returns one entry per group that regressed."""
    groups: dict[tuple[Optional[str], Optional[str]], list[dict[str, Any]]] = {}
    for run in ledger.runs(status="finished"):
        groups.setdefault((run.get("command"), run.get("input")), []).append(run)
    found = []
    for (command, input_), runs in sorted(
        groups.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
    ):
        if len(runs) < 2:
            continue
        base, current = runs[-2], runs[-1]
        result = compare_runs(base, current, wall_threshold=wall_threshold)
        if result["regressions"]:
            found.append(
                {
                    "command": command,
                    "input": input_,
                    "base": base["id"],
                    "current": current["id"],
                    "regressions": result["regressions"],
                }
            )
    return found


# ---------------------------------------------------------------------------
# The run in flight, as an obs sink
# ---------------------------------------------------------------------------

#: ``pipeline.pass`` event fields that are columns; the rest, past the
#: record's envelope, are metrics.
_PASS_FIELDS = ("index", "pass_name", "elapsed", "exhausted")


class LedgerRun:
    """Obs sink writing one run's rows: a ``pipeline.pass`` record
    becomes a pass row, a ``cone`` record a cone row (buffered and
    written in one batch ahead of the next pass or run row).
    Appends never kill the synthesis run: a failure is counted as
    ``ledger.errors`` instead."""

    def __init__(self, ledger: RunLedger, run_id: str) -> None:
        self.ledger = ledger
        self.run_id = run_id
        self._cones: list[dict[str, Any]] = []

    def info(self) -> dict[str, str]:
        """Where the run's rows live (status.json / crash bundles)."""
        return {"path": str(self.ledger.path), "run_id": self.run_id}

    def crash_keys(self) -> dict[str, Any]:
        return {"ledger": self.info()}

    status_keys = crash_keys

    def event(self, record: dict[str, Any]) -> None:
        if record["ev"] == "cone":
            self._cones.append(
                {**record, "sink": record["signal"],
                 "pid": record.get("worker_pid")}
            )
        elif record["ev"] == "pipeline.pass":
            metrics = {
                k: v for k, v in record.items()
                if k not in _PASS_FIELDS + ENVELOPE
            }
            self._guarded(
                self.ledger.record_pass, self.run_id, record["index"],
                record["pass_name"], record["elapsed"], record["exhausted"],
                metrics=metrics or None,
            )

    def finish(self, status: str = "finished", **fields: Any) -> None:
        """Finalise the run row (best-effort, like every append)."""
        self._guarded(self.ledger.finish_run, self.run_id, status, **fields)

    def _guarded(self, append, *args: Any, **kwargs: Any) -> None:
        from repro import obs as _obs

        try:
            if self._cones:
                self.ledger.record_cones(self.run_id, self._cones)
                self._cones = []
            append(*args, **kwargs)
        except Exception:
            if _obs.enabled():
                _obs.inc("ledger.errors")
