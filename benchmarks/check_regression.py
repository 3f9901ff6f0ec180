"""Benchmark regression gate for the substrate microbenchmarks.

Compares a freshly generated ``BENCH_substrate.json`` against the
committed baseline and exits non-zero when any shared test slowed down
by more than the threshold (default 25%).

For each test the *per-round* ``timing.mean`` is preferred when both
records carry one — it excludes untimed setup and is what the fixed-work
harness controls; ``wall_time`` is the fallback for older baselines that
predate per-round timing.  Tests present on only one side are reported
and skipped: new benchmarks must not fail the gate the run that
introduces them, and retired ones must not block their own removal.
Entries flagged ``"gated": false`` (informational rows like the
telemetry-overhead comparison) are always skipped.

Records also carry two run flags: ``instrumented`` (did obs collection
run during the timed rounds?) and ``native`` (did the native kernel's
BDD and SAT cores run them, or the pure-Python cores?).  Tracing and the runtime monitor
are off by default and the kernel is on, and the committed substrate
baselines are measured that way; when the two sides of a comparison
disagree on either flag the gate *skips* that test with a loud note
rather than flag a bogus regression (or, worse, bless a baseline
measured the other way).  Entries written before a flag existed are
treated as matching.

Usage::

    python benchmarks/check_regression.py BASELINE CURRENT [--threshold 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_entries(path: Path) -> dict[str, dict]:
    payload = json.loads(path.read_text())
    return {entry["test"]: entry for entry in payload.get("entries", [])}


def entry_time(entry: dict) -> tuple[float, str]:
    """The gated duration and which signal it came from."""
    timing = entry.get("timing")
    if timing and timing.get("mean"):
        return float(timing["mean"]), "timing.mean"
    return float(entry["wall_time"]), "wall_time"


#: Run flags that make two timings incomparable when they differ, with
#: the advice printed for the tests skipped because of each.
RUN_FLAGS = {
    "instrumented": "Re-run the benchmarks with tracing/monitoring off (the "
                    "default; REPRO_BENCH_OBS unset) to get comparable "
                    "numbers.",
    "native": "Re-run the benchmarks on the kernel the baseline used "
              "(REPRO_NATIVE=require for the native kernel, "
              "REPRO_NATIVE=0 for the pure-Python cores).",
}


def flag_mismatch(base_entry: dict, cur_entry: dict, flag: str) -> bool:
    """True when the two records disagree on the run flag ``flag``
    (missing flags — records older than the flag — count as
    matching)."""
    base_flag = base_entry.get(flag)
    cur_flag = cur_entry.get(flag)
    if base_flag is None or cur_flag is None:
        return False
    return bool(base_flag) != bool(cur_flag)


def compare(
    baseline: dict[str, dict], current: dict[str, dict], threshold: float
) -> int:
    regressions = []
    mismatched: dict[str, list[str]] = {flag: [] for flag in RUN_FLAGS}
    width = max((len(name) for name in current), default=4)
    print(f"{'test':<{width}}  {'baseline':>10}  {'current':>10}  {'ratio':>7}  signal")
    for name in sorted(current):
        if (current[name].get("gated") is False
                or baseline.get(name, {}).get("gated") is False):
            print(f"{name:<{width}}  {'—':>10}  "
                  f"{entry_time(current[name])[0]:>10.4f}  {'info':>7}  "
                  f"(ungated row, skipped)")
            continue
        if name not in baseline:
            print(f"{name:<{width}}  {'—':>10}  "
                  f"{entry_time(current[name])[0]:>10.4f}  {'new':>7}  (skipped)")
            continue
        base_entry = baseline[name]
        cur_entry = current[name]
        flag = next((flag for flag in RUN_FLAGS
                     if flag_mismatch(base_entry, cur_entry, flag)), None)
        if flag is not None:
            mismatched[flag].append(name)
            print(f"{name:<{width}}  {'—':>10}  {'—':>10}  {'n/a':>7}  "
                  f"(skipped: baseline {flag}={base_entry[flag]}, current "
                  f"{flag}={cur_entry[flag]}; timings not comparable)")
            continue
        cur_time, cur_signal = entry_time(cur_entry)
        # Only compare like with like: fall back to wall_time when the
        # baseline predates per-round timing.
        if base_entry.get("timing") and cur_entry.get("timing"):
            base_time, signal = entry_time(base_entry)
        else:
            base_time, signal = float(base_entry["wall_time"]), "wall_time"
            cur_time = float(cur_entry["wall_time"])
        ratio = cur_time / base_time if base_time else float("inf")
        flag = " <-- REGRESSION" if ratio > 1 + threshold else ""
        print(f"{name:<{width}}  {base_time:>10.4f}  {cur_time:>10.4f}  "
              f"{ratio:>6.2f}x  {signal}{flag}")
        if ratio > 1 + threshold:
            regressions.append((name, ratio))
    removed = sorted(set(baseline) - set(current))
    if removed:
        print(f"absent from current run (skipped): {', '.join(removed)}")
    for flag, names in mismatched.items():
        if names:
            print(f"\nWARNING: {len(names)} test(s) skipped because the "
                  f"{flag} flag differs between runs: {', '.join(names)}.\n"
                  f"{RUN_FLAGS[flag]}")
    if regressions:
        print(f"\nFAIL: {len(regressions)} test(s) regressed beyond "
              f"{100 * threshold:.0f}%:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
        return 1
    print(f"\nOK: no test regressed beyond {100 * threshold:.0f}%")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument("current", type=Path, help="freshly generated JSON")
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="maximum tolerated slowdown as a fraction (default 0.25)",
    )
    args = parser.parse_args(argv)
    return compare(
        load_entries(args.baseline), load_entries(args.current), args.threshold
    )


if __name__ == "__main__":
    sys.exit(main())
