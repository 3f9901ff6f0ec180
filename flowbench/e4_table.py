"""Table 3.2 (experiment E4) from the full-flow benchmark record.

Rebuilds the E4 table, Algorithm 1 on the macro-block analogs, from the
seed-0 ``macro`` workload of a ``bench_flow.py --out`` record, so one
run gives both the paper's table and the gated timings.  The area and
delay columns are then compared with the committed table that
``benchmarks/bench_e4_table32.py`` produced; a mismatch means the
benchmark does not run the Table 3.2 flow.

Usage::

    python3 flowbench/e4_table.py flowbench/results/BENCH_flow.json \\
        --out flowbench/results/e4_table32.txt \\
        --expect benchmarks/results/e4_table32.txt
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

TITLE = "E4 - Table 3.2: Algorithm 1 on industrial macro-block analogs"
HEADER = (
    f"{'name':>6} {'i/o':>9} {'latch':>6} {'AND':>6} | "
    f"{'pre area':>9} {'delay':>7} | {'alg1 area':>9} {'delay':>7} | "
    f"{'ratios':>15} {'time(s)':>8}"
)


def table(record: dict) -> list[str]:
    lines = [TITLE, "=" * len(TITLE), HEADER]
    area_ratios, delay_ratios = [], []
    for row in record["circuits"]:
        area_ratio = row["area"] / row["pre_area"]
        delay_ratio = row["delay"] / row["pre_delay"]
        area_ratios.append(area_ratio)
        delay_ratios.append(delay_ratio)
        interface = f"{row['inputs']}/{row['outputs']}"
        lines.append(
            f"{row['name']:>6} {interface:>9} {row['latches']:>6} "
            f"{row['and_count']:>6} | {row['pre_area']:>9.0f} "
            f"{row['pre_delay']:>7.2f} | {row['area']:>9.0f} "
            f"{row['delay']:>7.2f} | ({area_ratio:.3f}, {delay_ratio:.3f}) "
            f"{statistics.median(row['norm_s']):>8.1f}"
        )
    lines.append("-" * len(HEADER))
    lines.append(
        f"{'avg':>6} {'':>9} {'':>6} {'':>6} | {'':>9} {'':>7} | "
        f"{'':>9} {'':>7} | ({statistics.fmean(area_ratios):.3f}, "
        f"{statistics.fmean(delay_ratios):.3f})  (paper: 0.88, 0.94)"
    )
    geo = math.exp(statistics.fmean(math.log(r) for r in area_ratios))
    lines.append(f"time(s): host-normalised median of the timed rounds; "
                 f"geomean area ratio {geo:.3f}")
    return lines


def mapped_columns(lines: list[str]) -> dict[str, list[str]]:
    """``{circuit: [pre area, pre delay, alg1 area, alg1 delay]}`` of a
    table's circuit rows."""
    columns = {}
    for line in lines:
        parts = line.split("|")
        if len(parts) != 4 or not parts[0].split() or parts[0].split()[0] == "name":
            continue
        name = parts[0].split()[0]
        if name == "avg":
            continue
        columns[name] = parts[1].split() + parts[2].split()
    return columns


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", type=Path, help="bench_flow.py --out record")
    parser.add_argument("--out", type=Path, help="where to write the table")
    parser.add_argument("--expect", type=Path,
                        help="committed table whose area/delay columns must match")
    args = parser.parse_args(argv)
    payload = json.loads(args.record.read_text())
    record = payload["workloads"].get("macro")
    if record is None or payload["seed"] != 0 or record.get("smoke"):
        print("error: the record has no full seed-0 macro workload", file=sys.stderr)
        return 2
    lines = table(record)
    print("\n".join(lines))
    if args.out:
        args.out.write_text("\n".join(lines) + "\n")
    if args.expect:
        expected = mapped_columns(args.expect.read_text().splitlines())
        produced = mapped_columns(lines)
        if expected != produced:
            print(f"MISMATCH against {args.expect}:", file=sys.stderr)
            for name in sorted(set(expected) | set(produced)):
                if expected.get(name) != produced.get(name):
                    print(f"  {name}: expected {expected.get(name)} "
                          f"got {produced.get(name)}", file=sys.stderr)
            return 1
        print(f"area/delay columns match {args.expect}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
