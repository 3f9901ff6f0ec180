#!/usr/bin/env python3
"""Profiling walkthrough: where does an Algorithm 1 run spend its time?

Enables the ``repro.obs`` instrumentation layer, runs the full
sequential synthesis flow on an ISCAS-style benchmark, and digests the
snapshot three ways:

1. the phase-timing / cache-efficiency table (what ``repro profile``
   and the ``--profile`` CLI flag print),
2. a few headline numbers pulled straight out of the snapshot dict,
3. a machine-readable JSON report, as written by ``--stats-json``,
4. a Chrome trace-event timeline (open it in https://ui.perfetto.dev)
   plus its self-time summary, as recorded by ``--trace``.

Run:  python examples/profiling.py [bench] [report.json]
"""

import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.benchgen import iscas_analog
from repro.obs import trace as obs_trace
from repro.synth import SynthesisOptions, algorithm1


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "s344"
    network = iscas_analog(bench)

    # Instrumentation is off by default and costs one boolean check per
    # probe while disabled; obs.tracing() turns it on for just this
    # block *and* installs a trace recorder, so the run leaves both an
    # aggregated snapshot and a scrub-able timeline.
    obs.reset()
    with obs.tracing() as recorder:
        report = algorithm1(
            network,
            SynthesisOptions(use_unreachable_states=True),
        )
    snapshot = obs.report()

    print(f"== {bench}: {len(report.records)} signals, "
          f"{report.decomposed()} decomposed ==\n")
    print(obs.render_profile(snapshot))

    # The snapshot is a plain dict — slice it however you like.
    spans = snapshot["spans"]
    total = spans["algorithm1.run"]["total"]
    print("\nheadlines")
    print(f"  algorithm1.run wall time     {total:.3f}s")
    # The per-cone phases nest under the pipeline's decompose pass.
    for phase in ("collapse", "dontcare", "decompose", "instantiate"):
        stat = spans.get(
            f"algorithm1.run/pipeline.decompose/algorithm1.{phase}"
        )
        if stat:
            print(f"  {phase:<12} {stat['total']:6.3f}s "
                  f"({100 * stat['total'] / total:4.1f}% of run)")
    efficiency = obs.cache_efficiency(snapshot)
    if "and" in efficiency:
        print(f"  AND-cache hit rate           "
              f"{100 * efficiency['and']['rate']:.1f}%")
    families = snapshot["families"]
    print(f"  metric families              {', '.join(sorted(families))}")

    # Persist the same snapshot the CLI's --stats-json flag writes.
    if len(sys.argv) > 2:
        out = Path(sys.argv[2])
    else:
        out = Path(tempfile.gettempdir()) / f"profile_{bench}.json"
    obs.write_report(out, snapshot, extra={"bench": bench})
    print(f"\nreport written to {out}")

    # The same run, as a timeline: write the Chrome trace and digest it
    # the way `repro trace` does — top spans by self time.
    trace_out = out.with_suffix(".trace")
    recorder.write(trace_out)
    print(f"trace written to {trace_out} "
          f"({len(recorder.records())} records, {recorder.dropped} dropped)"
          f" — open in https://ui.perfetto.dev")
    summary = obs_trace.summarize(recorder.records())
    print()
    print(obs_trace.render_summary(summary, recorder.metadata(), top=5))
    obs.reset()


if __name__ == "__main__":
    main()
