#!/usr/bin/env python3
"""MPI send-cycle deadlock detection (paper, Section V-C1).

A parallel random walk exchanges boundary-crossing walkers around a
ring.  The injected bug — occasionally skipping a receive — lets
unconsumed messages pile up until every rank is blocked in ``MPI_Send``
at once.  OCEP detects the cycle as ``n`` pairwise-concurrent
``SendBlock`` events; the wait-for-graph baseline detects the same
deadlock by cycle search, at a very different cost profile.

Run with::

    python examples/deadlock_detection.py
"""

import statistics

from repro.baselines import WaitForGraphDetector
from repro.engine import Pipeline
from repro.workloads import build_random_walk, deadlock_pattern

RING = 8


def main() -> None:
    workload = build_random_walk(
        num_traces=RING, seed=11, skip_probability=0.08
    )
    pipeline = Pipeline.for_workload(workload)
    monitor = pipeline.watch("deadlock", deadlock_pattern(RING))
    recorder = pipeline.record()

    print(f"running a {RING}-rank parallel random walk with a latent "
          "communication deadlock ...")
    result = pipeline.run(max_events=60_000).outcome
    print(f"simulation ended after {result.num_events} events; "
          f"deadlocked={result.deadlocked}, blocked ranks={list(result.blocked)}\n")

    if monitor.reports:
        final = monitor.reports[-1]
        print("OCEP matched the blocked-send cycle:")
        for _, event in final.assignment:
            name = workload.kernel.trace_names()[event.trace]
            print(f"  {name}: SendBlock {event.text!r} "
                  f"(event {event.event_id})")
    else:
        print("no cycle matched (run again with a different seed)")

    # The wait-for-graph baseline on the same recorded stream.
    detector = WaitForGraphDetector(workload.num_traces)
    graph_report = None
    for event in recorder.events:
        found = detector.on_event(event)
        if found is not None and graph_report is None:
            graph_report = found
    print("\nwait-for-graph baseline:",
          f"cycle {list(graph_report.cycle)}" if graph_report else "no cycle")

    if monitor.terminating_timings:
        med = statistics.median(monitor.terminating_timings) * 1e6
        print(f"\nOCEP per-trigger matching time: median {med:.0f} us over "
              f"{len(monitor.terminating_timings)} terminating events")


if __name__ == "__main__":
    main()
