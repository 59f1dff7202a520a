#!/usr/bin/env python3
"""POET dump/reload workflow (paper, Section V-B).

The evaluation methodology collects each workload's events once, dumps
them to a file, and replays the file through the matcher several
times: identical inputs, repeatable measurements.  This example records
an atomicity-violation run, dumps it, reloads it, and shows the replay
producing the identical detections.

Run with::

    python examples/dump_and_replay.py
"""

import tempfile
from pathlib import Path

from repro import dump_events
from repro.engine import Pipeline
from repro.workloads import atomicity_pattern, build_atomicity


def detections(monitor):
    return [
        tuple(sorted(str(e.event_id) for _, e in report.assignment))
        for report in monitor.reports
    ]


def main() -> None:
    workload = build_atomicity(
        num_processes=6, seed=21, iterations=40, bypass_probability=0.05
    )
    live = Pipeline.for_workload(workload)
    recorder = live.record()
    live_monitor = live.watch("atomicity", atomicity_pattern())

    print("running the semaphore workload live ...")
    result = live.run().outcome
    print(f"  {result.num_events} events, "
          f"{len(workload.bypasses)} broken acquires injected, "
          f"{len(live_monitor.reports)} violations reported live")

    with tempfile.TemporaryDirectory() as tmp:
        dump_path = Path(tmp) / "atomicity.poet"
        count = dump_events(
            dump_path,
            recorder.events,
            workload.num_traces,
            list(live.trace_names),
        )
        size = dump_path.stat().st_size
        print(f"\ndumped {count} events to {dump_path.name} ({size:,} bytes)")

        replay = Pipeline.from_dump(dump_path)
        replay_monitor = replay.watch("atomicity", atomicity_pattern())
        replayed = replay.run()
        print(f"reloaded {replayed.num_events} events over "
              f"{replay.num_traces} traces (batch-first delivery)")
        print(f"replay reported {len(replay_monitor.reports)} violations")

        assert detections(live_monitor) == detections(replay_monitor)
        print("\nlive and replayed detections are identical.")


if __name__ == "__main__":
    main()
