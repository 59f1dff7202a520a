#!/usr/bin/env python3
"""Watching several safety conditions at once with a sharded pipeline.

A realistic deployment monitors many patterns over one event stream.
This example runs the traffic-light system (the paper's introductory
example) through one :class:`~repro.engine.Pipeline` whose sharded
dispatcher watches three conditions simultaneously:

* ``conflict``  — two lights green concurrently (the unsafe state);
* ``handshake`` — every grant is answered: controller grant message
  partnered with the light's receive (a liveness-ish sanity pattern);
* ``sequence``  — a light goes green after receiving its grant.

Run with::

    python examples/multi_pattern_dashboard.py
"""

from repro.analysis import format_table
from repro.engine import Pipeline
from repro.workloads import build_traffic_light, traffic_light_pattern

HANDSHAKE = """
Grant := [P0, Send, ''];
Taken := ['', Receive, ''];
pattern := Grant <> Taken;
"""

SEQUENCE = """
Taken := ['', Receive, ''];
Green := ['', Green, ''];
Taken $t;
pattern := $t -> Green;
"""


def main() -> None:
    workload = build_traffic_light(
        num_lights=4, seed=2, cycles=30, fault_probability=0.15
    )
    pipeline = Pipeline.for_workload(workload)
    pipeline.watch("conflict", traffic_light_pattern())
    pipeline.watch("handshake", HANDSHAKE)
    pipeline.watch("sequence", SEQUENCE)

    print("running the traffic-light system with a flaky relay ...")
    outcome = pipeline.run()
    result = outcome.outcome
    print(f"simulated {result.num_events} events; "
          f"{len(workload.faults)} stuck-relay faults injected\n")

    rows = []
    for name, stats in outcome.stats().items():
        rows.append(
            [
                name,
                str(stats.matches_reported),
                str(stats.subset_size),
                str(stats.searches_run),
                str(stats.history_size),
            ]
        )
    print(format_table(
        ["pattern", "matches", "subset", "searches", "history"], rows
    ))

    conflicts = outcome["conflict"].reports
    print(f"\nunsafe states (concurrent greens): {len(conflicts)}")
    for report in conflicts[:5]:
        g1, g2 = report.as_dict().values()
        names = workload.kernel.trace_names()
        print(f"  {names[g1.trace]} green ({g1.text}) || "
              f"{names[g2.trace]} green ({g2.text})")

    assert bool(workload.faults) == bool(conflicts), (
        "conflicts must appear exactly when relays stick"
    )
    print("\nconflicts appear exactly when the relay sticks; the "
          "handshake and sequence patterns match routinely, as designed.")


if __name__ == "__main__":
    main()
