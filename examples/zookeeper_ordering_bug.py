#!/usr/bin/env python3
"""The ZooKeeper bug-962 case study (paper, Sections III-D and V-C4).

ZooKeeper followers synchronize with the leader by requesting a
snapshot.  Bug #962: the leader was not blocked from applying an
update *after* taking the snapshot and *before* forwarding it, so a
restarting follower could receive stale service data.

The ordering pattern expresses the violating causal chain

    Synch  ->  Snapshot  ->  Update  ->  Forward

with event variables pinning the same snapshot/update and an attribute
variable pairing the request's events.  This example runs the
leader/follower simulation with the bug injected at 10% and shows
OCEP catching every buggy request — and nothing else.

Run with::

    python examples/zookeeper_ordering_bug.py
"""

from repro.engine import Pipeline
from repro.workloads import build_ordering_bug, ordering_bug_pattern


def main() -> None:
    workload = build_ordering_bug(
        num_traces=8,  # one leader, seven followers
        seed=7,
        synchs_per_follower=6,
        bug_probability=0.10,
    )
    pipeline = Pipeline.for_workload(workload)

    print("ordering pattern under watch:")
    print(ordering_bug_pattern())

    monitor = pipeline.watch("ordering", ordering_bug_pattern())

    print("running the replicated service ...")
    result = pipeline.run().outcome
    print(f"simulated {result.num_events} events\n")

    matched_requests = {}
    for report in monitor.reports:
        request_id = dict(report.bindings)["r"]
        matched_requests.setdefault(request_id, report)

    print(f"injected stale-snapshot bugs: {sorted(workload.buggy_requests)}")
    print(f"requests flagged by OCEP:     {sorted(matched_requests)}\n")

    for request_id, report in sorted(matched_requests.items()):
        chain = sorted(report.as_dict().values(), key=lambda e: e.lamport)
        rendered = "  ->  ".join(
            f"{e.etype}@{workload.kernel.trace_names()[e.trace]}" for e in chain
        )
        print(f"  {request_id}: {rendered}")

    assert set(matched_requests) == set(workload.buggy_requests), (
        "detection must be complete with no false positives"
    )
    print("\nall injected violations detected; no false positives.")


if __name__ == "__main__":
    main()
