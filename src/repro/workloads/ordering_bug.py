"""Leader/follower replication with a stale-snapshot ordering bug.

Sections III-D and V-C4, modelling ZooKeeper bug #962: "When a
restarting follower sent a synch request to the leader, the leader was
not blocked from making an update after it took a snapshot of the
system.  Thus a restarting follower could occasionally receive
inconsistent service-data from the leader."

Trace 0 is the leader; the remaining traces are followers that
occasionally restart and synchronize.  On each synch request the
leader takes a snapshot and forwards it; with 1 % probability the
injected bug applies an update *between* snapshot and forward — the
causal chain ``Synch -> Snapshot -> Update -> Forward`` the ordering
pattern detects.  Request ids in the event text pair the events of one
request (the paper's "encode the corresponding trace for a particular
Synch/Forward pair", made precise with an explicit id).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.poet.instrument import instrument
from repro.poet.server import POETServer
from repro.simulation.kernel import ANY_SOURCE, Kernel, SimulationResult
from repro.simulation.process import Proc


@dataclasses.dataclass
class OrderingBugResult:
    """A built (not yet run) ordering-bug workload.

    ``buggy_requests`` records ground truth: the request id of every
    synch served with the stale-snapshot bug, appended as the
    simulation runs.
    """

    kernel: Kernel
    server: POETServer
    num_traces: int
    leader: int
    buggy_requests: List[str]

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        return self.kernel.run(max_events=max_events)


def build_ordering_bug(
    num_traces: int,
    seed: int = 0,
    synchs_per_follower: int = 5,
    bug_probability: float = 0.01,
    updates_between: int = 2,
    verify_delivery: bool = False,
) -> OrderingBugResult:
    """Build the ordering-bug case-study workload.

    Parameters
    ----------
    num_traces:
        Leader plus ``num_traces - 1`` followers.
    synchs_per_follower:
        Restart/synchronize cycles per follower.
    bug_probability:
        Chance a request is served with an update squeezed between
        snapshot and forward (the paper's 1 %).
    updates_between:
        Normal service updates the leader applies between requests
        (workload noise that must *not* match).
    """
    if num_traces < 2:
        raise ValueError(f"need a leader and >= 1 follower, got {num_traces}")

    kernel = Kernel(
        num_processes=num_traces,
        seed=seed,
        buffer_capacity=None,
    )
    server = instrument(kernel, verify=verify_delivery)
    leader = 0
    total_requests = (num_traces - 1) * synchs_per_follower
    buggy: List[str] = []

    def leader_body(proc: Proc):
        rng = proc.rng
        for _ in range(total_requests):
            msg = yield proc.receive(ANY_SOURCE)
            req_id = msg.payload
            yield proc.emit("Take_Snapshot", text=req_id)
            if rng.random() < bug_probability:
                buggy.append(req_id)
                yield proc.emit("Make_Update", text="")  # the bug
            yield proc.emit("Forward_Snapshot", text=req_id)
            yield proc.send(msg.src, text=f"to{msg.src}", payload=req_id)
            # Normal service activity between requests.
            for _ in range(updates_between):
                yield proc.emit("Make_Update", text="")
                yield proc.sleep(rng.random() * 0.2)

    def follower_body(proc: Proc):
        rng = proc.rng
        for i in range(synchs_per_follower):
            yield proc.sleep(rng.random() * 3.0)
            yield proc.emit("Restart", text=str(i))
            req_id = f"r{proc.pid}.{i}"
            yield proc.emit("Synch_Request", text=req_id)
            yield proc.send(leader, text=f"to{leader}", payload=req_id)
            snapshot = yield proc.receive(leader)
            yield proc.emit("Apply_Snapshot", text=snapshot.payload)

    kernel.spawn(leader, leader_body)
    for pid in range(1, num_traces):
        kernel.spawn(pid, follower_body)

    return OrderingBugResult(
        kernel=kernel,
        server=server,
        num_traces=num_traces,
        leader=leader,
        buggy_requests=buggy,
    )
