"""Courier hot-path tracking: a Kleene + time-window case study.

A dispatcher (trace 0) hands delivery jobs to courier processes.  A
courier picks the parcel up, performs a run of ``Move`` hops flagged
``hot`` (the parcel is perishable), and drops it off.  The service
objective: the *whole* hot path — pickup, every hop, drop-off — must
fit inside a small logical-time window.  Most jobs are leisurely and
blow the window; an occasional *express* job fits.

The detection pattern exercises the v2 operators end to end::

    pattern := ((P ~> $m+) /\\ ($m+ -> D)) WITHIN <w>;

``$m+`` is the run of hops as one Kleene position, shared by both
relations of the conjunction so each stays a *single-event* relation
(dense pairwise constraints instead of compound existential ones);
``WITHIN`` bounds every pair (and the group internally) by the
window.  The class ``M`` carries two exact attributes (etype ``Move``,
text ``hot``) and looks selective on paper, but its history is huge:
the planner sees the live history sizes and instantiates the rare
``Pickup`` first.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.poet.instrument import instrument
from repro.poet.server import POETServer
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.process import Proc

#: The logical-time window every express delivery must fit in.
WINDOW = 16


def hotpath_pattern(window: int = WINDOW) -> str:
    """Pickup, one-or-more hot hops, drop-off — all within the window."""
    return f"""
P := ['', Pickup, ''];
M := ['', Move, 'hot'];
D := ['', Drop, ''];
M $m;
pattern := ((P ~> $m+) /\\ ($m+ -> D)) WITHIN {window};
"""


@dataclasses.dataclass
class HotpathResult:
    """A built (not yet run) courier workload.

    ``express`` records ground truth: ``(courier, job)`` of every
    express delivery (short enough to fit the window), appended as the
    simulation runs.
    """

    kernel: Kernel
    server: POETServer
    num_traces: int
    dispatcher: int
    express: List[Tuple[int, int]]

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        return self.kernel.run(max_events=max_events)


def build_hotpath(
    num_couriers: int = 4,
    seed: int = 0,
    jobs_per_courier: int = 12,
    express_probability: float = 0.08,
    normal_moves: Tuple[int, int] = (30, 60),
    express_moves: Tuple[int, int] = (4, 8),
    verify_delivery: bool = False,
) -> HotpathResult:
    """Build the courier workload.

    Trace 0 is the dispatcher; traces 1..num_couriers are couriers.
    Each job is a message from the dispatcher followed by the courier's
    ``Pickup`` / ``Move``* / ``Drop`` run.  A *normal* job makes
    ``normal_moves`` hops (far more than the window allows); with
    probability ``express_probability`` the job is *express* and makes
    only ``express_moves`` hops, fitting the window.
    """
    if num_couriers < 1:
        raise ValueError(f"need >= 1 courier, got {num_couriers}")

    kernel = Kernel(
        num_processes=num_couriers + 1,
        seed=seed,
        buffer_capacity=None,
    )
    server = instrument(kernel, verify=verify_delivery)
    dispatcher = 0
    express: List[Tuple[int, int]] = []

    def dispatcher_body(proc: Proc):
        rng = proc.rng
        for job in range(jobs_per_courier * num_couriers):
            courier = 1 + (job % num_couriers)
            yield proc.send(courier, payload=("job", job), text=f"to{courier}")
            yield proc.sleep(rng.random() * 0.2)

    def courier_body(proc: Proc):
        rng = proc.rng
        my_jobs = [
            j
            for j in range(jobs_per_courier * num_couriers)
            if 1 + (j % num_couriers) == proc.pid
        ]
        for job in my_jobs:
            yield proc.receive(dispatcher)
            if rng.random() < express_probability:
                hops = rng.randint(*express_moves)
                express.append((proc.pid, job))
            else:
                hops = rng.randint(*normal_moves)
            yield proc.emit("Pickup", text=f"job{job}")
            for _ in range(hops):
                yield proc.emit("Move", text="hot")
            yield proc.emit("Drop", text=f"job{job}")
            yield proc.sleep(rng.random() * 0.5)

    kernel.spawn(dispatcher, dispatcher_body)
    for pid in range(1, num_couriers + 1):
        kernel.spawn(pid, courier_body)

    return HotpathResult(
        kernel=kernel,
        server=server,
        num_traces=kernel.num_traces,
        dispatcher=dispatcher,
        express=express,
    )
