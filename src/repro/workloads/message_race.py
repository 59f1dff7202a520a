"""All-to-one message-race benchmark.

Section V-C2: "We use a benchmark program in which all processes but
one concurrently send messages to the remaining process while the
latter accepts them using a blocking receive with the
``MPI_ANY_SOURCE`` wild-card."

Messages from different senders are causally unordered, so every pair
of them received by the collector races — nondeterministic arrival
order that "may lead to sporadically occurring errors that are
difficult to reproduce".  OCEP detects a race as a pair of concurrent
sends whose receives land on the same process.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.poet.instrument import instrument
from repro.poet.server import POETServer
from repro.simulation.kernel import ANY_SOURCE, Kernel, SimulationResult
from repro.simulation.mpi import MPIContext


@dataclasses.dataclass
class MessageRaceResult:
    """A built (not yet run) message-race workload."""

    kernel: Kernel
    server: POETServer
    num_traces: int
    collector: int

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        return self.kernel.run(max_events=max_events)


def build_message_race(
    num_traces: int,
    seed: int = 0,
    messages_per_sender: int = 50,
    verify_delivery: bool = False,
) -> MessageRaceResult:
    """Build the message-race case-study workload.

    Rank 0 is the collector; ranks 1..n-1 each send
    ``messages_per_sender`` messages interleaved with local computation
    events, and the collector consumes them with ``ANY_SOURCE``.
    """
    if num_traces < 3:
        raise ValueError(
            f"a race needs >= 2 senders plus a collector, got {num_traces}"
        )

    kernel = Kernel(
        num_processes=num_traces,
        seed=seed,
        buffer_capacity=None,
    )
    server = instrument(kernel, verify=verify_delivery)
    collector = 0
    total_messages = (num_traces - 1) * messages_per_sender

    def collector_body(mpi: MPIContext):
        for _ in range(total_messages):
            msg = yield mpi.recv(source=ANY_SOURCE)
            yield mpi.emit("Handle", text=str(msg.payload))

    def sender_body(mpi: MPIContext):
        rng = mpi.rng
        for i in range(messages_per_sender):
            yield mpi.emit("Compute", text=str(i))
            yield mpi.sleep(rng.random())
            yield mpi.send(collector, text=f"to{collector}", payload=(mpi.rank, i))

    kernel.spawn(
        collector, lambda proc: collector_body(MPIContext(proc, num_traces))
    )
    for rank in range(1, num_traces):
        kernel.spawn(
            rank, lambda proc, _s=num_traces: sender_body(MPIContext(proc, _s))
        )

    return MessageRaceResult(
        kernel=kernel, server=server, num_traces=num_traces, collector=collector
    )
