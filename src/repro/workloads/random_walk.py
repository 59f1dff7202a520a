"""Parallel random walk with an injected send-cycle deadlock.

Section V-C1: "We simulate deadlock using a parallel algorithm for
random walk ... It divides a domain among the parallel processes and
each process has a number of walkers traversing a contiguous
sub-domain.  The processes communicate among themselves to exchange
the walkers that move across process boundaries.  We deliberately
leave a deadlock in the code for this point-to-point communication.
Interestingly enough, this deadlock is rarely visible as MPI_Send,
although a blocking operation, only gets blocked when the network
cannot buffer the message completely."

The simplification here is a *directed* walk on a ring: walkers drift
rightward, so boundary exchange is a send to the right neighbour and a
receive from the left.  The injected bug: with small probability a
process mis-counts incoming walkers and skips its receive for the
round.  Unconsumed messages pile up; once a mailbox exceeds the
network buffer capacity, the sender blocks; blocked processes stop
receiving, and the blockage cascades around the ring into a cycle of
blocked sends — the deadlock OCEP detects as ``n`` pairwise-concurrent
``SendBlock`` events.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.poet.instrument import instrument
from repro.poet.server import POETServer
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.mpi import MPIContext


@dataclasses.dataclass
class RandomWalkResult:
    """A built (not yet run) random-walk workload."""

    kernel: Kernel
    server: POETServer
    num_traces: int

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Run until deadlock or the event budget."""
        return self.kernel.run(max_events=max_events)


def build_random_walk(
    num_traces: int,
    seed: int = 0,
    walkers_per_process: int = 16,
    skip_probability: float = 0.05,
    buffer_capacity: int = 4,
    verify_delivery: bool = False,
) -> RandomWalkResult:
    """Build the deadlock case-study workload.

    Parameters
    ----------
    num_traces:
        Ring size (one trace per process).
    seed:
        Simulation seed.
    walkers_per_process:
        Initial walkers per sub-domain.
    skip_probability:
        Probability per round that a process mis-counts and skips its
        receive — the injected bug.  Zero gives a deadlock-free run
        (used by the false-positive checks).
    buffer_capacity:
        Network buffer per destination; smaller manifests the deadlock
        sooner.
    verify_delivery:
        Assert causal delivery order in the POET server (tests).
    """
    if num_traces < 2:
        raise ValueError(f"the ring needs >= 2 processes, got {num_traces}")

    kernel = Kernel(
        num_processes=num_traces,
        seed=seed,
        buffer_capacity=buffer_capacity,
    )
    server = instrument(kernel, verify=verify_delivery)

    def rank_body(mpi: MPIContext):
        rank, size = mpi.rank, mpi.size
        right = (rank + 1) % size
        left = (rank - 1) % size
        walkers = walkers_per_process
        rng = mpi.rng
        while True:  # run until the kernel's budget or the deadlock
            # Local phase: walkers take steps within the sub-domain;
            # some cross the right boundary.
            crossers = sum(1 for _ in range(walkers) if rng.random() < 0.25)
            yield mpi.emit("Walk", text=str(walkers))
            yield mpi.sleep(rng.random() * 0.5)

            # Exchange phase: ship crossers right, collect from left.
            yield mpi.send(right, text=f"to{right}", payload=crossers)
            walkers -= crossers
            if rng.random() >= skip_probability:
                msg = yield mpi.recv(source=left)
                walkers += msg.payload
            # else: the injected bug — incoming walkers never collected

    for rank in range(num_traces):
        kernel.spawn(rank, lambda proc, _s=num_traces: rank_body(MPIContext(proc, _s)))

    return RandomWalkResult(kernel=kernel, server=server, num_traces=num_traces)
