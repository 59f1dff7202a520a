"""Semaphore-protected method with a broken acquire.

Section V-C3: "We demonstrate this with a μC++ program that has a
method protected by a semaphore so that there is never more than one
thread executing it.  There is an intentional bug for which, when a
thread attempts to execute the method, the semaphore will not be
acquired properly with 1% probability. ... We also monitor the
synchronization primitives as separate traces, which allows us to
represent an atomicity violation as a causal pattern."

The semaphore is a kernel-level object with its own trace; a proper
acquire/release pair threads the critical section through the
semaphore trace, causally ordering it against every other properly
locked section.  A bypassed acquire leaves the section's ``Access``
event concurrent with other sections' — the violation the pattern
``X || Y`` over ``Access`` events detects.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.poet.instrument import instrument
from repro.poet.server import POETServer
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.process import Proc
from repro.simulation.ucpp import Semaphore


@dataclasses.dataclass
class AtomicityResult:
    """A built (not yet run) atomicity workload.

    ``bypasses`` records ground truth: ``(process, iteration)`` of
    every injected broken acquire, appended as the simulation runs.
    """

    kernel: Kernel
    server: POETServer
    num_traces: int
    bypasses: List[Tuple[int, int]]

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        return self.kernel.run(max_events=max_events)


def build_atomicity(
    num_processes: int,
    seed: int = 0,
    iterations: int = 40,
    bypass_probability: float = 0.01,
    verify_delivery: bool = False,
) -> AtomicityResult:
    """Build the atomicity case-study workload.

    ``num_processes`` tasks each execute the protected method
    ``iterations`` times; each attempt bypasses the semaphore with
    ``bypass_probability`` (the paper's 1 %).  The computation has
    ``num_processes + 1`` traces — the semaphore is the extra one.
    """
    if num_processes < 2:
        raise ValueError(f"need >= 2 tasks to violate atomicity, got {num_processes}")

    kernel = Kernel(
        num_processes=num_processes,
        num_semaphores=1,
        seed=seed,
        semaphore_counts=[1],
    )
    server = instrument(kernel, verify=verify_delivery)
    semaphore = Semaphore(0)
    bypasses: List[Tuple[int, int]] = []

    def task_body(proc: Proc):
        rng = proc.rng
        for i in range(iterations):
            yield proc.emit("Think", text=str(i))
            yield proc.sleep(rng.random())
            bypass = rng.random() < bypass_probability
            if bypass:
                bypasses.append((proc.pid, i))
            yield from semaphore.acquire(proc, bypass=bypass)
            yield proc.emit("Access", text=str(i))
            if not bypass:
                yield from semaphore.release(proc)

    for pid in range(num_processes):
        kernel.spawn(pid, task_body)

    return AtomicityResult(
        kernel=kernel,
        server=server,
        num_traces=kernel.num_traces,
        bypasses=bypasses,
    )
