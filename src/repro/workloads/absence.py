"""Skipped-validation detection: a negation-operator case study.

A gateway (trace 0) fans requests out to worker processes.  A correct
worker handles each request as ``Request`` → ``Validate`` → ``Commit``;
the injected bug skips the validation step with small probability, so
the commit lands unchecked.  "Commit without a validation in between"
is exactly an *absence* pattern::

    pattern := R -> !V -> C;

with all three classes keyed to the same process by the attribute
variable ``$1`` — the per-worker pipeline whose gap we are hunting.
A match is a request/commit pair of one worker with no validation
causally between them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.poet.instrument import instrument
from repro.poet.server import POETServer
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.process import Proc


def absence_pattern() -> str:
    """A commit with no validation causally between it and its request."""
    return """
R := [$1, Request, ''];
V := [$1, Validate, ''];
C := [$1, Commit, ''];
pattern := R -> !V -> C;
"""


@dataclasses.dataclass
class AbsenceResult:
    """A built (not yet run) skipped-validation workload.

    ``violations`` records ground truth: ``(worker, job)`` of every
    request committed without validation, appended as the simulation
    runs.
    """

    kernel: Kernel
    server: POETServer
    num_traces: int
    gateway: int
    violations: List[Tuple[int, int]]

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        return self.kernel.run(max_events=max_events)


def build_absence(
    num_workers: int = 4,
    seed: int = 0,
    jobs_per_worker: int = 25,
    skip_probability: float = 0.04,
    verify_delivery: bool = False,
) -> AbsenceResult:
    """Build the skipped-validation workload.

    Trace 0 is the gateway; traces 1..num_workers are workers.  Each
    job is a message from the gateway followed by the worker's
    ``Request`` / ``Validate`` / ``Commit`` run; with probability
    ``skip_probability`` the worker commits without validating.
    """
    if num_workers < 1:
        raise ValueError(f"need >= 1 worker, got {num_workers}")

    kernel = Kernel(
        num_processes=num_workers + 1,
        seed=seed,
        buffer_capacity=None,
    )
    server = instrument(kernel, verify=verify_delivery)
    gateway = 0
    violations: List[Tuple[int, int]] = []

    def gateway_body(proc: Proc):
        rng = proc.rng
        for job in range(jobs_per_worker * num_workers):
            worker = 1 + (job % num_workers)
            yield proc.send(worker, payload=("req", job), text=f"to{worker}")
            yield proc.sleep(rng.random() * 0.2)

    def worker_body(proc: Proc):
        rng = proc.rng
        my_jobs = [
            j
            for j in range(jobs_per_worker * num_workers)
            if 1 + (j % num_workers) == proc.pid
        ]
        for job in my_jobs:
            yield proc.receive(gateway)
            yield proc.emit("Request", text=f"req{job}")
            if rng.random() < skip_probability:
                # the injected bug: the commit lands unchecked
                violations.append((proc.pid, job))
            else:
                yield proc.emit("Validate", text=f"req{job}")
            yield proc.emit("Commit", text=f"req{job}")
            yield proc.sleep(rng.random() * 0.3)

    kernel.spawn(gateway, gateway_body)
    for pid in range(1, num_workers + 1):
        kernel.spawn(pid, worker_body)

    return AbsenceResult(
        kernel=kernel,
        server=server,
        num_traces=kernel.num_traces,
        gateway=gateway,
        violations=violations,
    )
