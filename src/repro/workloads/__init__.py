"""The paper's four case-study workloads (Section V-C).

Each module builds a simulated target application with a deliberately
injected concurrency bug, returns the instrumented kernel + POET
server, and records ground truth about the injected violations so the
completeness benchmarks can verify OCEP's reports:

* :mod:`~repro.workloads.random_walk` — MPI parallel random walk with
  a send-cycle deadlock (Section V-C1);
* :mod:`~repro.workloads.message_race` — all-to-one ``ANY_SOURCE``
  benchmark with racing messages (Section V-C2);
* :mod:`~repro.workloads.atomicity` — μC++ semaphore-protected method
  with a 1 %-broken acquire (Section V-C3);
* :mod:`~repro.workloads.ordering_bug` — ZooKeeper-bug-962-style
  leader/follower replication with a 1 % stale-snapshot window
  (Sections III-D and V-C4);
* :mod:`~repro.workloads.patterns` — the corresponding detection
  patterns in the pattern language.

Two further workloads exercise the v2 pattern operators:

* :mod:`~repro.workloads.hotpath` — courier hot-path tracking
  (Kleene closure + time window, a skewed population for the planner);
* :mod:`~repro.workloads.absence` — skipped-validation detection
  (negation with a shared process variable).
"""

from repro.workloads.patterns import (
    atomicity_pattern,
    deadlock_pattern,
    message_race_pattern,
    ordering_bug_pattern,
)
from repro.workloads.random_walk import RandomWalkResult, build_random_walk
from repro.workloads.message_race import MessageRaceResult, build_message_race
from repro.workloads.atomicity import AtomicityResult, build_atomicity
from repro.workloads.ordering_bug import OrderingBugResult, build_ordering_bug
from repro.workloads.hotpath import HotpathResult, build_hotpath, hotpath_pattern
from repro.workloads.absence import AbsenceResult, build_absence, absence_pattern
from repro.workloads.traffic_light import (
    TrafficLightResult,
    build_traffic_light,
    traffic_light_pattern,
)

__all__ = [
    "deadlock_pattern",
    "message_race_pattern",
    "atomicity_pattern",
    "ordering_bug_pattern",
    "build_random_walk",
    "RandomWalkResult",
    "build_message_race",
    "MessageRaceResult",
    "build_atomicity",
    "AtomicityResult",
    "build_ordering_bug",
    "OrderingBugResult",
    "build_traffic_light",
    "TrafficLightResult",
    "traffic_light_pattern",
    "build_hotpath",
    "HotpathResult",
    "hotpath_pattern",
    "build_absence",
    "AbsenceResult",
    "absence_pattern",
]
