"""Fault tolerance and overload control for the delivery pipeline.

The paper's substrate *assumes* clients "receive the arriving events in
a linearization of the partial order" (Section V-A); this package makes
the reproduction survive violations of that assumption instead of
asserting on them:

* :mod:`~repro.resilience.faults` — a deterministic, seeded fault
  injector perturbing the stream between instrumentation and delivery
  (bounded reorder/delay within causal slack, duplicates, drops,
  client-crash schedules), plus network-level transmit faults for the
  simulation kernel;
* :mod:`~repro.resilience.overload` — adaptive backpressure: an
  EMA/variance :class:`OverloadDetector` with hysteresis, a
  pattern-aware :class:`EventUtilityScorer`, and the
  :class:`LoadShedder` pipeline stage that drops least-useful events
  first when the monitor falls behind;
* :mod:`~repro.resilience.check` — the one deployment checker: every
  ``(case, seed, deployment)`` cell runs the case's pattern set under
  one disturbance (a fault plan, a crash and restore, a shed rate or
  the burst profile, worker processes with or without a kill) and is
  judged against the same stream undisturbed — or, for shedding,
  against the brute-force oracle (utility recall must beat a
  count-matched random drop).  Driven by ``ocep check`` and the CI
  ``check`` job.

The repair half — the causal hold-back buffer — lives with the
delivery substrate as :mod:`repro.poet.holdback`.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    TransmitFaults,
)
from repro.resilience.overload import (
    BAND_CHAFF,
    BAND_COMPLETING,
    BAND_LEAF,
    BAND_NAMES,
    BAND_STRUCTURAL,
    EventUtilityScorer,
    LoadShedder,
    OverloadDetector,
    OverloadState,
)
from repro.resilience.check import (
    CellReport,
    Deployment,
    Recording,
    burst_latency_profile,
    deployments,
    forced_shedding_detector,
    replay_gapped_monitor,
    run_cell,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultInjector",
    "TransmitFaults",
    "BAND_CHAFF",
    "BAND_STRUCTURAL",
    "BAND_LEAF",
    "BAND_COMPLETING",
    "BAND_NAMES",
    "OverloadState",
    "OverloadDetector",
    "EventUtilityScorer",
    "LoadShedder",
    "Deployment",
    "Recording",
    "CellReport",
    "deployments",
    "run_cell",
    "forced_shedding_detector",
    "replay_gapped_monitor",
    "burst_latency_profile",
]
