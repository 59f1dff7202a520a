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
* :mod:`~repro.resilience.chaos` — the seeded fault matrix: every
  (plan, seed) run is checked against the fault-free oracle, drops
  must surface as hold-back stalls, and a mid-stream checkpoint/restore
  must converge to the identical representative subset.  Driven by the
  ``ocep chaos`` CLI subcommand and the CI chaos job;
* :mod:`~repro.resilience.overload` — adaptive backpressure: an
  EMA/variance :class:`OverloadDetector` with hysteresis, a
  pattern-aware :class:`EventUtilityScorer`, and the
  :class:`LoadShedder` pipeline stage that drops least-useful events
  first when the monitor falls behind;
* :mod:`~repro.resilience.shedding` — the measurement half of load
  shedding: every shedding run is diffed against the brute-force
  oracle on the unshedded stream (slot recall, match precision), and
  utility-aware drops must beat count-matched random drops.  Driven by
  the ``ocep shed`` subcommand and the CI ``overload-smoke`` job;
* :mod:`~repro.resilience.cluster_chaos` — the same diff discipline
  for sharding: every ``(case, seed, workers)`` cell diffs one batched
  sharded pass, in process or across worker processes, against
  independent per-event single-pattern runs, and ``kill`` cells SIGKILL
  a shard-owning worker mid-stream and require counter-exact
  convergence after checkpoint recovery.  Driven by ``ocep pipeline``.

The repair half — the causal hold-back buffer — lives with the
delivery substrate as :mod:`repro.poet.holdback`.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    TransmitFaults,
)
from repro.resilience.chaos import (
    DEFAULT_PLANS,
    DEFAULT_STALL_WATERMARK,
    SHED_CELL_RATE,
    ChaosReport,
    ChaosRun,
    run_fault_matrix,
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
from repro.resilience.cluster_chaos import run_equivalence_cell
from repro.resilience.shedding import (
    DEFAULT_RATES,
    OverloadScenarioRun,
    ShedCell,
    ShedReport,
    burst_latency_profile,
    forced_shedding_detector,
    replay_gapped_monitor,
    run_overload_scenario,
    run_shedding_sweep,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultInjector",
    "TransmitFaults",
    "ChaosRun",
    "ChaosReport",
    "DEFAULT_PLANS",
    "DEFAULT_STALL_WATERMARK",
    "SHED_CELL_RATE",
    "run_fault_matrix",
    "BAND_CHAFF",
    "BAND_STRUCTURAL",
    "BAND_LEAF",
    "BAND_COMPLETING",
    "BAND_NAMES",
    "OverloadState",
    "OverloadDetector",
    "EventUtilityScorer",
    "LoadShedder",
    "DEFAULT_RATES",
    "ShedCell",
    "ShedReport",
    "OverloadScenarioRun",
    "forced_shedding_detector",
    "replay_gapped_monitor",
    "burst_latency_profile",
    "run_shedding_sweep",
    "run_overload_scenario",
    "run_equivalence_cell",
]
