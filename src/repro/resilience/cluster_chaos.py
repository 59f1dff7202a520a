"""Cluster equivalence and crash-recovery cells.

The multi-process runtime's correctness contract is inherited from the
in-process one: a :mod:`repro.cluster` deployment over a recorded
stream must produce **bit-identical match output** to the single-process
:class:`~repro.engine.dispatch.ShardedDispatcher` run over the same
stream — per-shard match reports, representative-subset signatures, and
the full matcher counter set.  This module packages that check as
seeded *cells*, mirroring :mod:`repro.resilience.chaos`:

* :func:`run_cluster_cell` — record one case-study workload, run the
  four case patterns through (a) the in-process sharded pipeline and
  (b) an N-worker cluster, and diff everything.

* With ``kill=True`` the cell doubles as the crash-recovery check: a
  deployment checkpoint is collected mid-stream, the worker owning the
  case's own pattern is SIGKILLed right after, the coordinator
  respawns/restores/replays, and the *recovered* deployment must still
  converge counter-exactly (signatures and stats identical; the
  recovered shard's post-hoc ``reports`` list legitimately holds only
  post-restore matches — the same documented semantics as the
  in-process :meth:`~repro.core.monitor.Monitor.restore`, whose
  ``matches_reported`` counter, not its reports list, is the
  convergence surface).

Driven by the ``ocep cluster`` CLI subcommand and the CI
``cluster-smoke`` job.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.cases import case_patterns
from repro.engine.dispatch import shard_worker
from repro.engine.pipeline import Pipeline

#: Default events per EVENTS frame in a cell run (small enough that a
#: short workload still spans several batches, so the checkpoint/kill
#: schedule has room to land mid-stream).
DEFAULT_CELL_BATCH_SIZE = 128


def pick_victim_worker(pattern_names, num_workers: int) -> int:
    """The worker a crash cell should kill: the owner of the first
    pattern that routes to a non-empty worker (killing a worker with
    no shards would exercise respawn but not state restore)."""
    for name in pattern_names:
        return shard_worker(name, num_workers)
    raise ValueError("no patterns to pick a victim from")


def run_cluster_cell(
    case: str,
    seed: int,
    traces: int = 6,
    max_events: int = 2000,
    workers: int = 2,
    batch_size: int = DEFAULT_CELL_BATCH_SIZE,
    kill: bool = False,
    credits: Optional[int] = None,
) -> dict:
    """One cluster-vs-in-process equivalence cell; returns a JSON-ready
    cell dict (``ok``/``mismatches`` + vitals)."""
    source = Pipeline.for_case(case, traces, seed)
    recorder = source.record()
    outcome = source.run(max_events=max_events)
    events, names = list(recorder.events), source.trace_names
    patterns = case_patterns(len(names))

    oracle = Pipeline.replay(events, names)
    for name, pattern in patterns.items():
        oracle.watch(name, pattern, record_timings=False)
    oracle_result = oracle.run(batch_size=batch_size)

    cluster_options: Dict[str, object] = {}
    if credits is not None:
        cluster_options["credits"] = credits
    cluster = Pipeline.distributed(
        events, names, workers=workers, **cluster_options
    )
    for name, pattern in patterns.items():
        cluster.watch(name, pattern)

    checkpoint_every = None
    kill_worker_after = None
    restarts_expected = 0
    if kill:
        num_batches = max(1, -(-len(events) // batch_size))
        kill_batch = max(2, num_batches // 2)
        # Checkpoint cadence chosen so at least one checkpoint lands
        # before the kill — recovery then restores real matcher state
        # rather than replaying a fresh worker from scratch.
        checkpoint_every = max(1, kill_batch - 1)
        victim = pick_victim_worker(list(patterns), workers)
        kill_worker_after = (victim, kill_batch)
        restarts_expected = 1
    cluster_result = cluster.run(
        batch_size=batch_size,
        checkpoint_every=checkpoint_every,
        kill_worker_after=kill_worker_after,
    )

    mismatches: List[str] = []
    total_matches = 0
    for name in patterns:
        oracle_monitor = oracle_result[name]
        shard = cluster_result[name]
        total_matches += len(oracle_monitor.reports)
        if not kill and shard.reports != oracle_monitor.reports:
            mismatches.append(f"{name}: match reports differ")
        if shard.signature != oracle_monitor.subset.signature():
            mismatches.append(f"{name}: subset signatures differ")
        if shard.stats != oracle_monitor.stats():
            mismatches.append(
                f"{name}: counters differ (cluster={shard.stats}, "
                f"in-process={oracle_monitor.stats()})"
            )
    if kill and cluster_result.restarts < restarts_expected:
        mismatches.append(
            f"expected >= {restarts_expected} worker restart(s), "
            f"saw {cluster_result.restarts}"
        )
    return {
        "case": case,
        "seed": seed,
        "workers": workers,
        "kill": kill,
        "events": outcome.num_events,
        "matches": total_matches,
        "restarts": cluster_result.restarts,
        "ok": not mismatches,
        "mismatches": mismatches,
    }


__all__ = [
    "DEFAULT_CELL_BATCH_SIZE",
    "pick_victim_worker",
    "run_cluster_cell",
]
