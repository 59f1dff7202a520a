"""Sharded equivalence and crash-recovery cells.

One batched sharded pass over a recorded stream — in process, or
through a :mod:`repro.cluster` deployment of worker processes — must
produce the same match output as independent per-event single-pattern
replays of the same stream: per-shard match reports (Kleene groups
included), representative-subset signatures, and the full matcher
counter set.  :func:`run_equivalence_cell` packages that check as one
seeded *cell*, mirroring :mod:`repro.resilience.chaos`.

With ``kill=True`` (worker processes only) the cell doubles as the
crash-recovery check: a deployment checkpoint is collected mid-stream,
the worker owning the first pattern is SIGKILLed right after, the
coordinator respawns/restores/replays, and the *recovered* deployment
must still converge counter-exactly (signatures and stats identical;
the recovered shard's post-hoc ``reports`` list legitimately holds only
post-restore matches — the same documented semantics as the in-process
:meth:`~repro.core.monitor.Monitor.restore`, whose
``matches_reported`` counter, not its reports list, is the convergence
surface).

Driven by the ``ocep pipeline`` CLI subcommand and the CI
``pipeline-smoke``, ``pattern-smoke`` and ``cluster-smoke`` jobs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.cases import CASES, case_patterns
from repro.engine.dispatch import shard_worker
from repro.engine.pipeline import Pipeline


def run_equivalence_cell(
    case: str,
    seed: int,
    traces: int = 4,
    max_events: int = 4000,
    workers: int = 0,
    batch_size: int = 128,
    kill: bool = False,
) -> dict:
    """One sharded-vs-independent equivalence cell; returns a
    JSON-ready cell dict (``ok``/``mismatches`` + vitals).

    ``workers=0`` runs the sharded pass in process; ``workers=N`` runs
    it through ``Pipeline.distributed`` with ``batch_size`` events per
    EVENTS frame.  A v2 case (``hotpath``, ``absence``) adds its own
    pattern to the four case-study patterns.
    """
    if kill and not workers:
        raise ValueError("a kill cell needs worker processes")
    source = Pipeline.for_case(case, traces, seed)
    recorder = source.record()
    outcome = source.run(max_events=max_events)
    events, names = list(recorder.events), source.trace_names
    patterns = case_patterns(len(names))
    if case not in patterns:
        patterns = {case: CASES[case].pattern(len(names)), **patterns}

    run_options: Dict[str, object] = {"batch_size": batch_size}
    if workers:
        tested = Pipeline.distributed(events, names, workers=workers)
    else:
        tested = Pipeline.replay(events, names)
    if kill:
        kill_batch = max(2, -(-len(events) // batch_size) // 2)
        # Checkpoint cadence chosen so at least one checkpoint lands
        # before the kill — recovery then restores real matcher state
        # rather than replaying a fresh worker from scratch.
        run_options["checkpoint_every"] = max(1, kill_batch - 1)
        victim = shard_worker(next(iter(patterns)), workers)
        run_options["kill_worker_after"] = (victim, kill_batch)
    for name, pattern in patterns.items():
        tested.watch(name, pattern)
    result = tested.run(**run_options)
    restarts = result.restarts if workers else 0

    mismatches: List[str] = []
    total_matches = 0
    for name, pattern in patterns.items():
        solo = Pipeline.replay(events, names)
        reference = solo.watch(name, pattern, record_timings=False)
        solo.run(batch_size=1)
        shard = result[name]
        if workers:
            reports, signature, stats = shard.reports, shard.signature, shard.stats
        else:
            reports, signature, stats = (
                shard.reports, shard.subset.signature(), shard.stats()
            )
        total_matches += len(reference.reports)
        if not kill and reports != reference.reports:
            mismatches.append(f"{name}: match reports differ")
        if signature != reference.subset.signature():
            mismatches.append(f"{name}: subset signatures differ")
        if stats != reference.stats():
            mismatches.append(
                f"{name}: counters differ "
                f"(sharded={stats}, independent={reference.stats()})"
            )
    if kill and restarts < 1:
        mismatches.append(f"expected a worker restart, saw {restarts}")
    return {
        "case": case,
        "seed": seed,
        "workers": workers,
        "kill": kill,
        "events": outcome.num_events,
        "matches": total_matches,
        "restarts": restarts,
        "ok": not mismatches,
        "mismatches": mismatches,
    }


__all__ = ["run_equivalence_cell"]
