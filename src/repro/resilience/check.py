"""One deployment checker: does this deployment shape still give the
reference's matches?

A *cell* is ``(case, seed, deployment)``.  The case records one stream
(:meth:`Pipeline.for_case`); every cell watches the same pattern set on
it — the four case-study patterns, plus the case's own pattern when it
is a v2 case.  The :class:`Deployment` disturbs that run in exactly one
way, applied only through the :class:`~repro.engine.pipeline.Pipeline`
builder:

* a fault plan (``with_faults`` + ``with_holdback``);
* a crash: a cut, a checkpoint, a JSON round trip and ``restore``;
* a shed rate or the burst profile (``with_overload_control``), alone
  or behind a repairable fault plan.

There is one reference rule: the same stream with every disturbance
removed, per event, one pattern at a time.  Shedding is the exception
and is judged against :func:`repro.core.oracle.enumerate_matches`.
Three verdicts:

* ``equal`` — reports, subset signature and counters all match the
  reference.  Reports are exempt after a restore (a restored shard's
  post-hoc report list legitimately holds only post-restore matches;
  its ``matches_reported`` counter is the convergence surface).
* ``detected`` — a drop: every dropped id is in
  ``missing_predecessors()`` and the buffer stalls or holds events.  A
  drop plan that injected nothing must be ``equal`` instead.
* ``recall`` — the shedder shed something, its match recall (oracle
  matches whose events all survived) is at least that of a
  count-matched random drop, and a gapped replay of exactly the kept
  events converges with the shedded monitors.  Behind a repairable
  fault it must also keep exactly the events, and reach exactly the
  subsets, of the fault-free shedding run.  The burst profile must
  also engage the detector and let it disengage again.

Every cell is deterministic per ``(case, seed, deployment)``.  Driven
by ``ocep check`` and the CI ``check`` job.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import traceback
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.config import MatcherConfig
from repro.core.monitor import Monitor
from repro.core.oracle import enumerate_matches
from repro.engine.cases import CASES, case_patterns
from repro.engine.pipeline import Pipeline
from repro.events.event import Event
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.resilience.faults import FaultPlan
from repro.resilience.overload import (
    BAND_STRUCTURAL,
    OverloadDetector,
    OverloadState,
)

#: The fault kinds a cell can inject (``all`` runs every one).
FAULTS = ("reorder", "delay", "duplicate", "drop")

#: Event budget per recorded stream.  The shedding oracle is a
#: brute-force enumeration; the four paper cases end well below this.
DEFAULT_EVENTS = 3000

#: Replay slice size of the tested pass.
BATCH_SIZE = 128

#: Arrivals without release before the hold-back buffer declares a stall.
STALL_WATERMARK = 32

#: Thresholds of the burst-profile detector (simulated latency units).
BURST_ENGAGE_LATENCY = 8.0
BURST_MIN_DWELL = 8


@dataclasses.dataclass(frozen=True)
class Deployment:
    """One disturbance of the reference run; the default disturbs
    nothing but the batching (one sharded pass against per-event solo
    runs).  Combinations no cell checks raise :class:`ValueError`."""

    fault: str = "none"
    crash: bool = False
    #: A drop rate in (0, 1), ``"burst"``, or ``None`` (no shedding).
    shed: Union[None, float, str] = None

    def __post_init__(self) -> None:
        if self.fault != "none" and self.fault not in FAULTS:
            raise ValueError(f"unknown fault kind {self.fault!r}")
        if self.shed is not None and self.fault == "drop":
            raise ValueError("drop is not repairable: --shed composes only "
                             "with repairable faults")
        if self.crash and (self.fault != "none" or self.shed is not None):
            raise ValueError("a crash cell carries no other disturbance")

    @property
    def name(self) -> str:
        parts = []
        if self.shed == "burst":
            parts.append("burst")
        elif self.shed is not None:
            parts.append(f"shed{self.shed:g}")
        if self.crash:
            parts.append("crash")
        if self.fault != "none" or not parts:
            parts.append("plain" if self.fault == "none" else self.fault)
        return "+".join(parts)


def deployments(
    faults: Sequence[str] = (),
    crash: bool = False,
    shed: Sequence[Union[float, str]] = (),
) -> List[Deployment]:
    """The cells of one ``ocep check`` run: the undisturbed pass, one
    cell per fault kind (``all`` = every kind) and one crash cell; each
    shed setting then composes with every repairable cell.  ``all``
    leaves drop unshed; naming drop next to ``shed`` raises."""
    kinds = FAULTS if "all" in faults else tuple(faults)
    base = [Deployment()] + [Deployment(fault=kind) for kind in kinds]
    shedable = [d for d in base if d.fault != "drop" or "all" not in faults]
    cells = base + ([Deployment(crash=True)] if crash else [])
    cells += [dataclasses.replace(d, shed=s) for s in shed for d in shedable]
    return cells


class Recording:
    """One case's recorded stream, its watched pattern set, and the two
    references computed on first use."""

    def __init__(self, case: str, seed: int, traces: int = 4,
                 max_events: int = DEFAULT_EVENTS):
        source = Pipeline.for_case(case, traces, seed)
        recorder = source.record()
        source.run(max_events=max_events)
        self.case, self.seed = case, seed
        self.events: List[Event] = list(recorder.events)
        self.names = list(source.trace_names)
        if not self.events:
            raise ValueError("a check needs a non-empty event stream")
        patterns = case_patterns(len(self.names))
        if case not in patterns:
            patterns = {case: CASES[case].pattern(len(self.names)), **patterns}
        self.patterns: Dict[str, str] = patterns
        #: Per shed setting, the fault-free shedding run's kept ids and
        #: subset signatures (see :func:`_shed_baseline`).
        self.shed_baselines: Dict[Union[float, str], tuple] = {}

    @functools.cached_property
    def reference(self) -> Dict[str, Monitor]:
        """Each pattern alone over the undisturbed stream, per event."""
        monitors = {}
        for name, source in self.patterns.items():
            solo = Pipeline.replay(self.events, self.names)
            monitors[name] = solo.watch(name, source, record_timings=False)
            solo.run(batch_size=1)
        return monitors

    @functools.cached_property
    def oracle(self) -> Dict[str, list]:
        """Every match of every pattern on the full stream."""
        return {
            name: enumerate_matches(
                compile_pattern(PatternTree(parse_pattern(source), self.names)),
                self.events,
            )
            for name, source in self.patterns.items()
        }

    def recall(self, kept: Set[Tuple[int, int]]) -> float:
        """Share of oracle matches whose events all carry a kept id."""
        matches = [m for found in self.oracle.values() for m in found]
        if not matches:
            return 1.0
        survivors = sum(
            all((e.trace, e.index) in kept for e in match.values())
            for match in matches
        )
        return survivors / len(matches)


@dataclasses.dataclass
class CellReport:
    """The verdict of one cell: the same row shape for every kind."""

    case: str
    seed: int
    deployment: str
    #: ``equal``, ``detected`` or ``recall``.
    verdict: str
    ok: bool
    events: int
    #: Matches the verdict compares against: the reference's reports,
    #: or the oracle's matches for ``recall``.
    matches: int
    #: Faults injected plus events shed (1 for a crash).
    injected: int
    #: Utility and count-matched random recall (``recall`` rows only).
    recall: Optional[float]
    random_recall: Optional[float]
    detail: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def line(self) -> str:
        recall = ("" if self.recall is None else
                  f"recall={self.recall:.3f}/{self.random_recall:.3f} ")
        return (
            f"  {'ok  ' if self.ok else 'FAIL'} {self.case:<9} "
            f"seed={self.seed:<3} {self.deployment:<20} {self.verdict:<8} "
            f"events={self.events:<5} matches={self.matches:<5} "
            f"injected={self.injected:<4} {recall}{self.detail}"
        )


def summary(rows: Sequence[CellReport]) -> str:
    """The footer under the per-cell lines."""
    text = f"{sum(row.ok for row in rows)}/{len(rows)} cells passed"
    picked = [row for row in rows if row.verdict == "recall"]
    if picked:
        utility = sum(row.recall for row in picked) / len(picked)
        rand = sum(row.random_recall for row in picked) / len(picked)
        text += f"; mean recall utility={utility:.3f} random={rand:.3f}"
    return text


def forced_shedding_detector(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
) -> OverloadDetector:
    """A detector pre-engaged into ``SHEDDING`` and parked there (no
    further observations arrive, so it never disengages): a controlled
    drop rate, not detector dynamics."""
    detector = OverloadDetector(
        engage_latency=1.0,
        alpha=1.0,
        min_dwell=1,
        critical_factor=1e9,
        registry=registry,
        tracer=tracer,
    )
    detector.observe_latency(2.0)
    assert detector.state is OverloadState.SHEDDING
    return detector


def burst_latency_profile(num_events: int, seed: int):
    """Deterministic synthetic latency signal: calm for the first
    quarter of the stream, a sustained burst (3x the engage mark)
    through the second quarter, calm again after — enough calm tail
    for the EMA to fall back below the disengage threshold."""
    burst_lo = max(1, num_events // 4)
    burst_hi = max(burst_lo + 1, num_events // 2)

    def profile(offered: int) -> float:
        jitter = ((offered * 2654435761 + seed * 40503) % 97) / 97.0
        base = 0.5 + 0.25 * jitter
        if burst_lo <= offered < burst_hi:
            return BURST_ENGAGE_LATENCY * 3.0 + base
        return base

    return profile


def replay_gapped_monitor(
    events: Sequence[Event],
    pattern_source: str,
    trace_names: Sequence[str],
) -> Monitor:
    """A fresh gap-tolerant monitor fed ``events`` directly, around
    the pipeline: a shedded stream legitimately has holes, and the POET
    server rejects an index gap by design (it is the source's boundary;
    only stages downstream of it may create gaps)."""
    monitor = Monitor.from_source(
        pattern_source, trace_names,
        config=MatcherConfig(complete_stream=False),
        record_timings=False,
    )
    for event in events:
        monitor.on_event(event)
    return monitor


def _deploy(
    recording: Recording,
    deployment: Deployment,
    events: Sequence[Event],
    tracer: Optional[SpanTracer],
) -> Tuple[Pipeline, Optional[OverloadDetector]]:
    """The tested in-process pipeline over ``events``, every pattern
    watched; returns it with its overload detector (if any)."""
    pipeline = Pipeline.replay(events, recording.names, tracer=tracer)
    detector = None
    if deployment.fault != "none":
        pipeline.with_faults(getattr(FaultPlan, deployment.fault)(),
                             seed=recording.seed)
        pipeline.with_holdback(stall_watermark=STALL_WATERMARK)
    if deployment.shed == "burst":
        detector = OverloadDetector(engage_latency=BURST_ENGAGE_LATENCY,
                                    min_dwell=BURST_MIN_DWELL)
        pipeline.with_overload_control(
            detector=detector,
            shed_band=BAND_STRUCTURAL,
            latency_profile=burst_latency_profile(len(events),
                                                  recording.seed),
            record_kept=True,
        )
    elif deployment.shed is not None:
        pipeline.with_overload_control(
            detector=forced_shedding_detector(),
            shed_band=BAND_STRUCTURAL,
            max_drop_rate=deployment.shed,
            record_kept=True,
        )
    for name, source in recording.patterns.items():
        pipeline.watch(name, source, record_timings=False)
    return pipeline, detector


def _diff(recording: Recording, result, reports: bool = True) -> List[str]:
    """Where ``result`` differs from the per-event reference."""
    mismatches = []
    signatures, stats = result.signatures(), result.stats()
    for name, reference in recording.reference.items():
        if reports and result.reports(name) != reference.reports:
            mismatches.append(f"{name}: match reports differ")
        if signatures[name] != reference.subset.signature():
            mismatches.append(f"{name}: subset signatures differ")
        if stats[name] != reference.stats():
            mismatches.append(f"{name}: counters differ")
    return mismatches


def run_cell(
    recording: Recording,
    deployment: Deployment,
    tracer: Optional[SpanTracer] = None,
) -> CellReport:
    """Run one cell and judge it by its verdict's rule."""
    with (tracer or NULL_TRACER).span(
        "check.cell",
        track="check",
        args={"case": recording.case, "seed": recording.seed,
              "deployment": deployment.name},
    ):
        row = CellReport(
            case=recording.case, seed=recording.seed,
            deployment=deployment.name, verdict="equal", ok=False,
            events=len(recording.events), matches=0, injected=0,
            recall=None, random_recall=None, detail="",
        )
        try:
            if deployment.shed is not None:
                _judge_recall(recording, deployment, tracer, row)
            elif deployment.crash:
                _judge_crash(recording, deployment, tracer, row)
            else:
                _judge_faults(recording, deployment, tracer, row)
            if row.verdict != "recall":
                row.matches = sum(
                    len(m.reports) for m in recording.reference.values()
                )
        except Exception as exc:  # a deployment that raises fails its cell
            where = traceback.extract_tb(exc.__traceback__)[-1]
            row.ok = False
            row.detail = (f"raised {type(exc).__name__}: {exc} (at "
                          f"{os.path.basename(where.filename)}:"
                          f"{where.lineno})")
    return row


def _equal(row: CellReport, mismatches: List[str], what: str) -> None:
    row.ok = not mismatches
    row.detail = "; ".join(mismatches) if mismatches else what


def _judge_faults(recording, deployment, tracer, row) -> None:
    pipeline, _ = _deploy(recording, deployment, recording.events, tracer)
    result = pipeline.run(batch_size=BATCH_SIZE)
    injector, buffer = result.injector, result.holdback
    if injector is not None:
        row.injected = (injector.delayed_total + injector.duplicated_total
                        + injector.dropped_total)
    if injector is not None and injector.dropped_total:
        row.verdict = "detected"
        missing = {(m.trace, m.index) for m in buffer.missing_predecessors()}
        dropped = {(d.trace, d.index) for d in injector.dropped_ids}
        reported = dropped <= missing
        row.ok = reported and (buffer.stalled or bool(result.leftover))
        row.detail = (f"drop of {sorted(dropped)}: reported={reported}, "
                      f"stalled={buffer.stalled}, "
                      f"{len(result.leftover)} held")
        return
    mismatches = _diff(recording, result)
    if result.leftover:
        mismatches.append(f"{len(result.leftover)} events stuck in hold-back")
    _equal(row, mismatches, "identical to the reference")


def _judge_crash(recording, deployment, tracer, row) -> None:
    events = recording.events
    cut = FaultPlan.crash().crash_point(len(events), recording.seed)
    first, _ = _deploy(recording, deployment, events[:cut], tracer)
    # What survives a real process crash is the serialized snapshot,
    # not live objects: the JSON round trip is part of the contract.
    state = json.loads(json.dumps(first.run(batch_size=BATCH_SIZE)
                                  .checkpoint()))
    recovered, _ = _deploy(recording, deployment, events, tracer)
    recovered.restore(state)
    result = recovered.run(batch_size=BATCH_SIZE)
    row.injected = 1
    _equal(row, _diff(recording, result, reports=False),
           f"crashed@{cut}, restored and replayed to the reference")


def _shed_baseline(recording, shed, tracer) -> tuple:
    """Kept ids and subset signatures of the fault-free shedding run at
    ``shed``: the reference of a shed cell behind a repairable fault.
    The shed-only cell records it; a lone shed+fault cell runs it."""
    if shed not in recording.shed_baselines:
        pipeline, _ = _deploy(recording, Deployment(shed=shed),
                              recording.events, tracer)
        result = pipeline.run(batch_size=BATCH_SIZE)
        recording.shed_baselines[shed] = (
            [(e.trace, e.index) for e in result.shedder.kept_events],
            result.signatures(),
        )
    return recording.shed_baselines[shed]


def _judge_recall(recording, deployment, tracer, row) -> None:
    row.verdict = "recall"
    events = recording.events
    pipeline, detector = _deploy(recording, deployment, events, tracer)
    result = pipeline.run(batch_size=BATCH_SIZE)
    shedder = result.shedder
    kept = shedder.kept_events
    kept_ids = [(e.trace, e.index) for e in kept]
    row.matches = sum(len(found) for found in recording.oracle.values())
    row.injected = shedder.shed_total
    row.recall = recording.recall(set(kept_ids))
    salt = 0 if deployment.shed == "burst" else int(deployment.shed * 1000)
    rng = random.Random((recording.seed * 2654435761 + salt) % (2 ** 32))
    dropped = set(rng.sample(range(len(events)), shedder.shed_total))
    row.random_recall = recording.recall({
        (e.trace, e.index) for i, e in enumerate(events) if i not in dropped
    })
    problems, signatures = [], result.signatures()
    if result.leftover:
        problems.append(f"{len(result.leftover)} events stuck in hold-back")
    if not shedder.shed_total:
        # Equal recalls of two empty drops prove nothing.
        problems.append("nothing shed")
    if row.recall < row.random_recall:
        problems.append("utility recall below random")
    if deployment.fault == "none":
        recording.shed_baselines[deployment.shed] = (kept_ids, signatures)
    else:
        # Hold-back repair must be invisible to the shedder.
        base_ids, base_signatures = _shed_baseline(
            recording, deployment.shed, tracer
        )
        if kept_ids != base_ids:
            problems.append("shed other events than the fault-free run")
        if signatures != base_signatures:
            problems.append("subsets differ from the fault-free run")
    for name, source in recording.patterns.items():
        replayed = replay_gapped_monitor(kept, source, recording.names)
        if (replayed.subset.signature() != signatures[name]
                or replayed.reports != result.reports(name)):
            problems.append(f"{name}: kept-events replay diverged")
    if detector is not None:
        if not detector.transitions_total:
            problems.append("detector never engaged")
        elif (detector.state is not OverloadState.NORMAL
              or detector.latency_ema > detector.disengage_latency):
            problems.append(f"detector still {detector.state.name} "
                            f"(EMA {detector.latency_ema:.2f})")
    _equal(row, problems,
           f"shed {shedder.shed_total}/{shedder.offered_total}, "
           "kept-events replay converged")


__all__ = [
    "FAULTS",
    "DEFAULT_EVENTS",
    "Deployment",
    "Recording",
    "CellReport",
    "deployments",
    "run_cell",
    "summary",
    "forced_shedding_detector",
    "burst_latency_profile",
    "replay_gapped_monitor",
]
