"""Measured load shedding: recall/precision accounting vs. the oracle.

The overload machinery's whole claim is that *pattern-aware* shedding
loses less than blind shedding.  This module makes that claim a
measurement instead of an assumption: every shedding run is diffed
against the brute-force oracle (:mod:`repro.core.oracle`) computed on
the **unshedded** stream.

For one recorded case-study stream and one target drop rate the
harness runs two cells:

* **utility** — the real pipeline with a :class:`LoadShedder` forced
  into ``SHEDDING`` state and a ``max_drop_rate`` budget, dropping
  least-useful bands first;
* **random** — exactly the *same number* of events dropped uniformly
  at random (seeded), replayed through an identical gap-tolerant
  monitor.  Same drop count, different drop choice: any recall gap is
  attributable to the scorer.

Per cell it reports:

* **slot recall** — fraction of the oracle's covered ``(leaf, trace)``
  slots that the shedded monitor's representative subset still covers
  (the paper's coverage currency; an unshedded COVERAGE-mode monitor
  covers them all);
* **precision** — fraction of the shedded run's reported matches that
  are genuine against the *full* stream
  (:func:`repro.core.oracle.verify_match`; a gapped monitor can only
  report a false match through a shed ``~>`` in-between witness).

:func:`run_shedding_sweep` grids this over case studies x seeds x drop
rates and is the single producer of the ``ocep shed --json`` report
(the subcommand and the CI ``overload-smoke`` job, whose exit status
is the recall-beats-random gate).  :func:`run_overload_scenario`
exercises the detector *dynamics* instead: a deterministic latency
burst must engage shedding, the EMA must fall back below the
disengage threshold, and the survivors must converge with a fresh
monitor over exactly the kept events.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence

from repro.core.config import MatcherConfig
from repro.core.monitor import Monitor
from repro.core.oracle import covered_slots, enumerate_matches, verify_match
from repro.events.event import Event
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.resilience.overload import (
    BAND_NAMES,
    BAND_STRUCTURAL,
    OverloadDetector,
    OverloadState,
)

#: Target drop rates of the standard sweep.
DEFAULT_RATES = (0.1, 0.2, 0.3)

#: Default event budget per recorded stream — the oracle is a
#: brute-force enumeration, so sweeps stay deliberately small.  Large
#: enough that every case study (deadlock reaches its deadlock around
#: event 1000 at four traces) produces a non-empty oracle.
DEFAULT_SHED_EVENTS = 1200

#: Matcher configuration for every monitor that sees a gapped stream.
GAPPED_CONFIG = MatcherConfig(complete_stream=False)


def forced_shedding_detector(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
) -> OverloadDetector:
    """A detector pre-engaged into ``SHEDDING`` and parked there (no
    further observations arrive, so it never disengages).  The recall
    sweep wants a controlled drop rate, not detector dynamics — those
    are exercised by :func:`run_overload_scenario`."""
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


def replay_gapped_monitor(
    events: Sequence[Event],
    pattern_source: str,
    trace_names: Sequence[str],
) -> Monitor:
    """A fresh gap-tolerant monitor fed ``events`` directly (no
    server/store stage: the stores validate per-trace contiguity, and
    a shedded stream legitimately has holes)."""
    monitor = Monitor.from_source(
        pattern_source, trace_names, config=GAPPED_CONFIG,
        record_timings=False,
    )
    for event in events:
        monitor.on_event(event)
    return monitor


def compile_source(pattern_source: str, trace_names: Sequence[str]):
    """The compiled pattern for oracle queries."""
    return Monitor.from_source(
        pattern_source, trace_names, record_timings=False
    ).pattern


@dataclasses.dataclass
class ShedCell:
    """One (case, seed, rate, policy) shedding measurement."""

    case: str
    seed: int
    rate: float
    policy: str
    events: int
    dropped: int
    achieved_rate: float
    #: Oracle matches on the full stream, and how many of them kept
    #: every constituent event — ``recall`` (the headline currency) is
    #: their ratio.  Slot coverage is far coarser (a handful of
    #: ``(leaf, trace)`` pairs each backed by many redundant matches),
    #: so match survival is what separates shedding policies.
    oracle_matches: int
    surviving_matches: int
    recall: float
    #: End-to-end check through the online monitor: oracle slots its
    #: representative subset still covers after the shed.
    oracle_slots: int
    covered_slots: int
    slot_recall: float
    reports: int
    genuine: int
    precision: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ShedReport:
    """The full sweep: cells plus per-case recall-vs-drop-rate curves."""

    cases: List[str]
    seeds: List[int]
    rates: List[float]
    shed_band: str
    cells: List[ShedCell] = dataclasses.field(default_factory=list)

    def _mean_recall(self, case: Optional[str], rate: Optional[float],
                     policy: str) -> Optional[float]:
        picked = [
            cell.recall for cell in self.cells
            if cell.policy == policy
            and (case is None or cell.case == case)
            and (rate is None or cell.rate == rate)
        ]
        if not picked:
            return None
        return sum(picked) / len(picked)

    def curves(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-case recall-vs-drop-rate curves, both policies."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for case in self.cases:
            out[case] = {}
            for rate in self.rates:
                point = {}
                for policy in ("utility", "random"):
                    mean = self._mean_recall(case, rate, policy)
                    if mean is not None:
                        point[policy] = round(mean, 6)
                out[case][str(rate)] = point
        return out

    @property
    def ok(self) -> bool:
        """Utility-aware shedding must beat random: per case at least
        as good on average, and strictly better overall."""
        for case in self.cases:
            utility = self._mean_recall(case, None, "utility")
            rand = self._mean_recall(case, None, "random")
            if utility is None or rand is None:
                return False
            if utility < rand:
                return False
        overall_utility = self._mean_recall(None, None, "utility")
        overall_random = self._mean_recall(None, None, "random")
        return (
            overall_utility is not None
            and overall_random is not None
            and overall_utility > overall_random
        )

    def to_dict(self) -> dict:
        return {
            "cases": list(self.cases),
            "seeds": list(self.seeds),
            "rates": list(self.rates),
            "shed_band": self.shed_band,
            "ok": self.ok,
            "mean_recall": {
                "utility": self._mean_recall(None, None, "utility"),
                "random": self._mean_recall(None, None, "random"),
            },
            "curves": self.curves(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def summary(self) -> str:
        lines = [
            f"shedding sweep: cases={','.join(self.cases)} "
            f"seeds={self.seeds} rates={self.rates} "
            f"shed_band={self.shed_band}"
        ]
        for case in self.cases:
            for rate in self.rates:
                utility = self._mean_recall(case, rate, "utility")
                rand = self._mean_recall(case, rate, "random")
                if utility is None or rand is None:
                    continue
                dropped = [
                    cell.achieved_rate for cell in self.cells
                    if cell.case == case and cell.rate == rate
                    and cell.policy == "utility"
                ]
                achieved = sum(dropped) / len(dropped) if dropped else 0.0
                lines.append(
                    f"  {case:<10} rate={rate:.2f} "
                    f"(achieved {achieved:.2f})  "
                    f"utility={utility:.3f}  random={rand:.3f}  "
                    f"{'ok' if utility >= rand else 'WORSE'}"
                )
        overall_utility = self._mean_recall(None, None, "utility")
        overall_random = self._mean_recall(None, None, "random")
        verdict = "ok" if self.ok else "FAIL"
        lines.append(
            f"overall recall: utility={overall_utility:.3f} "
            f"random={overall_random:.3f} -> {verdict}"
        )
        return "\n".join(lines)


def _evaluate(
    case: str,
    seed: int,
    rate: float,
    policy: str,
    monitor: Monitor,
    kept: Sequence[Event],
    pattern,
    events: Sequence[Event],
    dropped: int,
    oracle: Sequence[dict],
    oracle_slots: set,
) -> ShedCell:
    kept_ids = {(e.trace, e.index) for e in kept}
    survivors = [
        match for match in oracle
        if all(
            (e.trace, e.index) in kept_ids for e in match.values()
        )
    ]
    recall = len(survivors) / len(oracle) if oracle else 1.0
    covered = monitor.subset.covered_slots & oracle_slots
    slot_recall = (
        len(covered) / len(oracle_slots) if oracle_slots else 1.0
    )
    reports = monitor.reports
    genuine = sum(
        1 for report in reports
        if verify_match(pattern, report.as_dict(), events)
    )
    precision = genuine / len(reports) if reports else 1.0
    return ShedCell(
        case=case,
        seed=seed,
        rate=rate,
        policy=policy,
        events=len(events),
        dropped=dropped,
        achieved_rate=dropped / len(events) if events else 0.0,
        oracle_matches=len(oracle),
        surviving_matches=len(survivors),
        recall=recall,
        oracle_slots=len(oracle_slots),
        covered_slots=len(covered),
        slot_recall=slot_recall,
        reports=len(reports),
        genuine=genuine,
        precision=precision,
    )


def _utility_cell(
    case: str,
    seed: int,
    rate: float,
    events: Sequence[Event],
    pattern_source: str,
    trace_names: Sequence[str],
    pattern,
    oracle_matches: Sequence[dict],
    oracle_slots: set,
    shed_band: int,
) -> ShedCell:
    from repro.engine.pipeline import Pipeline

    pipeline = Pipeline.replay(events, trace_names)
    pipeline.with_overload_control(
        detector=forced_shedding_detector(),
        shed_band=shed_band,
        critical_band=shed_band,
        max_drop_rate=rate,
        record_kept=True,
    )
    monitor = pipeline.watch("shed", pattern_source, record_timings=False)
    result = pipeline.run()
    shedder = result.shedder
    return _evaluate(
        case, seed, rate, "utility", monitor, shedder.kept_events,
        pattern, events, shedder.shed_total, oracle_matches, oracle_slots,
    )


def _random_cell(
    case: str,
    seed: int,
    rate: float,
    events: Sequence[Event],
    pattern_source: str,
    trace_names: Sequence[str],
    pattern,
    oracle_matches: Sequence[dict],
    oracle_slots: set,
    drop_count: int,
) -> ShedCell:
    rng = random.Random((seed * 2654435761 + int(rate * 1000)) % (2 ** 32))
    dropped = set(rng.sample(range(len(events)), drop_count))
    kept = [e for i, e in enumerate(events) if i not in dropped]
    monitor = replay_gapped_monitor(kept, pattern_source, trace_names)
    return _evaluate(
        case, seed, rate, "random", monitor, kept, pattern, events,
        drop_count, oracle_matches, oracle_slots,
    )


def run_shedding_sweep(
    cases: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = range(10),
    rates: Sequence[float] = DEFAULT_RATES,
    traces: int = 4,
    max_events: int = DEFAULT_SHED_EVENTS,
    shed_band: int = BAND_STRUCTURAL,
) -> ShedReport:
    """The full recall/precision grid: case studies x seeds x rates,
    one utility and one count-matched random cell each.

    The oracle (brute-force enumeration on the unshedded stream) is
    computed once per recorded stream and shared across rates.
    """
    from repro.engine.cases import CASE_STUDY_NAMES
    from repro.engine.pipeline import Pipeline

    case_names = list(cases) if cases else list(CASE_STUDY_NAMES)
    report = ShedReport(
        cases=case_names,
        seeds=list(seeds),
        rates=list(rates),
        shed_band=BAND_NAMES[shed_band],
    )
    for case in case_names:
        for seed in report.seeds:
            source = Pipeline.for_case(case, traces, seed)
            recorder = source.record()
            source.run(max_events=max_events)
            events = recorder.events
            names = source.trace_names
            pattern_source = source.case_pattern
            pattern = compile_source(pattern_source, names)
            oracle_matches = enumerate_matches(pattern, events)
            oracle_slots = covered_slots(oracle_matches)
            for rate in report.rates:
                utility = _utility_cell(
                    case, seed, rate, events, pattern_source, names,
                    pattern, oracle_matches, oracle_slots, shed_band,
                )
                report.cells.append(utility)
                report.cells.append(_random_cell(
                    case, seed, rate, events, pattern_source, names,
                    pattern, oracle_matches, oracle_slots,
                    utility.dropped,
                ))
    return report


# ----------------------------------------------------------------------
# Detector-dynamics scenario (the `ocep chaos` overload scenario)
# ----------------------------------------------------------------------

#: Thresholds of the scenario detector (simulated latency units).
SCENARIO_ENGAGE_LATENCY = 8.0
SCENARIO_MIN_DWELL = 8


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
            return SCENARIO_ENGAGE_LATENCY * 3.0 + base
        return base

    return profile


@dataclasses.dataclass
class OverloadScenarioRun:
    """Outcome of one overload-scenario seed."""

    seed: int
    ok: bool
    detail: str
    shed: int
    offered: int
    engaged: bool
    disengaged: bool
    final_latency_ema: float
    disengage_latency: float
    transitions: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_overload_scenario(
    events: Sequence[Event],
    pattern_source: str,
    trace_names: Sequence[str],
    seeds: Sequence[int] = range(10),
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
) -> List[OverloadScenarioRun]:
    """Exercise the detector's full engage/shed/disengage cycle.

    Per seed: replay the stream with a live detector fed the seeded
    burst profile.  The run passes iff the detector engaged, events
    were actually shed, the latency EMA returned below the disengage
    threshold (final state ``NORMAL``), and a fresh gap-tolerant
    monitor over exactly the kept events reproduces the pipeline
    monitor's subset signature and reports (the oracle on kept
    events).
    """
    from repro.engine.pipeline import Pipeline

    runs: List[OverloadScenarioRun] = []
    for seed in seeds:
        pipeline = Pipeline.replay(
            events, trace_names, registry=registry, tracer=tracer
        )
        detector = OverloadDetector(
            engage_latency=SCENARIO_ENGAGE_LATENCY,
            min_dwell=SCENARIO_MIN_DWELL,
            registry=registry,
            tracer=tracer,
        )
        pipeline.with_overload_control(
            detector=detector,
            shed_band=BAND_STRUCTURAL,
            latency_profile=burst_latency_profile(len(events), seed),
            record_kept=True,
        )
        monitor = pipeline.watch(
            "overload", pattern_source, record_timings=False
        )
        result = pipeline.run()
        shedder = result.shedder

        engaged = detector.transitions_total >= 1 and shedder.shed_total > 0
        disengaged = (
            detector.state is OverloadState.NORMAL
            and detector.latency_ema is not None
            and detector.latency_ema <= detector.disengage_latency
        )
        reference = replay_gapped_monitor(
            shedder.kept_events, pattern_source, trace_names
        )
        converged = (
            reference.subset.signature() == monitor.subset.signature()
            and reference.reports == monitor.reports
        )
        ok = engaged and disengaged and converged
        if not engaged:
            detail = "detector never engaged / nothing shed"
        elif not disengaged:
            detail = (
                f"EMA {detector.latency_ema:.2f} still above disengage "
                f"{detector.disengage_latency:.2f} "
                f"(state {detector.state.name})"
            )
        elif not converged:
            detail = "kept-events replay diverged from shedded pipeline"
        else:
            detail = (
                f"shed {shedder.shed_total}/{shedder.offered_total}, "
                f"EMA back to {detector.latency_ema:.2f} "
                f"<= {detector.disengage_latency:.2f}"
            )
        runs.append(OverloadScenarioRun(
            seed=seed,
            ok=ok,
            detail=detail,
            shed=shedder.shed_total,
            offered=shedder.offered_total,
            engaged=engaged,
            disengaged=disengaged,
            final_latency_ema=float(detector.latency_ema or 0.0),
            disengage_latency=detector.disengage_latency,
            transitions=detector.transitions_total,
        ))
    return runs


__all__ = [
    "DEFAULT_RATES",
    "DEFAULT_SHED_EVENTS",
    "GAPPED_CONFIG",
    "ShedCell",
    "ShedReport",
    "OverloadScenarioRun",
    "forced_shedding_detector",
    "replay_gapped_monitor",
    "burst_latency_profile",
    "run_shedding_sweep",
    "run_overload_scenario",
]
