"""Timed passes over one stream, and the noise-robust estimator.

A *pass* drives a fresh pipeline over the whole stream, timing every
``feed`` slice.  The stream and the program are deterministic, so
slice *i* does the same work in every pass: the estimator takes the
per-index minimum over the passes, which discards the preemptions and
collector pauses that hit different slices in different passes.  A
fixed calibration quantum is timed between slices the same way, and
times are scaled by ``REF_QUANTUM_S / mean(min quantum)`` so a host
that is uniformly slower today reads the same as yesterday.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import Pipeline, PipelineResult
from repro.events.event import Event

#: Seconds one calibration quantum takes on the reference host (2-core
#: sandbox, CPython 3.11); the constant every ``host_speed`` refers to.
REF_QUANTUM_S = 0.0008

QUANTUM_ITERS = 6000
#: Quanta timed per pass, evenly spread between slices: enough that
#: their mean is steadier than the slice times it normalises, on the
#: 10-slice batch pass of ``absence_negation`` as on 60 k single events.
QUANTA_PER_PASS = 48


def quantum() -> int:
    """A fixed amount of pure-Python dict/list work that imports
    nothing from ``src/``: its time tracks the host, not the program."""
    table: Dict[int, int] = {}
    out: List[int] = []
    append = out.append
    for i in range(QUANTUM_ITERS):
        table[i & 511] = i
        append(table.get((i * 7) & 511, 0))
    return len(out)


def make_slices(events: Sequence[Event], size: int) -> List[Sequence[Event]]:
    return [events[i:i + size] for i in range(0, len(events), size)]


@dataclasses.dataclass
class PassResult:
    """What one pass leaves behind (the pipeline itself is dropped so
    peak RSS stays that of one live deployment)."""

    slice_s: List[float]          # one per slice, plus finish() last
    quantum_s: List[float]
    terminating: Optional[List[bool]]  # per slice; per-event passes only
    events: int
    reports: int
    signature: str
    counters: Dict[str, int]
    failed: Dict[str, int]
    result: Optional[PipelineResult] = None

    @property
    def wall_s(self) -> float:
        return sum(self.slice_s)


def run_pass(
    build: Callable[[], Pipeline],
    slices: Sequence[Sequence[Event]],
    per_event: bool,
    keep_result: bool = False,
    tracer=None,
) -> PassResult:
    """Drive a fresh pipeline over ``slices`` with every slice timed.

    In a per-event pass the number of searches run so far is read
    after each slice, outside the timed region, to mark *terminating*
    deliveries.  A traced run passes its ``LayerTracer``, which is told
    the index of the slice about to be fed.
    """
    pipeline = build()
    feed = pipeline.feed
    matchers = [monitor.matcher for _name, monitor in pipeline.dispatcher]
    every = max(1, len(slices) // QUANTA_PER_PASS)
    slice_s: List[float] = []
    quantum_s: List[float] = []
    terminating: Optional[List[bool]] = [] if per_event else None
    searches = 0
    clock = time.perf_counter
    for index, events in enumerate(slices):
        start = clock()
        feed(events)
        end = clock()
        slice_s.append(end - start)
        if per_event:
            now = 0
            for matcher in matchers:
                now += matcher.searches_run
            terminating.append(now > searches)
            searches = now
        if tracer is not None:
            tracer.slice = index + 1
        if index % every == every - 1:
            start = clock()
            quantum()
            quantum_s.append(clock() - start)
    start = clock()
    result = pipeline.finish()
    slice_s.append(clock() - start)
    return summarize(
        result, slice_s, quantum_s, terminating,
        sum(len(events) for events in slices), keep_result,
    )


def summarize(
    result: PipelineResult,
    slice_s: List[float],
    quantum_s: List[float],
    terminating: Optional[List[bool]],
    offered: int,
    keep_result: bool,
) -> PassResult:
    """Reduce a finished pipeline to counts, a signature digest and the
    ways this pass lost or mishandled an event."""
    dispatcher = result.dispatcher
    counters: Dict[str, int] = {}
    undelivered = quarantined = 0
    for name, monitor in dispatcher:
        for key, value in monitor.matcher.counters().items():
            counters[key] = counters.get(key, 0) + value
        undelivered += offered - monitor.matcher.events_processed
        if dispatcher.is_quarantined(name):
            # what a failed shard did see is not trusted either
            quarantined += monitor.matcher.events_processed
    stats = result.stats().values()
    counters["history_events"] = sum(s.history_size for s in stats)
    counters["subset_matches"] = sum(s.subset_size for s in stats)
    counters["server_events"] = result.num_events
    counters["dispatch_batches"] = dispatcher.batches_seen
    counters["faults_injected"] = (
        result.injector.delayed_total if result.injector else 0
    )
    counters["holdback_reordered"] = (
        result.holdback.reordered_total if result.holdback else 0
    )
    failed = {
        "undelivered": undelivered,
        "quarantined": quarantined,
        "searches_truncated": counters["searches_truncated"],
        "leftover": len(result.leftover),
    }
    signature = hashlib.sha256(
        repr(sorted(result.signatures().items())).encode()
    ).hexdigest()
    return PassResult(
        slice_s=slice_s,
        quantum_s=quantum_s,
        terminating=terminating,
        events=offered,
        reports=result.total_reports(),
        signature=signature,
        counters=counters,
        failed=failed,
        result=result if keep_result else None,
    )


def index_min(rows: Sequence[Sequence[float]]) -> List[float]:
    """Per-index minimum over passes."""
    return [min(column) for column in zip(*rows)]


def host_speed(passes: Sequence[PassResult]) -> float:
    """``REF_QUANTUM_S`` over the mean per-index-minimum quantum: below
    1 on a host slower than the reference."""
    quanta = index_min([p.quantum_s for p in passes])
    return REF_QUANTUM_S / (sum(quanta) / len(quanta))


def p50_p95(values: Sequence[float]) -> Tuple[float, float]:
    """Median and 95th percentile, linearly interpolated."""
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return cuts[9], cuts[18]
