"""One workload, measured in this process (``run.py`` starts one child
per workload so that ``ru_maxrss`` and the hash seed are per workload).

``end_to_end`` is the gated run: set-up, warm-up, then pairs of one
batch pass and one per-event pass until ``--seconds`` of pass time are
spent.  ``traced`` is the per-layer run.  Both return
``(values, attempted, failed_by, info)`` with one value per metric name.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.engine import DEFAULT_BATCH_SIZE
from repro.obs.metrics import MetricsRegistry

import checks
import layers
import loadgen
from measure import (
    PassResult,
    host_speed,
    index_min,
    make_slices,
    p50_p95,
    run_pass,
)
from workloads import Workload

#: Set-up is repeated and its median reported: one kernel run is short
#: enough that a single sample would carry the host's noise.
SETUP_REPS = 3
WARMUP_EVENTS = 2048
MIN_PAIRS = 2
MAX_PAIRS = 6

Outcome = Tuple[Dict[str, float], int, Dict[str, int], Dict[str, object]]


class Prepared:
    """One set-up: the recorded stream, the compiled patterns, and how
    long each step took."""

    def __init__(self, workload: Workload, seed: int, scale: float):
        clock = time.perf_counter
        start = clock()
        self.events, self.names = workload.record(seed, scale)
        recorded = clock()
        self.patterns = workload.patterns()
        self.compiled = checks.compile_patterns(self.patterns, self.names)
        compiled = clock()
        # feed(()) wires the stages: work a later change moves into
        # construction or wiring lands in set-up, not in the first slice.
        workload.pipeline(self.names, self.patterns, seed).feed(())
        built = clock()
        self.record_s = recorded - start
        self.compile_s = compiled - recorded
        self.build_s = built - compiled
        self.total_s = built - start


def settle(build: Callable, events: Sequence) -> None:
    """Freeze the harness's own objects out of the collector's reach
    (the stream would otherwise be re-traversed on every full
    collection) and run both delivery paths once, untimed."""
    gc.collect()
    gc.freeze()
    pipeline = build()
    warm = events[:WARMUP_EVENTS]
    half = len(warm) // 2
    pipeline.feed(warm[:half])
    for event in warm[half:]:
        pipeline.feed([event])
    pipeline.finish()


def add_failures(total: Dict[str, int], part: Dict[str, int]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def compare(reference: PassResult, other: PassResult, label: str,
            failed_by: Dict[str, int]) -> None:
    """A pass whose output differs from pass 1 fails every report."""
    if (other.reports, other.signature) != (
        reference.reports, reference.signature
    ):
        add_failures(failed_by, {label: max(1, other.reports)})


def output_checks(
    workload: Workload, prepared: Prepared, seed: int, first: PassResult,
    failed_by: Dict[str, int],
) -> int:
    """Oracle prefix comparison + sampled verification; returns the
    number of reports and slots checked."""
    prefix = prepared.events[: workload.oracle_prefix]
    pipeline = workload.pipeline(prepared.names, prepared.patterns, seed)
    pipeline.feed(prefix)
    checked, wrong = checks.check_prefix(
        prepared.compiled, prefix, pipeline.finish()
    )
    add_failures(failed_by, {"oracle_prefix": wrong})
    sampled, rejected = checks.check_sample(
        prepared.compiled, prepared.events, first.result, seed
    )
    add_failures(failed_by, {"oracle_sample": rejected})
    return checked + sampled


def end_to_end(
    workload: Workload, seed: int, seconds: float, scale: float,
    import_s: float,
) -> Outcome:
    setups: List[float] = []
    prepared = None
    for _ in range(SETUP_REPS):
        prepared = None  # one stream alive at a time
        prepared = Prepared(workload, seed, scale)
        setups.append(prepared.total_s)
    setup_s = import_s + statistics.median(setups)

    events, names, patterns = prepared.events, prepared.names, prepared.patterns
    batch_slices = make_slices(events, DEFAULT_BATCH_SIZE)
    event_slices = make_slices(events, 1)

    def build():
        return workload.pipeline(names, patterns, seed)

    settle(build, events)

    failed_by: Dict[str, int] = {}
    batch: List[PassResult] = []
    per_event: List[PassResult] = []
    attempted = 0
    spent = 0.0
    while len(batch) < MAX_PAIRS and (
        len(batch) < MIN_PAIRS or spent < seconds
    ):
        first = not batch
        batch.append(run_pass(build, batch_slices, False, keep_result=first))
        if first:
            attempted += output_checks(
                workload, prepared, seed, batch[0], failed_by
            )
            batch[0].result = None
        per_event.append(run_pass(build, event_slices, True))
        # Budget in reference-host seconds, so the number of pairs (and
        # with it the bias of a minimum) does not follow the host's mood.
        spent += batch[-1].wall_s * host_speed(batch[-1:])
        spent += per_event[-1].wall_s * host_speed(per_event[-1:])
    passes = batch + per_event
    if workload.faulty:
        passes.append(run_pass(
            lambda: workload.pipeline(names, patterns, seed, faults=False),
            batch_slices, False,
        ))
    for index, one in enumerate(passes):
        attempted += one.events
        add_failures(failed_by, one.failed)
        compare(passes[0], one, f"pass_{index}_differs", failed_by)
    for one in per_event[1:]:
        if one.terminating != per_event[0].terminating:
            add_failures(failed_by, {"terminating_flags_differ": 1})

    speed_batch = host_speed(batch)
    speed_event = host_speed(per_event)
    batch_s = sum(index_min([p.slice_s for p in batch]))
    event_min = index_min([p.slice_s for p in per_event])
    flags = per_event[0].terminating
    latencies = [
        event_min[i] * speed_event * 1e6
        for i, flag in enumerate(flags) if flag
    ]
    p50, p95 = p50_p95(latencies)
    values = {
        "throughput_eps": len(events) / (batch_s * speed_batch),
        "event_path_eps": len(events) / (sum(event_min) * speed_event),
        "detect_latency_p50_us": p50,
        "detect_latency_p95_us": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    info = {
        "events": len(events),
        "size": workload.scaled_size(scale),
        "pairs": len(batch),
        "reports": batch[0].reports,
        "latency_samples": len(latencies),
        "host_speed": speed_batch,
        "raw_throughput_eps": len(events) / batch_s,
        "raw_event_path_eps": len(events) / sum(event_min),
        "pass_wall_s": [round(p.wall_s, 4) for p in batch + per_event],
        "pass_quantum_ms": [
            round(1e3 * sum(p.quantum_s) / len(p.quantum_s), 4)
            for p in batch + per_event
        ],
        "counters": batch[0].counters,
        "counters_repeat": all(p.counters == batch[0].counters for p in batch)
        and all(p.counters == per_event[0].counters for p in per_event),
    }
    return values, attempted, failed_by, info


def traced(
    workload: Workload, seed: int, scale: float, trace_path: Path,
) -> Outcome:
    prepared = Prepared(workload, seed, scale)
    events, names, patterns = prepared.events, prepared.names, prepared.patterns
    batch_slices = make_slices(events, DEFAULT_BATCH_SIZE)
    event_slices = make_slices(events, 1)

    def build(**options):
        return workload.pipeline(names, patterns, seed, **options)

    settle(build, events)

    def traced_pass(slices, per_event: bool):
        """One pass with the wrappers on: the pass, its spans, its
        self times, and the hold-back buffer's peak depth."""
        tracer = layers.LayerTracer()
        chains: List[layers.FaultyChain] = []

        def build_traced():
            if not workload.faulty:
                return layers.traced_pipeline(tracer, build())
            chains.append(layers.FaultyChain(tracer, names, patterns, seed))
            return chains[0]

        one = run_pass(build_traced, slices, per_event, keep_result=True,
                       tracer=tracer)
        search_s = sum(
            sum(monitor.terminating_timings)
            for _name, monitor in one.result.dispatcher
        )
        one.result = None
        selfs = layers.self_times(tracer.totals(), search_s, one.wall_s)
        peak = chains[0].pending_peak if chains else 0
        return one, tracer.spans, selfs, peak

    failed_by: Dict[str, int] = {}
    plain = [run_pass(build, batch_slices, False, keep_result=True)]
    result = plain[0].result
    clock = time.perf_counter
    start = clock()
    document = result.dispatcher.checkpoint()
    snapshot_s = clock() - start
    checkpoint_kb = len(json.dumps(document)) / 1024
    del document, result
    plain[0].result = None
    plain.append(run_pass(build, batch_slices, False))
    batch_traced, batch_spans, batch_self, batch_peak = traced_pass(
        batch_slices, False
    )
    registry_on = run_pass(
        lambda: build(registry=MetricsRegistry()), batch_slices, False
    )
    plain_event = run_pass(build, event_slices, True)
    event_traced, event_spans, event_self, event_peak = traced_pass(
        event_slices, True
    )

    quarter = events[: max(1, len(events) // 4)]
    raw_event_eps = len(events) / plain_event.wall_s
    paced = loadgen.paced_replay(build(), quarter, raw_event_eps / 2)

    passes = plain + [batch_traced, registry_on, plain_event, event_traced]
    attempted = len(quarter)
    for index, one in enumerate(passes):
        attempted += one.events
        add_failures(failed_by, one.failed)
        compare(passes[0], one, f"pass_{index}_differs", failed_by)

    layers.write_chrome_trace(trace_path, [
        ("batch pass", batch_spans,
         layers.TRACE_FILE_EVENTS // DEFAULT_BATCH_SIZE),
        ("per-event pass", event_spans, layers.TRACE_FILE_EVENTS),
    ])

    counts = plain[0].counters
    searches = counts["searches_run"]
    plain_s = min(p.wall_s for p in plain)
    values = {
        "simulation.record_s": prepared.record_s,
        "patterns.compile_ms": prepared.compile_s * 1e3,
        "engine.pipeline.build_ms": prepared.build_s * 1e3,
        "poet.server.events": counts["server_events"],
        "resilience.faults.injected": counts["faults_injected"],
        "poet.holdback.reordered": counts["holdback_reordered"],
        "poet.holdback.pending_peak": max(batch_peak, event_peak),
        "poet.holdback.leftover": plain[0].failed["leftover"],
        "engine.dispatch.batches": counts["dispatch_batches"],
        "core.matcher.searches": searches,
        "core.matcher.matches_per_search":
            counts["matches_found"] / searches if searches else 0.0,
        "core.matcher.candidates_per_search":
            counts["candidates_scanned"] / searches if searches else 0.0,
        "core.history.events": counts["history_events"],
        "core.subset.matches": counts["subset_matches"],
        "core.checkpoint.snapshot_ms": snapshot_s * 1e3,
        "core.checkpoint.kb": checkpoint_kb,
        "obs.registry_on_ratio": registry_on.wall_s / plain_s,
        "harness.host_speed": host_speed(plain),
        "harness.pass_spread":
            (max(p.wall_s for p in plain) - plain_s) / plain_s,
        "harness.trace_overhead_ratio": batch_traced.wall_s / plain_s,
        "harness.unattributed_share":
            batch_self["unattributed"] / batch_traced.wall_s,
        **paced,
    }
    for name in (
        "forward_steps", "candidates_scanned", "back_jumps", "backtracks",
        "matches_found", "searches_truncated", "window_rejections",
        "kleene_group_events", "plans_computed", "negation_vetoes",
    ):
        values[f"core.matcher.{name}"] = counts[name]
    for suffix, selfs in (("", batch_self), ("event_", event_self)):
        for layer in layers.LAYERS[:-1]:
            values[f"{layer}.{suffix}self_s"] = selfs[layer]
        values[f"core.matcher.{suffix}classify_s"] = selfs["core.matcher.classify"]
        values[f"core.matcher.{suffix}search_s"] = selfs["core.matcher.search"]
    info = {
        "events": len(events),
        "size": workload.scaled_size(scale),
        "reports": plain[0].reports,
        "batch_wall_s": batch_traced.wall_s,
        "event_wall_s": event_traced.wall_s,
        "event_unattributed_share":
            event_self["unattributed"] / event_traced.wall_s,
        "event_trace_overhead_ratio": event_traced.wall_s / plain_event.wall_s,
        "counters_repeat": all(p.counters == counts for p in plain)
        and batch_traced.counters == counts,
    }
    return values, attempted, failed_by, info
