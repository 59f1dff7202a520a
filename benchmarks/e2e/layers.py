"""The traced run: timing wrappers around each layer boundary.

The wrappers live here, in the benchmark's own files, and are
installed as *instance attributes* over the public entry point of each
layer object, so nothing under ``src/`` changes and an untraced pass
pays nothing.  A layer is a module:

    poet.server -> [resilience.faults -> poet.holdback] -> engine.dispatch
                -> core.monitor (one per shard) -> core.matcher

Every call is one span ``(layer, shard, slice, start, end)``; all spans
of a slice share its index and a span's parent is the enclosing layer's
span of the same slice.  The call tree is static per layer, so a
layer's self time is its spans' total minus its child layer's total.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.engine import Pipeline, PipelineResult, ShardedDispatcher
from repro.events.event import Event
from repro.poet.client import POETClient
from repro.poet.holdback import HoldbackBuffer
from repro.poet.server import POETServer
from repro.resilience.faults import FaultInjector

from workloads import FAULT_PLAN

#: Outside-in; each layer's parent is the nearest present layer before it.
LAYERS = (
    "poet.server",
    "resilience.faults",
    "poet.holdback",
    "engine.dispatch",
    "core.monitor",
    "core.matcher",
)

#: Only the first events of each pass go into the trace *file* (every
#: span is still measured): ``faulty_holdback`` records 270 k spans per
#: pass, 50 MB of JSON.
TRACE_FILE_EVENTS = 2048

Span = Tuple[str, str, int, float, float]


class LayerTracer:
    """Collects spans in memory; ``slice`` is set by the pass loop."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.slice = 0

    def wrap(self, call: Callable, layer: str, shard: str = "") -> Callable:
        record = self.spans.append
        clock = time.perf_counter
        tracer = self

        def traced(*args):
            start = clock()
            value = call(*args)
            record((layer, shard, tracer.slice, start, clock()))
            return value

        return traced

    def totals(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for layer, _shard, _slice, start, end in self.spans:
            totals[layer] += end - start
        return totals


def self_times(
    totals: Dict[str, float], search_s: float, wall_s: float
) -> Dict[str, float]:
    """Span totals -> self time per layer, the matcher split into
    search and classify, and what no span covers."""
    present = [layer for layer in LAYERS if totals[layer] > 0.0]
    out = {layer: 0.0 for layer in LAYERS}
    for layer, child in zip(present, present[1:] + [None]):
        out[layer] = totals[layer] - (totals[child] if child else 0.0)
    matcher = out.pop("core.matcher")
    out["core.matcher.search"] = search_s
    out["core.matcher.classify"] = matcher - search_s
    out["unattributed"] = wall_s - (totals[present[0]] if present else 0.0)
    return out


def instrument_shards(tracer: LayerTracer, dispatcher: ShardedDispatcher) -> None:
    dispatcher.on_batch = tracer.wrap(dispatcher.on_batch, "engine.dispatch")
    dispatcher.on_event = tracer.wrap(dispatcher.on_event, "engine.dispatch")
    for name, monitor in dispatcher:
        monitor.on_batch = tracer.wrap(monitor.on_batch, "core.monitor", name)
        monitor.on_event = tracer.wrap(monitor.on_event, "core.monitor", name)
        matcher = monitor.matcher
        matcher.on_event = tracer.wrap(matcher.on_event, "core.matcher", name)


def traced_pipeline(tracer: LayerTracer, pipeline: Pipeline) -> Pipeline:
    """Wrap a fault-free stream pipeline before its first ``feed``
    (stages wire lazily, so the wrappers are what gets connected)."""
    server = pipeline.server
    server.collect_batch = tracer.wrap(server.collect_batch, "poet.server")
    instrument_shards(tracer, pipeline.dispatcher)
    return pipeline


class _FaultStage(POETClient):
    """The injector as a POET client (the pipeline's own adapter is
    private to it)."""

    def __init__(self, feed: Callable[[Event], None]):
        self._feed = feed

    def on_event(self, event: Event) -> None:
        self._feed(event)


class FaultyChain:
    """``faulty_holdback``'s stage chain assembled from the public
    constructors, so the injector and the hold-back buffer can be
    wrapped too (``Pipeline`` hands them bound methods at wiring time).
    Exposes the ``feed``/``finish``/``dispatcher`` surface the pass
    loop drives; its output is checked against the ``Pipeline`` pass.
    """

    def __init__(
        self,
        tracer: LayerTracer,
        trace_names: Sequence[str],
        patterns: Dict[str, str],
        seed: int,
    ):
        self.dispatcher = ShardedDispatcher(trace_names)
        for name, source in patterns.items():
            self.dispatcher.watch(name, source)
        instrument_shards(tracer, self.dispatcher)
        self.holdback = HoldbackBuffer(
            len(trace_names), self.dispatcher.on_event
        )
        self.holdback.on_event = tracer.wrap(
            self.holdback.on_event, "poet.holdback"
        )
        self.injector = FaultInjector(
            FAULT_PLAN, self.holdback.on_event, seed=seed
        )
        stage = _FaultStage(self.injector.feed)
        stage.on_batch = tracer.wrap(stage.on_batch, "resilience.faults")
        self.server = POETServer(len(trace_names), trace_names)
        self.server.connect(stage)
        self._collect = tracer.wrap(self.server.collect_batch, "poet.server")
        self._flush_injector = tracer.wrap(
            self.injector.flush, "resilience.faults"
        )
        self._flush_holdback = tracer.wrap(
            self.holdback.flush, "poet.holdback"
        )
        self.pending_peak = 0

    def feed(self, events: Sequence[Event]) -> None:
        self._collect(events)
        pending = self.holdback.pending_count
        if pending > self.pending_peak:
            self.pending_peak = pending

    def finish(self) -> PipelineResult:
        self._flush_injector()
        leftover = self._flush_holdback()
        return PipelineResult(
            num_events=self.server.num_events,
            outcome=None,
            dispatcher=self.dispatcher,
            leftover=leftover,
            injector=self.injector,
            holdback=self.holdback,
        )


def write_chrome_trace(
    path: Path,
    passes: Sequence[Tuple[str, Sequence[Span], int]],
) -> int:
    """Write ``(pass name, spans, first slice left out)`` groups as Chrome
    trace-event JSON (one process per pass, one thread: the run is
    single-threaded, so enclosing spans nest by time).  Returns the
    number of spans written."""
    events = []
    written = 0
    for pid, (name, spans, cap) in enumerate(passes, start=1):
        events.append({
            "ph": "M", "pid": pid, "tid": 1, "name": "process_name",
            "args": {"name": name},
        })
        kept = [s for s in spans if s[2] < cap]
        if not kept:
            continue
        origin = min(start for _l, _s, _i, start, _e in kept)
        present = [l for l in LAYERS if any(s[0] == l for s in kept)]
        parent = dict(zip(present, ["harness"] + present))
        for layer, shard, index, start, end in kept:
            events.append({
                "ph": "X", "pid": pid, "tid": 1,
                "name": f"{layer}[{shard}]" if shard else layer,
                "cat": layer,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"slice": index, "parent": parent[layer]},
            })
        written += len(kept)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
    return written
