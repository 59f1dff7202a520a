"""Per-stage pipeline telemetry: the ``ocep_stage_*`` metric family.

Every metric the stack publishes so far is *component*-scoped (POET
delivery counters, matcher counters, hold-back accounting) and named
per component.  An operator of a live pipeline wants the orthogonal
view: the **stage axis** — the same seven-stage chain every
:class:`~repro.engine.pipeline.Pipeline` wires::

    source -> poet -> faults -> holdback -> shedder -> dispatcher -> monitors

:class:`PipelineTelemetry` owns one uniform series set per stage in a
shared :class:`~repro.obs.metrics.MetricsRegistry`:

* ``ocep_stage_events_total{stage=...}`` — events that entered the
  stage (throughput);
* ``ocep_stage_queue_depth{stage=...}`` — events currently queued or
  retained inside the stage (hold-back pending, fault-injector delay
  queue; 0 for the POET server, which retains nothing);
* ``ocep_stage_latency_seconds{stage=...}`` — wall time one delivery
  spent from this stage's entry hook onward (**inclusive** of
  downstream stages: the outermost stage's histogram is end-to-end
  delivery time, and subtracting adjacent stages yields self time);
* ``ocep_stage_batch_size_events{stage=...}`` — sizes of the
  contiguous slices delivered (a per-event delivery is a slice of one).

Stages with a synchronous push interface (faults, holdback, shedder,
dispatcher) are measured live by interposing a :class:`StageLink` on
the inter-stage edge; stages without one (source, poet, monitors) are
published at :meth:`PipelineTelemetry.refresh` time from registered
probes.  ``refresh`` is called by the scrape server before rendering
``/metrics`` or ``/snapshot`` and by the pipeline at end of run, so a
reader always observes current queue depths.

All series are minted up front, so a scrape taken mid-run exposes all
seven stages even when a stage never saw an event (its counter reads
zero) — the invariant the obs-server smoke job asserts.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

#: The pipeline's stage names, in delivery order.
STAGES: Tuple[str, ...] = (
    "source",
    "poet",
    "faults",
    "holdback",
    "shedder",
    "dispatcher",
    "monitors",
)

#: Batch-size histogram buckets: powers of two up to the largest
#: replay slice anyone plausibly configures.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = tuple(2.0 ** e for e in range(0, 13))

_EVENTS_HELP = "events that entered the pipeline stage"
_QUEUE_HELP = "events currently queued or retained inside the stage"
_LATENCY_HELP = (
    "wall time a delivery spent from this stage's entry hook onward "
    "(inclusive of downstream stages)"
)
_BATCH_HELP = "contiguous slice sizes delivered to the stage"


class StageLink:
    """Instrumented inter-stage edge.

    Wraps a downstream stage (anything with ``on_batch``), counts every
    event through the edge, times the inclusive downstream processing,
    and records batch sizes — a per-event delivery is a slice of one
    and records a 1.  The wrapper adds two ``perf_counter`` reads per
    *delivery* (one per slice).
    """

    __slots__ = ("_downstream", "_events", "_latency", "_batch")

    def __init__(self, downstream, events_counter, latency_histogram,
                 batch_histogram):
        self._downstream = downstream
        self._events = events_counter
        self._latency = latency_histogram
        self._batch = batch_histogram

    def on_event(self, event) -> None:
        """Deliver one event: a slice of one."""
        self.on_batch((event,))

    def on_batch(self, events: Sequence) -> None:
        started = time.perf_counter()
        self._downstream.on_batch(events)
        self._latency.observe(time.perf_counter() - started)
        self._events.inc(len(events))
        self._batch.observe(len(events))


class PipelineTelemetry:
    """One pipeline's stage-axis metric surface.

    Mints the full ``ocep_stage_*`` series set for all seven stages at
    construction; hands out :class:`StageLink` interposers for the
    synchronous edges; publishes probe-backed stages on
    :meth:`refresh`.  Also tracks the run lifecycle flags the scrape
    server's ``/readyz`` and ``/healthz`` endpoints report.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._counters: Dict[str, object] = {}
        self._queues: Dict[str, object] = {}
        self._latencies: Dict[str, object] = {}
        self._batches: Dict[str, object] = {}
        for stage in STAGES:
            labels = {"stage": stage}
            self._counters[stage] = registry.counter(
                "ocep_stage_events_total", _EVENTS_HELP, labels=labels
            )
            self._queues[stage] = registry.gauge(
                "ocep_stage_queue_depth", _QUEUE_HELP, labels=labels
            )
            self._latencies[stage] = registry.histogram(
                "ocep_stage_latency_seconds", _LATENCY_HELP, labels=labels
            )
            self._batches[stage] = registry.histogram(
                "ocep_stage_batch_size_events", _BATCH_HELP, labels=labels,
                bounds=BATCH_SIZE_BUCKETS,
            )
        #: Monotone totals published via ``set_total`` at refresh.
        self._count_probes: Dict[str, Callable[[], int]] = {}
        self._queue_probes: Dict[str, Callable[[], float]] = {}
        #: Run lifecycle, read by the scrape server from its thread.
        self.started = False
        self.finished = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def link(self, stage: str, downstream) -> StageLink:
        """Interpose a live-measuring link in front of ``downstream``
        and attribute its deliveries to ``stage``."""
        if stage not in self._counters:
            raise KeyError(f"unknown stage {stage!r}; known: {STAGES}")
        return StageLink(
            downstream,
            self._counters[stage],
            self._latencies[stage],
            self._batches[stage],
        )

    def set_count_probe(self, stage: str, probe: Callable[[], int]) -> None:
        """Publish ``stage``'s throughput from a monotone total probe
        at refresh time (stages without a synchronous entry hook)."""
        self._count_probes[stage] = probe

    def set_queue_probe(self, stage: str, probe: Callable[[], float]) -> None:
        """Publish ``stage``'s queue depth from ``probe`` at refresh
        time."""
        self._queue_probes[stage] = probe

    # ------------------------------------------------------------------
    # Lifecycle / publication
    # ------------------------------------------------------------------

    def mark_started(self) -> None:
        self.started = True

    def mark_finished(self) -> None:
        self.finished = True

    def refresh(self) -> None:
        """Pull every registered probe into the registry.  Called by
        the scrape server before rendering and by the pipeline at end
        of run; safe to call from a non-pipeline thread."""
        for stage, probe in self._count_probes.items():
            value = int(probe())
            counter = self._counters[stage]
            # A monotone probe can still appear to step back when read
            # mid-update from another thread; never let that poison
            # the counter invariant.
            if value > counter.value:
                counter.set_total(value)
        for stage, probe in self._queue_probes.items():
            self._queues[stage].set(probe())

    # ------------------------------------------------------------------
    # Introspection (health endpoint)
    # ------------------------------------------------------------------

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage ``{events, queue_depth}`` snapshot for
        ``/healthz``."""
        return {
            stage: {
                "events": self._counters[stage].value,
                "queue_depth": self._queues[stage].value,
            }
            for stage in STAGES
        }


def attach_telemetry(
    registry: Optional[MetricsRegistry],
) -> Optional[PipelineTelemetry]:
    """Telemetry for ``registry`` when it is a live one, else ``None``
    (the disabled-observability path stays link-free and pays
    nothing)."""
    if registry is None or not registry.enabled:
        return None
    return PipelineTelemetry(registry)


__all__ = [
    "BATCH_SIZE_BUCKETS",
    "PipelineTelemetry",
    "STAGES",
    "StageLink",
    "attach_telemetry",
]
