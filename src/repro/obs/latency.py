"""End-to-end detection latency: event occurrence to match report.

The paper's headline metric times the monitor's *search* on arrival of
an event; what an operator of an online monitor also needs is the
**end-to-end lag** Dolev et al. frame for online temporal-pattern
detection: how long after an event *occurred* in the monitored system
was a match containing it reported?  In this reproduction both ends of
that interval live on the simulated clock — an event occurs at the
kernel's ``now`` when it is emitted, and a match is reported while the
kernel is at some later ``now`` (delivery, hold-back repair, and the
trigger event's own arrival all sit in between) — so the latency is
measured in simulated time units and is independent of host speed.

:class:`DetectionLatencyTracker` hangs off two existing hooks:

* as a kernel **event sink** it stamps each event's occurrence time
  (:meth:`observe_event`);
* as a monitor **match callback** it observes, for every event of a
  reported match, ``now - occurrence`` into per-pattern-leaf
  histograms in the shared :class:`~repro.obs.metrics.MetricsRegistry`
  (:meth:`observe_report`).

An event not seen by :meth:`observe_event` (e.g. the trigger itself
when the tracker's sink runs after the server's fan-out) contributes
zero latency, which is exact: a match reported during the trigger's
own delivery is detected the instant the trigger occurs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: Histogram bounds for simulated-time latencies: powers of two from
#: 1/64 to 16384 time units (delivery delays are O(mean network delay),
#: detection lags O(stream length x action delay)).
DETECTION_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(-6, 15)
)

#: Metric name of the occurrence-to-report histogram (simulated time
#: units; one unlabelled series plus one per pattern leaf).  The unit
#: suffix follows the Prometheus convention of naming the measured
#: unit.
DETECTION_LATENCY_METRIC = "ocep_detection_latency_sim_time_units"

#: Default cap on retained occurrence stamps.  Stamps for events that
#: never appear in a match were historically kept forever (an unbounded
#: leak on long streams); the tracker now evicts oldest-first past this
#: bound.  An evicted event that later shows up in a match contributes
#: zero latency — the same (exact-at-the-margin) convention as an event
#: never stamped.
DEFAULT_MAX_PENDING_STAMPS = 65_536

_HELP = (
    "simulated time from an event's occurrence to the first match "
    "report containing it"
)


class DetectionLatencyTracker:
    """Tracks occurrence-to-detection latency per pattern event.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time
        (e.g. ``lambda: kernel.now``).
    registry:
        Metrics registry receiving the histograms; defaults to the
        shared no-op registry.
    max_pending:
        Retention bound on occurrence stamps (oldest evicted first;
        ``None`` restores the historical unbounded behaviour).  The
        current retention level is exported as the
        ``ocep_detection_pending_stamps`` gauge.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        registry: Optional[MetricsRegistry] = None,
        max_pending: Optional[int] = DEFAULT_MAX_PENDING_STAMPS,
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._clock = clock
        self._max_pending = max_pending
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._occurred: Dict[Tuple[int, int], float] = {}
        self._total = self.registry.histogram(
            DETECTION_LATENCY_METRIC, _HELP, bounds=DETECTION_LATENCY_BUCKETS
        )
        self._per_leaf: Dict[int, object] = {}
        self._reports_counter = self.registry.counter(
            "ocep_detection_reports_total",
            "match reports folded into the detection-latency histograms",
        )
        self._pending_gauge = self.registry.gauge(
            "ocep_detection_pending_stamps",
            "occurrence stamps retained while awaiting a match report",
        )
        #: Latency listeners: called with every observed latency value
        #: (e.g. ``OverloadDetector.observe_latency``).
        self._listeners: list = []
        #: Plain-int mirrors, live under the no-op registry too.
        self.reports_observed = 0
        self.latencies_observed = 0
        self.stamps_evicted = 0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def add_listener(self, callback: Callable[[float], None]) -> None:
        """Forward every observed latency value to ``callback`` (how
        the overload detector taps the live latency signal)."""
        self._listeners.append(callback)

    def observe_event(self, event) -> None:
        """Kernel sink hook: stamp ``event``'s occurrence time
        (bounded: the oldest stamp is evicted past ``max_pending``)."""
        occurred = self._occurred
        occurred[(event.trace, event.index)] = self._clock()
        if self._max_pending is not None and len(occurred) > self._max_pending:
            occurred.pop(next(iter(occurred)))
            self.stamps_evicted += 1
        self._pending_gauge.set(len(occurred))

    def observe_report(self, report) -> None:
        """Match callback hook: observe the occurrence-to-now latency
        of every event in the reported assignment."""
        now = self._clock()
        self.reports_observed += 1
        self._reports_counter.inc()
        for leaf_id, event in report.assignment:
            occurred = self._occurred.get((event.trace, event.index), now)
            latency = now - occurred
            if latency < 0.0:
                latency = 0.0
            self._total.observe(latency)
            histogram = self._per_leaf.get(leaf_id)
            if histogram is None:
                histogram = self.registry.histogram(
                    DETECTION_LATENCY_METRIC,
                    _HELP,
                    labels={"leaf": str(leaf_id)},
                    bounds=DETECTION_LATENCY_BUCKETS,
                )
                self._per_leaf[leaf_id] = histogram
            histogram.observe(latency)
            self.latencies_observed += 1
            for listener in self._listeners:
                listener(latency)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def events_stamped(self) -> int:
        """Distinct events whose occurrence time is recorded."""
        return len(self._occurred)

    def __repr__(self) -> str:
        return (
            f"DetectionLatencyTracker({self.events_stamped} events stamped, "
            f"{self.latencies_observed} latencies from "
            f"{self.reports_observed} reports)"
        )


def track_detection_latency(kernel, registry: MetricsRegistry) -> DetectionLatencyTracker:
    """Wire a tracker to a simulation kernel: the returned tracker
    stamps every emitted event; pass its :meth:`~DetectionLatencyTracker.observe_report`
    as (part of) the monitor's ``on_match`` callback."""
    tracker = DetectionLatencyTracker(clock=lambda: kernel.now, registry=registry)
    kernel.add_sink(tracker.observe_event)
    return tracker
