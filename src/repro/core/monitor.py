"""The online monitor: POET client + pattern tree + OCEP matcher.

This is the top of the stack and the main entry point of the library:

    >>> from repro import Monitor
    >>> monitor = Monitor.from_source(pattern_text, trace_names)
    >>> server.connect(monitor)       # POET server of the computation
    >>> kernel.run()                  # reports stream via the callback

The monitor parses and compiles the pattern, feeds every delivered
event to the matcher, collects per-event wall-clock timings (the
paper's headline metric: "execution time ... taken by the monitor to
find the set of matches on arrival of an event"), and invokes an
optional callback for every reported match.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Sequence

from repro.core.config import MatcherConfig
from repro.core.front import StreamFront
from repro.core.matcher import MatchReport, OCEPMatcher
from repro.events.event import Event
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.patterns.compile import CompiledPattern, compile_pattern
from repro.patterns.parser import parse_pattern
from repro.patterns.tree import PatternTree
from repro.poet.client import POETClient

MatchCallback = Callable[[MatchReport], None]


@dataclasses.dataclass
class MonitorStats:
    """Aggregate counters of one monitoring run."""

    events_seen: int = 0
    matches_reported: int = 0
    subset_size: int = 0
    history_size: int = 0
    searches_run: int = 0
    searches_truncated: int = 0
    forward_steps: int = 0
    candidates_scanned: int = 0
    empty_slice_conflicts: int = 0
    back_jumps: int = 0


class Monitor(POETClient):
    """Online causal-event-pattern monitor.

    Parameters
    ----------
    pattern:
        The compiled pattern to watch for.
    num_traces:
        Number of traces in the monitored computation.
    config:
        Matcher configuration (defaults preserve the paper's
        behaviour).
    on_match:
        Optional callback invoked for every reported match.
    record_timings:
        When true (default), record per-event matching wall time in
        seconds; :attr:`timings` holds one entry per event the monitor
        was handed, in delivery order — every event of the stream for a
        standalone monitor, the routed events for a shard of a
        :class:`~repro.engine.dispatch.ShardedDispatcher` — and
        :attr:`terminating_timings` holds one entry **per search** (an
        event matching several terminating leaves runs several
        searches and contributes several entries, keeping
        ``len(terminating_timings) == matcher.searches_run``).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        per-event/per-search latency histograms and event/match
        counters online; matcher counters and size gauges are mirrored
        in by :meth:`publish_metrics`.  Defaults to the shared no-op
        registry (near-zero overhead).
    tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`, installed on the
        matcher: each triggered search becomes a ``matcher.search``
        span with nested ``goForward``/``goBackward`` children.
        Defaults to the shared no-op tracer.
    front:
        The shared :class:`~repro.core.front.StreamFront` when this
        monitor is a shard: its owner hands over only the routed events
        and accounts for the rest through :meth:`advance`.  A standalone
        monitor's matcher keeps a private one.
    """

    def __init__(
        self,
        pattern: CompiledPattern,
        num_traces: int,
        config: Optional[MatcherConfig] = None,
        on_match: Optional[MatchCallback] = None,
        record_timings: bool = True,
        registry: Optional[MetricsRegistry] = None,
        metric_labels: Optional[dict] = None,
        tracer: Optional[SpanTracer] = None,
        front: Optional[StreamFront] = None,
    ):
        self.matcher = OCEPMatcher(pattern, num_traces, config, front)
        self.pattern = pattern
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.matcher.tracer = self.tracer
        self._on_match = on_match
        self._record_timings = record_timings
        self.matcher.time_searches = record_timings
        self.reports: List[MatchReport] = []
        self.timings: List[float] = []
        self.terminating_timings: List[float] = []
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._metric_labels = dict(metric_labels) if metric_labels else None
        self._events_counter = self.registry.counter(
            "ocep_monitor_events_total",
            "events delivered to the monitor",
            labels=self._metric_labels,
        )
        self._matches_counter = self.registry.counter(
            "ocep_monitor_matches_total",
            "match reports emitted by the monitor",
            labels=self._metric_labels,
        )
        self._event_latency = self.registry.histogram(
            "ocep_monitor_event_seconds",
            "per-event matching wall time (the paper's headline metric)",
            labels=self._metric_labels,
        )
        self._search_latency = self.registry.histogram(
            "ocep_monitor_search_seconds",
            "per-search wall time on terminating events",
            labels=self._metric_labels,
        )
        # Size gauges are kept fresh on *every* delivery path — per
        # event, per batch, and on restore — not only when
        # publish_metrics() runs, so MonitorStats and scrapes never
        # report stale subset/history sizes.
        self._subset_gauge = self.registry.gauge(
            "ocep_subset_matches",
            "matches stored in the representative subset",
            labels=self._metric_labels,
        )
        self._history_gauge = self.registry.gauge(
            "ocep_history_events",
            "events stored across all leaf histories",
            labels=self._metric_labels,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_source(
        cls, source: str, trace_names: Sequence[str], **options
    ) -> "Monitor":
        """Parse, build, and compile a pattern, then wrap it in a
        monitor for a computation with the given trace names;
        ``options`` are the constructor's keyword parameters."""
        tree = PatternTree(parse_pattern(source), trace_names)
        return cls(compile_pattern(tree), len(trace_names), **options)

    # ------------------------------------------------------------------
    # POET client interface
    # ------------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """Process one delivered event (the POET client hook)."""
        matcher = self.matcher
        before = matcher.events_processed
        reports = self._match(event)
        self._settle(matcher.events_processed - before, reports)

    def on_batch(self, events: Sequence[Event]) -> None:
        """Process a contiguous delivery slice: the per-event body of
        :meth:`on_event` for each event, in order, with the monitor's
        own bookkeeping (event counter, gauges, callbacks) paid once."""
        if not events:
            return
        matcher = self.matcher
        before = matcher.events_processed
        match = self._match
        found: List[MatchReport] = []
        for event in events:
            reports = match(event)
            if reports:
                found.extend(reports)
        self._settle(matcher.events_processed - before, found)

    def _match(self, event: Event) -> List[MatchReport]:
        """The per-event body: run the matcher on ``event``, recording
        its wall time (and each search's) when timings are on."""
        matcher = self.matcher
        if not self._record_timings:
            return matcher.on_event(event)
        search_timings = matcher.search_timings
        searches_before = len(search_timings)
        start = time.perf_counter()
        reports = matcher.on_event(event)
        elapsed = time.perf_counter() - start
        self.timings.append(elapsed)
        self._event_latency.observe(elapsed)
        if len(search_timings) > searches_before:
            # One entry per *search*, not per event.
            per_search = search_timings[searches_before:]
            self.terminating_timings.extend(per_search)
            for search_time in per_search:
                self._search_latency.observe(search_time)
        return reports

    def _settle(self, processed: int, found: List[MatchReport]) -> None:
        """Account for one delivery: ``processed`` events counted by the
        matcher (it does not count the replayed prefix of a restore)
        and the reports ``found``."""
        self._events_counter.inc(processed)
        if found:
            self.reports.extend(found)
            self._matches_counter.inc(len(found))
            if self._on_match is not None:
                for report in found:
                    self._on_match(report)
        self._refresh_size_gauges()

    def advance(self, events: int) -> None:
        """Account for ``events`` stream events this monitor was not
        handed because their type is none its pattern names: the event
        counters keep meaning stream position."""
        self.matcher.events_processed += events
        self._events_counter.inc(events)

    def _refresh_size_gauges(self) -> None:
        if self.registry.enabled:
            self._subset_gauge.set(len(self.matcher.subset))
            self._history_gauge.set(self.matcher.history.total_size())

    # ------------------------------------------------------------------
    # Checkpoint / recovery
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-ready snapshot of the matcher's complete cross-event
        state (delivered counts, GP/LS index, leaf histories,
        representative subset, counters).  Restore it into a *fresh*
        monitor built for the same pattern via :meth:`restore`, then
        feed it the whole recorded stream to converge to the exact
        state of an uninterrupted run."""
        return self.matcher.checkpoint()

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` (this monitor must be fresh —
        same pattern shape and trace count, no events processed).

        Restoring arms suffix-skipping in the stream front: deliveries
        already reflected in the checkpoint are not processed again, so
        the recovered monitor can simply be reconnected to a replay of
        the full recorded stream.  (A shard is restored through its
        dispatcher, whose front applies the rule.)  Size gauges are
        refreshed immediately — :meth:`stats` and metric scrapes see the
        restored subset/history sizes without waiting for the next
        delivery."""
        self.matcher.restore(state)
        self._refresh_size_gauges()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def subset(self):
        """The matcher's representative subset."""
        return self.matcher.subset

    @property
    def search_trace(self):
        """The matcher's search-trace ring buffer (None unless
        ``MatcherConfig.search_trace_size`` was set)."""
        return self.matcher.search_trace

    def stats(self) -> MonitorStats:
        """Aggregate counters for reporting.

        ``matches_reported`` comes from the matcher's checkpointed
        ``matches_found`` counter, not ``len(self.reports)``: after
        :meth:`restore` the reports list only holds post-recovery
        matches, while the counter converges to the uninterrupted run's
        value.  For a fresh run the two are always equal (every report
        increments the counter exactly once).
        """
        return MonitorStats(
            events_seen=self.matcher.events_processed,
            matches_reported=self.matcher.matches_found,
            subset_size=len(self.matcher.subset),
            history_size=self.matcher.history.total_size(),
            searches_run=self.matcher.searches_run,
            searches_truncated=self.matcher.searches_truncated,
            forward_steps=self.matcher.forward_steps,
            candidates_scanned=self.matcher.candidates_scanned,
            empty_slice_conflicts=self.matcher.empty_slice_conflicts,
            back_jumps=self.matcher.back_jumps,
        )

    def publish_metrics(self) -> MetricsRegistry:
        """Mirror the matcher's hot-path counters and size gauges into
        this monitor's registry; returns the registry (snapshot-ready
        for the :mod:`repro.obs.export` exporters)."""
        self.matcher.publish_metrics(self.registry, labels=self._metric_labels)
        return self.registry
