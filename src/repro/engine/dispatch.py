"""Sharded multi-pattern dispatch: one stream front, N matchers.

A deployment watches many patterns at once.  Each watched pattern of a
:class:`ShardedDispatcher` is a *shard* — a
:class:`~repro.core.monitor.Monitor` with its own matcher state,
``pattern=<name>``-labelled metrics, span track and failure quarantine —
and all shards read one :class:`~repro.core.front.StreamFront`: an event
is validated, indexed and typed once, then handed only to the shards
whose pattern names its type.  One pass still produces exactly the
matches, counters and subsets of N independent single-pattern runs
(``tests/property/test_shared_front.py``, CI ``pipeline-smoke``).

    >>> dispatcher = ShardedDispatcher(trace_names)
    >>> dispatcher.watch("races", race_pattern)
    >>> server.connect(dispatcher)
    >>> kernel.run()
    >>> dispatcher["races"].reports
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.checkpoint import CheckpointError
from repro.core.config import MatcherConfig
from repro.core.front import StreamFront
from repro.core.monitor import MatchCallback, Monitor, MonitorStats
from repro.events.event import Event
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.poet.client import POETClient

#: Format tag of a sharded checkpoint document.
CHECKPOINT_FORMAT = "ocep-sharded-checkpoint-v1"


class _Shard:
    """One watched pattern, as the delivery loop sees it."""

    __slots__ = ("name", "monitor", "synced", "routed", "routed_counter")

    def __init__(self, name, monitor, synced, routed_counter):
        self.name = name
        self.monitor = monitor
        #: Stream position the monitor's event counters account for.
        self.synced = synced
        #: Events handed to the monitor (published once per slice).
        self.routed = 0
        self.routed_counter = routed_counter


class ShardedDispatcher(POETClient):
    """A POET client fanning one stream into several pattern monitors.

    Delivery is event-major: an event is admitted into the shared front,
    typed by one route-table probe and handed to the routed healthy
    shards before the next is admitted, so a shard searches with the
    index exactly where a standalone monitor's would stand.  A shard's
    ``events_processed`` / ``MonitorStats.events_seen`` /
    ``ocep_monitor_events_total`` keep meaning *stream position* (events
    offered while healthy, routed or not).

    A *shard* raising on a routed event is quarantined: detached, state
    frozen at the failing event and readable, other shards unaffected.
    A malformed *stream* (per-trace regression or duplicate) is the same
    for every shard: the front raises it once, to the caller.

    ``registry`` and ``tracer`` are shared by the shards (each under its
    own ``pattern=<name>`` label / track) and default to the no-op ones.
    """

    def __init__(
        self,
        trace_names: Sequence[str],
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.trace_names = tuple(trace_names)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Built by the first :meth:`watch` (with its ``complete_stream``).
        self.front: Optional[StreamFront] = None
        self._shards: Dict[str, _Shard] = {}
        self._live: List[_Shard] = []
        self.events_seen = 0
        self.batches_seen = 0
        #: Failure isolation: name -> the exception its monitor raised.
        self._quarantined: Dict[str, BaseException] = {}
        self.quarantined_total = 0
        self._quarantine_counter = self.registry.counter(
            "ocep_multi_quarantined_total",
            "pattern shards detached after raising on a routed event",
        )

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def watch(
        self,
        name: str,
        pattern_source: str,
        config: Optional[MatcherConfig] = None,
        record_timings: bool = True,
        on_match: Optional[MatchCallback] = None,
    ) -> Monitor:
        """Add a named pattern; returns its monitor.

        ``on_match`` receives each report of this shard.  A pattern
        added after events have flowed joins at the current stream
        position: the shared index it reads is complete, but its
        histories — and so its matches — hold only events delivered
        from now on.  ``config.complete_stream`` is a property of the
        stream: it must agree with earlier shards.
        """
        if name in self._shards:
            raise ValueError(f"already watching a pattern named {name!r}")
        front = self.front
        if front is None:
            complete = config.complete_stream if config is not None else True
            front = StreamFront(len(self.trace_names), complete)
        monitor = Monitor.from_source(
            pattern_source,
            self.trace_names,
            config=config,
            on_match=on_match,
            record_timings=record_timings,
            registry=self.registry,
            metric_labels={"pattern": name},
            tracer=self.tracer,
            front=front,
        )
        self.front = front
        routed_counter = self.registry.counter(
            "ocep_dispatch_routed_events_total",
            "events handed to the shard: those whose type its pattern "
            "names, out of the ocep_monitor_events_total offered",
            labels={"pattern": name},
        )
        shard = _Shard(name, monitor, self.events_seen, routed_counter)
        self._shards[name] = shard
        self._live.append(shard)
        # by name: a shard object in the route table would close a
        # reference cycle through its matcher's front
        front.attach(name, monitor.pattern)
        return monitor

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def on_batch(self, events: Sequence[Event]) -> None:
        """Deliver a contiguous slice of the linearization; a slice of
        one goes through the single-event body."""
        if not events:
            return
        self.batches_seen += 1
        if self.tracer.enabled:
            with self.tracer.span(
                "dispatch.batch",
                track="engine.dispatch",
                args={
                    "events": len(events),
                    "first": repr(events[0].event_id),
                    "shards": len(self._live),
                },
            ):
                self._deliver(events)
        elif len(events) == 1:
            self._deliver_event(events[0])
        else:
            self._deliver(events)

    def _deliver_event(self, event: Event) -> None:
        """The single-event body: admit, route, hand to the routed
        shards, settle.  The slice loop of :meth:`_deliver` does the
        same per event, with its set-up paid once per slice."""
        front = self.front
        if front is None:
            self.events_seen += 1
            return
        behind = self._behind() if front.resuming else None
        front.admit(event)
        routes = front.routes
        routed = routes.by_type.get(event.etype, routes.wild)
        if behind:
            routed = _past_watermark(event, routed, behind)
        seen = self.events_seen
        self.events_seen = seen + 1
        shards = self._shards
        try:
            for name in routed:
                self._hand(shards[name], event, seen)
        except BaseException:
            self._rehand(routed, event, seen)
            raise
        finally:
            self._settle(behind)

    #: Deliver one event (a hold-back release, a live kernel's event).
    on_event = _deliver_event

    def _deliver(self, events: Sequence[Event]) -> None:
        front = self.front
        if front is None:
            self.events_seen += len(events)
            return
        admit, routes, hand = front.admit, front.routes, self._hand
        by_type = routes.by_type
        shards = self._shards
        behind = self._behind() if front.resuming else None
        seen = self.events_seen
        try:
            for event in events:
                admit(event)
                routed = by_type.get(event.etype, routes.wild)
                if behind:
                    routed = _past_watermark(event, routed, behind)
                try:
                    for name in routed:
                        hand(shards[name], event, seen)
                except BaseException:
                    self._rehand(routed, event, seen)
                    seen += 1
                    raise
                seen += 1
        finally:
            self.events_seen = seen
            self._settle(behind)

    def _behind(self) -> List[_Shard]:
        """Shards restored ahead of a front replaying from the start."""
        return [
            s for s in self._live if s.monitor.matcher.watermark is not None
        ]

    def _rehand(self, routed: Sequence[str], event: Event, seen: int) -> None:
        """An interrupt escaped a shard: the routed shards not yet handed
        the event get it first, so that all stand at one stream position
        when the caller checkpoints."""
        shards = self._shards
        for name in routed:
            if shards[name].synced <= seen:
                with contextlib.suppress(BaseException):
                    self._hand(shards[name], event, seen)

    def _settle(self, behind: Optional[List[_Shard]]) -> None:
        """Bring every healthy shard to the stream position (advancing
        those the last events were not routed to), publish the routed
        counts, and release restored shards the stream has caught up
        with."""
        seen = self.events_seen
        publish = self.registry.enabled
        for shard in self._live:
            if shard.synced != seen:
                shard.monitor.advance(seen - shard.synced)
                shard.synced = seen
            if publish:
                shard.routed_counter.set_total(shard.routed)
        if behind:
            length = self.front.index.trace_length
            for shard in behind:
                matcher = shard.monitor.matcher
                mark = matcher.watermark
                if mark is not None and all(
                    length(t) >= mark[t] for t in range(len(mark))
                ):
                    matcher.unpin()

    def _hand(self, shard: _Shard, event: Event, seen: int) -> None:
        """Hand the event at stream position ``seen`` to a routed shard,
        first accounting for the unrouted events since its last one."""
        monitor = shard.monitor
        if shard.synced != seen:
            monitor.advance(seen - shard.synced)
        shard.synced = seen + 1
        shard.routed += 1
        try:
            monitor.on_event(event)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            # quarantine, frozen at this event (checkpoint included)
            monitor.matcher.pin()
            self.front.routes.detach(shard.name)
            self._live = [s for s in self._live if s is not shard]
            self._quarantined[shard.name] = exc
            self.quarantined_total += 1
            self._quarantine_counter.inc()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __getitem__(self, name: str) -> Monitor:
        return self._shards[name].monitor

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    def __iter__(self) -> Iterator[Tuple[str, Monitor]]:
        return ((name, s.monitor) for name, s in self._shards.items())

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def quarantined(self) -> Dict[str, BaseException]:
        """Quarantined pattern names mapped to the exception raised."""
        return dict(self._quarantined)

    def is_quarantined(self, name: str) -> bool:
        return name in self._quarantined

    def stats(self) -> Dict[str, MonitorStats]:
        """Per-pattern statistics, keyed by pattern name (quarantined
        monitors included — their counters froze at the failure)."""
        return {name: monitor.stats() for name, monitor in self}

    def quarantine_report(self) -> Dict[str, str]:
        """Quarantined pattern names mapped to ``repr`` of the error
        (JSON-ready companion to :meth:`stats`)."""
        return {name: repr(exc) for name, exc in self._quarantined.items()}

    def total_reports(self) -> int:
        """Matches reported across all patterns."""
        return sum(len(monitor.reports) for _name, monitor in self)

    # ------------------------------------------------------------------
    # Checkpoint / recovery
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-ready snapshot of every shard's matcher state."""
        return {
            "format": CHECKPOINT_FORMAT,
            "trace_names": list(self.trace_names),
            "shards": {name: mon.checkpoint() for name, mon in self},
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` into this dispatcher's shards.

        The document must be for this dispatcher's trace names, every
        shard it names must already be watched (with the same pattern),
        and none may have processed events.  Shards watched here but
        absent from the snapshot stay fresh — they will consume the
        stream from its start, like any new pattern.  A document that
        does not fit raises :class:`~repro.core.checkpoint.CheckpointError`
        naming the field.
        """
        if not isinstance(state, dict):
            raise CheckpointError(
                f"a sharded checkpoint is a JSON object, "
                f"got {type(state).__name__}"
            )
        if state.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"format: not a {CHECKPOINT_FORMAT} document: "
                f"{state.get('format')!r}"
            )
        if state.get("trace_names") != list(self.trace_names):
            raise CheckpointError(
                f"trace_names: the checkpoint is for "
                f"{state.get('trace_names')!r}, this dispatcher for "
                f"{list(self.trace_names)!r}"
            )
        shards = state.get("shards")
        if not isinstance(shards, dict):
            raise CheckpointError(
                f"shards: expected an object of shard states, "
                f"got {type(shards).__name__}"
            )
        missing = sorted(name for name in shards if name not in self)
        if missing:
            raise CheckpointError(
                f"shards: checkpoint names shards not watched here: {missing}"
            )
        for name, shard_state in shards.items():
            self[name].restore(shard_state)

    # ------------------------------------------------------------------
    # Equivalence surface
    # ------------------------------------------------------------------

    def signatures(self) -> Dict[str, tuple]:
        """Per-shard representative-subset signatures (the comparison
        key of the sharded-vs-independent equivalence checks)."""
        return {name: mon.subset.signature() for name, mon in self}


def _past_watermark(
    event: Event, routed: Sequence[str], behind: Sequence[_Shard]
) -> List[str]:
    """The routed shard names minus those whose restored state already
    reflects ``event`` (at or below their checkpoint's per-trace
    length): for them it was never offered again."""
    held = []
    for shard in behind:
        mark = shard.monitor.matcher.watermark
        if mark is not None and event.index <= mark[event.trace]:
            shard.synced += 1
            held.append(shard.name)
    return [name for name in routed if name not in held]


__all__ = [
    "CHECKPOINT_FORMAT",
    "ShardedDispatcher",
]
