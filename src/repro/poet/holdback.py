"""Causal hold-back buffer: fault-tolerant event delivery.

The POET substrate promises its clients "the arriving events in a
linearization of the partial order" (paper, Section V-A).  The server's
``verify=True`` mode *asserts* that promise and kills the pipeline on
the first late, duplicated, or dropped event.  This module *repairs*
the stream instead, the way real causal-order delivery layers do: an
arriving event is released to the downstream sink only once all of its
vector-clock predecessors have been released, and is otherwise held
back.

Release rule (the same counting argument as
:func:`repro.poet.linearize.is_linearization`): an event ``e`` on trace
``t`` with clock ``V`` is *ready* when exactly ``V[t] - 1`` events of
trace ``t`` and at least ``V[m]`` events of every other trace ``m``
have been released.  Among simultaneously ready events the buffer
releases in arrival order, so a stream perturbed only by holding
events back past their causal successors (the
:class:`repro.resilience.faults.FaultInjector` reorder/delay faults)
is restored to the *exact* original linearization — which is what lets
the chaos harness demand bit-identical representative subsets.

Failure handling:

* **Duplicates** are suppressed by per-trace released counts (an event
  whose position is already released, or already pending, is absorbed
  and counted).
* **Gaps** (a dropped predecessor) cannot be repaired; they are
  *detected* instead: when the oldest held event has waited more than
  ``stall_watermark`` arrivals without any release, the buffer marks
  itself stalled and :meth:`missing_predecessors` names the exact
  (trace, index) holes.
* **Overflow**: the buffer is bounded by ``capacity`` with an explicit
  policy — ``"raise"`` (default; fail loudly) or ``"shed"`` (drop the
  arriving event, surfacing later as a stall).  A push-style
  :class:`~repro.poet.client.POETClient` cannot refuse an arrival, so
  there is no backpressure policy.

Instrumentation flows through the standard
:class:`~repro.obs.metrics.MetricsRegistry`: a held-back depth gauge
plus released / reordered / duplicate / shed / stall counters.
"""

from __future__ import annotations

from operator import le
from typing import (
    Callable, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.clocks.encoded import EncodedClock
from repro.events.event import Event, EventId
from repro.obs.log import get_logger
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.poet.client import POETClient, Stage, as_stage

_log = get_logger("poet.holdback")

#: Overflow policies for a full buffer.
OVERFLOW_POLICIES = ("raise", "shed")


class _Held:
    """One held-back event plus its arrival sequence number (slotted:
    a faulty burst can hold thousands of these at once).  ``band``
    caches the utility score, computed lazily on the first overflow."""

    __slots__ = ("event", "arrived_at", "band")

    def __init__(self, event: Event, arrived_at: int):
        self.event = event
        self.arrived_at = arrived_at
        self.band: Optional[int] = None


class HoldbackOverflowError(RuntimeError):
    """The hold-back buffer hit capacity under the ``raise`` policy."""


class HoldbackStallError(RuntimeError):
    """Held-back events can never be released (dropped predecessor)."""


class HoldbackBuffer(Stage):
    """Re-linearizes an out-of-order event stream for one consumer.

    Parameters
    ----------
    num_traces:
        Clock width of the monitored computation.
    sink:
        The downstream stage: anything with ``on_event`` and
        ``on_batch`` (a client, a ``StageLink``), or a callable taking
        one event (e.g. ``monitor.on_event``), wrapped once in a
        :class:`~repro.poet.client.CallbackClient`.  Releases arrive
        in causal order, one ``on_batch`` per slice of arrivals and one
        ``on_event`` per release of a single arrival.
    capacity:
        Maximum events held back at once (``None`` = unbounded).
    overflow:
        Policy when an arrival would exceed ``capacity``; one of
        :data:`OVERFLOW_POLICIES`.
    stall_watermark:
        Arrivals the oldest held event may wait through without any
        release before the buffer declares a stall (``None`` disables
        detection).
    raise_on_stall:
        When true, a detected stall raises :class:`HoldbackStallError`
        from :meth:`on_batch` instead of only being recorded.
    utility_scorer:
        Optional :class:`~repro.resilience.overload.EventUtilityScorer`.
        When set, the ``shed`` overflow policy becomes pattern-aware:
        instead of always dropping the arriving event, it evicts the
        *least useful* one — lowest utility band first, newest arrival
        among ties (evicting the oldest would re-order survivors) —
        considering both the pending entries and the arrival.  Without
        a scorer the historical behaviour (drop the arrival) is kept.
    registry:
        Optional metrics registry; defaults to the shared no-op one.
        The shed counter is labelled ``reason="overflow"`` — the load
        shedder reports into the same series with
        ``reason="overload"``, so ``ocep case --metrics`` tells them apart.
    tracer:
        Optional span tracer; when enabled, held-back arrivals,
        suppressed duplicates, sheds, and stalls become instant
        annotations, and repair drains become ``holdback.repair``
        spans on the buffer's wall-clock track.
    """

    def __init__(
        self,
        num_traces: int,
        sink: Union[POETClient, Callable[[Event], None]],
        capacity: Optional[int] = None,
        overflow: str = "raise",
        stall_watermark: Optional[int] = None,
        raise_on_stall: bool = False,
        utility_scorer=None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        if num_traces <= 0:
            raise ValueError(f"need at least one trace, got {num_traces}")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, got {overflow!r}"
            )
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.num_traces = num_traces
        self._sink = as_stage(sink)
        self._capacity = capacity
        self._overflow = overflow
        self._stall_watermark = stall_watermark
        self._raise_on_stall = raise_on_stall
        self._utility_scorer = utility_scorer

        self._released = [0] * num_traces
        #: Per trace, the knowledge row of the last encoded-clock event
        #: released there (``None`` before one is).
        self._last_rows: List[Optional[Tuple[int, ...]]] = [None] * num_traces
        #: Releases of the slice in progress, handed on at its end.
        self._outbox: List[Event] = []
        #: Held entries (event + arrival sequence number) keyed by
        #: identity, in arrival (insertion) order.
        self._pending: Dict[Tuple[int, int], _Held] = {}
        self._offers = 0
        self.stalled = False
        # Plain-int mirrors of the registry counters, so stats() works
        # (and costs nothing) under the no-op registry too.
        self.released_total = 0
        self.reordered_total = 0
        self.duplicates_total = 0
        self.shed_total = 0
        self.stalls_total = 0

        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._depth_gauge = self.registry.gauge(
            "poet_holdback_pending_events", "events currently held back"
        )
        self._handed_counter = self.registry.counter(
            "poet_holdback_released_total", "events released downstream"
        )
        self._reordered_counter = self.registry.counter(
            "poet_holdback_reordered_total",
            "arrivals held back because a predecessor was missing",
        )
        self._duplicates_counter = self.registry.counter(
            "poet_holdback_duplicates_total", "duplicate arrivals suppressed"
        )
        self._shed_counter = self.registry.counter(
            "poet_holdback_shed_total",
            "arrivals dropped by the shed policy",
            labels={"reason": "overflow"},
        )
        self._stalls_counter = self.registry.counter(
            "poet_holdback_stalls_total", "stall episodes detected"
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """Accept the next arrival.  What it releases goes downstream
        one ``on_event`` call per event, in release order."""
        try:
            self._offer(event)
        finally:
            self._hand_off(batch=False)
            self._depth_gauge.set(len(self._pending))

    def on_batch(self, events: Sequence[Event]) -> None:
        """Accept a slice of arrivals: the per-arrival body of
        :meth:`on_event` for each.  What the slice releases goes
        downstream in one ``on_batch`` call at its end — or before an
        overflow or stall error escapes mid-slice, so the sink has then
        seen exactly what per-event delivery would have handed it."""
        try:
            offer = self._offer
            for event in events:
                offer(event)
        finally:
            self._hand_off()
            self._depth_gauge.set(len(self._pending))

    def _offer(self, event: Event) -> None:
        if len(event.clock) != self.num_traces:
            raise ValueError(
                f"event {event.event_id} clock width {len(event.clock)} "
                f"does not match buffer width {self.num_traces}"
            )
        self._offers += 1
        key = (event.trace, event.index)
        if event.index <= self._released[event.trace] or key in self._pending:
            self.duplicates_total += 1
            self._duplicates_counter.inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "holdback.duplicate",
                    track="poet.holdback",
                    args={"event": repr(event.event_id)},
                )
            self._check_stall()
            return

        if self._ready(event):
            self._release(event)
            if self._pending:
                self._drain()
        else:
            if (
                self._capacity is not None
                and len(self._pending) >= self._capacity
            ):
                if self._overflow == "raise":
                    raise HoldbackOverflowError(
                        f"hold-back buffer full ({self._capacity} events) "
                        f"while offering {event.event_id}; missing "
                        f"predecessors: {self.missing_predecessors()[:5]}"
                    )
                # shed: something is lost and its successors will
                # stall — the loud failure this policy trades for
                # bounded memory.  With a utility scorer the victim is
                # the least useful of (pending + arrival): lowest band
                # first, newest arrival among ties.  Without one, the
                # arrival (the historical behaviour).
                victim_key = self._shed_victim(event)
                self.shed_total += 1
                self._shed_counter.inc()
                if victim_key is None:
                    if self._tracer.enabled:
                        self._tracer.instant(
                            "holdback.shed",
                            track="poet.holdback",
                            args={"event": repr(event.event_id)},
                        )
                    self._check_stall()
                    return
                victim = self._pending.pop(victim_key)
                if self._tracer.enabled:
                    self._tracer.instant(
                        "holdback.shed",
                        track="poet.holdback",
                        args={"event": repr(victim.event.event_id),
                              "displaced_by": repr(event.event_id)},
                    )
                # The freed slot holds the (more useful) arrival.
            self._pending[key] = _Held(event, self._offers)
            self.reordered_total += 1
            self._reordered_counter.inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "holdback.hold",
                    track="poet.holdback",
                    args={"event": repr(event.event_id),
                          "pending": len(self._pending)},
                )
        self._check_stall()

    def _shed_victim(self, event: Event) -> Optional[Tuple[int, int]]:
        """Pick the overflow victim: ``None`` means the arriving event
        itself; otherwise the key of the pending entry to evict."""
        scorer = self._utility_scorer
        if scorer is None:
            return None
        # The scorer reads live matcher state: what this slice released
        # so far goes downstream first, as per-event delivery had it.
        self._hand_off()
        victim_key: Optional[Tuple[int, int]] = None
        # The arrival is by definition the newest (arrived_at ==
        # self._offers), so ties on band fall on it.
        victim_rank = (scorer.score(event), -self._offers)
        for key, held in self._pending.items():
            if held.band is None:
                held.band = scorer.score(held.event)
            rank = (held.band, -held.arrived_at)
            if rank < victim_rank:
                victim_key, victim_rank = key, rank
        return victim_key

    def flush(self) -> List[Event]:
        """Final drain attempt; returns events still held back (empty
        for a fault-free or fully repaired stream)."""
        self._drain()
        self._hand_off()
        self._depth_gauge.set(len(self._pending))
        return [held.event for held in self._pending.values()]

    # ------------------------------------------------------------------
    # Release machinery
    # ------------------------------------------------------------------

    def _ready(self, event: Event) -> bool:
        """The release rule (module docstring).  An encoded clock whose
        knowledge row is the interned row last released on its trace is
        ready once its own predecessor is: released counts only grow,
        so that row still holds.  Any other row is one pass against the
        released counts (its own slot is 0); a full vector clock is
        read component by component."""
        released = self._released
        trace = event.trace
        if released[trace] != event.index - 1:
            return False
        clock = event.clock
        if isinstance(clock, EncodedClock):
            row = clock.knowledge
            return row is self._last_rows[trace] or all(map(le, row, released))
        for other in range(self.num_traces):
            if other != trace and clock[other] > released[other]:
                return False
        return True

    def _release(self, event: Event) -> None:
        trace = event.trace
        self._released[trace] += 1
        clock = event.clock
        if isinstance(clock, EncodedClock):
            self._last_rows[trace] = clock.knowledge
        self.released_total += 1
        self.stalled = False
        self._outbox.append(event)

    def _drain(self) -> None:
        """Release pending events until none is ready.  Among ready
        events the earliest arrival goes first, which restores the
        original linearization when faults only deferred events past
        their causal successors."""
        if self._tracer.enabled and self._pending:
            with self._tracer.span(
                "holdback.repair",
                track="poet.holdback",
                args={"pending": len(self._pending)},
            ):
                self._drain_loop()
        else:
            self._drain_loop()

    def _drain_loop(self) -> None:
        progress = True
        while progress and self._pending:
            progress = False
            for key, held in self._pending.items():
                if self._ready(held.event):
                    del self._pending[key]
                    self._release(held.event)
                    progress = True
                    break

    # ------------------------------------------------------------------
    # Stall detection
    # ------------------------------------------------------------------

    def _check_stall(self) -> None:
        if self._stall_watermark is None or not self._pending:
            return
        oldest = next(iter(self._pending.values())).arrived_at
        if self._offers - oldest < self._stall_watermark:
            return
        if not self.stalled:
            self.stalled = True
            self.stalls_total += 1
            self._stalls_counter.inc()
            missing = self.missing_predecessors()
            _log.warning(
                "hold-back buffer stalled",
                extra={"pending": len(self._pending),
                       "missing": [repr(eid) for eid in missing[:5]],
                       "missing_total": len(missing)},
            )
            if self._tracer.enabled:
                self._tracer.instant(
                    "holdback.stall",
                    track="poet.holdback",
                    args={"pending": len(self._pending),
                          "missing": len(missing)},
                )
        if self._raise_on_stall:
            raise HoldbackStallError(
                f"{len(self._pending)} events held back for "
                f">{self._stall_watermark} arrivals; missing predecessors: "
                f"{self.missing_predecessors()[:5]}"
            )

    def missing_predecessors(self) -> List[EventId]:
        """The (trace, index) holes blocking every held event: required
        by some pending event's clock, but neither released nor pending
        themselves.  Empty when nothing is held back."""
        missing: Set[Tuple[int, int]] = set()
        for held in self._pending.values():
            event = held.event
            clock = event.clock
            for trace in range(self.num_traces):
                need = event.index - 1 if trace == event.trace else clock[trace]
                for index in range(self._released[trace] + 1, need + 1):
                    if (trace, index) not in self._pending:
                        missing.add((trace, index))
        return [EventId(t, i) for t, i in sorted(missing)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Events currently held back."""
        return len(self._pending)

    @property
    def released_counts(self) -> List[int]:
        """Per-trace released counts (a copy)."""
        return list(self._released)

    def stats(self) -> Dict[str, int]:
        """Plain-dict snapshot of the buffer's accounting."""
        return {
            "offers": self._offers,
            "pending": len(self._pending),
            "released": self.released_total,
            "reordered": self.reordered_total,
            "duplicates": self.duplicates_total,
            "shed": self.shed_total,
            "stalls": self.stalls_total,
            "stalled": int(self.stalled),
        }

    def __repr__(self) -> str:
        return (
            f"HoldbackBuffer({self.num_traces} traces, "
            f"{len(self._pending)} pending, released={self._released})"
        )
