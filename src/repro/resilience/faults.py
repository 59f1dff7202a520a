"""Deterministic, seeded fault injection for the delivery pipeline.

Two layers of the pipeline can be perturbed:

* **Delivery faults** (:class:`FaultInjector`) sit between the event
  source (kernel sink or recorded stream) and the consumer (a POET
  server's ``collect``, or a hold-back buffer).  They perturb the
  *delivery* of an already-correct linearization: bounded reorder and
  delay, duplicates, and drops.  The injected reorder stays within
  *causal slack* — an event is only deferred past its own causal
  successors — so a downstream hold-back buffer can restore the exact
  original linearization, which is what lets the chaos harness compare
  representative subsets bit-for-bit against the fault-free oracle.

* **Network faults** (:class:`TransmitFaults`) plug into the
  simulation kernel's transmit path
  (:meth:`repro.simulation.kernel.Kernel.set_transmit_fault`) and add
  seeded extra latency to individual messages.  These change the
  computation itself (different interleaving, different clocks) but
  never its validity: the kernel still emits a linearization, so the
  monitor must keep working unmodified.

Everything is deterministic per ``(plan, seed)``: the same fault
schedule replays identically, which the chaos matrix and CI rely on.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, List, Optional, Sequence, Union

from repro.events.event import Event, EventId
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.poet.client import POETClient, Stage, as_stage

#: The fault kinds a plan can name.
FAULT_KINDS = ("none", "reorder", "delay", "duplicate", "drop", "crash")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A declarative description of one fault workload.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.  ``reorder`` defers an event past
        exactly one causal successor; ``delay`` defers past up to
        ``max_delay`` of them; ``duplicate`` re-delivers an event a few
        arrivals later; ``drop`` silently discards send events;
        ``crash`` is a client-crash schedule consumed by the chaos
        runner (checkpoint at :meth:`crash_point`, restore, replay).
    probability:
        Per-event chance of injecting the fault (where applicable).
    max_delay:
        Bound on deferral distance (events) for reorder/delay and on
        the duplicate's re-delivery lag.
    max_faults:
        Cap on injected faults per run (``None`` = unlimited); drops
        default to a single fault so a run has one well-defined gap.
    crash_window:
        For ``crash`` plans: the (lo, hi) fractions of the stream
        between which the seeded crash point falls.
    """

    kind: str = "none"
    probability: float = 0.05
    max_delay: int = 4
    max_faults: Optional[int] = None
    crash_window: tuple = (0.25, 0.75)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay}")

    # Named constructors for the standard matrix entries.

    @classmethod
    def reorder(cls, probability: float = 0.1) -> "FaultPlan":
        return cls(kind="reorder", probability=probability, max_delay=1)

    @classmethod
    def delay(cls, probability: float = 0.05, max_delay: int = 8) -> "FaultPlan":
        return cls(kind="delay", probability=probability, max_delay=max_delay)

    @classmethod
    def duplicate(cls, probability: float = 0.1, max_delay: int = 4) -> "FaultPlan":
        return cls(kind="duplicate", probability=probability, max_delay=max_delay)

    @classmethod
    def drop(cls, probability: float = 0.05, max_faults: int = 1) -> "FaultPlan":
        return cls(kind="drop", probability=probability, max_faults=max_faults)

    @classmethod
    def crash(cls, crash_window: tuple = (0.25, 0.75)) -> "FaultPlan":
        return cls(kind="crash", crash_window=crash_window)

    def crash_point(self, num_events: int, seed: int) -> int:
        """Deterministic crash position (events delivered before the
        crash) for a stream of ``num_events`` events."""
        lo = max(1, int(num_events * self.crash_window[0]))
        hi = max(lo + 1, int(num_events * self.crash_window[1]))
        return random.Random(f"crash:{seed}").randrange(lo, hi)


class FaultInjector(Stage):
    """Perturbs an in-order event stream, deterministically per seed.

    Feed the original linearization through :meth:`on_batch` (or one
    event at a time through :meth:`feed`, which is :meth:`on_event`) and
    call :meth:`flush` at end-of-stream; the perturbed stream comes out
    of ``sink`` as it went in: one ``on_batch`` call per slice fed, one
    ``on_event`` call per event an ``on_event`` emits.  ``sink`` is a
    stage (anything with ``on_event`` and ``on_batch``) or a callable
    taking one event, wrapped once in a
    :class:`~repro.poet.client.CallbackClient`.  Usable as a
    drop-in event sink: wire it between a kernel and a server with
    ``kernel.add_sink(injector.feed)`` where ``sink=server.collect``, or
    connect it downstream of a server like any stage: it is a
    :class:`~repro.poet.client.POETClient`.

    Reorder/delay faults defer a chosen event only past arrivals that
    are its *causal successors* (their clock already covers it), never
    past concurrent or unrelated events — the "bounded reorder within
    causal slack" contract that keeps the stream repairable to its
    exact original order.

    ``registry`` receives ``fault_injected_total`` /
    ``fault_events_forwarded_total`` counters labelled by the plan's
    kind; ``tracer`` (when enabled) records each injection as a
    ``fault.<kind>`` instant on the ``faults`` wall-clock track.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sink: Union[POETClient, Callable[[Event], None]],
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.plan = plan
        self._sink = as_stage(sink)
        #: Deliveries of the slice in progress, handed on at its end.
        self._outbox: List[Event] = []
        self._rng = random.Random(f"{plan.kind}:{seed}")
        #: The currently deferred event and its remaining slack budget.
        self._stashed: Optional[Event] = None
        self._stash_budget = 0
        #: Scheduled duplicates: [remaining feeds, event].
        self._dup_queue: List[List] = []
        self.delayed_total = 0
        self.duplicated_total = 0
        self.dropped_total = 0
        self.forwarded_total = 0
        self.dropped_ids: List[EventId] = []
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._tracer = tracer if tracer is not None else NULL_TRACER
        kind_labels = {"kind": plan.kind}
        self._injected_counter = self.registry.counter(
            "fault_injected_total",
            "faults injected into the delivery stream",
            labels=kind_labels,
        )
        self._handed_counter = self.registry.counter(
            "fault_events_forwarded_total",
            "events forwarded downstream by the injector",
            labels=kind_labels,
        )

    def _record_injection(self, event: Event) -> None:
        self._injected_counter.inc()
        if self._tracer.enabled:
            self._tracer.instant(
                f"fault.{self.plan.kind}",
                track="faults",
                args={"event": repr(event.event_id)},
            )

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def on_batch(self, events: Sequence[Event]) -> None:
        """Ingest the next in-order slice: the per-event body of
        :meth:`on_event` for each.  Its perturbed deliveries go
        downstream in one ``on_batch`` call at its end (before an error
        escapes mid-slice, too)."""
        try:
            ingest = self._ingest
            for event in events:
                ingest(event)
        finally:
            self._hand_off()

    def on_event(self, event: Event) -> None:
        """Ingest the next in-order event; its perturbed deliveries
        (none, one, or a released stash or duplicate too) go downstream
        one ``on_event`` call each."""
        try:
            self._ingest(event)
        finally:
            self._hand_off(batch=False)

    feed = on_event

    def _ingest(self, event: Event) -> None:
        kind = self.plan.kind
        if kind in ("reorder", "delay"):
            self._feed_deferred(event)
        elif kind == "duplicate":
            self._emit(event)
            if self._may_fault() and self._roll():
                self.duplicated_total += 1
                self._record_injection(event)
                self._dup_queue.append(
                    [self._rng.randint(1, self.plan.max_delay), event]
                )
        elif kind == "drop":
            # Only send events are dropped: a send's receive is a
            # guaranteed causal successor in any complete stream, so
            # the gap is always observable downstream as a stall.
            if (
                event.kind.value == "send"
                and self._may_fault()
                and self._roll()
            ):
                self.dropped_total += 1
                self.dropped_ids.append(event.event_id)
                self._record_injection(event)
            else:
                self._emit(event)
        else:  # none / crash: pass-through
            self._emit(event)
        self._tick_duplicates()

    def flush(self) -> None:
        """End of stream: release anything still deferred or queued,
        in one hand-off."""
        if self._stashed is not None:
            stashed, self._stashed = self._stashed, None
            self._emit(stashed)
        for entry in self._dup_queue:
            self._emit(entry[1])
        self._dup_queue.clear()
        self._hand_off()

    # ------------------------------------------------------------------
    # Fault mechanics
    # ------------------------------------------------------------------

    def _feed_deferred(self, event: Event) -> None:
        if self._stashed is not None:
            stashed = self._stashed
            is_successor = event.clock[stashed.trace] >= stashed.index
            if is_successor and self._stash_budget > 0:
                # Overtake: the successor is delivered first.
                self._stash_budget -= 1
                self._emit(event)
                return
            # Slack exhausted, or the arrival is not causally after the
            # stashed event (overtaking it would leave the perturbed
            # order unrecoverable): release the stash first.
            self._stashed = None
            self._emit(stashed)
        if self._may_fault() and self._roll():
            self.delayed_total += 1
            self._record_injection(event)
            self._stashed = event
            self._stash_budget = (
                1
                if self.plan.kind == "reorder"
                else self._rng.randint(1, self.plan.max_delay)
            )
        else:
            self._emit(event)

    def _tick_duplicates(self) -> None:
        due = []
        for entry in self._dup_queue:
            entry[0] -= 1
            if entry[0] <= 0:
                due.append(entry)
        for entry in due:
            self._dup_queue.remove(entry)
            self._emit(entry[1])

    def _emit(self, event: Event) -> None:
        self.forwarded_total += 1
        self._outbox.append(event)

    def _roll(self) -> bool:
        return self._rng.random() < self.plan.probability

    def _may_fault(self) -> bool:
        if self.plan.max_faults is None:
            return True
        injected = self.delayed_total + self.duplicated_total + self.dropped_total
        return injected < self.plan.max_faults

    @property
    def pending_count(self) -> int:
        """Events currently retained inside the injector: the deferred
        stash plus scheduled duplicates (the stage's queue depth)."""
        return (1 if self._stashed is not None else 0) + len(self._dup_queue)

    def stats(self) -> dict:
        """Plain-dict snapshot of the injected-fault accounting."""
        return {
            "kind": self.plan.kind,
            "delayed": self.delayed_total,
            "duplicated": self.duplicated_total,
            "dropped": self.dropped_total,
            "forwarded": self.forwarded_total,
        }


class TransmitFaults:
    """Seeded extra latency for the kernel's network transmit path.

    Install with :meth:`repro.simulation.kernel.Kernel.set_transmit_fault`;
    each transmitted message independently suffers extra delay with
    ``probability``, uniform in ``[0, max_extra]`` simulated time
    units.  The kernel's non-overtaking clamp still applies afterwards,
    so the perturbed run remains a valid (just different) computation.
    """

    def __init__(
        self,
        seed: int = 0,
        probability: float = 0.2,
        max_extra: float = 5.0,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if max_extra < 0:
            raise ValueError(f"max_extra must be >= 0, got {max_extra}")
        self._rng = random.Random(f"transmit:{seed}")
        self.probability = probability
        self.max_extra = max_extra
        self.faulted_total = 0

    def __call__(self, message) -> float:
        """Extra delay (>= 0) for one message transmission."""
        if self._rng.random() < self.probability:
            self.faulted_total += 1
            return self._rng.uniform(0.0, self.max_extra)
        return 0.0
