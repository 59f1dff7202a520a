"""POET server: event collection and causally consistent delivery.

The paper's POET server stores every event because its GUI browses
them; OCEP's monitor is only a client consuming the linearization
(paper Section V-A).  This server therefore keeps no events: it checks
each collected event at the source's boundary — trace in range, index
contiguous, clock dominating its predecessor's — counts it, and fans it
out to connected clients.  Its state is two integers per trace (the
last accepted index and clock epoch) plus the adopted
:class:`~repro.clocks.encoded.ClockFrame`, so each check costs O(1)
for the encoded clocks every runtime source stamps.  Whoever needs the
stream connects a :class:`~repro.poet.client.RecordingClient` (or
writes a dump).

The collection order produced by the simulation substrate is already a
linearization; with ``verify=True`` the server also asserts this on
every event, which the test suite uses to guard the whole pipeline.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.clocks.encoded import ClockFrame, EncodedClock
from repro.events.event import Event
from repro.obs.log import get_logger
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.poet.client import POETClient

_log = get_logger("poet.server")


class DeliveryOrderError(RuntimeError):
    """The event source violated causal delivery order."""


class POETServer:
    """Checks instrumented events and streams them to clients.

    Parameters
    ----------
    num_traces:
        Number of traces in the monitored computation.
    trace_names:
        Optional human-readable trace names (validated against
        ``num_traces``; the server keeps no per-trace objects).
    verify:
        When true, check on every collected event that delivery remains
        a linearization of the partial order (all causal predecessors
        already delivered).  Costs O(num_traces) per event.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        collection/delivery counters and a connected-clients gauge.
        Defaults to the no-op registry.
    tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`; when enabled,
        each collected slice's fan-out is recorded as a
        ``poet.deliver`` span on the server's wall-clock track.
        Defaults to the no-op tracer.
    """

    def __init__(
        self,
        num_traces: int,
        trace_names: Optional[Sequence[str]] = None,
        verify: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        if num_traces <= 0:
            raise ValueError(f"need at least one trace, got {num_traces}")
        if trace_names is not None and len(trace_names) != num_traces:
            raise ValueError(
                f"got {len(trace_names)} names for {num_traces} traces"
            )
        # Per trace: the last accepted index and its clock's epoch in
        # the adopted frame (the first encoded clock's, else our own).
        self._count = [0] * num_traces
        self._last_epoch = [0] * num_traces
        self._frame: Optional[ClockFrame] = None
        self._clients: Tuple[POETClient, ...] = ()
        self._verify = verify
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.use_registry(registry if registry is not None else NULL_REGISTRY)
        #: Client callbacks that raised (plain-int mirror of the
        #: registry counter, live even under the no-op registry).
        self.delivery_errors = 0

    def use_registry(self, registry: MetricsRegistry) -> None:
        """Rebind delivery accounting to ``registry`` (e.g. when the
        server was built before observability was requested).  Counts
        start from zero in the new registry."""
        self.registry = registry
        self._collected_counter = registry.counter(
            "poet_events_collected_total", "events ingested by the server"
        )
        self._deliveries_counter = registry.counter(
            "poet_deliveries_total",
            "event deliveries fanned out (events x clients)",
        )
        self._errors_counter = registry.counter(
            "poet_delivery_errors_total",
            "client deliveries that raised",
        )
        self._clients_gauge = registry.gauge(
            "poet_clients", "currently connected clients"
        )
        self._clients_gauge.set(len(self._clients))

    def use_tracer(self, tracer: Optional[SpanTracer]) -> None:
        """Rebind span tracing to ``tracer`` (``None`` disables)."""
        self._tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # Client management
    # ------------------------------------------------------------------

    def connect(self, client: POETClient) -> None:
        """Attach a client; it will see every event from now on."""
        self._clients += (client,)
        self._clients_gauge.set(len(self._clients))

    def disconnect(self, client: POETClient) -> None:
        """Detach a previously connected client."""
        clients = list(self._clients)
        clients.remove(client)
        self._clients = tuple(clients)
        self._clients_gauge.set(len(self._clients))

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self, event: Event) -> None:
        """Ingest the next event: check and count it, then hand it to
        every client's ``on_event`` hook (a live kernel's sink)."""
        self._check(event)
        self._collected_counter.inc()
        self._deliver(event, False)

    def collect_batch(self, events: Sequence[Event]) -> None:
        """Ingest a contiguous slice of the linearization: check and
        count each event, then deliver the slice to every client's
        ``on_batch`` hook.

        Each event runs the check :meth:`collect` runs, so a slice
        rejected at its ``k``-th event behaves like ``k - 1`` single
        :meth:`collect` calls followed by the failing one: events
        ``1..k-1`` are counted and delivered, then the check's error is
        raised, and the next correct event is accepted.  (A client error
        while the prefix is delivered propagates instead: it came
        first.)  A slice of one skips the prefix accounting.

        A client raising does not corrupt the server's accounting: the
        slice is counted exactly once, every *other* client still
        receives all of it, each successful delivery is counted
        individually, the failure lands in
        ``delivery_errors``/``poet_delivery_errors_total``, and the
        first error is re-raised once fan-out has completed.  (A client
        that should survive its own failures — e.g. a quarantining
        :class:`~repro.engine.dispatch.ShardedDispatcher` — must catch
        them itself; the server never silently swallows an error.)
        """
        check = self._check
        if len(events) == 1:
            check(events[0])
            self._collected_counter.inc()
            self._deliver(events, True)
            return
        accepted = 0
        rejection: Optional[Exception] = None
        try:
            for event in events:
                check(event)
                accepted += 1
        except Exception as exc:  # noqa: BLE001 - re-raised below
            rejection = exc
        if accepted:
            if accepted < len(events):
                events = events[:accepted]
            self._collected_counter.inc(accepted)
            self._deliver(events, True)
        if rejection is not None:
            raise rejection

    def _check(self, event: Event) -> None:
        """The per-event check: accept the next event (its trace's
        count and clock epoch advance) or raise, leaving its trace's
        state as it was."""
        counts = self._count
        trace = event.trace
        # The messages are the ones callers already match on.
        if not 0 <= trace < len(counts):
            raise ValueError(
                f"event trace {trace} out of range "
                f"(store has {len(counts)} traces)"
            )
        index = event.index
        if index != counts[trace] + 1:
            if self._verify:
                raise DeliveryOrderError(
                    f"event {event.event_id} delivered out of "
                    f"per-trace order"
                )
            raise ValueError(
                f"trace {trace}: expected event index "
                f"{counts[trace] + 1}, got {index}"
            )
        if self._verify:
            self._check_predecessors(event)
        clock = event.clock
        frame = self._frame
        if isinstance(clock, EncodedClock) and clock.frame is frame:
            epoch = clock.epoch
        else:
            # First event (no frame adopted yet) or a foreign clock.
            epoch = self._adopt_epoch(event)
            frame = self._frame
        last_epoch = self._last_epoch
        prev = last_epoch[trace]
        # Unchanged epochs (every non-receive event) need no
        # comparison; a transition certified when the row was produced
        # (merge / transcode) is a set lookup; unknown pairs fall back
        # to the frame's full dominance scan.
        if (
            index > 1
            and prev != epoch
            and (prev, epoch) not in frame._dominated
            and not frame.check_dominates(prev, epoch)
        ):
            raise ValueError(
                f"trace {trace}: clock of event {index} does not "
                f"dominate its predecessor's clock"
            )
        counts[trace] = index
        last_epoch[trace] = epoch

    def _adopt_epoch(self, event: Event) -> int:
        """Epoch id of the event's clock in the server's frame: the
        first encoded clock's frame is adopted; a foreign clock (full
        vector, or another frame) has its knowledge row interned here,
        O(num_traces)."""
        clock = event.clock
        if isinstance(clock, EncodedClock) and self._frame is None:
            self._frame = clock.frame
            return clock.epoch
        if self._frame is None:
            self._frame = ClockFrame(len(self._count))
        trace = event.trace
        comps = tuple(clock.components)
        return self._frame.intern(comps[:trace] + (0,) + comps[trace + 1:])

    def _check_predecessors(self, event: Event) -> None:
        """Every causal predecessor on another trace was delivered."""
        own = event.trace
        for trace, (known, seen) in enumerate(
            zip(event.clock.components, self._count)
        ):
            if known > seen and trace != own:
                raise DeliveryOrderError(
                    f"event {event.event_id} delivered before its "
                    f"predecessor on trace {trace}"
                )

    def _deliver(self, payload, batch: bool) -> None:
        """Hand ``payload`` — a slice when ``batch``, else one event —
        to every client, in a ``poet.deliver`` span when tracing."""
        if self._tracer.enabled:
            first = payload[0] if batch else payload
            with self._tracer.span(
                "poet.deliver",
                track="poet.server",
                args={"events": len(payload) if batch else 1,
                      "first": repr(first.event_id),
                      "clients": len(self._clients)},
            ):
                self._fan_out(payload, batch)
        else:
            self._fan_out(payload, batch)

    def _fan_out(self, payload, batch: bool) -> None:
        first_error: Optional[BaseException] = None
        size = len(payload) if batch else 1
        for client in self._clients:
            try:
                if batch:
                    client.on_batch(payload)
                else:
                    client.on_event(payload)
            except Exception as exc:  # noqa: BLE001 - accounted, re-raised
                self.delivery_errors += 1
                self._errors_counter.inc()
                first = payload[0] if batch else payload
                _log.warning(
                    "client delivery failed",
                    extra={"events": size,
                           "first": repr(first.event_id),
                           "client": type(client).__name__,
                           "error": repr(exc)},
                )
                if first_error is None:
                    first_error = exc
            else:
                self._deliveries_counter.inc(size)
        if first_error is not None:
            raise first_error

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def frame(self) -> Optional[ClockFrame]:
        """The clock frame events are checked in: the first encoded
        clock's frame, adopted as is, or one of the server's own when
        the stream starts with a full vector; ``None`` before the first
        event."""
        return self._frame

    @property
    def num_events(self) -> int:
        """Total events accepted so far (the per-trace counts' sum)."""
        return sum(self._count)

    def __repr__(self) -> str:
        return (
            f"POETServer({len(self._count)} traces, "
            f"{self.num_events} events, {len(self._clients)} clients)"
        )
