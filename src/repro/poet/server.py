"""POET server: event collection and causally consistent delivery.

The server owns the event store ("a set of events grouped by traces",
paper Section V-A) — always the struct-of-arrays
:class:`~repro.events.soa.ArrayEventStore`, whose appends cost O(1) for
the encoded clocks every runtime source stamps — and fans every
collected event out to connected clients.  The collection order
produced by the simulation substrate is already a linearization; with
``verify=True`` the server asserts this invariant on every event,
which the test suite uses to guard the whole pipeline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.events.event import Event
from repro.events.soa import ArrayEventStore
from repro.obs.log import get_logger
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.poet.client import POETClient

_log = get_logger("poet.server")


class DeliveryOrderError(RuntimeError):
    """The event source violated causal delivery order."""


class POETServer:
    """Collects instrumented events and streams them to clients.

    Parameters
    ----------
    num_traces:
        Number of traces in the monitored computation.
    trace_names:
        Optional human-readable trace names.
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
        self.store = ArrayEventStore(num_traces, trace_names)
        self._clients: List[POETClient] = []
        self._verify = verify
        self._delivered = [0] * num_traces
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
        self._clients.append(client)
        self._clients_gauge.set(len(self._clients))

    def disconnect(self, client: POETClient) -> None:
        """Detach a previously connected client."""
        self._clients.remove(client)
        self._clients_gauge.set(len(self._clients))

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self, event: Event) -> None:
        """Ingest the next event: a slice of one through
        :meth:`collect_batch`."""
        self.collect_batch((event,))

    def collect_batch(self, events: Sequence[Event]) -> None:
        """Ingest a contiguous slice of the linearization: store it and
        deliver it to every client's ``on_batch`` hook.

        A client raising does not corrupt the server's accounting: the
        slice is stored and counted exactly once, every *other* client
        still receives all of it, each successful delivery is counted
        individually, the failure lands in
        ``delivery_errors``/``poet_delivery_errors_total``, and the
        first error is re-raised once fan-out has completed.  (A client
        that should survive its own failures — e.g. a quarantining
        :class:`~repro.engine.dispatch.ShardedDispatcher` — must catch
        them itself; the server never silently swallows an error.)
        """
        if not events:
            return
        if self._verify:
            for event in events:
                self._check_order(event)
        self.store.add_batch(events)
        self._collected_counter.inc(len(events))
        if self._tracer.enabled:
            with self._tracer.span(
                "poet.deliver",
                track="poet.server",
                args={"events": len(events),
                      "first": repr(events[0].event_id),
                      "clients": len(self._clients)},
            ):
                self._fan_out_batch(events)
        else:
            self._fan_out_batch(events)

    def _fan_out_batch(self, events: Sequence[Event]) -> None:
        first_error: Optional[BaseException] = None
        for client in list(self._clients):
            try:
                client.on_batch(events)
            except Exception as exc:  # noqa: BLE001 - accounted, re-raised
                self.delivery_errors += 1
                self._errors_counter.inc()
                _log.warning(
                    "client delivery failed",
                    extra={"events": len(events),
                           "first": repr(events[0].event_id),
                           "client": type(client).__name__,
                           "error": repr(exc)},
                )
                if first_error is None:
                    first_error = exc
            else:
                self._deliveries_counter.inc(len(events))
        if first_error is not None:
            raise first_error

    def _check_order(self, event: Event) -> None:
        clock = event.clock
        if self._delivered[event.trace] != clock[event.trace] - 1:
            raise DeliveryOrderError(
                f"event {event.event_id} delivered out of per-trace order"
            )
        for trace in range(len(self._delivered)):
            if trace != event.trace and clock[trace] > self._delivered[trace]:
                raise DeliveryOrderError(
                    f"event {event.event_id} delivered before its predecessor "
                    f"on trace {trace}"
                )
        self._delivered[event.trace] += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_events(self) -> int:
        """Total events collected so far."""
        return self.store.num_events

    def __repr__(self) -> str:
        return (
            f"POETServer({self.store.num_traces} traces, "
            f"{self.store.num_events} events, {len(self._clients)} clients)"
        )
