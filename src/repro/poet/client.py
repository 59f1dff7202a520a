"""POET client interface.

A client connects to the POET server "in a way that it receives the
arriving events in a linearization of the partial order" (paper,
Section V-A).  OCEP's online monitor is one such client; tests and
benchmarks use the small concrete clients here.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Sequence, Union

from repro.events.event import Event


class POETClient(abc.ABC):
    """Interface for consumers of the POET event stream."""

    @abc.abstractmethod
    def on_event(self, event: Event) -> None:
        """Handle the next event of the linearization."""

    def on_batch(self, events: Sequence[Event]) -> None:
        """Handle a contiguous slice of the linearization.

        The default simply loops :meth:`on_event`, so every client is
        batch-capable; clients with per-event dispatch overhead worth
        amortizing (the :class:`~repro.core.monitor.Monitor`, the
        :class:`~repro.engine.ShardedDispatcher`) override it.  A batch
        must be delivered in order and must produce exactly the same
        observable behaviour as delivering its events one at a time.
        """
        on_event = self.on_event
        for event in events:
            on_event(event)


class CallbackClient(POETClient):
    """Adapts a plain callable to the client interface."""

    def __init__(self, callback: Callable[[Event], None]):
        self._callback = callback

    def on_event(self, event: Event) -> None:
        self._callback(event)


def as_stage(sink: Union[POETClient, Callable[[Event], None]]):
    """A stage's downstream as something with ``on_event`` and
    ``on_batch``: ``sink`` itself when it has them (a client, a
    ``StageLink``), else the per-event callable wrapped in a
    :class:`CallbackClient`."""
    return sink if hasattr(sink, "on_batch") else CallbackClient(sink)


class RecordingClient(POETClient):
    """Stores every delivered event, in delivery order (for tests)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def on_batch(self, events: Sequence[Event]) -> None:
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)
