"""Primitive events.

An event is "a state transition in the system, often a result of
receiving or sending a message" (paper, Section I).  Every event
carries:

* the trace it occurred on and its 1-based index on that trace (these
  two integers are the event's identity);
* an event *type* and free-form *text* attribute — the three fields a
  pattern class ``[process, type, text]`` matches against;
* its vector timestamp, assigned by the tracing substrate;
* a kind (send / receive / local / unary) and, for point-to-point
  communication events, the identity of the partner event.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from repro.clocks.causality import Ordering, compare, happens_before
from repro.clocks.vector_clock import VectorClock


class EventKind(enum.Enum):
    """Communication role of an event.

    POET distinguishes unary (purely local) events from the send and
    receive halves of point-to-point communication.  ``LOCAL`` is an
    alias role for unary events that represent internal computation
    steps; ``UNARY`` is used for instrumented activities of interest
    (the things patterns usually match).
    """

    SEND = "send"
    RECEIVE = "receive"
    LOCAL = "local"
    UNARY = "unary"

    @property
    def is_communication(self) -> bool:
        """True for the send/receive halves of a message."""
        # module constants: a member looked up on the class costs a
        # slow enum attribute access, and every admitted event asks
        return self is _SEND or self is _RECEIVE


_SEND = EventKind.SEND
_RECEIVE = EventKind.RECEIVE


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class EventId:
    """Identity of an event: its trace and 1-based index on that trace.

    The lexicographic order on (trace, index) is arbitrary but total,
    which is all the matcher needs for tie-breaking.
    """

    trace: int
    index: int

    def __post_init__(self) -> None:
        if self.trace < 0:
            raise ValueError(f"trace must be >= 0, got {self.trace}")
        if self.index < 1:
            raise ValueError(f"event index is 1-based, got {self.index}")

    def __repr__(self) -> str:
        return f"e{self.trace}.{self.index}"


@dataclasses.dataclass(frozen=True, slots=True)
class Event:
    """An immutable primitive event.

    Slotted: an event can live in the leaf histories, the hold-back
    buffer and a recording at once, so there is
    no per-instance ``__dict__`` (pinned in ``tests/unit/test_event.py``;
    the memory it saves shows in the benchmark's ``peak_rss_mb``).

    Attributes
    ----------
    trace:
        Trace number the event occurred on (0-based).
    index:
        1-based position of the event on its trace.  Under the clock
        convention used here, ``clock[trace] == index`` always holds.
    etype:
        The event type, e.g. ``"Send"`` or ``"Take_Snapshot"``.
    text:
        Free-form text attribute; patterns use it for exact match,
        wildcarding, or attribute-variable binding.
    clock:
        The event's Fidge/Mattern vector timestamp.
    kind:
        Communication role (send / receive / local / unary).
    partner:
        For point-to-point communication events, the :class:`EventId`
        of the matching send/receive; ``None`` otherwise.
    lamport:
        Lamport scalar time, used by the POET linearizer as a
        causality-consistent delivery key.
    """

    trace: int
    index: int
    etype: str
    text: str
    clock: VectorClock
    kind: EventKind = EventKind.UNARY
    partner: Optional[EventId] = None
    lamport: int = 0

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"event index is 1-based, got {self.index}")
        if self.trace < 0 or self.trace >= len(self.clock):
            raise ValueError(
                f"trace {self.trace} out of range for clock width {len(self.clock)}"
            )
        if self.clock[self.trace] != self.index:
            raise ValueError(
                f"clock own-component {self.clock[self.trace]} does not match "
                f"event index {self.index}"
            )
        if self.partner is not None and not self.kind.is_communication:
            raise ValueError(f"{self.kind} events cannot have a partner")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def event_id(self) -> EventId:
        """The (trace, index) identity of this event."""
        return EventId(self.trace, self.index)

    # ------------------------------------------------------------------
    # Causality
    # ------------------------------------------------------------------

    def happens_before(self, other: "Event") -> bool:
        """True when ``self -> other`` (strict happens-before)."""
        return happens_before(self.clock, self.trace, other.clock, other.trace)

    def concurrent_with(self, other: "Event") -> bool:
        """True when the two events are distinct and causally unrelated."""
        return self.relation(other) is Ordering.CONCURRENT

    def relation(self, other: "Event") -> Ordering:
        """Classify the causal relation between two events."""
        return compare(self.clock, self.trace, other.clock, other.trace)

    def is_partner_of(self, other: "Event") -> bool:
        """True when the two events are the halves of one message.

        Partner identity is recorded on the receive side (the tracer
        only learns the pairing when the message is consumed), so a
        send/receive pair matches when the receive names the send.
        """
        recv, send = (other, self) if self.kind is EventKind.SEND else (self, other)
        partner = recv.partner
        return (recv.kind is EventKind.RECEIVE and send.kind is EventKind.SEND
                and partner is not None and partner.trace == send.trace
                and partner.index == send.index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Event):
            return self.trace == other.trace and self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.trace, self.index))

    def __repr__(self) -> str:
        return (
            f"Event(e{self.trace}.{self.index}, {self.etype!r}, "
            f"{self.text!r}, {self.kind.value})"
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_record(self) -> dict:
        """JSON-ready record of this event (the POET dump field layout,
        shared by dump files and monitor checkpoints)."""
        record = {
            "t": self.trace,
            "i": self.index,
            "y": self.etype,
            "x": self.text,
            "c": list(self.clock.components),
            "k": self.kind.value,
            "l": self.lamport,
        }
        if self.partner is not None:
            record["p"] = [self.partner.trace, self.partner.index]
        return record


#: The type :meth:`Event.to_record` writes for each required field.
_FIELD_TYPES = {"t": int, "i": int, "y": str, "x": str, "c": list, "l": int}


def event_from_record(record: dict) -> Event:
    """Rebuild an :class:`Event` from a :meth:`Event.to_record` dict.

    Nothing is coerced: each field must have the type ``to_record``
    writes, and ``True`` is not an ``int``.  Raises the underlying
    ``KeyError``/``ValueError``/``TypeError`` on malformed input;
    callers that read untrusted data (the dump loader, the checkpoint
    loader) wrap this with their own typed errors.
    """
    for key, kind in _FIELD_TYPES.items():
        if type(record[key]) is not kind:
            raise TypeError(f"field {key!r}: expected {kind.__name__}, "
                            f"got {record[key]!r:.40}")
    partner = record.get("p", ())
    if any(type(n) is not int for n in (*record["c"], *partner)):
        raise TypeError("clock and partner entries must be ints")
    return Event(
        trace=record["t"],
        index=record["i"],
        etype=record["y"],
        text=record["x"],
        clock=VectorClock(record["c"]),
        kind=EventKind(record["k"]),
        partner=EventId(*partner) if "p" in record else None,
        lamport=record["l"],
    )
