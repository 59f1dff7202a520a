"""The event model: primitive events, traces, stores, compound events.

Paper Section III: a distributed computation is a finite set of
sequential processes communicating only by message passing.  The
occurrences of actions performed by each local algorithm are *events*;
events on one trace are totally ordered, events on different traces are
only partially ordered by Lamport's happens-before relation.

A *trace* is "any relevant entity with sequential behaviour, such as a
process or a thread, but may include passive entities such as an object
or a communication channel" — the atomicity case study (Section V-C3)
relies on semaphores being modelled as separate traces.

*Compound events* are non-empty sets of causally related primitive
events; their relations (overlap, cross, entanglement, weak/strong
precedence) follow Nichols' framework as summarised in Section III-B.
"""

from repro.events.event import Event, EventId, EventKind, event_from_record
from repro.events.trace import Trace
from repro.events.store import EventStore
from repro.events.soa import ArrayEventStore
from repro.events.compound import (
    CompoundEvent,
    compound_concurrent,
    compound_precedes,
    crosses,
    disjoint,
    entangled,
    overlaps,
    strong_precedes,
    weak_precedes,
)

__all__ = [
    "Event",
    "EventId",
    "EventKind",
    "event_from_record",
    "Trace",
    "EventStore",
    "ArrayEventStore",
    "CompoundEvent",
    "overlaps",
    "disjoint",
    "crosses",
    "entangled",
    "weak_precedes",
    "strong_precedes",
    "compound_precedes",
    "compound_concurrent",
]
