"""The stream front: what every pattern watching one stream shares.

The GP/LS index and the per-trace communication epochs are pure
functions of the delivered stream, so a deployment keeps one copy of
each however many patterns it watches, and validates, indexes and types
each event once.  Typing is one dict probe into a route table
(:class:`TypeRoutes`) built from the exact event types the attached
patterns name: a reader is handed only events some leaf or negation
class of its pattern could match (Section IV-A: "the runtime of the
matching algorithm is only affected by the events that are actually in
the pattern").  A matcher types the events it is handed the same way,
down to the leaves.

Whoever creates a front owns it: it admits each event before any reader
sees it, and withholds from a reader restored from a checkpoint the
events at or below that checkpoint's per-trace lengths (its
*watermark*).  The owner is the
:class:`~repro.engine.dispatch.ShardedDispatcher` for its shards, or an
:class:`~repro.core.matcher.OCEPMatcher` built without a front for
itself (a deployment of one).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.gpls import CausalIndex
from repro.events.event import Event
from repro.patterns.compile import CompiledPattern


class TypeRoutes:
    """Exact event type -> the values naming it, in attach order.

    A value attached with ``types=None`` is offered every event: it sits
    in every bucket and in ``wild``, the default for a type no bucket
    names, so the single probe ``by_type.get(etype, wild)`` (:meth:`get`)
    yields the full list.  Lists are replaced, never mutated: a loop
    iterating one stays valid across :meth:`detach`.
    """

    def __init__(self) -> None:
        self.by_type: Dict[str, List[object]] = {}
        self.wild: List[object] = []

    def attach(self, value: object, types: Optional[Iterable[str]]) -> None:
        if types is None:
            self.wild = self.wild + [value]
            types = list(self.by_type)
        for etype in types:
            self.by_type[etype] = self.by_type.get(etype, self.wild) + [value]

    def detach(self, value: object) -> None:
        self.wild = [v for v in self.wild if v is not value]
        for etype, bucket in self.by_type.items():
            self.by_type[etype] = [v for v in bucket if v is not value]

    def get(self, etype: str) -> List[object]:
        return self.by_type.get(etype, self.wild)


class StreamFront:
    """One stream's causal index, communication epochs and reader routes.

    ``routes`` holds one value per reader, attached under the types its
    pattern's leaf and negation classes name: whatever key the owner
    knows the reader by — but not one leading back to a matcher (which
    holds the front): the cycle would leave a dropped deployment's
    histories to the cyclic collector.
    """

    def __init__(self, num_traces: int, complete_stream: bool = True):
        self.index = CausalIndex(num_traces, allow_gaps=not complete_stream)
        #: Send/receive events (and holes) seen per trace: the pruning
        #: rule's epoch (paper, Section V-D), read by every reader's
        #: ``HistorySet``.
        self.comm_epoch = [0] * num_traces
        self.routes = TypeRoutes()
        #: Readers on a shared front still behind their watermark.
        self.resuming = 0

    def attach(self, reader: object, pattern: CompiledPattern) -> None:
        """Route the event types ``pattern`` names to ``reader``."""
        named = [
            owner.event_class.etypes()
            for owner in (*pattern.leaves, *pattern.negations)
        ]
        self.routes.attach(
            reader, None if None in named else frozenset().union(*named)
        )

    def admit(self, event: Event) -> None:
        """Index the next event of the stream.  A per-trace regression
        or duplicate raises ``ValueError``: a malformed *stream*, not a
        reader failure.  A skipped position (a gapped stream) closes the
        trace's epoch like a send or receive: it may have been one."""
        index = self.index
        gaps = index.gaps
        index.observe(event)
        if event.kind.is_communication or index.gaps != gaps:
            self.comm_epoch[event.trace] += 1
