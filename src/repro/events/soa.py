"""Struct-of-arrays event store: flat columns instead of object rows.

The object :class:`~repro.events.store.EventStore` keeps one ``Event``
instance per collected event — at production volume that is millions of
slotted objects, each dragging a private clock, and an O(num_traces)
clock-dominance check on every append.  This module stores the same
information as parallel flat arrays, one set per trace:

* event identity is implicit (position ``p`` on trace ``t`` is event
  ``t.p+1``);
* ``etype``/``text`` are interned string ids;
* kinds are one byte each;
* clocks are epoch references into a shared
  :class:`~repro.clocks.encoded.ClockFrame` — the per-event clock
  storage is a single integer, and the append-time dominance check is
  O(1) whenever the epoch is unchanged (every non-receive event).

``Event`` objects are materialized lazily and only on access, so the
hot ingest path never builds them.  This is the store every
:class:`~repro.poet.server.POETServer` owns; the object
:class:`~repro.events.store.EventStore` stays as the reference the
array-store tests diff against.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

# Module reference, not from-import: repro.clocks imports repro.events
# (this package) while initializing, so names are resolved at call time
# to break the cycle.
import repro.clocks.encoded as _encoded
from repro.events.event import Event, EventId, EventKind

#: Byte codes for :class:`EventKind` (array storage).
_KINDS: Tuple[EventKind, ...] = tuple(EventKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}


class ArrayEventStore:
    """All events of a computation as per-trace flat arrays.

    Drop-in for :class:`~repro.events.store.EventStore` (same
    construction signature and query surface).  Events may carry
    :class:`~repro.clocks.encoded.EncodedClock` stamps (their frame is
    adopted, appends are O(1)) or full
    :class:`~repro.clocks.vector_clock.VectorClock` stamps (knowledge
    rows are interned on the fly, O(num_traces) per append).
    """

    def __init__(self, num_traces: int, trace_names: Optional[Sequence[str]] = None):
        if num_traces <= 0:
            raise ValueError(f"need at least one trace, got {num_traces}")
        if trace_names is not None and len(trace_names) != num_traces:
            raise ValueError(
                f"got {len(trace_names)} names for {num_traces} traces"
            )
        self._num_traces = num_traces
        self.trace_names: Tuple[str, ...] = tuple(
            trace_names[t] if trace_names else f"trace-{t}"
            for t in range(num_traces)
        )
        self._frame: Optional["_encoded.ClockFrame"] = None
        self._strings: List[str] = []
        self._string_ids: dict = {}
        self._etype = [array("q") for _ in range(num_traces)]
        self._text = [array("q") for _ in range(num_traces)]
        self._kind = [bytearray() for _ in range(num_traces)]
        self._lamport = [array("q") for _ in range(num_traces)]
        self._ptrace = [array("q") for _ in range(num_traces)]
        self._pindex = [array("q") for _ in range(num_traces)]
        self._epoch = [array("q") for _ in range(num_traces)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _intern_string(self, value: str) -> int:
        sid = self._string_ids.get(value)
        if sid is None:
            sid = len(self._strings)
            self._strings.append(value)
            self._string_ids[value] = sid
        return sid

    def _adopt_epoch(self, event: Event) -> int:
        """Epoch id of the event's clock in this store's frame."""
        clock = event.clock
        frame = self._frame
        if isinstance(clock, _encoded.EncodedClock):
            if frame is None:
                self._frame = clock.frame
                return clock.epoch
            if clock.frame is frame:
                return clock.epoch
        else:
            if frame is None:
                frame = self._frame = _encoded.ClockFrame(self._num_traces)
        # Foreign clock (full vector, or an encoded clock from another
        # frame): intern its knowledge row here.  O(num_traces).
        trace = event.trace
        comps = tuple(clock.components)
        row = comps[:trace] + (0,) + comps[trace + 1:]
        return self._frame.intern(row)

    def add(self, event: Event) -> None:
        """Append an event to its trace's columns.

        Validates what :class:`~repro.events.trace.Trace` validates —
        trace range, index contiguity, and clock dominance over the
        predecessor — but the dominance check costs O(1) instead of
        O(num_traces): unchanged epochs (every non-receive event) need
        no comparison, and epoch transitions hit the frame's
        certified-dominance set (see
        :meth:`~repro.clocks.encoded.ClockFrame.check_dominates`).
        """
        trace = event.trace
        if not 0 <= trace < self._num_traces:
            raise ValueError(
                f"event trace {trace} out of range "
                f"(store has {self._num_traces} traces)"
            )
        epochs = self._epoch[trace]
        expected = len(epochs) + 1
        if event.index != expected:
            raise ValueError(
                f"trace {trace}: expected event index {expected}, "
                f"got {event.index}"
            )
        epoch = self._adopt_epoch(event)
        if epochs and not self._frame.check_dominates(epochs[-1], epoch):
            raise ValueError(
                f"trace {trace}: clock of event {event.index} does not "
                f"dominate its predecessor's clock"
            )
        epochs.append(epoch)
        self._etype[trace].append(self._intern_string(event.etype))
        self._text[trace].append(self._intern_string(event.text))
        self._kind[trace].append(_KIND_CODE[event.kind])
        self._lamport[trace].append(event.lamport)
        partner = event.partner
        if partner is None:
            self._ptrace[trace].append(-1)
            self._pindex[trace].append(0)
        else:
            self._ptrace[trace].append(partner.trace)
            self._pindex[trace].append(partner.index)

    def add_batch(self, events: Sequence[Event]) -> None:
        """Append a contiguous slice of the linearization.

        Semantically identical to calling :meth:`add` per event — same
        validation, same error points — but the column handles, the
        string-interning tables, and the frame-identity check are bound
        once per slice instead of once per event: the struct-of-arrays
        counterpart of the server's batch-first delivery.  Events whose
        clock is not an encoded clock of the adopted frame fall back to
        the scalar path (which interns the foreign knowledge row).
        """
        etype_cols = self._etype
        text_cols = self._text
        kind_cols = self._kind
        lamport_cols = self._lamport
        ptrace_cols = self._ptrace
        pindex_cols = self._pindex
        epoch_cols = self._epoch
        string_ids = self._string_ids
        strings = self._strings
        kind_code = _KIND_CODE
        num_traces = self._num_traces
        encoded_clock = _encoded.EncodedClock
        frame = self._frame
        dominated = frame._dominated if frame is not None else None
        for event in events:
            clock = event.clock
            if frame is None or not (
                isinstance(clock, encoded_clock) and clock.frame is frame
            ):
                # First event (no frame adopted yet) or a foreign
                # clock: the scalar path handles adoption/interning.
                self.add(event)
                frame = self._frame
                dominated = frame._dominated if frame is not None else None
                continue
            trace = event.trace
            if not 0 <= trace < num_traces:
                raise ValueError(
                    f"event trace {trace} out of range "
                    f"(store has {num_traces} traces)"
                )
            epochs = epoch_cols[trace]
            index = event.index
            if index != len(epochs) + 1:
                raise ValueError(
                    f"trace {trace}: expected event index "
                    f"{len(epochs) + 1}, got {index}"
                )
            epoch = clock.epoch
            if epochs:
                prev = epochs[-1]
                # Fast path: the transition was certified when the row
                # was produced (merge / transcode); unknown pairs fall
                # back to the frame's full dominance scan.
                if (
                    prev != epoch
                    and (prev, epoch) not in dominated
                    and not frame.check_dominates(prev, epoch)
                ):
                    raise ValueError(
                        f"trace {trace}: clock of event {index} does "
                        f"not dominate its predecessor's clock"
                    )
            epochs.append(epoch)
            value = event.etype
            sid = string_ids.get(value)
            if sid is None:
                sid = len(strings)
                strings.append(value)
                string_ids[value] = sid
            etype_cols[trace].append(sid)
            value = event.text
            sid = string_ids.get(value)
            if sid is None:
                sid = len(strings)
                strings.append(value)
                string_ids[value] = sid
            text_cols[trace].append(sid)
            kind_cols[trace].append(kind_code[event.kind])
            lamport_cols[trace].append(event.lamport)
            partner = event.partner
            if partner is None:
                ptrace_cols[trace].append(-1)
                pindex_cols[trace].append(0)
            else:
                ptrace_cols[trace].append(partner.trace)
                pindex_cols[trace].append(partner.index)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def num_traces(self) -> int:
        """Number of traces in the computation."""
        return self._num_traces

    @property
    def num_events(self) -> int:
        """Total number of stored events across all traces (read off
        the columns, so it is exact even after a rejected append)."""
        return sum(map(len, self._epoch))

    @property
    def frame(self) -> Optional["_encoded.ClockFrame"]:
        """The shared knowledge-row table (``None`` until first add)."""
        return self._frame

    def trace(self, trace_id: int) -> "ArrayTraceView":
        """A sequence view of one trace's events."""
        if not 0 <= trace_id < self._num_traces:
            raise ValueError(
                f"trace {trace_id} out of range "
                f"(store has {self._num_traces} traces)"
            )
        return ArrayTraceView(self, trace_id)

    def traces(self) -> Sequence["ArrayTraceView"]:
        """All traces, ordered by trace id."""
        return tuple(ArrayTraceView(self, t) for t in range(self._num_traces))

    def get(self, event_id: EventId) -> Event:
        """Resolve an :class:`EventId` to a (materialized) event."""
        trace = event_id.trace
        if not 0 <= trace < self._num_traces:
            raise ValueError(
                f"event trace {trace} out of range "
                f"(store has {self._num_traces} traces)"
            )
        return self.materialize(trace, event_id.index)

    def partner_of(self, event: Event) -> Optional[Event]:
        """Resolve an event's communication partner, if recorded."""
        if event.partner is None:
            return None
        return self.get(event.partner)

    def materialize(self, trace: int, index: int) -> Event:
        """Rebuild the :class:`Event` at 1-based ``index`` on ``trace``."""
        n = len(self._epoch[trace])
        if not 1 <= index <= n:
            raise IndexError(
                f"trace {trace} has {n} events, index {index} out of range"
            )
        p = index - 1
        ptrace = self._ptrace[trace][p]
        partner = (
            EventId(ptrace, self._pindex[trace][p]) if ptrace >= 0 else None
        )
        return Event(
            trace=trace,
            index=index,
            etype=self._strings[self._etype[trace][p]],
            text=self._strings[self._text[trace][p]],
            clock=_encoded.EncodedClock(
                self._frame, trace, index, self._epoch[trace][p]
            ),
            kind=_KINDS[self._kind[trace][p]],
            partner=partner,
            lamport=self._lamport[trace][p],
        )

    # ------------------------------------------------------------------
    # Iteration / sizing
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Event]:
        """Iterate all events, trace by trace (not a linearization)."""
        for trace in range(self._num_traces):
            for index in range(1, len(self._epoch[trace]) + 1):
                yield self.materialize(trace, index)

    def __len__(self) -> int:
        return self.num_events

    def __repr__(self) -> str:
        return f"ArrayEventStore({self._num_traces} traces, {len(self)} events)"


class ArrayTraceView:
    """Sequence view over one trace of an :class:`ArrayEventStore`.

    Mirrors the query surface of :class:`~repro.events.trace.Trace`
    (``at``, ``last``, length and iteration); events materialize
    lazily.
    """

    __slots__ = ("_store", "trace_id")

    def __init__(self, store: ArrayEventStore, trace_id: int):
        self._store = store
        self.trace_id = trace_id

    @property
    def name(self) -> str:
        return self._store.trace_names[self.trace_id]

    def at(self, index: int) -> Event:
        """Return the event with the given 1-based index."""
        if index < 1:
            raise IndexError(
                f"trace {self.trace_id} index {index} out of range "
                f"(indices are 1-based)"
            )
        return self._store.materialize(self.trace_id, index)

    def last(self) -> Optional[Event]:
        """The most recent event, or ``None`` for an empty trace."""
        n = len(self)
        return self._store.materialize(self.trace_id, n) if n else None

    def __len__(self) -> int:
        return len(self._store._epoch[self.trace_id])

    def __iter__(self) -> Iterator[Event]:
        for index in range(1, len(self) + 1):
            yield self._store.materialize(self.trace_id, index)

    def __repr__(self) -> str:
        return f"ArrayTraceView({self.trace_id}, {self.name!r}, {len(self)} events)"


__all__ = [
    "ArrayEventStore",
    "ArrayTraceView",
]
