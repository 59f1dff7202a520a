"""Encoded (bounded-storage) timestamps for cheap causality at scale.

Full Fidge/Mattern clocks answer every happens-before query this
library needs, but they cost O(num_traces) *per event*: each tick
copies, validates, and rehashes a width-``n`` tuple, and every stored
event retains its own private tuple.  For the OCEP matcher that cost
dominates once trace counts grow — the per-event work is clock
bookkeeping, not matching.

The encoded scheme here exploits the structural fact both *Efficient
Timestamps for Capturing Causality* (Vaidya & Kulkarni) and *An Optimal
Vector Clock Algorithm for Multithreaded Systems* (Zheng & Garg) build
on: between two receive events on a trace, the trace's knowledge of
**remote** traces is frozen — only its own component advances.  So a
timestamp decomposes into

* the event's own ``(trace, index)`` pair (two ints), and
* a reference into a shared, interned table of *knowledge rows* — the
  remote components as of the trace's most recent merge.

An :class:`EncodedClock` is the triple ``(trace, index, epoch)`` plus a
back-pointer to its computation's :class:`ClockFrame` (the row table).
The full vector is recovered as ``V[t] = index if t == trace else
row[epoch][t]``, so the constant-time predicates of
:mod:`repro.clocks.causality` (``happens_before`` / ``concurrent`` /
``compare``) work unchanged — the clock is a drop-in for
:class:`~repro.clocks.vector_clock.VectorClock` everywhere the matcher,
the event store, and the domain-pruning index index into it.

Cost profile (the Zheng/Garg optimum for this access pattern):

* ``tick`` — O(1): bump the index, keep the epoch.
* ``merge`` — O(n), but merges happen only at receive events, so the
  amortized per-event cost is O(1) + O(n · receive-fraction).
* dominance (``<=``) between same-trace neighbours — O(1): an
  unchanged epoch needs no comparison at all, and epoch transitions
  are certified in the frame when the row is produced (merge results
  dominate their parents by construction), so append-time validation
  is a set lookup with an O(n) fallback only for foreign rows.
* storage — O(1) per event; knowledge rows are deduplicated in the
  frame, so total row storage is proportional to communication, not to
  the event count.

:func:`encode_events` transcodes a recorded full-clock stream (any
valid linearization, e.g. a POET dump) into encoded form in O(1) per
non-receive event.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.events.event import Event, EventKind

class ClockFrame:
    """The shared knowledge-row table of one monitored computation.

    Every :class:`EncodedClock` of a computation points into one frame.
    Rows are interned: two events whose traces have identical remote
    knowledge share one physical tuple, so row storage grows with the
    number of *distinct* merge results (proportional to communication),
    not with the event count.

    Row convention: a row is a width-``num_traces`` tuple of remote
    components with the owner's own position normalized to 0 (the own
    component lives in the clock's ``index`` field and always overrides
    the row on reads).
    """

    __slots__ = ("num_traces", "_rows", "_ids", "_dominated")

    def __init__(self, num_traces: int):
        if num_traces <= 0:
            raise ValueError(f"need at least one trace, got {num_traces}")
        self.num_traces = num_traces
        zero = (0,) * num_traces
        self._rows: List[Tuple[int, ...]] = [zero]
        self._ids: Dict[Tuple[int, ...], int] = {zero: 0}
        # Certified-dominance pairs: (lo, hi) present means row(hi)
        # component-wise dominates row(lo).  Populated by the frame's
        # own row-producing operations (merge results dominate both
        # parents by construction; the transcoder certifies each
        # receive transition it has verified), so append-time
        # validation downstream is a set lookup instead of an
        # O(num_traces) scan.
        self._dominated: set = set()

    def intern(self, row: Tuple[int, ...]) -> int:
        """Return the epoch id of ``row``, adding it if unseen."""
        epoch = self._ids.get(row)
        if epoch is None:
            epoch = len(self._rows)
            self._rows.append(row)
            self._ids[row] = epoch
        return epoch

    def row(self, epoch: int) -> Tuple[int, ...]:
        """The knowledge row stored under ``epoch``."""
        return self._rows[epoch]

    def check_dominates(self, lo: int, hi: int) -> bool:
        """True when ``row(hi)`` component-wise dominates ``row(lo)``.

        O(1) for pairs the frame has already certified — every merge
        result against its parents, every transition the transcoder
        verified, and any pair this method has scanned before.  Unknown
        pairs fall back to the full O(num_traces) comparison (and are
        cached on success), so the answer is always exact: certification
        is an optimization, never a weakening of the check.
        """
        if lo == hi or (lo, hi) in self._dominated:
            return True
        rows = self._rows
        if all(a <= b for a, b in zip(rows[lo], rows[hi])):
            self._dominated.add((lo, hi))
            return True
        return False

    @property
    def num_rows(self) -> int:
        """Distinct knowledge rows interned so far (memory proxy)."""
        return len(self._rows)

    def zero(self, trace: int) -> "EncodedClock":
        """The initial (all-zero) clock owned by ``trace``."""
        if not 0 <= trace < self.num_traces:
            raise ValueError(
                f"trace must be in [0, {self.num_traces}), got {trace}"
            )
        return EncodedClock(self, trace, 0, 0)

    def encode(self, components: Sequence[int], trace: int) -> "EncodedClock":
        """Encode a full component vector owned by ``trace``.

        O(num_traces) — meant for boundaries (transcoding, checkpoint
        restore), not the per-event hot path.
        """
        comps = tuple(int(c) for c in components)
        if len(comps) != self.num_traces:
            raise ValueError(
                f"got {len(comps)} components for {self.num_traces} traces"
            )
        if not 0 <= trace < self.num_traces:
            raise ValueError(
                f"trace must be in [0, {self.num_traces}), got {trace}"
            )
        for c in comps:
            if c < 0:
                raise ValueError(
                    f"vector clock components must be >= 0, got {c}"
                )
        row = comps[:trace] + (0,) + comps[trace + 1:]
        return EncodedClock(self, trace, comps[trace], self.intern(row))

    def __repr__(self) -> str:
        return f"ClockFrame({self.num_traces} traces, {len(self._rows)} rows)"


class EncodedClock:
    """An O(1)-per-event timestamp equivalent to a full vector clock.

    The clock represents the vector ``V`` with ``V[trace] = index`` and
    ``V[t] = frame.row(epoch)[t]`` for every remote ``t``.  It supports
    the same protocol as :class:`~repro.clocks.vector_clock.VectorClock`
    (indexing, width, iteration, the partial-order comparisons,
    ``tick``/``merge``, value equality and hashing), with one
    deliberate restriction: ``tick`` only advances the owning trace's
    component — which is the only tick any causally valid substrate
    ever performs — so a wrong-trace (or negative) tick is an error
    instead of silent corruption.
    """

    __slots__ = ("frame", "trace", "index", "epoch", "_hash", "_comps")

    def __init__(self, frame: ClockFrame, trace: int, index: int, epoch: int):
        self.frame = frame
        self.trace = trace
        self.index = index
        self.epoch = epoch
        self._hash: Optional[int] = None
        self._comps: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------

    def tick(self, trace: int) -> "EncodedClock":
        """Advance the owning trace's component by one — O(1)."""
        if trace != self.trace:
            raise ValueError(
                f"encoded clock owned by trace {self.trace} cannot tick "
                f"trace {trace}"
            )
        return EncodedClock(self.frame, self.trace, self.index + 1, self.epoch)

    def merge(self, other) -> "EncodedClock":
        """Fold another clock's knowledge in (message join) — O(n).

        ``other`` may be any clock-like of the same width (an encoded
        clock of the same frame, or a full vector clock).  The result
        keeps this clock's owner and own component.
        """
        num_traces = self.frame.num_traces
        # Materialize the other side's components once (tuple slicing,
        # C speed) instead of calling its __getitem__ per trace.
        if isinstance(other, EncodedClock) and other.frame is self.frame:
            orow = self.frame.row(other.epoch)
            ot = other.trace
            oc = orow[:ot] + (other.index,) + orow[ot + 1:]
        else:
            oc = getattr(other, "components", None)
            oc = tuple(other) if oc is None else tuple(oc)
        if len(oc) != num_traces:
            raise ValueError(
                f"cannot merge clocks of widths {num_traces} and {len(oc)}"
            )
        own = self.trace
        if oc[own] > self.index:
            raise ValueError(
                f"merge would move trace {own} backwards in time: "
                f"own component {self.index} < merged {oc[own]}"
            )
        row = self.frame.row(self.epoch)
        merged = tuple(map(max, row, oc))
        merged = merged[:own] + (0,) + merged[own + 1:]
        if merged == row:
            return self
        epoch = self.frame.intern(merged)
        # A max-merge dominates its own parent row by construction;
        # certify the pair so append-time validation stays O(1).
        self.frame._dominated.add((self.epoch, epoch))
        return EncodedClock(self.frame, own, self.index, epoch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def knowledge(self) -> Tuple[int, ...]:
        """The raw knowledge row (own position normalized to 0)."""
        return self.frame.row(self.epoch)

    @property
    def components(self) -> Tuple[int, ...]:
        """The full component vector (materialized once — O(n))."""
        comps = self._comps
        if comps is None:
            row = self.frame._rows[self.epoch]
            t = self.trace
            comps = self._comps = row[:t] + (self.index,) + row[t + 1:]
        return comps

    def __len__(self) -> int:
        return self.frame.num_traces

    def __getitem__(self, trace: int) -> int:
        # GP queries land here per domain restriction, so this matches
        # plain tuple indexing as closely as a method call can.
        if trace == self.trace:
            return self.index
        row = self.frame._rows[self.epoch]
        if trace < 0 or trace >= len(row):
            raise IndexError(
                f"trace {trace} out of range for clock width {len(row)}"
            )
        return row[trace]

    def __iter__(self) -> Iterator[int]:
        return iter(self.components)

    # ------------------------------------------------------------------
    # Causality comparisons
    # ------------------------------------------------------------------

    def __le__(self, other) -> bool:
        """Component-wise ``<=`` — the clock partial order.

        O(1) against a same-frame clock with the same epoch (only the
        own components can differ); O(n) otherwise.
        """
        if isinstance(other, EncodedClock) and other.frame is self.frame:
            if self.epoch == other.epoch:
                if self.trace == other.trace:
                    return self.index <= other.index
                row = self.frame.row(self.epoch)
                # Shared remote knowledge: only the own components can
                # exceed the other side's view.
                return (
                    self.index <= other[self.trace]
                    and row[other.trace] <= other.index
                )
        self._check_width(other)
        return all(a <= b for a, b in zip(self.components, other))

    def __lt__(self, other) -> bool:
        return self <= other and self.components != tuple(other)

    def __ge__(self, other) -> bool:
        self._check_width(other)
        return all(a >= b for a, b in zip(self.components, other))

    def __gt__(self, other) -> bool:
        return self >= other and self.components != tuple(other)

    def concurrent_with(self, other) -> bool:
        """True when neither clock dominates the other (incomparable)."""
        return not (self <= other) and not (self >= other)

    def _check_width(self, other) -> None:
        if len(other) != len(self):
            raise ValueError(
                f"cannot compare clocks of widths {len(self)} and {len(other)}"
            )

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EncodedClock):
            if other.frame is self.frame:
                if self.trace == other.trace:
                    return (
                        self.index == other.index
                        and self.epoch == other.epoch
                    )
            return self.components == other.components
        components = getattr(other, "components", None)
        if components is not None:
            return self.components == tuple(components)
        return NotImplemented

    def __hash__(self) -> int:
        # Matches hash(VectorClock) for equal components, so mixed
        # backends stay consistent as dict/set keys.
        h = self._hash
        if h is None:
            h = self._hash = hash(self.components)
        return h

    def __repr__(self) -> str:
        return f"EncodedClock({', '.join(map(str, self.components))})"


class StreamEncoder:
    """Stateful transcoder: full-clock events in, encoded-clock out.

    Holds the :class:`ClockFrame` plus per-trace epoch/length state
    *across* calls, so a stream arriving in slices (the network POET
    transport delivers batches) can be transcoded incrementally with
    the exact same result as one-shot :func:`encode_events` over the
    concatenation.
    """

    def __init__(self, num_traces: int, frame: Optional[ClockFrame] = None):
        if frame is None:
            frame = ClockFrame(num_traces)
        elif frame.num_traces != num_traces:
            raise ValueError(
                f"frame has {frame.num_traces} traces, stream has {num_traces}"
            )
        self.frame = frame
        self.num_traces = num_traces
        self._epochs = [0] * num_traces
        self._lengths = [0] * num_traces

    def extend(self, events: Iterable[Event]) -> List[Event]:
        """Transcode the next slice of the linearization."""
        frame = self.frame
        num_traces = self.num_traces
        epochs = self._epochs
        lengths = self._lengths
        encoded: List[Event] = []
        for event in events:
            trace = event.trace
            if not 0 <= trace < num_traces:
                raise ValueError(
                    f"event trace {trace} out of range for {num_traces} traces"
                )
            if event.index != lengths[trace] + 1:
                raise ValueError(
                    f"trace {trace}: event index {event.index} breaks the "
                    f"linearization (expected {lengths[trace] + 1})"
                )
            lengths[trace] = event.index
            if event.kind is EventKind.RECEIVE:
                comps = tuple(event.clock.components)
                row = comps[:trace] + (0,) + comps[trace + 1:]
                epoch = frame.intern(row)
                prev = epochs[trace]
                if prev != epoch:
                    # Verify the receive actually advanced this trace's
                    # knowledge and certify the transition, so the event
                    # store's append-time dominance check is a set lookup.
                    # A non-dominating (corrupt) transition is left
                    # uncertified — the store's full check still catches it.
                    if all(a <= b for a, b in zip(frame.row(prev), row)):
                        frame._dominated.add((prev, epoch))
                epochs[trace] = epoch
            clock = EncodedClock(frame, trace, event.index, epochs[trace])
            encoded.append(dataclasses.replace(event, clock=clock))
        return encoded


def encode_events(
    events: Iterable[Event],
    num_traces: int,
    frame: Optional[ClockFrame] = None,
) -> Tuple[List[Event], ClockFrame]:
    """Transcode a recorded stream's clocks into encoded form.

    ``events`` must be a valid linearization (per-trace indices
    contiguous from 1 — the POET delivery invariant).  Remote knowledge
    only changes at receive events, so the transcode is O(1) per
    non-receive event and O(num_traces) per receive: exactly the
    amortized profile of generating the encoded stamps natively.

    Everything except the ``clock`` field is preserved, so match output
    downstream is bit-identical to the full-clock stream.  Incremental
    callers (a :meth:`~repro.engine.Pipeline.stream` pipeline's
    ``feed``) keep a :class:`StreamEncoder` instead.
    """
    encoder = StreamEncoder(num_traces, frame)
    return encoder.extend(events), encoder.frame


__all__ = [
    "ClockFrame",
    "EncodedClock",
    "StreamEncoder",
    "encode_events",
]
