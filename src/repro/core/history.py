"""Per-leaf event histories, grouped by trace.

"Every time POET reports an event that matches a leaf node of the
pattern tree, it is added to the corresponding leaf node's history of
events.  This history is grouped by traces and is totally ordered for
each individual trace" (paper, Section IV-A).  Because histories only
hold events that match some pattern class, "the runtime of the matching
algorithm is only affected by the events that are actually in the
pattern, not by all the events that are being monitored".

The O(1) pruning rule (Section V-D): two matches of the same leaf on
the same trace with *no send or receive events between them* have
identical causal relations to every event on other traces, so only one
needs to be kept (we keep the newest, matching the latest-match bias of
the search and of Figure 3's desired subset).  This reproduction
additionally requires that no *other pattern-relevant event* occurred
on the trace in between, which keeps same-trace pattern constraints
(e.g. ``Snapshot -> Update`` on one leader trace) exact under pruning.
"""

from __future__ import annotations

import bisect
import operator
from typing import List, Optional, Sequence, Tuple

from repro.core.domain import restrict
from repro.core.gpls import CausalIndex
from repro.events.event import Event
from repro.patterns.compile import Constraint

_event_index = operator.attrgetter("index")
_event_lamport = operator.attrgetter("lamport")
#: ``events[0] -> x -> events[1]`` as pairs for the domain kernel.
_BETWEEN = ((0, Constraint.BEFORE), (1, Constraint.AFTER))


def clamp_cut(
    events: Sequence[Event], left: int, right: int, lo: int, hi: Optional[int]
) -> bool:
    """True when the Lamport clamp of :meth:`LeafHistory.window` cut a
    stored event with position in ``[lo, hi]`` off either end of
    ``events[left:right]`` — the neighbours tell, no second bisect."""
    return (left > 0 and events[left - 1].index >= lo) or (
        right < len(events) and (hi is None or events[right].index <= hi)
    )


class LeafHistory:
    """Matched events for one leaf, grouped by trace.

    Entries per trace are kept in index (arrival) order, enabling
    binary search by trace position for domain slicing.
    """

    __slots__ = ("leaf_id", "_by_trace", "_epochs", "_by_text", "_size",
                 "_nonempty", "_indices", "_lamport_ordered")

    def __init__(self, leaf_id: int, num_traces: int):
        self.leaf_id = leaf_id
        self._by_trace: List[List[Event]] = [[] for _ in range(num_traces)]
        self._epochs: List[List[int]] = [[] for _ in range(num_traces)]
        # parallel to _by_trace: the events' trace positions, as plain
        # ints — domain slicing bisects these at C speed instead of
        # calling a key function per probe.
        self._indices: List[List[int]] = [[] for _ in range(num_traces)]
        # secondary index: per trace, text value -> events in order.
        # Enables O(log) candidate lookup when a pattern's text
        # attribute is exact or already bound (e.g. the request-id of
        # the ordering pattern).
        self._by_text: List[dict] = [{} for _ in range(num_traces)]
        # sorted trace ids holding at least one event: lets the search
        # sweep jump over empty traces instead of visiting each (a leaf
        # usually matches on a few traces of a wide computation).
        # Pruning replaces entries in place, so traces never re-empty.
        self._nonempty: List[int] = []
        # per trace: no stored event was seen to carry a smaller
        # Lamport time than its predecessor (a stamping kernel never
        # does that; a foreign dump may), so :meth:`window` may bisect
        # the trace by Lamport time.
        self._lamport_ordered: List[bool] = [True] * num_traces
        self._size = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append(self, event: Event, epoch: int, may_prune: bool) -> None:
        """Record a matched event.

        ``epoch`` is the trace's communication epoch at the event;
        ``may_prune`` says the previous entry on this trace is
        replaceable (same epoch, and it was the most recent
        pattern-relevant event on the trace).
        """
        events = self._by_trace[event.trace]
        epochs = self._epochs[event.trace]
        indices = self._indices[event.trace]
        text_index = self._by_text[event.trace]
        if events and event.lamport < events[-1].lamport:
            self._lamport_ordered[event.trace] = False
        if may_prune and events and epochs[-1] == epoch:
            replaced = events[-1]
            events[-1] = event
            epochs[-1] = epoch
            indices[-1] = event.index
            bucket = text_index.get(replaced.text)
            if bucket and bucket[-1] is replaced:
                bucket.pop()
                if not bucket:
                    del text_index[replaced.text]
            text_index.setdefault(event.text, []).append(event)
            return
        if not events:
            bisect.insort(self._nonempty, event.trace)
        events.append(event)
        epochs.append(epoch)
        indices.append(event.index)
        text_index.setdefault(event.text, []).append(event)
        self._size += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def on_trace(self, trace: int) -> Sequence[Event]:
        """All stored events of this leaf on one trace, oldest first."""
        return self._by_trace[trace]

    def window(
        self,
        trace: int,
        lo: int,
        hi: Optional[int],
        text: Optional[str] = None,
        lamport: Optional[Tuple[int, int]] = None,
    ) -> Tuple[Sequence[Event], int, int]:
        """Stored events on ``trace`` with position in ``[lo, hi]``
        (``hi=None`` meaning unbounded; carrying exactly ``text`` when
        given, off the secondary index) as ``(events, left, right)``:
        the live oldest-first list and a half-open index range in it.
        No copy — good until the next :meth:`append`, so for a search.

        ``lamport`` = ``(first, last)`` narrows the range further to
        the events with Lamport time in it (the ``WITHIN`` clamp, see
        :func:`~repro.core.domain.lamport_range`) — unless the trace's
        Lamport times were seen out of order, when the range comes back
        unclamped and the caller's per-candidate check decides alone.
        :func:`clamp_cut` tells whether the clamp removed anything."""
        if text is None:
            events, keys, key = self._by_trace[trace], self._indices[trace], None
        else:
            events = keys = self._by_text[trace].get(text, ())
            key = _event_index
        left = bisect.bisect_left(keys, lo, key=key)
        right = (
            len(keys) if hi is None
            else bisect.bisect_right(keys, hi, left, key=key)
        )
        if lamport is not None and self._lamport_ordered[trace]:
            left = bisect.bisect_left(
                events, lamport[0], left, right, key=_event_lamport
            )
            right = bisect.bisect_right(
                events, lamport[1], left, right, key=_event_lamport
            )
        return events, left, right

    def slice(self, trace: int, lo: int, hi: Optional[int]) -> Sequence[Event]:
        """A copy of the :meth:`window` ``[lo, hi]``, oldest first."""
        events, left, right = self.window(trace, lo, hi)
        return events[left:right]

    def next_nonempty(
        self, trace: int, text: Optional[str] = None
    ) -> Optional[int]:
        """Smallest trace id ``>= trace`` holding at least one stored
        event (carrying exactly ``text`` when given: its text bucket
        exists — a prune that empties one deletes it), or ``None`` when
        no such trace exists — the sweep's skip-ahead query."""
        nonempty = self._nonempty
        pos = bisect.bisect_left(nonempty, trace)
        if text is None:
            return nonempty[pos] if pos < len(nonempty) else None
        by_text = self._by_text
        for pos in range(pos, len(nonempty)):
            if text in by_text[nonempty[pos]]:
                return nonempty[pos]
        return None

    def earliest_on(self, trace: int) -> Optional[Event]:
        events = self._by_trace[trace]
        return events[0] if events else None

    def latest_on(self, trace: int) -> Optional[Event]:
        events = self._by_trace[trace]
        return events[-1] if events else None

    def between(
        self,
        low: Event,
        high: Event,
        trace: int,
        index: CausalIndex,
        text: Optional[str] = None,
    ) -> Sequence[Event]:
        """Stored events ``x`` on ``trace`` with ``low -> x -> high``
        (carrying exactly ``text`` when given), oldest first: the
        Figure-4 domain of the two anchors, so the cost is two binary
        searches plus the events returned (plus, where the domain is
        only a superset, their verification)."""
        lo, hi, _, _, exact = restrict(index, trace, _BETWEEN, (low, high))
        if lo is None:
            return ()
        events, left, right = self.window(trace, lo, hi, text)
        events = events[left:right]
        if not exact:
            events = [
                x for x in events
                if low.happens_before(x) and x.happens_before(high)
            ]
        return events

    def nearest(self, anchor: Event, trace: int, index: CausalIndex,
                floor: bool, event_class, env) -> Optional[Event]:
        """The negation witness that bounds a later anchor: the stored
        class event on ``trace`` (under ``env``) nearest ``anchor`` with
        ``x -> anchor`` (``floor``) or ``anchor -> x``, checked where
        the interval is only a superset (a gapped stream)."""
        relation = Constraint.AFTER if floor else Constraint.BEFORE
        lo, hi, _, _, exact = restrict(index, trace, ((0, relation),), (anchor,))
        if lo is None:
            return None
        text = event_class.required_text(env)
        events, left, right = self.window(trace, lo, hi, text)
        for pos in range(right - 1, left - 1, -1) if floor else range(left, right):
            event = events[pos]
            if (exact or anchor.happens_before(event)) and (
                event_class.matches(event, env) is not None
            ):
                return event
        return None

    def has_between(self, low: Event, high: Event, index: CausalIndex) -> bool:
        """True when some stored event ``x`` satisfies
        ``low -> x -> high`` — the side condition of the
        limited-precedence operator.  A trace ``high``'s clock does not
        reach (its entry there — ``GP(high, trace)``, exact on a gapped
        stream too; ``high`` itself on its own trace — lies before the
        first stored event) costs one comparison, and an exact interval
        is answered from its bounds, not copied."""
        reach = high.clock
        for trace in self._nonempty:
            if reach[trace] < self._indices[trace][0]:
                continue
            lo, hi, _, _, exact = restrict(index, trace, _BETWEEN, (low, high))
            if lo is None:
                continue
            _, left, right = self.window(trace, lo, hi)
            # only a superset (a gapped stream): let between() verify
            if left < right and (
                exact or self.between(low, high, trace, index)
            ):
                return True
        return False

    @property
    def size(self) -> int:
        """Total stored events across all traces."""
        return self._size

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy: per non-empty trace, the stored event
        records and their communication epochs."""
        traces = []
        for trace, events in enumerate(self._by_trace):
            if events:
                traces.append(
                    {
                        "trace": trace,
                        "events": [e.to_record() for e in events],
                        "epochs": list(self._epochs[trace]),
                    }
                )
        return {"leaf_id": self.leaf_id, "traces": traces}

    def restore(self, state: dict) -> None:
        """Rebuild from a :meth:`snapshot` (the history must be fresh);
        the text index and size are reconstructed."""
        from repro.events.event import event_from_record

        if self._size:
            raise ValueError("can only restore into an empty history")
        for entry in state["traces"]:
            trace = int(entry["trace"])
            events = [event_from_record(r) for r in entry["events"]]
            epochs = [int(ep) for ep in entry["epochs"]]
            if len(events) != len(epochs):
                raise ValueError(
                    f"leaf {self.leaf_id} trace {trace}: "
                    f"{len(events)} events vs {len(epochs)} epochs"
                )
            self._by_trace[trace] = events
            self._epochs[trace] = epochs
            self._indices[trace] = [e.index for e in events]
            self._lamport_ordered[trace] = all(
                a.lamport <= b.lamport for a, b in zip(events, events[1:])
            )
            if events:
                bisect.insort(self._nonempty, trace)
            text_index = self._by_text[trace]
            for event in events:
                text_index.setdefault(event.text, []).append(event)
            self._size += len(events)

    def traces_with_events(self, text: Optional[str] = None) -> Sequence[int]:
        """Trace ids on which this leaf has at least one stored event
        (the live list: read, do not keep) — carrying exactly ``text``
        when given (a new list)."""
        if text is None:
            return self._nonempty
        by_text = self._by_text
        return [trace for trace in self._nonempty if text in by_text[trace]]

    def __len__(self) -> int:
        return self._size


class HistorySet:
    """All leaf histories plus the per-trace pruning bookkeeping."""

    def __init__(
        self,
        num_leaves: int,
        num_traces: int,
        comm_epoch: Optional[List[int]] = None,
    ):
        self.histories = [LeafHistory(i, num_traces) for i in range(num_leaves)]
        #: Send/receive events seen per trace: the stream front's row,
        #: bumped there once for every history set that reads it.
        self._comm_epoch = (
            comm_epoch if comm_epoch is not None else [0] * num_traces
        )
        self._last_append: List[Optional[int]] = [None] * num_traces

    def append(self, leaf_id: int, event: Event, prune: bool) -> None:
        """Record a matched event in a leaf history, pruning when the
        config allows and the epoch rule applies."""
        trace = event.trace
        may_prune = prune and self._last_append[trace] == leaf_id
        self.histories[leaf_id].append(
            event, epoch=self._comm_epoch[trace], may_prune=may_prune
        )
        self._last_append[trace] = leaf_id

    def leaf(self, leaf_id: int) -> LeafHistory:
        return self.histories[leaf_id]

    def total_size(self) -> int:
        """Total stored events over all leaves (memory metric)."""
        return sum(h.size for h in self.histories)

    def snapshot(self) -> dict:
        """JSON-ready copy of every leaf history and the pruning
        bookkeeping."""
        epochs = self._comm_epoch
        return {
            "comm_epoch": list(epochs),
            # a send/receive since the last append clears the slot: the
            # epoch rule already forbids pruning across it
            "last_append": [
                leaf
                if leaf is not None
                and self.histories[leaf]._epochs[trace][-1:] == [epochs[trace]]
                else None
                for trace, leaf in enumerate(self._last_append)
            ],
            "leaves": [h.snapshot() for h in self.histories],
        }

    def restore(self, state: dict) -> None:
        """Rebuild from a :meth:`snapshot` (histories must be fresh).
        The epoch row is the front's to restore, not this reader's."""
        if len(state["leaves"]) != len(self.histories):
            raise ValueError(
                f"snapshot has {len(state['leaves'])} leaves, "
                f"history set has {len(self.histories)}"
            )
        self._last_append = [
            None if v is None else int(v) for v in state["last_append"]
        ]
        for history, leaf_state in zip(self.histories, state["leaves"]):
            history.restore(leaf_state)
        leaves = range(len(self.histories))
        if any(v is not None and v not in leaves for v in self._last_append):
            raise ValueError(f"last_append names no leaf: {self._last_append}")
