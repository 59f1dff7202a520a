"""Greatest predecessor and least successor queries.

Paper, Section IV-C: "The greatest predecessor (GP) of an event ``a``
on a trace ``t`` is the most-recent event on that trace that happens
before ``a`` ... The least successor (LS) of an event ``a`` on a trace
``t`` is the least-recent event on that trace that happens after
``a``."  Together they delimit the portion of trace ``t`` concurrent
with ``a``, which is exactly what domain restriction needs (Figure 4).

Under the Fidge/Mattern convention, ``GP(a, t)`` is read directly off
``a``'s own timestamp: it is the event at position ``Va[t]`` on trace
``t`` (position 0 meaning "none").  ``LS(a, t)`` needs the *reverse*
lookup — the earliest event on ``t`` whose clock column for ``a``'s
trace has reached ``a``'s index — which this module answers with a
compressed per-trace-pair index of clock-column increase points.

Only a receive can change a trace's remote knowledge, and between two
receives that knowledge row is frozen (Vaidya & Kulkarni; Zheng &
Garg).  So a receive whose row differs from its trace's previous one
records a *change point* — its position and a reference to the row (an
encoded clock's interned tuple: nothing is copied) — in O(1).  Column
``m`` of trace ``l`` is folded out of ``l``'s change points when a
search first reads it (:meth:`CausalIndex.column`), and only the change
points added since its last read are folded then.  The index therefore
grows with communication, not with the event count, and a column no
search asks for costs nothing past the row reference.
"""

from __future__ import annotations

import bisect
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from repro.events.event import Event, EventKind

#: ``(values, positions)`` of one column, both strictly increasing.
Column = Tuple[List[int], List[int]]

# Every column nothing was folded into yet shares this one (read-only).
_EMPTY: Column = ([], [])

_RECEIVE = EventKind.RECEIVE


class CausalIndex:
    """Incremental GP/LS index over a stream of events.

    Feed every event of the computation (in delivery order) to
    :meth:`observe`; then :meth:`gp` answers in O(1) and :meth:`ls` in
    O(log messages), plus the fold of the change points its column has
    not seen yet.
    """

    def __init__(self, num_traces: int, allow_gaps: bool = False):
        if num_traces <= 0:
            raise ValueError(f"need at least one trace, got {num_traces}")
        self.num_traces = num_traces
        #: Accept forward index jumps (a shed/sampled stream); regressions
        #: and duplicates still raise.  ``gaps`` counts the missing
        #: positions actually skipped over, which callers use to decide
        #: whether domains are still exact (a pure trace-suffix loss
        #: leaves every answerable query exact; only an interior hole —
        #: a counted gap — can leave a least-successor column
        #: under-informed).
        self.allow_gaps = allow_gaps
        self.gaps = 0
        self._lengths = [0] * num_traces
        self._reset_columns([[_EMPTY] * num_traces for _ in range(num_traces)])

    def _reset_columns(self, columns: List[List[Column]]) -> None:
        n = self.num_traces
        # _columns[l][m]: the folded increase points of clock column m
        # along trace l.  Own columns (l == m) are implicit and stay
        # empty.
        self._columns = columns
        # Change points of trace l: the positions and knowledge rows of
        # the receives that changed its row, in delivery order.
        self._change_positions: List[List[int]] = [[] for _ in range(n)]
        self._change_rows: List[List[Sequence[int]]] = [[] for _ in range(n)]
        # _folded[l][m]: how many of l's change points column m holds.
        self._folded: List[List[int]] = [[0] * n for _ in range(n)]

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def observe(self, event: Event) -> None:
        """Ingest the next event (must arrive in delivery order)."""
        trace = event.trace
        expected = self._lengths[trace] + 1
        if event.index != expected:
            if not self.allow_gaps or event.index < expected:
                raise ValueError(
                    f"trace {trace}: observed event {event.index}, "
                    f"expected {expected}"
                )
            self.gaps += event.index - expected
        self._lengths[trace] = event.index

        # Only a clock merge can raise a remote column; merges happen
        # exclusively at receive events, so everything else is O(1).
        if event.kind is _RECEIVE:
            clock = event.clock
            # The knowledge row is the raw remote-component view for
            # both backends: the encoded clock's interned row (own
            # position 0) or the full vector's components (the fold
            # skips the own position, so no normalization is needed).
            row = getattr(clock, "knowledge", None)
            if row is None:
                row = clock.components
            rows = self._change_rows[trace]
            # An interned row is the same object while it is unchanged;
            # a recorded duplicate of a full vector folds to nothing.
            if not rows or rows[-1] is not row:
                rows.append(row)
                self._change_positions[trace].append(event.index)

    def column(self, trace: int, m: int) -> Column:
        """``(values, positions)``: the increase points of clock column
        ``m`` along ``trace``, both strictly increasing — position
        ``positions[i]`` is the first on ``trace`` whose column ``m``
        reads ``values[i]``.  Folds the change points the column has
        not seen yet; the lists are the index's own: read them only."""
        folded = self._folded[trace]
        rows = self._change_rows[trace]
        start = folded[m]
        if start == len(rows):
            return self._columns[trace][m]
        folded[m] = len(rows)
        columns = self._columns[trace]
        col = columns[m]
        if m != trace:
            values, positions = col
            last = values[-1] if values else 0
            changed_at = self._change_positions[trace]
            for i in range(start, len(rows)):
                v = rows[i][m]
                if v > last:
                    if col is _EMPTY:
                        col = columns[m] = ([], [])
                        values, positions = col
                    values.append(v)
                    positions.append(changed_at[i])
                    last = v
        return col

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def trace_length(self, trace: int) -> int:
        """Number of events observed on a trace so far."""
        return self._lengths[trace]

    def gp(self, event: Event, trace: int) -> int:
        """Position of ``GP(event, trace)`` on ``trace`` (0 = none).

        On the event's own trace this is simply its predecessor; on a
        remote trace it is the event's clock entry for that trace.
        """
        if trace == event.trace:
            return event.index - 1
        return event.clock[trace]

    def ls(self, event: Event, trace: int) -> Optional[int]:
        """Position of ``LS(event, trace)`` on ``trace`` (``None`` =
        no successor observed yet).

        On the event's own trace this is its successor; on a remote
        trace it is the earliest position whose clock column for the
        event's trace has reached the event's index.
        """
        if trace == event.trace:
            nxt = event.index + 1
            return nxt if nxt <= self._lengths[trace] else None
        values, positions = self.column(trace, event.trace)
        pos = bisect.bisect_left(values, event.index)
        if pos == len(values):
            return None
        return positions[pos]

    def index_size(self) -> int:
        """Change points plus folded increase points held (memory proxy
        for benchmarks); folds nothing."""
        return sum(map(len, self._change_positions)) + sum(
            len(values) for row in self._columns for values, _ in row
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy of the index state (plain int lists), every
        column folded."""
        n = self.num_traces
        for trace in range(n):
            for m in range(n):
                self.column(trace, m)
        return {
            "lengths": list(self._lengths),
            "values": [
                [list(values) for values, _ in row] for row in self._columns
            ],
            "positions": [
                [list(positions) for _, positions in row]
                for row in self._columns
            ],
            "gaps": self.gaps,
        }

    def restore(self, state: dict) -> None:
        """Overwrite the index with a :meth:`snapshot` (must match this
        index's trace count).  A malformed document raises
        ``ValueError`` and leaves the index as it was."""
        n = self.num_traces
        lengths = [int(x) for x in state["lengths"]]
        if len(lengths) != n:
            raise ValueError(
                f"snapshot has {len(lengths)} traces, index has {n}"
            )
        # Older snapshots predate gap accounting; they were taken from
        # complete streams, so zero is exact.
        gaps = int(state.get("gaps", 0))
        if gaps < 0 or min(lengths) < 0:
            raise ValueError("negative trace length or gap count")
        values = [[[int(v) for v in col] for col in row] for row in state["values"]]
        positions = [
            [[int(p) for p in col] for col in row] for row in state["positions"]
        ]
        if len(values) != n or len(positions) != n or any(
            len(row) != n for row in (*values, *positions)
        ):
            raise ValueError(f"index columns are not {n} x {n}")
        for trace in range(n):
            for m in range(n):
                col, pos = values[trace][m], positions[trace][m]
                if len(col) != len(pos):
                    raise ValueError(
                        f"column ({trace}, {m}): {len(col)} values, "
                        f"{len(pos)} positions"
                    )
                if not _increasing(col, 1, None) or not _increasing(
                    pos, 1, lengths[trace]
                ):
                    raise ValueError(
                        f"column ({trace}, {m}): values must rise strictly "
                        f"from 1, positions within 1..{lengths[trace]}"
                    )
        self._lengths = lengths
        self.gaps = gaps
        self._reset_columns([
            [(col, pos) if col else _EMPTY for col, pos in zip(*rows)]
            for rows in zip(values, positions)
        ])


def _increasing(seq: List[int], lo: int, hi: Optional[int]) -> bool:
    """``seq`` strictly increases from at least ``lo`` to at most ``hi``
    (``None`` = unbounded)."""
    if not seq:
        return True
    if seq[0] < lo or (hi is not None and seq[-1] > hi):
        return False
    return all(a < b for a, b in zip(seq, islice(seq, 1, None)))
