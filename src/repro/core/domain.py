"""Domain restriction (paper, Figure 4).

When instantiating the event ``e_i`` of a pattern position on trace
``l``, the causality relation required with an already-instantiated
event ``e`` confines ``e_i`` to a contiguous interval of positions on
``l``:

====================  ==========================================
``e || e_i``          ``(GP(e, l), LS(e, l))``      (exclusive)
``e -> e_i``          ``[LS(e, l), +inf)``
``e_i -> e``          ``(-inf, GP(e, l)]``
====================  ==========================================

These bounds are *exact* under the Fidge/Mattern clock convention (not
merely necessary), so interval membership fully decides the causal
relation and no per-candidate re-check is needed.  The weak forms
(``NOT_AFTER`` / ``NOT_BEFORE``) arising from compound precedence have
the corresponding one-sided exact intervals.  The partner operator
contributes an interval plus a per-candidate identity filter, because
partnership is not a function of timestamps alone.

On a *gapped* index (a shed stream, ``index.gaps > 0``) a remote
least-successor column can have missed the receive that first raised
it, so ``LS`` may read too late or not at all.  ``GP`` comes from the
assigned event's own clock and stays exact.  :func:`restrict` then
drops the remote ``LS`` *lower* bounds and keeps the ``LS`` upper
bounds, which can only be too wide: every interval is a superset of
the exact one and the caller verifies each candidate causally.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.gpls import CausalIndex
from repro.events.event import Event, EventKind
from repro.patterns.compile import Constraint

#: A position upper bound of None means "unbounded".
INF = None


@dataclasses.dataclass
class Interval:
    """An inclusive 1-based position interval ``[lo, hi]`` on one trace.

    ``hi=None`` means unbounded above.  ``empty`` is true when no
    position can satisfy it.
    """

    lo: int = 1
    hi: Optional[int] = INF

    @property
    def empty(self) -> bool:
        return self.hi is not None and self.lo > self.hi

    def intersect(self, lo: int, hi: Optional[int]) -> None:
        """Narrow this interval in place."""
        if lo > self.lo:
            self.lo = lo
        if hi is not None and (self.hi is None or hi < self.hi):
            self.hi = hi

    def contains(self, position: int) -> bool:
        return position >= self.lo and (self.hi is None or position <= self.hi)


def restrict(
    interval: Interval,
    constraint: Constraint,
    assigned: Event,
    trace: int,
    index: CausalIndex,
) -> bool:
    """Narrow ``interval`` for a candidate on ``trace`` so that its
    causal relation to ``assigned`` satisfies ``constraint`` (stated as
    the relation of ``assigned``'s position to the candidate's).

    Returns False when the constraint can never be satisfied on this
    trace (caller records a conflict); the interval may then be
    half-updated and must be discarded.
    """
    if constraint is Constraint.NONE:
        return True

    gp = index.gp(assigned, trace)
    ls = index.ls(assigned, trace)
    # as a lower bound, a gapped remote LS is unsound (see module doc)
    ls_floor = 1 if index.gaps and trace != assigned.trace else ls

    if constraint in (Constraint.BEFORE, Constraint.LIMITED):
        # assigned -> candidate
        if ls_floor is None:
            return False
        interval.intersect(ls_floor, INF)
    elif constraint in (Constraint.AFTER, Constraint.LIMITED_REV):
        # candidate -> assigned
        interval.intersect(1, gp)
    elif constraint is Constraint.NOT_AFTER:
        # not (candidate -> assigned): candidate strictly past GP
        interval.intersect(gp + 1, INF)
    elif constraint is Constraint.NOT_BEFORE:
        # not (assigned -> candidate): candidate strictly before LS
        if ls is not None:
            interval.intersect(1, ls - 1)
    elif constraint is Constraint.CONCURRENT:
        if ls is None:
            interval.intersect(gp + 1, INF)
        else:
            interval.intersect(gp + 1, ls - 1)
    elif constraint is Constraint.PARTNER:
        if assigned.kind is EventKind.RECEIVE and assigned.partner is not None:
            if assigned.partner.trace != trace:
                return False
            interval.intersect(assigned.partner.index, assigned.partner.index)
        elif assigned.kind is EventKind.SEND:
            # The matching receive causally follows the send; identity
            # is checked per candidate by the matcher.
            if ls_floor is None:
                return False
            interval.intersect(ls_floor, INF)
        else:
            return False  # a unary event has no partner
    else:
        raise ValueError(f"unhandled constraint {constraint!r}")

    return not interval.empty
