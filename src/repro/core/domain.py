"""Domain restriction and back-jump bounds (paper, Figures 4 and 5).

When instantiating the event ``e_i`` of a pattern position on trace
``l``, the causality relation required with an already-instantiated
event ``e`` confines ``e_i`` to a contiguous interval of positions on
``l``:

====================  ==========================================
``e || e_i``          ``(GP(e, l), LS(e, l))``      (exclusive)
``e -> e_i``          ``[LS(e, l), +inf)``
``e_i -> e``          ``(-inf, GP(e, l)]``
====================  ==========================================

:func:`restrict` intersects these intervals for every ``(constraint,
event)`` pair of a position.  It is the only place that does: the
search, the Kleene group expansion, the negation veto and bound and the
``~>`` immediacy check all call it with their own anchors and slice the
history with :meth:`~repro.core.history.LeafHistory.window`.

Two restrictions reach the domain without a row of their own.  A
precedence the pattern *implies* (``P ~> $m`` and ``$m -> D`` put ``P``
before ``D``) arrives as an ordinary ``BEFORE`` / ``AFTER`` pair: the
level program adds it (:func:`repro.patterns.plan.effective_constraint`)
and the kernel cannot tell it from a declared one.  A sim ``WITHIN``
bound is not a position interval but a Lamport-time one:
:func:`lamport_range` intersects a level's bounds and ``window`` turns
the range into positions by bisection, Lamport time being ordered along
a trace.

On a complete stream the bounds are *exact* under the Fidge/Mattern
clock convention (not merely necessary), so interval membership fully
decides the causal relation and no per-candidate re-check is needed.
The weak forms (``NOT_AFTER`` / ``NOT_BEFORE``) arising from compound
precedence have the corresponding one-sided exact intervals.  The
partner operator contributes an interval plus a per-candidate identity
filter, because partnership is not a function of timestamps alone.

The gap rule.  On a *gapped* index (a shed stream, ``index.gaps > 0``)
a remote least-successor column can have missed the receive that first
raised it, so ``LS`` may read too late or not at all — never too early.
``GP`` comes from the assigned event's own clock and stays exact.  As
an *upper* bound a late ``LS`` only widens the interval; as a *lower*
bound it would cut off true successors, so :func:`ls_floor` replaces it
by what the event's clock alone proves (a successor lies past ``GP``).
The interval is then a superset of the exact one, ``restrict`` says so
(``exact`` false) and the caller verifies each candidate with
:func:`satisfies`.  The Figure-5 bounds below take the same rule.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Sequence, Tuple

from repro.core.gpls import CausalIndex
from repro.events.event import Event, EventKind
from repro.patterns.compile import Constraint

#: ``[lo, hi]`` with ``None`` = unbounded on that side.
Bounds = Tuple[Optional[int], Optional[int]]

# An enum member look-up goes through the metaclass (~140 ns on CPython
# 3.11, against ~20 ns for a module global): the kernel runs per
# (level, trace) and per guard, so it compares against these.
_BEFORE = Constraint.BEFORE
_AFTER = Constraint.AFTER
_LIMITED = Constraint.LIMITED
_LIMITED_REV = Constraint.LIMITED_REV
_NOT_AFTER = Constraint.NOT_AFTER
_NOT_BEFORE = Constraint.NOT_BEFORE
_CONCURRENT = Constraint.CONCURRENT
_PARTNER = Constraint.PARTNER
_SEND = EventKind.SEND
_RECEIVE = EventKind.RECEIVE

_UNBOUNDED: Bounds = (None, None)


def ls_floor(index: CausalIndex, event: Event, trace: int) -> Optional[int]:
    """``LS(event, trace)`` for use as a *lower* bound: the position
    from which events on ``trace`` can follow ``event`` (``None`` = no
    successor there).  The gap rule of the module doc lives here."""
    if index.gaps and trace != event.trace:
        return index.gp(event, trace) + 1
    return index.ls(event, trace)


def restrict(
    index: CausalIndex,
    trace: int,
    pairs: Iterable[Tuple[int, Constraint]],
    events: Sequence[Event],
    enabled: bool = True,
):
    """The Figure-4 domain on ``trace`` of a position that must satisfy
    every ``(key, constraint)`` of ``pairs`` — the constraint stated as
    the relation of ``events[key]``'s position to the candidate's.

    Returns ``(lo, hi, lo_key, hi_key, exact)``: the inclusive 1-based
    position interval (``hi`` ``None`` = unbounded above), the keys of
    the pairs that set its binding lower and upper bound (``None`` = no
    pair bound that side), and whether membership decides every
    relation.  ``exact`` false means the interval is only a superset —
    the gap rule fired, or ``enabled`` is false (the chronological
    ablation: only ``PARTNER`` restricts) — and each candidate needs
    :func:`satisfies`.  When a pair leaves no position, ``lo`` is
    ``None`` and ``lo_key`` names that pair.

    One call per (position, trace), arithmetic on plain ints against
    the index's columns and the events' cached clock components: this
    is the innermost loop of the search.
    """
    lo = 1
    hi: Optional[int] = None
    lo_key: Optional[int] = None
    hi_key: Optional[int] = None
    exact = enabled
    for key, constraint in pairs:
        if not enabled and constraint is not _PARTNER:
            continue
        assigned = events[key]
        atrace = assigned.trace
        aindex = assigned.index
        nlo = 1
        nhi: Optional[int] = None
        if constraint is _PARTNER:
            if assigned.kind is _SEND:
                # The matching receive causally follows the send;
                # identity is the caller's per-candidate check.
                constraint = _BEFORE
            else:
                partner = assigned.partner
                if (
                    assigned.kind is not _RECEIVE  # unary: none
                    or partner is None
                    or partner.trace != trace
                ):
                    return None, None, key, key, exact
                nlo = nhi = partner.index
        if constraint is _BEFORE or constraint is _LIMITED:
            # assigned -> candidate: candidate at or past LS
            if atrace == trace:
                if aindex >= index._lengths[trace]:
                    return None, None, key, key, exact
                nlo = aindex + 1
            elif index.gaps:
                nlo = ls_floor(index, assigned, trace)
                exact = False
            else:
                col, positions = index.column(trace, atrace)
                pos = bisect_left(col, aindex)
                if pos == len(col):
                    return None, None, key, key, exact
                nlo = positions[pos]
        elif constraint is _AFTER or constraint is _LIMITED_REV:
            # candidate -> assigned: candidate at or before GP
            nhi = (
                aindex - 1 if atrace == trace
                else assigned.clock.components[trace]
            )
        elif constraint is _NOT_AFTER:
            # not (candidate -> assigned): candidate strictly past GP
            nlo = (
                aindex if atrace == trace
                else assigned.clock.components[trace] + 1
            )
        elif constraint is _NOT_BEFORE or constraint is _CONCURRENT:
            # not (assigned -> candidate): candidate strictly before LS;
            # concurrent: and strictly past GP
            if atrace == trace:
                if aindex < index._lengths[trace]:
                    nhi = aindex
                if constraint is _CONCURRENT:
                    nlo = aindex
            else:
                col, positions = index.column(trace, atrace)
                pos = bisect_left(col, aindex)
                if pos < len(col):
                    nhi = positions[pos] - 1
                if constraint is _CONCURRENT:
                    nlo = assigned.clock.components[trace] + 1
                if index.gaps:
                    exact = False  # a late LS leaves the top too wide
        elif constraint is not _PARTNER:
            raise ValueError(f"unhandled constraint {constraint!r}")

        if nlo > lo:
            lo = nlo
            lo_key = key
        if nhi is not None and (hi is None or nhi < hi):
            hi = nhi
            hi_key = key
        if hi is not None and lo > hi:
            return None, None, key, key, exact
    return lo, hi, lo_key, hi_key, exact


def narrow(index: CausalIndex, trace: int, pairs, witnesses, lo, hi) -> Bounds:
    """``[lo, hi]`` less the positions on ``trace`` a negation witness
    vetoes, by its ``NOT_AFTER`` (floor) or ``NOT_BEFORE`` (ceiling)
    pair; ``hi < lo`` when nothing is left."""
    nlo, nhi, _, _, _ = restrict(index, trace, pairs, witnesses)
    if nlo is None:
        return lo, lo - 1
    return max(lo, nlo), hi if nhi is None or (hi is not None and hi < nhi) else nhi


def lamport_range(
    windows: Iterable[Tuple[int, Optional[int], Optional[int]]],
    events: Sequence[Event],
) -> Optional[Tuple[int, int]]:
    """The Lamport times within every sim ``WITHIN`` bound of
    ``windows`` — ``(key, sim bound, wall bound)`` against the event at
    ``events[key]`` — as ``[max(L - n), min(L + n)]``; ``None`` when no
    pair carries a sim bound.  For the ``lamport`` argument of
    :meth:`~repro.core.history.LeafHistory.window`."""
    lo = hi = None
    for key, bound, _ in windows:
        if bound is not None:
            at = events[key].lamport
            if lo is None or at - bound > lo:
                lo = at - bound
            if hi is None or at + bound < hi:
                hi = at + bound
    return None if lo is None else (lo, hi)


#: What membership of an ``exact`` :func:`restrict` interval leaves
#: undecided of a candidate, so its caller checks these pairs one by one
#: even then: ``<>`` identity (against a send the interval is only the
#: send's successors) and ``~>`` immediacy (no event of the earlier
#: leaf's class in between).
UNDECIDED = (Constraint.PARTNER, Constraint.LIMITED, Constraint.LIMITED_REV)


def satisfies(constraint: Constraint, assigned: Event, candidate: Event) -> bool:
    """Direct causal verification of a pairwise constraint: what a
    caller of :func:`restrict` owes each candidate of an interval that
    is not ``exact`` (also paranoid mode)."""
    if constraint in (Constraint.BEFORE, Constraint.LIMITED):
        return assigned.happens_before(candidate)
    if constraint in (Constraint.AFTER, Constraint.LIMITED_REV):
        return candidate.happens_before(assigned)
    if constraint is Constraint.NOT_AFTER:
        return not candidate.happens_before(assigned)
    if constraint is Constraint.NOT_BEFORE:
        return not assigned.happens_before(candidate)
    if constraint is Constraint.CONCURRENT:
        return candidate.concurrent_with(assigned)
    if constraint is Constraint.PARTNER:
        return candidate.is_partner_of(assigned)
    return True


# ----------------------------------------------------------------------
# Figure 5: where a different choice at a conflicting level could help
# ----------------------------------------------------------------------


def resolution_bounds(
    index: CausalIndex,
    constraint: Constraint,
    assigned: Event,
    history,
    trace: int,
) -> Bounds:
    """Figure 5 for an emptied interval: positions on ``assigned``'s
    own trace within which a replacement could satisfy ``constraint``
    against *some* event ``history`` stores on ``trace``.  The bounds
    are the hull of the per-candidate resolutions, hence sound (never
    exclude a workable replacement) while the instantiation prefix
    below the conflicting level is unchanged."""
    own = assigned.trace
    earliest = history.earliest_on(trace)
    latest = history.latest_on(trace)
    if earliest is None or latest is None:
        return _UNBOUNDED
    if constraint in (Constraint.BEFORE, Constraint.LIMITED):
        # replacement -> some candidate; easiest against the latest
        return _up_to(index.gp(latest, own))
    if constraint in (Constraint.AFTER, Constraint.LIMITED_REV):
        return (ls_floor(index, earliest, own), None)
    if constraint is Constraint.NOT_AFTER:
        return _before(index.ls(latest, own))
    if constraint is Constraint.NOT_BEFORE:
        return (index.gp(earliest, own) + 1, None)
    if constraint is Constraint.CONCURRENT:
        _, hi = _before(index.ls(latest, own))
        return (index.gp(earliest, own) + 1, hi)
    return _UNBOUNDED  # PARTNER: no timestamp form, plain jump


def admit_bounds_lower(
    index: CausalIndex, constraint: Constraint, assigned: Event, target: Event
) -> Bounds:
    """Figure 5 for an empty slice below a satisfiable interval:
    positions on ``assigned``'s trace where a replacement's lower-bound
    restriction would admit the stored event ``target``."""
    own = assigned.trace
    if constraint in (Constraint.BEFORE, Constraint.LIMITED, Constraint.PARTNER):
        # need replacement -> target
        return _up_to(index.gp(target, own))
    if constraint in (Constraint.NOT_AFTER, Constraint.CONCURRENT):
        # need not (target -> replacement)
        return _before(index.ls(target, own))
    return _UNBOUNDED


def admit_bounds_upper(
    index: CausalIndex, constraint: Constraint, assigned: Event, target: Event
) -> Bounds:
    """As :func:`admit_bounds_lower`, for the stored event above the
    interval and the replacement's upper-bound restriction."""
    own = assigned.trace
    if constraint in (Constraint.AFTER, Constraint.LIMITED_REV, Constraint.PARTNER):
        # need target -> replacement
        return (ls_floor(index, target, own), None)
    if constraint in (Constraint.NOT_BEFORE, Constraint.CONCURRENT):
        # need not (replacement -> target)
        return (index.gp(target, own) + 1, None)
    return _UNBOUNDED


def _up_to(gp: int) -> Bounds:
    """At or before a greatest predecessor (0 = none: no bound)."""
    return (None, gp) if gp > 0 else _UNBOUNDED


def _before(ls: Optional[int]) -> Bounds:
    """Strictly before a least successor (``None`` = none: no bound)."""
    return (None, ls - 1) if ls is not None else _UNBOUNDED


class Conflict:
    """A recorded ``bt`` entry: changing ``level``'s event to a position
    within :meth:`bounds` on its current trace might resolve the failure.

    A domain conflict passes ``pending`` — the arguments of
    :func:`resolution_bounds` — instead of bounds.  Conflicts are
    recorded for every emptied interval but consulted only when a
    back-jump actually fires, and the GP/LS index and the leaf
    histories are frozen for the duration of a search: resolving on
    first access gives identical bounds and skips the work entirely in
    the common never-consulted case.
    """

    __slots__ = ("level", "_bounds", "_pending")

    def __init__(
        self,
        level: int,
        bounds: Bounds = _UNBOUNDED,
        pending: Optional[tuple] = None,
    ):
        self.level = level
        self._bounds = bounds
        self._pending = pending

    def bounds(self) -> Bounds:
        if self._pending is not None:
            self._bounds = resolution_bounds(*self._pending)
            self._pending = None
        return self._bounds


def bounds_hull(conflicts: Iterable[Conflict]) -> Bounds:
    """Union hull of resolution bounds: the weakest (soundest) bound
    covering every recorded way of resolving the target level."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    first = True
    for conflict in conflicts:
        clo, chi = conflict.bounds()
        if first:
            lo, hi = clo, chi
            first = False
            continue
        if clo is None or (lo is not None and clo < lo):
            lo = clo
        if chi is None or (hi is not None and chi > hi):
            hi = chi
    return lo, hi
