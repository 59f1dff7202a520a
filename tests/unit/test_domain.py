"""Unit tests for the domain kernel (Figure 4): one table, every
constraint kind x same/remote trace, the three ``PARTNER`` cases,
emptiness, and the same rows on a gapped index."""

import pytest

from repro.core import CausalIndex
from repro.core.domain import restrict, satisfies
from repro.patterns.compile import Constraint
from repro.testing import Weaver

RELATIONS = {
    Constraint.BEFORE: lambda e, x: e.happens_before(x),
    Constraint.AFTER: lambda e, x: x.happens_before(e),
    Constraint.CONCURRENT: lambda e, x: x.concurrent_with(e),
    Constraint.NOT_AFTER: lambda e, x: not x.happens_before(e),
    Constraint.NOT_BEFORE: lambda e, x: not e.happens_before(x),
}


def indexed(events, num_traces, gapped=False):
    index = CausalIndex(num_traces, allow_gaps=gapped)
    for event in events:
        index.observe(event)
    return index


def build_scenario():
    """Trace 1 has five events; trace 0's event e sits causally between
    trace 1's positions 2 (GP) and 4 (LS)."""
    w = Weaver(2)
    w.local(1)  # pos 1
    s = w.send(1)  # pos 2 -- becomes GP(e, 1)
    e = w.recv(0, s)  # the anchor on trace 0
    w.local(1)  # pos 3: concurrent with e
    s_back = w.send(0)  # e's trace continues
    w.recv(1, s_back)  # pos 4 -- LS(e, 1)
    w.local(1)  # pos 5: after e
    return w, e, indexed(w.events, 2)


def domain(index, trace, constraint, event, enabled=True):
    """The kernel for one pair, as ``(lo, hi)`` or ``None`` (empty)."""
    lo, hi, lo_key, hi_key, _ = restrict(
        index, trace, [(0, constraint)], [event], enabled
    )
    if lo is None:
        assert lo_key == hi_key == 0  # names the pair that emptied it
        return None
    return lo, hi


class TestInterval:
    def test_empty_detection(self):
        """The pair that leaves no position is named, whether it fails
        outright or by intersection with an earlier pair's bound."""
        w, e, index = build_scenario()
        last = w.events[-1]  # trace 1, pos 5: nothing on trace 1 follows
        assert restrict(index, 1, [(3, Constraint.BEFORE)], {3: last})[:4] == (
            None, None, 3, 3
        )
        pairs = [(0, Constraint.AFTER), (1, Constraint.BEFORE)]
        lo, hi, lo_key, hi_key, _ = restrict(index, 1, pairs, [e, e])
        assert (lo, hi, lo_key, hi_key) == (None, None, 1, 1)

    def test_intersect_narrows(self):
        """Pairs intersect; each side reports the pair that bound it."""
        w, e, index = build_scenario()
        first = w.events[0]  # trace 1, pos 1
        pairs = [
            (0, Constraint.NOT_AFTER),  # [3, inf)
            (1, Constraint.BEFORE),  # [2, inf): does not bind
            (2, Constraint.NOT_BEFORE),  # [1, 3]
        ]
        assert restrict(index, 1, pairs, [e, first, e]) == (3, 3, 0, 2, True)
        assert restrict(index, 1, [], []) == (1, None, None, None, True)


class TestFigureFourRows:
    def test_before_row(self):
        """e -> e_i restricts to [LS(e, l), inf)."""
        _, e, index = build_scenario()
        assert domain(index, 1, Constraint.BEFORE, e) == (4, None)
        assert domain(index, 1, Constraint.LIMITED, e) == (4, None)

    def test_after_row(self):
        """e_i -> e restricts to (-inf, GP(e, l)]."""
        _, e, index = build_scenario()
        assert domain(index, 1, Constraint.AFTER, e) == (1, 2)
        assert domain(index, 1, Constraint.LIMITED_REV, e) == (1, 2)

    def test_concurrent_row(self):
        """e || e_i restricts to the open interval (GP, LS)."""
        _, e, index = build_scenario()
        assert domain(index, 1, Constraint.CONCURRENT, e) == (3, 3)

    def test_not_after_and_not_before(self):
        _, e, index = build_scenario()
        assert domain(index, 1, Constraint.NOT_AFTER, e) == (3, None)
        assert domain(index, 1, Constraint.NOT_BEFORE, e) == (1, 3)

    def test_before_with_no_successor_is_conflict(self):
        w = Weaver(2)
        e = w.local(0)
        w.local(1)
        index = indexed(w.events, 2)
        assert domain(index, 1, Constraint.BEFORE, e) is None
        assert domain(index, 0, Constraint.BEFORE, e) is None  # own trace

    def test_same_trace_rows(self):
        """On the event's own trace GP/LS are its neighbours."""
        w, _, index = build_scenario()
        third = w.events[3]  # trace 1, pos 3 of 5
        assert third.trace == 1 and third.index == 3
        assert domain(index, 1, Constraint.BEFORE, third) == (4, None)
        assert domain(index, 1, Constraint.AFTER, third) == (1, 2)
        assert domain(index, 1, Constraint.NOT_AFTER, third) == (3, None)
        assert domain(index, 1, Constraint.NOT_BEFORE, third) == (1, 3)
        # only the event itself is neither before nor after it
        assert domain(index, 1, Constraint.CONCURRENT, third) == (3, 3)

    def test_intervals_are_exact(self):
        """Every position inside the interval satisfies the relation and
        every position outside violates it — from every event, towards
        every trace (same and remote)."""
        w, _, index = build_scenario()
        for e in w.events:
            for trace in (0, 1):
                for constraint, holds in RELATIONS.items():
                    lo, hi, _, _, exact = restrict(
                        index, trace, [(0, constraint)], [e]
                    )
                    assert exact
                    for x in w.events:
                        if x.trace != trace or x is e:
                            continue
                        inside = lo is not None and lo <= x.index and (
                            hi is None or x.index <= hi
                        )
                        assert inside == holds(e, x), (constraint, e, x)
                        assert satisfies(constraint, e, x) == holds(e, x)

    def test_ablation_restricts_by_partner_only(self):
        """``enabled=False`` (chronological backtracking): the whole
        trace, flagged as a superset the caller must verify."""
        _, e, index = build_scenario()
        for constraint in RELATIONS:
            assert restrict(index, 1, [(0, constraint)], [e], False) == (
                1, None, None, None, False
            )


class TestPartnerRestriction:
    def test_receive_pins_exact_position(self):
        w = Weaver(2)
        s = w.send(0)
        r = w.recv(1, s)
        index = indexed(w.events, 2)
        assert domain(index, 0, Constraint.PARTNER, r) == (s.index, s.index)
        assert domain(index, 0, Constraint.PARTNER, r, enabled=False) == (
            s.index, s.index
        )

    def test_receive_on_wrong_trace_is_conflict(self):
        w = Weaver(3)
        s = w.send(0)
        r = w.recv(1, s)
        index = indexed(w.events, 3)
        assert domain(index, 2, Constraint.PARTNER, r) is None

    def test_send_bounds_receive_below_by_ls(self):
        w = Weaver(2)
        s = w.send(0)
        r = w.recv(1, s)
        w.local(1)
        index = indexed(w.events, 2)
        assert domain(index, 1, Constraint.PARTNER, s) == (r.index, None)

    def test_unary_event_has_no_partner(self):
        w = Weaver(2)
        e = w.local(0)
        index = indexed([e], 2)
        assert domain(index, 1, Constraint.PARTNER, e) is None


class TestGappedIndex:
    """The gap rule: the receive that first raised trace 1's column for
    trace 0 is shed, so the index places ``LS(a, 1)`` at the *second*
    receive — too late."""

    @pytest.fixture
    def shed(self):
        w = Weaver(2)
        a = w.local(0)  # the anchor
        w.local(1)  # pos 1: concurrent with a
        r = w.recv(1, w.send(0))  # pos 2: the true LS(a, 1) -- shed
        b = w.local(1)  # pos 3: after a
        w.recv(1, w.send(0))  # pos 4: where the gapped index puts LS
        w.local(1)  # pos 5
        delivered = [e for e in w.events if e is not r]
        index = indexed(delivered, 2, gapped=True)
        assert index.gaps == 1 and index.ls(a, 1) == 4
        return a, b, delivered, index

    def test_remote_ls_is_no_lower_bound(self, shed):
        a, b, _, index = shed
        for constraint in (Constraint.BEFORE, Constraint.LIMITED):
            lo, hi, _, _, exact = restrict(index, 1, [(0, constraint)], [a])
            assert (lo, hi, exact) == (1, None, False)  # past GP(a, 1) = 0
            assert lo <= b.index

    def test_remote_ls_stays_as_upper_bound(self, shed):
        a, _, _, index = shed
        assert restrict(index, 1, [(0, Constraint.NOT_BEFORE)], [a]) == (
            1, 3, None, 0, False
        )
        assert restrict(index, 1, [(0, Constraint.CONCURRENT)], [a]) == (
            1, 3, None, 0, False
        )

    def test_gp_and_own_trace_stay_exact(self, shed):
        a, b, _, index = shed
        assert restrict(index, 0, [(0, Constraint.AFTER)], [b]) == (
            1, 2, None, 0, True
        )
        assert restrict(index, 0, [(0, Constraint.NOT_AFTER)], [b]) == (
            3, None, 0, None, True
        )
        assert restrict(index, 1, [(0, Constraint.BEFORE)], [b]) == (
            4, None, 0, None, True
        )

    def test_send_partner_takes_the_gap_rule(self, shed):
        _, _, delivered, index = shed
        send = next(e for e in delivered if e.kind.name == "SEND")
        lo, hi, _, _, exact = restrict(index, 1, [(0, Constraint.PARTNER)], [send])
        assert (lo, hi, exact) == (1, None, False)

    def test_superset_plus_verification_is_exact(self, shed):
        """Interval membership and ``satisfies`` together decide every
        relation over the delivered events."""
        _, _, delivered, index = shed
        for e in delivered:
            for trace in (0, 1):
                for constraint, holds in RELATIONS.items():
                    lo, hi, _, _, exact = restrict(
                        index, trace, [(0, constraint)], [e]
                    )
                    for x in delivered:
                        if x.trace != trace or x is e:
                            continue
                        inside = lo is not None and lo <= x.index and (
                            hi is None or x.index <= hi
                        )
                        if exact:
                            assert inside == holds(e, x), (constraint, e, x)
                        else:
                            assert inside or not holds(e, x), (constraint, e, x)
                            assert (
                                inside and satisfies(constraint, e, x)
                            ) == holds(e, x)
