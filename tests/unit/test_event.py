"""Unit tests for the primitive-event model."""

import pytest

from repro.clocks import VectorClock
from repro.events import Event, EventId, EventKind
from repro.testing import Weaver


class TestEventId:
    def test_one_based_index_enforced(self):
        with pytest.raises(ValueError):
            EventId(trace=0, index=0)

    def test_negative_trace_rejected(self):
        with pytest.raises(ValueError):
            EventId(trace=-1, index=1)

    def test_total_order_is_lexicographic(self):
        assert EventId(0, 2) < EventId(1, 1)
        assert EventId(1, 1) < EventId(1, 2)

    def test_repr(self):
        assert repr(EventId(2, 7)) == "e2.7"


class TestEventInvariants:
    def test_clock_own_component_must_equal_index(self):
        with pytest.raises(ValueError):
            Event(
                trace=0,
                index=2,
                etype="E",
                text="",
                clock=VectorClock([1, 0]),
            )

    def test_trace_must_fit_clock_width(self):
        with pytest.raises(ValueError):
            Event(trace=2, index=1, etype="E", text="", clock=VectorClock([1, 0]))

    def test_unary_event_cannot_have_partner(self):
        with pytest.raises(ValueError):
            Event(
                trace=0,
                index=1,
                etype="E",
                text="",
                clock=VectorClock([1, 0]),
                kind=EventKind.UNARY,
                partner=EventId(1, 1),
            )

    def test_identity_is_trace_and_index(self):
        w1, w2 = Weaver(2), Weaver(2)
        a = w1.local(0, "A")
        b = w2.local(0, "B")  # different type, same position
        assert a == b
        assert hash(a) == hash(b)


    def test_instances_carry_no_dict(self):
        """Every event lives in the store, the histories and the
        hold-back buffer at once: both classes stay slotted."""
        event = Weaver(2).local(0, "E")
        assert not hasattr(event, "__dict__")
        assert not hasattr(event.event_id, "__dict__")


class TestCausalityMethods:
    def test_happens_before_through_message(self):
        w = Weaver(2)
        a = w.local(0)
        send, recv = w.message(0, 1)
        b = w.local(1)
        assert a.happens_before(b)
        assert not b.happens_before(a)

    def test_concurrent_with(self):
        w = Weaver(2)
        a = w.local(0)
        b = w.local(1)
        assert a.concurrent_with(b)
        assert not a.concurrent_with(a)


class TestPartner:
    def test_send_receive_pair_matches_both_ways(self):
        w = Weaver(2)
        send, recv = w.message(0, 1)
        assert recv.is_partner_of(send)
        assert send.is_partner_of(recv)

    def test_unrelated_send_receive_do_not_match(self):
        w = Weaver(3)
        send1, recv1 = w.message(0, 1)
        send2, recv2 = w.message(2, 1)
        assert not recv1.is_partner_of(send2)
        assert not send1.is_partner_of(recv2)

    def test_two_sends_never_partner(self):
        w = Weaver(3)
        send1, _ = w.message(0, 1)
        send2, _ = w.message(2, 1)
        assert not send1.is_partner_of(send2)

    @pytest.mark.parametrize("kind_a", list(EventKind))
    @pytest.mark.parametrize("kind_b", list(EventKind))
    def test_truth_table_over_every_kind_pair(self, kind_a, kind_b):
        """Partners exactly when one is a receive naming the other, a
        send, by (trace, index) — whichever side is asked, and never
        for a receive that recorded no partner."""

        def event(trace, index, kind, partner=None):
            clock = VectorClock([index if t == trace else 0 for t in range(2)])
            return Event(trace, index, "E", "", clock, kind, partner)

        def reference(a, b):
            for recv, send in ((a, b), (b, a)):
                if recv.kind is EventKind.RECEIVE and send.kind is EventKind.SEND:
                    return recv.partner == send.event_id
            return False

        for partner in (None, EventId(1, 3), EventId(1, 4), EventId(0, 3)):
            a = event(0, 5, kind_a, partner if kind_a.is_communication else None)
            for b_partner in (None, EventId(0, 5), EventId(0, 6)):
                b = event(1, 3, kind_b, b_partner if kind_b.is_communication else None)
                assert a.is_partner_of(b) == reference(a, b)
                assert b.is_partner_of(a) == reference(b, a)
        named = event(0, 5, EventKind.RECEIVE, EventId(1, 3))
        assert named.is_partner_of(event(1, 3, EventKind.SEND))
        assert not named.is_partner_of(event(1, 4, EventKind.SEND))
        assert not event(0, 5, EventKind.RECEIVE).is_partner_of(event(1, 3, EventKind.SEND))

    def test_kind_is_communication(self):
        assert EventKind.SEND.is_communication
        assert EventKind.RECEIVE.is_communication
        assert not EventKind.UNARY.is_communication
        assert not EventKind.LOCAL.is_communication
