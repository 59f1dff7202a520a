"""Unit tests for the struct-of-arrays event store."""

import pytest

from repro.clocks import EncodedClock
from repro.events import ArrayEventStore, EventId, EventStore
from repro.testing import random_computation


def _filled_store(seed=5, num_traces=4, steps=80, backend="encoded"):
    weaver = random_computation(
        seed=seed, num_traces=num_traces, steps=steps, clock_backend=backend
    )
    store = ArrayEventStore(num_traces)
    for event in weaver.events:
        store.add(event)
    return weaver, store


class TestConstruction:
    def test_trace_count_validation(self):
        with pytest.raises(ValueError):
            ArrayEventStore(0)
        with pytest.raises(ValueError):
            ArrayEventStore(2, trace_names=["only-one"])

    def test_default_trace_names(self):
        store = ArrayEventStore(2)
        assert store.trace(0).name == "trace-0"
        assert store.trace(1).name == "trace-1"


class TestAddValidation:
    def test_negative_trace_rejected(self):
        # List-indexing would silently wrap a negative trace to the
        # other end of the store; it must be a hard error instead.
        weaver, store = _filled_store()
        with pytest.raises(ValueError, match="out of range"):
            store.trace(-1)
        # EventId itself refuses construction with a negative trace,
        # so a wrapped lookup can never even be expressed.
        with pytest.raises(ValueError, match="trace must be >= 0"):
            store.get(EventId(trace=-1, index=1))

    def test_out_of_range_trace_rejected(self):
        _, store = _filled_store(num_traces=3)
        with pytest.raises(ValueError, match="out of range"):
            store.trace(3)
        with pytest.raises(ValueError, match="out of range"):
            store.get(EventId(trace=3, index=1))

    def test_add_validates_trace_range(self):
        weaver = random_computation(seed=0, num_traces=3, steps=10)
        store = ArrayEventStore(2)
        bad = next(e for e in weaver.events if e.trace == 2)
        with pytest.raises(ValueError, match="out of range"):
            store.add(bad)

    def test_add_validates_contiguity(self):
        weaver = random_computation(seed=0, num_traces=2, steps=10)
        store = ArrayEventStore(2)
        per_trace = [e for e in weaver.events if e.trace == 0]
        if len(per_trace) >= 2:
            store.add(per_trace[0])
            with pytest.raises(ValueError, match="expected event index"):
                store.add(per_trace[0])

    @staticmethod
    def _regressive_pair():
        """Two same-trace events whose second clock loses knowledge."""
        import dataclasses

        from repro.clocks import ClockFrame
        from repro.events import Event, EventKind

        frame = ClockFrame(3)
        good = Event(trace=1, index=1, etype="a", text="",
                     clock=frame.encode((0, 1, 5), 1), kind=EventKind.UNARY)
        bad = dataclasses.replace(
            good, index=2, etype="b", clock=frame.encode((0, 2, 3), 1)
        )
        return good, bad

    def test_add_rejects_non_dominating_clock(self):
        good, bad = self._regressive_pair()
        store = ArrayEventStore(3)
        store.add(good)
        with pytest.raises(ValueError, match="does not dominate"):
            store.add(bad)

    def test_add_batch_rejects_non_dominating_clock(self):
        good, bad = self._regressive_pair()
        store = ArrayEventStore(3)
        with pytest.raises(ValueError, match="does not dominate"):
            store.add_batch([good, bad])
        assert store.num_events == 1  # the valid prefix was kept

    @pytest.mark.parametrize("failure", ["index-gap", "trace-range",
                                         "non-dominating"])
    def test_count_exact_after_rejected_batch(self, failure):
        """A slice rejected part-way keeps its valid prefix, and the
        count says so — on every exit, like the reference store."""
        from repro.clocks import ClockFrame
        from repro.events import Event, EventKind

        # One frame a trace wider than the stores: the bad trace id
        # then reaches the columnar fast path (same frame) instead of
        # the scalar fallback for foreign clocks.
        frame = ClockFrame(3)

        def event(trace, index, components):
            return Event(trace=trace, index=index, etype="e", text="",
                         clock=frame.encode(components, trace),
                         kind=EventKind.UNARY)

        prefix = [event(0, 1, (1, 4, 0)), event(0, 2, (2, 4, 0)),
                  event(0, 3, (3, 4, 0))]
        bad = {
            "index-gap": event(0, 5, (5, 4, 0)),
            "trace-range": event(2, 1, (3, 4, 1)),
            "non-dominating": event(0, 4, (4, 3, 0)),
        }[failure]
        stores = [ArrayEventStore(2), EventStore(2)]
        for store in stores:
            with pytest.raises(ValueError):
                store.add_batch(prefix + [bad])
            assert store.num_events == 3
            assert store.num_events == sum(len(t) for t in store.traces())


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["fidge", "encoded"])
    def test_materialized_events_match_originals(self, backend):
        weaver, store = _filled_store(backend=backend)
        assert store.num_events == len(weaver.events)
        for orig in weaver.events:
            got = store.get(orig.event_id)
            assert isinstance(got.clock, EncodedClock)
            assert got.clock.components == orig.clock.components
            assert (got.trace, got.index, got.etype, got.text, got.kind,
                    got.partner, got.lamport) == (
                orig.trace, orig.index, orig.etype, orig.text, orig.kind,
                orig.partner, orig.lamport)

    def test_encoded_frame_is_adopted_not_copied(self):
        weaver, store = _filled_store(backend="encoded")
        assert store.frame is weaver.clock_frame

    @pytest.mark.parametrize("backend", ["fidge", "encoded"])
    def test_add_batch_matches_scalar_adds(self, backend):
        weaver, scalar = _filled_store(backend=backend)
        batched = ArrayEventStore(scalar.num_traces)
        batched.add_batch(weaver.events)
        assert batched.num_events == scalar.num_events
        for orig in weaver.events:
            a, b = scalar.get(orig.event_id), batched.get(orig.event_id)
            assert a.clock.components == b.clock.components
            assert (a.trace, a.index, a.etype, a.text, a.kind,
                    a.partner, a.lamport) == (
                b.trace, b.index, b.etype, b.text, b.kind,
                b.partner, b.lamport)

    def test_partner_resolution(self):
        weaver, store = _filled_store()
        receives = [e for e in weaver.events if e.partner is not None]
        assert receives, "schedule should contain messages"
        for event in receives:
            partner = store.partner_of(store.get(event.event_id))
            assert partner.event_id == event.partner

    def test_iteration_groups_by_trace(self):
        weaver, store = _filled_store(num_traces=3)
        seen = list(store)
        assert len(seen) == len(store) == len(weaver.events)
        assert [e.trace for e in seen] == sorted(e.trace for e in seen)


class TestTraceView:
    def test_at_is_one_based(self):
        weaver, store = _filled_store()
        view = store.trace(0)
        if len(view):
            assert view.at(1).index == 1
            with pytest.raises(IndexError):
                view.at(0)
            with pytest.raises(IndexError):
                view.at(len(view) + 1)

    def test_last_matches_object_store(self):
        weaver, store = _filled_store()
        obj = EventStore(store.num_traces)
        for event in weaver.events:
            obj.add(event)
        for t in range(store.num_traces):
            a, b = store.trace(t).last(), obj.trace(t).last()
            if b is None:
                assert a is None
            else:
                assert a.event_id == b.event_id
