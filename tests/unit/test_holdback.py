"""Unit tests for the causal hold-back buffer.

Every case runs twice: as written, one arrival per ``on_event``, and in
its ``...Slices`` subclass, where each run of arrivals the case offers
between two checks is one ``on_batch`` slice.  The outcome must be the
same; a slice is handed downstream in one call.
"""

import pytest

from repro.core import MatcherConfig, OCEPMatcher
from repro.obs import MetricsRegistry
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.poet import POETClient
from repro.poet.holdback import (
    HoldbackBuffer,
    HoldbackOverflowError,
    HoldbackStallError,
)
from repro.resilience import EventUtilityScorer
from repro.testing import Weaver, random_computation

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"


def _ab_scorer(num_traces=2):
    names = [f"P{i}" for i in range(num_traces)]
    compiled = compile_pattern(PatternTree(parse_pattern(AB), names))
    return EventUtilityScorer(
        [OCEPMatcher(compiled, num_traces, MatcherConfig())]
    )


class _SeenScorer:
    """A scorer recording what the sink held at each score (the sink's
    event list is the first entry of ``log``)."""

    def __init__(self, scorer, log):
        self._scorer = scorer
        self._log = log

    def score(self, event):
        self._log.append(list(self._log[0]))
        return self._scorer.score(event)


def _stream(num_traces=3):
    w = Weaver(num_traces)
    w.local(0, "A")
    w.message(0, 1)
    w.local(1, "B")
    w.message(1, 2)
    w.local(2, "C")
    return w.events


class _Sink(POETClient):
    """A downstream stage recording every event and every slice
    handed off (an event handed on alone is no slice)."""

    def __init__(self):
        self.events = []
        self.batches = []

    def on_event(self, event):
        self.events.append(event)

    def on_batch(self, events):
        self.batches.append(list(events))
        self.events.extend(events)


class _PerEvent:
    """Offer arrivals one ``on_event`` call at a time, into a plain
    per-event callable."""

    @staticmethod
    def feed(buf, *events):
        for event in events:
            buf.on_event(event)

    @staticmethod
    def _buffer(num_traces=3, **kwargs):
        out = []
        buf = HoldbackBuffer(num_traces, out.append, **kwargs)
        return buf, out


class _Slices(_PerEvent):
    """Offer each run of arrivals as one ``on_batch`` slice, into a
    stage; a slice is at most one hand-off."""

    @staticmethod
    def feed(buf, *events):
        sink = buf._sink
        before = len(sink.batches)
        try:
            buf.on_batch(events)
        finally:
            assert len(sink.batches) - before <= 1

    @staticmethod
    def _buffer(num_traces=3, **kwargs):
        sink = _Sink()
        return HoldbackBuffer(num_traces, sink, **kwargs), sink.events


class TestInOrder(_PerEvent):
    def test_in_order_stream_passes_through(self):
        events = _stream()
        buf, out = self._buffer()
        self.feed(buf, *events)
        assert out == events
        assert buf.pending_count == 0
        assert buf.stats()["reordered"] == 0

    def test_clock_width_validated(self):
        events = _stream()
        buf, _ = self._buffer(num_traces=2)
        with pytest.raises(ValueError, match="clock width"):
            self.feed(buf, events[0])


class TestInOrderSlices(_Slices, TestInOrder):
    pass


class TestReordering(_PerEvent):
    def test_deferred_event_restores_exact_order(self):
        events = _stream()
        # Hold a send back past its own receive (its causal successor).
        send_pos = next(
            i for i, e in enumerate(events) if e.partner is not None
        ) - 1
        perturbed = list(events)
        send = perturbed.pop(send_pos)
        perturbed.insert(send_pos + 1, send)

        buf, out = self._buffer()
        self.feed(buf, *perturbed)
        assert out == events
        assert buf.pending_count == 0
        assert buf.stats()["reordered"] >= 1

    def test_arrival_order_release_among_ready(self):
        """Two concurrent events deferred together come out in the
        order they arrived, not in key order."""
        w = Weaver(2)
        a = w.local(0, "A")
        b = w.local(1, "B")
        s, r = w.message(0, 1)
        buf, out = self._buffer(num_traces=2)
        # b arrives before a; both are immediately ready.
        self.feed(buf, b, a, s, r)
        assert out == [b, a, s, r]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_streams_fully_repaired(self, seed):
        events = random_computation(seed, num_traces=3, steps=40).events
        # Defer every third event past one successor when possible is
        # fiddly by hand; instead reverse pairs, which keeps any
        # violation within the buffer's repair power only when causal —
        # so feed a worst case: completely reversed stream.
        buf, out = self._buffer()
        self.feed(buf, *reversed(events))
        leftover = buf.flush()
        assert leftover == []
        # Everything was released and in *some* valid linearization.
        from repro.poet import is_linearization

        assert len(out) == len(events)
        assert is_linearization(out, 3)


class TestReorderingSlices(_Slices, TestReordering):
    pass


def test_a_single_arrival_hands_its_releases_on_as_events():
    """``on_event`` hands what it releases on through the sink's
    ``on_event``, one call per release; only a slice goes out as
    ``on_batch``."""
    events = _stream()
    send_pos = next(i for i, e in enumerate(events) if e.partner) - 1
    perturbed = list(events)
    perturbed.insert(send_pos + 1, perturbed.pop(send_pos))
    sink = _Sink()
    buf = HoldbackBuffer(3, sink)
    for event in perturbed:
        buf.on_event(event)
    assert buf.stats()["reordered"] == 1
    assert sink.batches == []
    assert sink.events == events


class TestDuplicates(_PerEvent):
    def test_released_duplicate_suppressed(self):
        events = _stream()
        buf, out = self._buffer()
        self.feed(buf, *events, events[0])
        assert out == events
        assert buf.stats()["duplicates"] == 1

    def test_pending_duplicate_suppressed(self):
        w = Weaver(2)
        w.local(0, "A")
        s, r = w.message(0, 1)
        buf, out = self._buffer(num_traces=2)
        events = w.events
        # r held back (s not yet released), then offered again.
        self.feed(buf, events[0], r, r)
        assert buf.stats()["duplicates"] == 1
        self.feed(buf, s)
        assert out == events


class TestDuplicatesSlices(_Slices, TestDuplicates):
    pass


class TestOverflow(_PerEvent):
    def _gap_stream(self):
        """A stream whose second half can never be released (the
        bridging send is withheld)."""
        w = Weaver(2)
        a = w.local(0, "A")
        s, r = w.message(0, 1)
        b = w.local(1, "B")
        return [a, s, r, b], s

    def test_raise_policy(self):
        events, dropped = self._gap_stream()
        arriving = [e for e in events if e is not dropped]
        buf, out = self._buffer(num_traces=2, capacity=1, overflow="raise")
        # a released, r held (s missing), b would exceed capacity.
        with pytest.raises(HoldbackOverflowError):
            self.feed(buf, *arriving[:3])
        # The third arrival overflowed, and what was released before it
        # reached the sink.
        assert buf.stats()["offers"] == 3
        assert buf.pending_count == 1
        assert out == arriving[:1]

    def test_shed_policy_drops_and_counts(self):
        events, dropped = self._gap_stream()
        arriving = [e for e in events if e is not dropped]
        buf, out = self._buffer(num_traces=2, capacity=1, overflow="shed")
        self.feed(buf, *arriving[:3])  # the third is absorbed (shed)
        assert buf.stats()["shed"] == 1
        self.feed(buf, dropped)
        assert arriving[2] not in out  # genuinely lost

    def test_bad_policy_rejected(self):
        # "block" is gone: a push-style client cannot refuse an arrival.
        for policy in ("panic", "block"):
            with pytest.raises(ValueError, match="overflow"):
                HoldbackBuffer(2, lambda e: None, overflow=policy)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            HoldbackBuffer(2, lambda e: None, capacity=0)


class TestOverflowSlices(_Slices, TestOverflow):
    pass


class TestUtilityShedding(_PerEvent):
    """With a utility scorer, overflow evicts the *least useful* of
    (pending + arrival) instead of blindly dropping the arrival."""

    def test_pending_chaff_displaced_by_leaf_arrival(self):
        w = Weaver(2)
        a = w.local(0, "A")
        s, r = w.message(0, 1)  # s withheld: trace-1 tail pends
        noise = w.local(1, "Noise")
        b = w.local(1, "B")
        buf, out = self._buffer(
            num_traces=2, capacity=1, overflow="shed",
            utility_scorer=_ab_scorer(),
        )
        # r pends (s missing): capacity now full; the chaff loses to
        # everything pending.
        self.feed(buf, a, r, noise, b)
        assert buf.stats()["shed"] >= 1
        assert noise not in out and noise not in buf.flush()
        # The leaf-band arrival was retained (held, awaiting repair).
        assert b in buf.flush()

    def test_leaf_pending_survives_chaff_arrival(self):
        w = Weaver(2)
        x = w.local(0, "X")  # withheld predecessor
        b = w.local(0, "B")
        noise = w.local(0, "Noise")
        buf, out = self._buffer(
            num_traces=2, capacity=1, overflow="shed",
            utility_scorer=_ab_scorer(),
        )
        # b pends (x missing); on overflow the chaff arrival is the victim.
        self.feed(buf, b, noise)
        assert buf.stats()["shed"] == 1
        self.feed(buf, x)  # repair: the held leaf event drains
        assert out == [x, b]
        assert buf.pending_count == 0

    def test_band_tie_falls_on_the_arrival(self):
        w = Weaver(2)
        x = w.local(0, "X")  # withheld
        c1 = w.local(0, "Noise")
        c2 = w.local(0, "Hum")
        buf, out = self._buffer(
            num_traces=2, capacity=1, overflow="shed",
            utility_scorer=_ab_scorer(),
        )
        # c1 pends; c2 has the same band: the newest (arrival) drops.
        self.feed(buf, c1, c2, x)
        assert out == [x, c1]
        assert c2 not in out

    def test_shed_counter_labelled_overflow(self):
        registry = MetricsRegistry()
        w = Weaver(2)
        w.local(0, "X")  # withheld (index 0 of w.events)
        b = w.local(0, "B")
        noise = w.local(0, "Noise")
        buf, _ = self._buffer(
            2, capacity=1, overflow="shed",
            utility_scorer=_ab_scorer(), registry=registry,
        )
        self.feed(buf, b, noise)
        snapshot = {(m.name, m.labels): m.value for m in registry.metrics()}
        assert snapshot[
            ("poet_holdback_shed_total", (("reason", "overflow"),))
        ] == 1

    def test_without_scorer_arrival_still_dropped(self):
        w = Weaver(2)
        x = w.local(0, "X")  # withheld
        b = w.local(0, "B")
        noise = w.local(0, "Noise")
        buf, out = self._buffer(num_traces=2, capacity=1, overflow="shed")
        # legacy policy: the noise arrival is absorbed
        self.feed(buf, b, noise, x)
        assert out == [x, b]

    def test_releases_reach_the_sink_before_a_victim_is_scored(self):
        """The scorer reads live matcher state, so everything released
        before an overflow must be downstream when it scores: the sink
        has seen the same events at each score on both paths."""
        w = Weaver(2)
        a = w.local(0, "A")
        x = w.local(1, "X")  # withheld
        b = w.local(1, "B")
        a2 = w.local(0, "A")
        noise = w.local(1, "Noise")
        seen_at_score = []
        buf, out = self._buffer(
            num_traces=2, capacity=1, overflow="shed",
            utility_scorer=_SeenScorer(_ab_scorer(), seen_at_score),
        )
        seen_at_score.append(out)
        # a released; b pends (x missing); a2 released; noise overflows.
        self.feed(buf, a, b, a2, noise)
        assert seen_at_score[1:] == [[a, a2], [a, a2]]
        self.feed(buf, x)
        assert out == [a, a2, x, b]


class TestUtilitySheddingSlices(_Slices, TestUtilityShedding):
    pass


class TestStalls(_PerEvent):
    def _stalled_buffer(self, watermark=3, **kwargs):
        w = Weaver(2)
        a = w.local(0, "A")
        s, r = w.message(0, 1)
        fillers = [w.local(0, "F") for _ in range(watermark + 1)]
        buf, out = self._buffer(
            num_traces=2, stall_watermark=watermark, **kwargs
        )
        self.feed(buf, a, r)  # s never arrives: permanent hole
        return buf, out, s, fillers

    def test_stall_detected_after_watermark(self):
        buf, _, s, fillers = self._stalled_buffer()
        assert not buf.stalled
        self.feed(buf, *fillers)
        assert buf.stalled
        assert buf.stats()["stalls"] == 1
        assert s.event_id in buf.missing_predecessors()

    def test_stall_raises_when_configured(self):
        buf, _, _, fillers = self._stalled_buffer(raise_on_stall=True)
        with pytest.raises(HoldbackStallError):
            self.feed(buf, *fillers)

    def test_releases_before_a_stall_error_reach_the_sink(self):
        w = Weaver(3)
        w.local(0, "A")
        s, r = w.message(0, 1)  # s never arrives: r is held
        others = [w.local(2, "F") for _ in range(4)]  # released
        buf, out = self._buffer(
            num_traces=3, stall_watermark=3, raise_on_stall=True
        )
        # r waits through three arrivals: the stall raises on the third
        # of ``others``, the last is never offered.
        with pytest.raises(HoldbackStallError):
            self.feed(buf, w.events[0], r, *others)
        assert out == [w.events[0]] + others[:3]
        assert s.event_id in buf.missing_predecessors()

    def test_stall_clears_on_release(self):
        buf, out, s, fillers = self._stalled_buffer()
        self.feed(buf, *fillers)
        assert buf.stalled
        self.feed(buf, s)  # hole filled: r and s released
        assert not buf.stalled
        assert buf.pending_count == 0
        assert buf.missing_predecessors() == []

    def test_no_watermark_means_no_detection(self):
        w = Weaver(2)
        w.local(0, "A")
        s, r = w.message(0, 1)
        buf, _ = self._buffer(num_traces=2)
        # r pends; then duplicates of it keep arriving.
        self.feed(buf, w.events[0], r, *[r] * 100)
        assert not buf.stalled


class TestStallsSlices(_Slices, TestStalls):
    pass


class TestInstrumentation(_PerEvent):
    def test_registry_counters_mirror_stats(self):
        registry = MetricsRegistry()
        events = _stream()
        buf, _ = self._buffer(3, registry=registry)
        self.feed(buf, *events, events[0])  # one duplicate
        snapshot = {m.name: m.value for m in registry.metrics()}
        assert snapshot["poet_holdback_released_total"] == len(events)
        assert snapshot["poet_holdback_duplicates_total"] == 1
        assert snapshot["poet_holdback_pending_events"] == 0

    def test_stats_work_under_null_registry(self):
        events = _stream()
        buf, _ = self._buffer()
        self.feed(buf, *events)
        stats = buf.stats()
        assert stats["released"] == len(events)
        assert stats["offers"] == len(events)


class TestInstrumentationSlices(_Slices, TestInstrumentation):
    pass
