"""Unit tests for the causal hold-back buffer."""

import pytest

from repro.core import MatcherConfig, OCEPMatcher
from repro.obs import MetricsRegistry
from repro.patterns import PatternTree, compile_pattern, parse_pattern
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


def _stream(num_traces=3):
    w = Weaver(num_traces)
    w.local(0, "A")
    w.message(0, 1)
    w.local(1, "B")
    w.message(1, 2)
    w.local(2, "C")
    return w.events


def _buffer(num_traces=3, **kwargs):
    out = []
    buf = HoldbackBuffer(num_traces, out.append, **kwargs)
    return buf, out


class TestInOrder:
    def test_in_order_stream_passes_through(self):
        events = _stream()
        buf, out = _buffer()
        for e in events:
            buf.on_event(e)
        assert out == events
        assert buf.pending_count == 0
        assert buf.stats()["reordered"] == 0

    def test_clock_width_validated(self):
        events = _stream()
        buf, _ = _buffer(num_traces=2)
        with pytest.raises(ValueError, match="clock width"):
            buf.on_event(events[0])


class TestReordering:
    def test_deferred_event_restores_exact_order(self):
        events = _stream()
        # Hold a send back past its own receive (its causal successor).
        send_pos = next(
            i for i, e in enumerate(events) if e.partner is not None
        ) - 1
        perturbed = list(events)
        send = perturbed.pop(send_pos)
        perturbed.insert(send_pos + 1, send)

        buf, out = _buffer()
        for e in perturbed:
            buf.on_event(e)
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
        buf, out = _buffer(num_traces=2)
        # b arrives before a; both are immediately ready.
        buf.on_event(b)
        buf.on_event(a)
        buf.on_event(s)
        buf.on_event(r)
        assert out == [b, a, s, r]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_streams_fully_repaired(self, seed):
        events = random_computation(seed, num_traces=3, steps=40).events
        # Defer every third event past one successor when possible is
        # fiddly by hand; instead reverse pairs, which keeps any
        # violation within the buffer's repair power only when causal —
        # so feed a worst case: completely reversed stream.
        buf, out = _buffer()
        for e in reversed(events):
            buf.on_event(e)
        leftover = buf.flush()
        assert leftover == []
        # Everything was released and in *some* valid linearization.
        from repro.poet import is_linearization

        assert len(out) == len(events)
        assert is_linearization(out, 3)


class TestDuplicates:
    def test_released_duplicate_suppressed(self):
        events = _stream()
        buf, out = _buffer()
        for e in events:
            buf.on_event(e)
        buf.on_event(events[0])
        assert out == events
        assert buf.stats()["duplicates"] == 1

    def test_pending_duplicate_suppressed(self):
        w = Weaver(2)
        w.local(0, "A")
        s, r = w.message(0, 1)
        buf, out = _buffer(num_traces=2)
        events = w.events
        # r held back (s not yet released), then offered again.
        buf.on_event(events[0])
        buf.on_event(r)
        buf.on_event(r)
        assert buf.stats()["duplicates"] == 1
        buf.on_event(s)
        assert out == events


class TestOverflow:
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
        buf, _ = _buffer(num_traces=2, capacity=1, overflow="raise")
        buf.on_event(arriving[0])
        buf.on_event(arriving[1])  # r: held (s missing)
        with pytest.raises(HoldbackOverflowError):
            buf.on_event(arriving[2])  # b: would exceed capacity

    def test_shed_policy_drops_and_counts(self):
        events, dropped = self._gap_stream()
        arriving = [e for e in events if e is not dropped]
        buf, out = _buffer(num_traces=2, capacity=1, overflow="shed")
        buf.on_event(arriving[0])
        buf.on_event(arriving[1])
        buf.on_event(arriving[2])  # absorbed (shed)
        assert buf.stats()["shed"] == 1
        buf.on_event(dropped)
        assert arriving[2] not in out  # genuinely lost

    def test_bad_policy_rejected(self):
        # "block" is gone: a push-style client cannot refuse an arrival.
        for policy in ("panic", "block"):
            with pytest.raises(ValueError, match="overflow"):
                HoldbackBuffer(2, lambda e: None, overflow=policy)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            HoldbackBuffer(2, lambda e: None, capacity=0)


class TestUtilityShedding:
    """With a utility scorer, overflow evicts the *least useful* of
    (pending + arrival) instead of blindly dropping the arrival."""

    def test_pending_chaff_displaced_by_leaf_arrival(self):
        w = Weaver(2)
        a = w.local(0, "A")
        s, r = w.message(0, 1)  # s withheld: trace-1 tail pends
        noise = w.local(1, "Noise")
        b = w.local(1, "B")
        buf, out = _buffer(
            num_traces=2, capacity=1, overflow="shed",
            utility_scorer=_ab_scorer(),
        )
        buf.on_event(a)
        buf.on_event(r)  # pends (s missing): capacity now full
        buf.on_event(noise)  # chaff loses to everything pending
        buf.on_event(b)
        assert buf.stats()["shed"] >= 1
        assert noise not in out and noise not in buf.flush()
        # The leaf-band arrival was retained (held, awaiting repair).
        assert b in buf.flush()

    def test_leaf_pending_survives_chaff_arrival(self):
        w = Weaver(2)
        x = w.local(0, "X")  # withheld predecessor
        b = w.local(0, "B")
        noise = w.local(0, "Noise")
        buf, out = _buffer(
            num_traces=2, capacity=1, overflow="shed",
            utility_scorer=_ab_scorer(),
        )
        buf.on_event(b)  # pends (x missing)
        buf.on_event(noise)  # overflow: chaff arrival is the victim
        assert buf.stats()["shed"] == 1
        buf.on_event(x)  # repair: the held leaf event drains
        assert out == [x, b]
        assert buf.pending_count == 0

    def test_band_tie_falls_on_the_arrival(self):
        w = Weaver(2)
        x = w.local(0, "X")  # withheld
        c1 = w.local(0, "Noise")
        c2 = w.local(0, "Hum")
        buf, out = _buffer(
            num_traces=2, capacity=1, overflow="shed",
            utility_scorer=_ab_scorer(),
        )
        buf.on_event(c1)  # pends
        buf.on_event(c2)  # same band: newest (arrival) dropped
        buf.on_event(x)
        assert out == [x, c1]
        assert c2 not in out

    def test_shed_counter_labelled_overflow(self):
        registry = MetricsRegistry()
        w = Weaver(2)
        w.local(0, "X")  # withheld (index 0 of w.events)
        b = w.local(0, "B")
        noise = w.local(0, "Noise")
        out = []
        buf = HoldbackBuffer(
            2, out.append, capacity=1, overflow="shed",
            utility_scorer=_ab_scorer(), registry=registry,
        )
        buf.on_event(b)
        buf.on_event(noise)
        snapshot = {(m.name, m.labels): m.value for m in registry.metrics()}
        assert snapshot[
            ("poet_holdback_shed_total", (("reason", "overflow"),))
        ] == 1

    def test_without_scorer_arrival_still_dropped(self):
        w = Weaver(2)
        x = w.local(0, "X")  # withheld
        b = w.local(0, "B")
        noise = w.local(0, "Noise")
        buf, out = _buffer(num_traces=2, capacity=1, overflow="shed")
        buf.on_event(b)
        buf.on_event(noise)  # legacy policy: arrival absorbed
        buf.on_event(x)
        assert out == [x, b]


class TestStalls:
    def _stalled_buffer(self, watermark=3, **kwargs):
        w = Weaver(2)
        a = w.local(0, "A")
        s, r = w.message(0, 1)
        fillers = [w.local(0, "F") for _ in range(watermark + 1)]
        buf, out = _buffer(
            num_traces=2, stall_watermark=watermark, **kwargs
        )
        buf.on_event(a)
        buf.on_event(r)  # s never arrives: permanent hole
        return buf, out, s, fillers

    def test_stall_detected_after_watermark(self):
        buf, _, s, fillers = self._stalled_buffer()
        assert not buf.stalled
        for f in fillers:
            buf.on_event(f)
        assert buf.stalled
        assert buf.stats()["stalls"] == 1
        assert s.event_id in buf.missing_predecessors()

    def test_stall_raises_when_configured(self):
        buf, _, _, fillers = self._stalled_buffer(raise_on_stall=True)
        with pytest.raises(HoldbackStallError):
            for f in fillers:
                buf.on_event(f)

    def test_stall_clears_on_release(self):
        buf, out, s, fillers = self._stalled_buffer()
        for f in fillers:
            buf.on_event(f)
        assert buf.stalled
        buf.on_event(s)  # hole filled: r and s released
        assert not buf.stalled
        assert buf.pending_count == 0
        assert buf.missing_predecessors() == []

    def test_no_watermark_means_no_detection(self):
        w = Weaver(2)
        w.local(0, "A")
        s, r = w.message(0, 1)
        buf, _ = _buffer(num_traces=2)
        buf.on_event(w.events[0])
        buf.on_event(r)
        for _ in range(100):
            buf.on_event(r)  # duplicates keep arriving
        assert not buf.stalled


class TestInstrumentation:
    def test_registry_counters_mirror_stats(self):
        registry = MetricsRegistry()
        events = _stream()
        out = []
        buf = HoldbackBuffer(3, out.append, registry=registry)
        for e in events:
            buf.on_event(e)
        buf.on_event(events[0])  # one duplicate
        snapshot = {m.name: m.value for m in registry.metrics()}
        assert snapshot["poet_holdback_released_total"] == len(events)
        assert snapshot["poet_holdback_duplicates_total"] == 1
        assert snapshot["poet_holdback_pending_events"] == 0

    def test_stats_work_under_null_registry(self):
        events = _stream()
        buf, _ = _buffer()
        for e in events:
            buf.on_event(e)
        stats = buf.stats()
        assert stats["released"] == len(events)
        assert stats["offers"] == len(events)
