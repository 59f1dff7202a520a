"""Unit tests for encoded (bounded-storage) timestamps."""

import pytest

from repro.clocks import ClockFrame, EncodedClock, VectorClock, encode_events
from repro.testing import (
    CLOCK_BACKENDS,
    Weaver,
    make_clock_bank,
    random_computation,
)


class TestBackendSelection:
    """The Weaver's two stamping modes (the runtime has only one)."""

    def test_known_backends(self):
        assert CLOCK_BACKENDS == ("fidge", "encoded")
        for backend in CLOCK_BACKENDS:
            assert Weaver(2, clock_backend=backend).clock_backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown clock backend"):
            make_clock_bank("matrix", 2)

    def test_clock_bank_fidge(self):
        clocks, frame = make_clock_bank("fidge", 3)
        assert frame is None
        assert all(isinstance(c, VectorClock) for c in clocks)
        assert all(c.components == (0, 0, 0) for c in clocks)

    def test_clock_bank_encoded_shares_one_frame(self):
        clocks, frame = make_clock_bank("encoded", 3)
        assert isinstance(frame, ClockFrame)
        assert all(c.frame is frame for c in clocks)
        assert [c.trace for c in clocks] == [0, 1, 2]
        assert all(c.components == (0, 0, 0) for c in clocks)


class TestClockFrame:
    def test_rows_are_interned(self):
        frame = ClockFrame(3)
        a = frame.intern((0, 1, 2))
        b = frame.intern((0, 1, 2))
        assert a == b
        assert frame.num_rows == 2  # zero row + one interned row

    def test_zero_epoch_is_all_zero(self):
        frame = ClockFrame(4)
        assert frame.row(0) == (0, 0, 0, 0)

    def test_zero_validates_trace(self):
        frame = ClockFrame(2)
        with pytest.raises(ValueError):
            frame.zero(-1)
        with pytest.raises(ValueError):
            frame.zero(2)

    def test_check_dominates_is_exact(self):
        frame = ClockFrame(3)
        lo = frame.intern((0, 1, 2))
        hi = frame.intern((0, 1, 3))
        incomparable = frame.intern((0, 2, 1))
        assert frame.check_dominates(lo, lo)
        assert frame.check_dominates(lo, hi)
        assert not frame.check_dominates(hi, lo)
        assert not frame.check_dominates(lo, incomparable)
        # A verified pair is cached for O(1) re-checks.
        assert (lo, hi) in frame._dominated

    def test_merge_certifies_result_dominates_parent(self):
        frame = ClockFrame(3)
        a = frame.encode((2, 1, 0), 0)
        b = frame.encode((0, 3, 4), 1)
        merged = a.merge(b)
        assert (a.epoch, merged.epoch) in frame._dominated

    def test_transcode_certifies_receive_transitions(self):
        weaver = random_computation(seed=3, num_traces=4, steps=120)
        encoded, frame = encode_events(weaver.events, 4)
        last = {}
        for event in encoded:
            prev = last.get(event.trace)
            if prev is not None and prev != event.clock.epoch:
                assert frame.check_dominates(prev, event.clock.epoch)
                assert (prev, event.clock.epoch) in frame._dominated
            last[event.trace] = event.clock.epoch

    def test_encode_roundtrips_components(self):
        frame = ClockFrame(3)
        clock = frame.encode((2, 5, 1), trace=1)
        assert clock.components == (2, 5, 1)
        assert clock.index == 5
        assert clock.knowledge == (2, 0, 1)

    def test_encode_validates(self):
        frame = ClockFrame(3)
        with pytest.raises(ValueError):
            frame.encode((1, 2), trace=0)  # wrong width
        with pytest.raises(ValueError):
            frame.encode((1, -2, 0), trace=0)  # negative component
        with pytest.raises(ValueError):
            frame.encode((1, 2, 0), trace=3)  # trace out of range


class TestTickAndMerge:
    def test_tick_is_o1_and_advances_own_component(self):
        frame = ClockFrame(3)
        clock = frame.zero(1).tick(1).tick(1)
        assert clock.components == (0, 2, 0)
        assert clock.epoch == 0  # no merge, no new rows
        assert frame.num_rows == 1

    def test_tick_rejects_foreign_trace(self):
        clock = ClockFrame(3).zero(1)
        with pytest.raises(ValueError):
            clock.tick(0)

    def test_tick_rejects_negative_trace(self):
        # The VectorClock wrap bug's encoded counterpart: a negative
        # trace must never silently alter another component.
        clock = ClockFrame(3).zero(1)
        with pytest.raises(ValueError):
            clock.tick(-1)

    def test_merge_folds_remote_knowledge(self):
        frame = ClockFrame(3)
        a = frame.zero(0).tick(0)                      # (1,0,0)
        b = frame.zero(1).merge(a.tick(0)).tick(1)     # sees (2,0,0)
        assert b.components == (2, 1, 0)

    def test_merge_with_vector_clock(self):
        frame = ClockFrame(3)
        merged = frame.zero(2).merge(VectorClock([4, 1, 0])).tick(2)
        assert merged.components == (4, 1, 1)

    def test_merge_width_mismatch(self):
        with pytest.raises(ValueError):
            ClockFrame(3).zero(0).merge(VectorClock([1, 2]))

    def test_merge_cannot_move_own_component_backwards(self):
        clock = ClockFrame(2).zero(0)  # own component 0
        with pytest.raises(ValueError):
            clock.merge(VectorClock([5, 0]))

    def test_merge_without_new_knowledge_keeps_epoch(self):
        frame = ClockFrame(2)
        a = frame.zero(0).tick(0)
        merged = a.merge(VectorClock([1, 0]))
        assert merged is a


class TestProtocolEquivalence:
    def test_indexing_width_iteration(self):
        clock = ClockFrame(3).encode((2, 5, 1), trace=1)
        assert len(clock) == 3
        assert [clock[t] for t in range(3)] == [2, 5, 1]
        assert list(clock) == [2, 5, 1]
        with pytest.raises(IndexError):
            clock[3]

    def test_equality_and_hash_match_vector_clock(self):
        frame = ClockFrame(3)
        encoded = frame.encode((2, 5, 1), trace=1)
        full = VectorClock([2, 5, 1])
        assert encoded == full
        assert full == encoded
        assert hash(encoded) == hash(full)

    def test_partial_order_against_vector_clock(self):
        frame = ClockFrame(2)
        small = frame.encode((1, 0), trace=0)
        big = VectorClock([2, 1])
        assert small <= big
        assert small < big
        assert not (small >= big)

    def test_same_epoch_fast_path_cross_trace(self):
        # Two clocks sharing one frame and epoch: the O(1) comparison
        # must agree with the componentwise definition.
        frame = ClockFrame(2)
        a = frame.zero(0).tick(0)                # (1, 0)
        b = frame.zero(1).merge(a).tick(1)       # (1, 1), new epoch
        c = b.tick(1)                            # (1, 2), same epoch as b
        assert b <= c and not (c <= b)
        assert a <= b  # cross-epoch generic path
        assert a.concurrent_with(frame.zero(1).tick(1))


class TestEncodeEvents:
    def test_transcode_preserves_everything_but_clock_repr(self):
        weaver = random_computation(seed=7, num_traces=4, steps=60)
        encoded, frame = encode_events(weaver.events, 4)
        assert len(encoded) == len(weaver.events)
        for orig, enc in zip(weaver.events, encoded):
            assert isinstance(enc.clock, EncodedClock)
            assert enc.clock.frame is frame
            assert enc.clock.components == orig.clock.components
            assert (enc.trace, enc.index, enc.etype, enc.kind,
                    enc.partner, enc.lamport) == (
                orig.trace, orig.index, orig.etype, orig.kind,
                orig.partner, orig.lamport)

    def test_transcode_validates_linearization(self):
        weaver = Weaver(2)
        weaver.local(0)
        weaver.local(0)
        with pytest.raises(ValueError, match="linearization"):
            encode_events(reversed(weaver.events), 2)

    def test_transcode_validates_trace_range(self):
        weaver = Weaver(3)
        weaver.local(2)
        with pytest.raises(ValueError, match="out of range"):
            encode_events(weaver.events, 2)

    def test_frame_reuse_across_streams(self):
        weaver = random_computation(seed=3, num_traces=3, steps=30)
        first, frame = encode_events(weaver.events, 3)
        second, frame2 = encode_events(weaver.events, 3, frame=frame)
        assert frame2 is frame
        assert [e.clock.epoch for e in first] == [e.clock.epoch for e in second]

    def test_frame_width_mismatch(self):
        with pytest.raises(ValueError):
            encode_events([], 3, frame=ClockFrame(2))


class TestNativeGeneration:
    def test_weaver_backends_weave_identical_components(self):
        full = random_computation(seed=11, num_traces=4, steps=80)
        enc = random_computation(
            seed=11, num_traces=4, steps=80, clock_backend="encoded"
        )
        assert len(full.events) == len(enc.events)
        for a, b in zip(full.events, enc.events):
            assert isinstance(b.clock, EncodedClock)
            assert a.clock.components == b.clock.components
            assert a.event_id == b.event_id

    def test_weaver_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            Weaver(2, clock_backend="matrix")
