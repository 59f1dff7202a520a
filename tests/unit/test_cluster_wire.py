"""Unit tests for the cluster wire format and shard routing policy."""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks.vector_clock import VectorClock
from repro.cluster.wire import (
    FRAME_HEADER_SIZE,
    MAX_FRAME_PAYLOAD,
    PROTOCOL_VERSION,
    FrameType,
    WireFormatError,
    decode_event_batch,
    decode_json,
    encode_event_batch,
    encode_json,
    pack_frame,
    report_from_record,
    report_to_record,
    signature_from_record,
    signature_to_record,
    stats_from_record,
    stats_to_record,
    unpack_header,
)
from repro.core.matcher import MatchReport
from repro.core.monitor import MonitorStats
from repro.engine.dispatch import shard_worker, worker_shards
from repro.events.event import Event, EventId, EventKind
from repro.testing import random_computation


def _event(trace=0, index=1, etype="A", text="", kind=EventKind.UNARY,
           partner=None, lamport=7, width=3):
    clock = [0] * width
    clock[trace] = index
    if kind is EventKind.RECEIVE and partner is not None:
        clock[partner.trace] = partner.index
    return Event(
        trace=trace,
        index=index,
        etype=etype,
        text=text,
        clock=VectorClock(clock),
        kind=kind,
        partner=partner,
        lamport=lamport,
    )


class TestFrameEnvelope:
    def test_roundtrip(self):
        frame = pack_frame(FrameType.CONFIG, b"hello")
        length, ftype = unpack_header(frame[:FRAME_HEADER_SIZE])
        assert length == 5
        assert ftype is FrameType.CONFIG
        assert frame[FRAME_HEADER_SIZE:] == b"hello"

    def test_empty_payload(self):
        frame = pack_frame(FrameType.SHUTDOWN, b"")
        length, ftype = unpack_header(frame)
        assert length == 0
        assert ftype is FrameType.SHUTDOWN

    def test_oversized_payload_refused_on_send(self):
        with pytest.raises(ValueError, match="exceeds"):
            pack_frame(FrameType.EVENTS, b"\x00" * (MAX_FRAME_PAYLOAD + 1))

    def test_corrupt_length_refused_on_receive(self):
        header = struct.pack("!IB", MAX_FRAME_PAYLOAD + 1,
                             int(FrameType.EVENTS))
        with pytest.raises(WireFormatError, match="exceeds limit"):
            unpack_header(header)

    def test_unknown_frame_type_refused(self):
        header = struct.pack("!IB", 0, 200)
        with pytest.raises(WireFormatError, match="frame type 200"):
            unpack_header(header)

    def test_json_payload_roundtrip(self):
        document = {"version": PROTOCOL_VERSION, "shards": ["a", "b"],
                    "nested": {"k": [1, 2, 3]}}
        assert decode_json(encode_json(document)) == document

    @pytest.mark.parametrize("payload", [b"\xff\xfe", b"{not json"])
    def test_undecodable_json_payload_refused(self, payload):
        with pytest.raises(WireFormatError, match="UTF-8 JSON"):
            decode_json(payload)


class TestEventBatchCodec:
    def test_roundtrip_preserves_every_field(self):
        send = _event(trace=0, index=1, etype="Send", kind=EventKind.SEND,
                      lamport=1)
        recv = _event(trace=1, index=1, etype="Receive",
                      kind=EventKind.RECEIVE, partner=EventId(0, 1),
                      lamport=2)
        local = _event(trace=2, index=1, etype="Work", text="unicode: 拍",
                       kind=EventKind.LOCAL, lamport=3)
        events = [send, recv, local]
        decoded = decode_event_batch(encode_event_batch(events), 3)
        assert len(decoded) == 3
        for original, copy in zip(events, decoded):
            assert copy.trace == original.trace
            assert copy.index == original.index
            assert copy.etype == original.etype
            assert copy.text == original.text
            assert copy.kind is original.kind
            assert copy.partner == original.partner
            assert copy.lamport == original.lamport
            assert tuple(copy.clock.components) == tuple(
                original.clock.components
            )

    def test_empty_batch(self):
        assert decode_event_batch(encode_event_batch([]), 3) == []

    def test_all_kinds_covered(self):
        for kind in EventKind:
            partner = (EventId(1, 1) if kind is EventKind.RECEIVE else None)
            event = _event(kind=kind, partner=partner)
            (decoded,) = decode_event_batch(encode_event_batch([event]), 3)
            assert decoded.kind is kind

    def test_trailing_bytes_rejected(self):
        payload = encode_event_batch([_event()]) + b"\x00"
        with pytest.raises(WireFormatError, match="trailing"):
            decode_event_batch(payload, 3)

    def test_attribute_too_long_rejected(self):
        event = _event(text="x" * 70_000)
        with pytest.raises(ValueError, match="too long"):
            encode_event_batch(event and [event])


def _canonical_or_refused(payload, num_traces=3):
    """The decoder's whole contract on bytes from a socket: events that
    re-encode to exactly ``payload``, or :class:`WireFormatError` (the
    ``None`` return) — any other exception type escapes and fails."""
    try:
        events = decode_event_batch(payload, num_traces)
    except WireFormatError:
        return None
    assert encode_event_batch(events) == payload
    return events


class TestEventBatchBoundary:
    ONE = encode_event_batch([_event(etype="Work", text="x")])
    #: Offsets inside ``ONE``: u32 count, then trace, index, kind, ...
    KIND_AT = 4 + 8
    ETYPE_AT = 4 + 18 + 2

    @pytest.mark.parametrize(
        "payload, field",
        [
            (ONE[:-3], "clock"),                          # truncated
            (struct.pack("!I", 2**32 - 1) + ONE[4:], "event head"),
            (b"", "count"),                               # empty
            (ONE[:KIND_AT] + b"\x09" + ONE[KIND_AT + 1:], "kind code 9"),
            (ONE[:ETYPE_AT] + b"\xff" + ONE[ETYPE_AT + 1:], "etype"),
            (ONE[:KIND_AT + 9] + b"\x02" + ONE[KIND_AT + 10:],
             "partner flag 2"),
        ],
    )
    def test_malformed_batch_refused_naming_the_field(self, payload, field):
        with pytest.raises(WireFormatError, match=field):
            decode_event_batch(payload, 3)

    def test_batch_of_another_width_refused(self):
        # a 3-wide clock was accepted by a 2-trace stream all the way
        # to a match report
        with pytest.raises(WireFormatError, match="clock width 3"):
            decode_event_batch(self.ONE, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        position=st.integers(0, 10_000),
        value=st.integers(0, 255),
        suffix=st.binary(min_size=1, max_size=8),
    )
    def test_decode_returns_canonical_events_or_wire_format_error(
        self, seed, position, value, suffix
    ):
        events = random_computation(
            seed, num_traces=3, steps=8, texts=("", "é拍")
        ).events
        payload = encode_event_batch(events)
        assert _canonical_or_refused(payload) == events
        for cut in range(len(payload)):
            assert _canonical_or_refused(payload[:cut]) is None
        assert _canonical_or_refused(payload + suffix) is None
        position %= len(payload)
        _canonical_or_refused(
            payload[:position] + bytes([value]) + payload[position + 1:]
        )


class TestResultSurface:
    def _report(self):
        a = _event(trace=0, index=1, etype="A", kind=EventKind.SEND,
                   lamport=1)
        b = _event(trace=1, index=1, etype="B", kind=EventKind.RECEIVE,
                   partner=EventId(0, 1), lamport=2)
        return MatchReport(
            trigger_leaf=1,
            trigger_event=b,
            assignment=((0, a), (1, b)),
            bindings=(("x", "payload"),),
            new_slots=((1, 1),),
            groups=((0, (a,)),),
        )

    def test_report_roundtrip_is_json_safe(self):
        report = self._report()
        record = json.loads(json.dumps(report_to_record(report)))
        assert report_from_record(record) == report

    def test_stats_roundtrip(self):
        stats = MonitorStats(
            events_seen=10, matches_reported=2, subset_size=3,
            history_size=4, searches_run=5, searches_truncated=0,
            forward_steps=6, candidates_scanned=7,
            empty_slice_conflicts=1, back_jumps=2,
        )
        record = json.loads(json.dumps(stats_to_record(stats)))
        assert stats_from_record(record) == stats

    def test_signature_roundtrip(self):
        signature = (((0, 0, 1), (1, 1, 1)), ((0, 0, 2),))
        record = json.loads(json.dumps(signature_to_record(signature)))
        assert signature_from_record(record) == signature


class TestShardRouting:
    def test_routing_is_stable(self):
        # The wire protocol ships shard names, not indices: both sides
        # must agree on the hash, forever.
        assert shard_worker("atomicity_violation", 4) == shard_worker(
            "atomicity_violation", 4
        )

    def test_all_workers_valid(self):
        names = [f"pattern_{i}" for i in range(50)]
        for workers in (1, 2, 3, 4, 8):
            for name in names:
                assert 0 <= shard_worker(name, workers) < workers

    def test_worker_shards_partition(self):
        names = [f"pattern_{i}" for i in range(10)]
        assignment = worker_shards(names, 3)
        assert len(assignment) == 3
        flat = [name for shard_list in assignment for name in shard_list]
        assert sorted(flat) == sorted(names)

    def test_more_workers_than_shards_leaves_empty_lists(self):
        assignment = worker_shards(["only"], 4)
        assert sum(len(shard_list) for shard_list in assignment) == 1
        assert sum(1 for shard_list in assignment if not shard_list) == 3
