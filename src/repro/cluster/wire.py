"""The cluster wire format: length-prefixed frames + binary batches.

Everything the coordinator and a worker exchange is a *frame*::

    +----------------+--------+-----------------------+
    | payload length | type   | payload               |
    | u32 big-endian | u8     | length bytes          |
    +----------------+--------+-----------------------+

(header ``struct`` format :data:`FRAME_HEADER` = ``"!IB"``).  Control
frames carry a UTF-8 JSON payload; the hot-path :data:`FrameType.EVENTS`
frame carries the binary event-batch codec below — JSON-encoding five
fields per event would dominate the transport cost of exactly the
frames that occur ~:data:`batch_size` times per worker per run.

Event-batch codec (all integers big-endian)::

    u32   count
    per event:
      u32 u32    trace, index
      u8         kind code (index into ``EventKind`` order below)
      u64        lamport
      u8         partner flag (0 or 1); if 1: u32 u32 partner trace, index
      u16 bytes  etype  (UTF-8, length-prefixed)
      u16 bytes  text   (UTF-8, length-prefixed)
      u16 u32*   clock components (count-prefixed full vector)

Events always travel as **full vector timestamps** (an
:class:`~repro.clocks.encoded.EncodedClock` is materialized via its
``components``): the frame-interning of encoded clocks is a
per-process memory-sharing optimization, so every worker re-encodes
each decoded batch through its stream pipeline's
:class:`~repro.clocks.encoded.StreamEncoder` instead of shipping frame
state across the process boundary.

The helpers at the bottom serialize the result surface —
:class:`~repro.core.matcher.MatchReport`,
:class:`~repro.core.monitor.MonitorStats`, and representative-subset
signatures — through the same ``Event.to_record`` field layout the
dump files and checkpoints use, so a report decoded at the coordinator
compares equal to the in-process run's report (event identity is
``(trace, index)``).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct
from typing import Any, List, Sequence, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.core.matcher import MatchReport
from repro.core.monitor import MonitorStats
from repro.events.event import Event, EventId, EventKind

#: Bumped on any incompatible change; HELLO/CONFIG handshakes verify it.
PROTOCOL_VERSION = 1

#: Frame header: payload length (u32) + frame type (u8), big-endian.
FRAME_HEADER = "!IB"
FRAME_HEADER_SIZE = struct.calcsize(FRAME_HEADER)

#: Refuse frames claiming more than this many payload bytes (a corrupt
#: or hostile length prefix must not trigger a multi-GiB allocation).
MAX_FRAME_PAYLOAD = 256 * 1024 * 1024


class WireFormatError(ValueError):
    """Bytes read off a socket are not a well-formed frame or batch."""


class FrameType(enum.IntEnum):
    """Frame discriminator; the protocol is strictly coordinator-driven
    except CREDIT/HEARTBEAT, which the worker volunteers."""

    HELLO = 1             #: worker -> coord: version + identity
    CONFIG = 2            #: coord -> worker: traces, shards
    READY = 3             #: worker -> coord: shards wired, obs port
    RESTORE = 4           #: coord -> worker: checkpoint to load
    EVENTS = 5            #: coord -> worker: binary event batch
    CREDIT = 6            #: worker -> coord: batch ack + counters
    HEARTBEAT = 7         #: worker -> coord: liveness + counters
    CHECKPOINT = 8        #: coord -> worker: snapshot request
    CHECKPOINT_STATE = 9  #: worker -> coord: snapshot document
    FINISH = 10           #: coord -> worker: end of stream
    RESULT = 11           #: worker -> coord: final shard outcomes
    SHUTDOWN = 12         #: coord -> worker: exit now


# ----------------------------------------------------------------------
# Frame envelope
# ----------------------------------------------------------------------


def pack_frame(ftype: FrameType, payload: bytes) -> bytes:
    """Header + payload as one ``bytes`` (one ``sendall`` per frame)."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ValueError(
            f"frame payload {len(payload)} exceeds {MAX_FRAME_PAYLOAD}"
        )
    return struct.pack(FRAME_HEADER, len(payload), int(ftype)) + payload


def unpack_header(header: bytes) -> Tuple[int, FrameType]:
    """(payload length, frame type) of a :data:`FRAME_HEADER_SIZE` read."""
    length, raw_type = struct.unpack(FRAME_HEADER, header)
    if length > MAX_FRAME_PAYLOAD:
        raise WireFormatError(f"frame payload length {length} exceeds limit")
    try:
        return length, FrameType(raw_type)
    except ValueError:
        raise WireFormatError(f"unknown frame type {raw_type}") from None


def encode_json(document: Any) -> bytes:
    """Control-frame payload: compact UTF-8 JSON."""
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def decode_json(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise WireFormatError(f"payload is not UTF-8 JSON: {exc}") from exc


# ----------------------------------------------------------------------
# Event-batch codec
# ----------------------------------------------------------------------

#: Wire order of event kinds (u8 code = index).  Append-only: the codes
#: are on the wire, so reordering is a protocol break.
_KIND_ORDER = (EventKind.SEND, EventKind.RECEIVE, EventKind.LOCAL,
               EventKind.UNARY)
_KIND_CODE = {kind: code for code, kind in enumerate(_KIND_ORDER)}

_EVENT_HEAD = struct.Struct("!IIBQB")  # ..., kind, lamport, partner flag
_PAIR = struct.Struct("!II")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")


def encode_event_batch(events: Sequence[Event]) -> bytes:
    """Binary payload of an :data:`FrameType.EVENTS` frame."""
    out = bytearray(_U32.pack(len(events)))
    for event in events:
        partner = event.partner
        out += _EVENT_HEAD.pack(
            event.trace, event.index, _KIND_CODE[event.kind], event.lamport,
            partner is not None,
        )
        if partner is not None:
            out += _PAIR.pack(partner.trace, partner.index)
        for text in (event.etype, event.text):
            raw = text.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError(f"attribute too long for wire: {len(raw)}")
            out += _U16.pack(len(raw))
            out += raw
        components = tuple(event.clock.components)
        out += _U16.pack(len(components))
        out += struct.pack(f"!{len(components)}I", *components)
    return bytes(out)


def decode_event_batch(payload: bytes, num_traces: int) -> List[Event]:
    """Rebuild the events of :func:`encode_event_batch` (full-vector
    :class:`~repro.clocks.vector_clock.VectorClock` timestamps) for a
    stream of ``num_traces`` traces.  The payload comes off a socket:
    anything but a canonical batch of that width raises
    :class:`WireFormatError` naming the offset and the field."""
    offset = 0

    def take(size: int, field: str) -> bytes:
        nonlocal offset
        if offset + size > len(payload):
            raise WireFormatError(
                f"{field} at offset {offset} needs {size} bytes, "
                f"{len(payload) - offset} left"
            )
        offset += size
        return payload[offset - size:offset]

    def text(field: str) -> str:
        (length,) = _U16.unpack(take(_U16.size, f"{field} length"))
        try:
            return take(length, field).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(
                f"{field} ending at offset {offset}: {exc}"
            ) from exc

    (count,) = _U32.unpack(take(_U32.size, "count"))
    clock_fmt = struct.Struct(f"!{num_traces}I")
    events: List[Event] = []
    for _ in range(count):
        start = offset
        try:
            trace, index, kind_code, lamport, flag = _EVENT_HEAD.unpack(
                take(_EVENT_HEAD.size, "event head")
            )
            if kind_code >= len(_KIND_ORDER) or flag > 1:
                raise ValueError(f"kind code {kind_code}, partner flag {flag}")
            partner = None
            if flag:
                partner = EventId(*_PAIR.unpack(take(_PAIR.size, "partner")))
            etype, attribute = text("etype"), text("text")
            (width,) = _U16.unpack(take(_U16.size, "clock width"))
            if width != num_traces:
                raise ValueError(
                    f"clock width {width} on a {num_traces}-trace stream"
                )
            events.append(
                Event(
                    trace=trace,
                    index=index,
                    etype=etype,
                    text=attribute,
                    clock=VectorClock(
                        clock_fmt.unpack(take(clock_fmt.size, "clock"))
                    ),
                    kind=_KIND_ORDER[kind_code],
                    partner=partner,
                    lamport=lamport,
                )
            )
        except ValueError as exc:  # also index, trace or partner out of range
            raise WireFormatError(f"event at offset {start}: {exc}") from exc
    if offset != len(payload):
        raise WireFormatError(
            f"event batch has {len(payload) - offset} trailing bytes"
        )
    return events


# ----------------------------------------------------------------------
# Result-surface serialization (RESULT frame payload pieces)
# ----------------------------------------------------------------------


def report_to_record(report: MatchReport) -> dict:
    """JSON-ready record of one :class:`MatchReport` (events in the
    ``Event.to_record`` layout)."""
    return {
        "trigger_leaf": report.trigger_leaf,
        "trigger_event": report.trigger_event.to_record(),
        "assignment": [
            [leaf, event.to_record()] for leaf, event in report.assignment
        ],
        "bindings": [list(pair) for pair in report.bindings],
        "new_slots": [list(pair) for pair in report.new_slots],
        "groups": [
            [leaf, [event.to_record() for event in events]]
            for leaf, events in report.groups
        ],
    }


def report_from_record(record: dict) -> MatchReport:
    from repro.events.event import event_from_record

    return MatchReport(
        trigger_leaf=record["trigger_leaf"],
        trigger_event=event_from_record(record["trigger_event"]),
        assignment=tuple(
            (leaf, event_from_record(event_record))
            for leaf, event_record in record["assignment"]
        ),
        bindings=tuple(
            (str(k), str(v)) for k, v in record["bindings"]
        ),
        new_slots=tuple(
            (int(a), int(b)) for a, b in record["new_slots"]
        ),
        groups=tuple(
            (leaf, tuple(event_from_record(r) for r in event_records))
            for leaf, event_records in record["groups"]
        ),
    )


def stats_to_record(stats: MonitorStats) -> dict:
    return dataclasses.asdict(stats)


def stats_from_record(record: dict) -> MonitorStats:
    return MonitorStats(**record)


def signature_to_record(signature: tuple) -> list:
    """Representative-subset signatures are nested tuples of ints;
    JSON turns them into nested lists."""
    return [[list(entry) for entry in slot] for slot in signature]


def signature_from_record(record: list) -> tuple:
    return tuple(
        tuple(tuple(entry) for entry in slot) for slot in record
    )


__all__ = [
    "FRAME_HEADER",
    "FRAME_HEADER_SIZE",
    "FrameType",
    "MAX_FRAME_PAYLOAD",
    "PROTOCOL_VERSION",
    "WireFormatError",
    "decode_event_batch",
    "decode_json",
    "encode_event_batch",
    "encode_json",
    "pack_frame",
    "report_from_record",
    "report_to_record",
    "signature_from_record",
    "signature_to_record",
    "stats_from_record",
    "stats_to_record",
    "unpack_header",
]
