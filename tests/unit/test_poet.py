"""Unit tests for the POET substrate: server, linearization, dump/reload."""

import gc
import json
import logging
import tracemalloc

import pytest

from repro.clocks import ClockFrame, VectorClock
from repro.events import Event, EventKind
from repro.obs import MetricsRegistry
from repro.poet import (
    CallbackClient,
    POETClient,
    POETServer,
    RecordingClient,
    dump_events,
    is_linearization,
    linearize,
    load_events,
)
from repro.poet.dumpfile import DumpFormatError
from repro.poet.server import DeliveryOrderError
from repro.testing import Weaver, random_computation


def _sample_stream():
    w = Weaver(3)
    a = w.local(0, "A")
    s1, r1 = w.message(0, 1)
    b = w.local(1, "B")
    s2, r2 = w.message(1, 2)
    c = w.local(2, "C")
    return w, w.events


class TestServer:
    def test_collect_stores_and_forwards(self):
        _, events = _sample_stream()
        server = POETServer(3, verify=True)
        recorder = RecordingClient()
        server.connect(recorder)
        for e in events:
            server.collect(e)
        assert server.num_events == len(events)
        assert recorder.events == events

    def test_late_client_misses_prefix(self):
        _, events = _sample_stream()
        server = POETServer(3)
        server.collect(events[0])
        recorder = RecordingClient()
        server.connect(recorder)
        for e in events[1:]:
            server.collect(e)
        assert len(recorder) == len(events) - 1

    def test_disconnect_stops_delivery(self):
        _, events = _sample_stream()
        server = POETServer(3)
        recorder = RecordingClient()
        server.connect(recorder)
        server.collect(events[0])
        server.disconnect(recorder)
        server.collect(events[1])
        assert len(recorder) == 1

    def test_verify_rejects_out_of_order_delivery(self):
        _, events = _sample_stream()
        server = POETServer(3, verify=True)
        receive = next(e for e in events if e.partner is not None)
        with pytest.raises(DeliveryOrderError):
            server.collect(receive)  # its send was never delivered

    def test_callback_client(self):
        _, events = _sample_stream()
        seen = []
        server = POETServer(3)
        server.connect(CallbackClient(seen.append))
        server.collect(events[0])
        assert seen == [events[0]]

    def test_verify_rejects_same_trace_gap(self):
        """Skipping an event of a trace (index jumps 0 -> 2) is caught."""
        w = Weaver(2)
        w.local(0, "A")
        second = w.local(0, "B")
        server = POETServer(2, verify=True)
        with pytest.raises(DeliveryOrderError, match="per-trace order"):
            server.collect(second)


class TestFanOutConsistency:
    """A client raising in on_event must not corrupt server accounting."""

    class _Boom(RuntimeError):
        pass

    def _exploding_client(self, fail_on):
        """A client that raises on exactly its ``fail_on``-th delivery."""
        outer = self

        class Exploding(POETClient):
            def __init__(self):
                self.seen = []
                self.offers = 0

            def on_event(self, event):
                self.offers += 1
                if self.offers == fail_on:
                    raise outer._Boom(f"client died on delivery {fail_on}")
                self.seen.append(event)

        return Exploding()

    def test_other_clients_still_receive_and_error_propagates(self, caplog):
        self._check_failure_accounting("collect", caplog)

    def test_slice_of_one_accounts_a_client_failure_alike(self, caplog):
        """``collect_batch([e])`` hands each client a slice of one where
        ``collect(e)`` hands it the event; the accounting is the same."""
        self._check_failure_accounting("collect_batch", caplog)

    def _check_failure_accounting(self, entry, caplog):
        _, events = _sample_stream()
        registry = MetricsRegistry()
        server = POETServer(3, verify=True, registry=registry)
        before = RecordingClient()
        boom = self._exploding_client(fail_on=2)
        after = RecordingClient()
        server.connect(before)
        server.connect(boom)
        server.connect(after)
        if entry == "collect":
            deliver = server.collect
        else:
            def deliver(event):
                server.collect_batch([event])

        caplog.set_level(logging.WARNING, logger="ocep.poet.server")
        deliver(events[0])
        with pytest.raises(self._Boom):
            deliver(events[1])
        failures = [r for r in caplog.records
                    if r.getMessage() == "client delivery failed"]
        assert len(failures) == 1
        assert (failures[0].events, failures[0].first, failures[0].client) == (
            1, repr(events[1].event_id), "Exploding"
        )
        # Every healthy client saw both events despite the failure.
        assert before.events == events[:2]
        assert after.events == events[:2]
        # The event was stored and counted exactly once...
        assert server.num_events == 2
        # ...successful deliveries and the failure are both accounted.
        assert server.delivery_errors == 1
        snapshot = {m.name: m.value for m in registry.metrics()}
        assert snapshot["poet_events_collected_total"] == 2
        assert snapshot["poet_deliveries_total"] == 5  # 3 + 2 successes
        assert snapshot["poet_delivery_errors_total"] == 1

    def test_verified_order_state_survives_client_failure(self):
        """After a client error the server can keep collecting in
        order: the delivered event was counted."""
        _, events = _sample_stream()
        server = POETServer(3, verify=True)
        server.connect(self._exploding_client(fail_on=1))
        with pytest.raises(self._Boom):
            server.collect(events[0])
        for e in events[1:]:
            server.collect(e)  # must not raise DeliveryOrderError
        assert server.num_events == len(events)


def _event(frame, trace, index, components):
    """A unary event stamped in ``frame`` (hand-built streams)."""
    return Event(trace=trace, index=index, etype="e", text="",
                 clock=frame.encode(components, trace), kind=EventKind.UNARY)


def _regressive_pair():
    """Two same-trace events whose second clock loses knowledge."""
    frame = ClockFrame(3)
    return _event(frame, 1, 1, (0, 1, 5)), _event(frame, 1, 2, (0, 2, 3))


class TestServerValidation:
    """The server is the source's boundary: it rejects an event whose
    trace is out of range, whose index is not the next one on its
    trace, or whose clock does not dominate its predecessor's."""

    def test_trace_count_validation(self):
        with pytest.raises(ValueError):
            POETServer(0)
        with pytest.raises(ValueError):
            POETServer(2, trace_names=["only-one"])

    def test_trace_names_validated_against_count(self):
        with pytest.raises(ValueError, match="got 3 names for 2 traces"):
            POETServer(2, trace_names=["a", "b", "c"])
        server = POETServer(2, trace_names=["leader", "follower"])
        assert server.num_events == 0

    @pytest.mark.parametrize("verify", [False, True])
    def test_out_of_range_trace_rejected(self, verify):
        event = Weaver(3).local(2)
        server = POETServer(2, verify=verify)
        with pytest.raises(ValueError, match="out of range"):
            server.collect(event)
        assert server.num_events == 0

    def test_validates_trace_range(self):
        """Events of a trace the server does not have are rejected one
        by one; the others are all accepted."""
        weaver = random_computation(seed=0, num_traces=3, steps=10)
        server = POETServer(2)
        rejected = 0
        for event in weaver.events:
            if event.trace < 2:
                server.collect(event)
                continue
            with pytest.raises(ValueError, match="out of range"):
                server.collect(event)
            rejected += 1
        assert rejected > 0
        assert server.num_events == len(weaver.events) - rejected

    @pytest.mark.parametrize("verify", [False, True])
    def test_negative_trace_rejected(self, verify):
        # ``Event`` refuses a negative trace; a corrupted object that
        # got past it must not wrap to the last trace's count.
        event = Weaver(2).local(0)
        object.__setattr__(event, "trace", -1)
        server = POETServer(2, verify=verify)
        with pytest.raises(ValueError, match="out of range"):
            server.collect(event)
        assert server.num_events == 0

    def test_validates_contiguity(self):
        w = Weaver(1)
        first = w.local(0)
        server = POETServer(1)
        server.collect(first)
        with pytest.raises(ValueError, match="expected event index 2, got 1"):
            server.collect(first)
        assert server.num_events == 1

    def test_validates_contiguous_indices(self):
        w = Weaver(1)
        first = w.local(0)
        second = w.local(0)
        server = POETServer(1)
        with pytest.raises(ValueError, match="expected event index 1, got 2"):
            server.collect(second)  # skipped index 1
        server.collect(first)
        server.collect(second)
        assert server.num_events == 2

    def test_encoded_frame_is_adopted_not_copied(self):
        weaver = random_computation(
            seed=5, num_traces=4, steps=80, clock_backend="encoded"
        )
        server = POETServer(4)
        assert server.frame is None
        server.collect_batch(weaver.events)
        assert server.frame is weaver.clock_frame

    def test_rejects_non_dominating_clock(self):
        good, bad = _regressive_pair()
        server = POETServer(3)
        server.collect(good)
        with pytest.raises(ValueError, match="does not dominate"):
            server.collect(bad)
        assert server.num_events == 1

    def test_batch_rejects_non_dominating_clock(self):
        good, bad = _regressive_pair()
        server = POETServer(3)
        recorder = RecordingClient()
        server.connect(recorder)
        with pytest.raises(ValueError, match="does not dominate"):
            server.collect_batch([good, bad])
        assert server.num_events == 1  # the valid prefix was counted
        assert recorder.events == [good]  # ... and delivered

    def test_foreign_clocks_are_interned(self):
        """Full vectors and clocks of another frame are checked on
        knowledge rows interned into the server's frame."""
        server = POETServer(3)
        server.collect(Event(trace=1, index=1, etype="a", text="",
                             clock=VectorClock((0, 1, 5))))
        with pytest.raises(ValueError, match="does not dominate"):
            server.collect(Event(trace=1, index=2, etype="b", text="",
                                 clock=VectorClock((0, 2, 3))))
        other = ClockFrame(3)
        server.collect(_event(other, 1, 2, (1, 2, 5)))
        with pytest.raises(ValueError, match="does not dominate"):
            server.collect(_event(other, 1, 3, (1, 3, 4)))
        assert server.num_events == 2

    @pytest.mark.parametrize("backend", ["fidge", "encoded"])
    def test_batch_matches_per_event(self, backend):
        weaver = random_computation(
            seed=5, num_traces=4, steps=80, clock_backend=backend
        )
        outcomes = []
        for batch in (True, False):
            server = POETServer(4, verify=True)
            recorder = RecordingClient()
            server.connect(recorder)
            if batch:
                server.collect_batch(weaver.events)
            else:
                for event in weaver.events:
                    server.collect(event)
            outcomes.append((server.num_events, recorder.events))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (len(weaver.events), weaver.events)

    @pytest.mark.parametrize("failure", ["index-gap", "trace-range",
                                         "non-dominating"])
    def test_count_exact_after_rejected_batch(self, failure):
        """A slice rejected part-way counts and delivers its valid
        prefix, whichever check rejects it."""
        # One frame a trace wider than the server: the bad trace id
        # then arrives with a clock of the adopted frame.
        frame = ClockFrame(3)
        prefix = [_event(frame, 0, 1, (1, 4, 0)),
                  _event(frame, 0, 2, (2, 4, 0)),
                  _event(frame, 0, 3, (3, 4, 0))]
        bad = {
            "index-gap": _event(frame, 0, 5, (5, 4, 0)),
            "trace-range": _event(frame, 2, 1, (3, 4, 1)),
            "non-dominating": _event(frame, 0, 4, (4, 3, 0)),
        }[failure]
        server = POETServer(2)
        recorder = RecordingClient()
        server.connect(recorder)
        with pytest.raises(ValueError):
            server.collect_batch(prefix + [bad])
        assert server.num_events == 3
        assert recorder.events == prefix


class TestRejectedSlice:
    """A slice rejected at its k-th event does what k - 1 single
    ``collect`` calls and the failing one do: events 1..k-1 are counted
    and delivered, the error is raised, the next correct event is
    accepted."""

    FRAME = ClockFrame(3)
    PREFIX = [_event(FRAME, 0, 1, (1, 0, 0)), _event(FRAME, 0, 2, (2, 0, 0)),
              _event(FRAME, 1, 1, (0, 1, 0)), _event(FRAME, 1, 2, (2, 2, 0)),
              _event(FRAME, 0, 3, (3, 0, 0))]
    NEXT = _event(FRAME, 1, 3, (2, 3, 0))
    BAD = {
        "index-gap": _event(FRAME, 1, 4, (2, 4, 0)),
        "trace-range": _event(ClockFrame(4), 3, 1, (0, 0, 0, 1)),
        "non-dominating": _event(FRAME, 1, 3, (1, 3, 0)),
        # Knows a fourth event of trace 0 that was never delivered.
        "delivery-order": _event(FRAME, 1, 3, (4, 3, 0)),
    }

    def _run(self, failure, verify, way):
        """Deliver the prefix and the bad event one of three ways: the
        whole slice, ``collect`` per event, or ``collect_batch`` of a
        slice of one per event."""
        registry = MetricsRegistry()
        server = POETServer(3, verify=verify, registry=registry)
        recorder = RecordingClient()
        server.connect(recorder)
        events = self.PREFIX + [self.BAD[failure]]
        with pytest.raises((ValueError, DeliveryOrderError)) as excinfo:
            if way == "slice":
                server.collect_batch(events)
            elif way == "collect":
                for event in events:
                    server.collect(event)
            else:
                for event in events:
                    server.collect_batch([event])
        error = (type(excinfo.value), str(excinfo.value))
        counted = server.num_events
        server.collect(self.NEXT)  # the next correct event is accepted
        metrics = {m.name: m.value for m in registry.metrics()}
        return error, counted, server.num_events, recorder.events, metrics

    @pytest.mark.parametrize("failure, verify", [
        ("index-gap", False), ("index-gap", True),
        ("trace-range", False), ("trace-range", True),
        ("non-dominating", False), ("non-dominating", True),
        ("delivery-order", True),
    ])
    def test_batch_agrees_with_per_event(self, failure, verify):
        batch = self._run(failure, verify, "slice")
        single = self._run(failure, verify, "collect")
        slices_of_one = self._run(failure, verify, "collect_batch")
        assert batch == single == slices_of_one
        error, counted, after, delivered, metrics = batch
        if failure == "delivery-order":
            assert error[0] is DeliveryOrderError
        assert counted == len(self.PREFIX)
        assert after == len(self.PREFIX) + 1
        assert delivered == self.PREFIX + [self.NEXT]
        assert metrics["poet_events_collected_total"] == after
        assert metrics["poet_deliveries_total"] == after


class _Discard(POETClient):
    def on_event(self, event):
        pass

    def on_batch(self, events):
        pass


def _bytes_held_by_poet_and_events():
    # A full collection also empties the interpreter's free lists,
    # whose parked objects would otherwise count as held.
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces([
        tracemalloc.Filter(True, "*repro/poet/*"),
        tracemalloc.Filter(True, "*repro/events/*"),
    ])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_server_state_does_not_grow_with_the_stream():
    """Collecting ten times more events leaves the server holding no
    more memory: it counts events, it does not keep them."""
    events = random_computation(
        seed=3, num_traces=4, steps=22_000, clock_backend="encoded"
    ).events
    server = POETServer(4)
    server.connect(_Discard())
    tracemalloc.start()
    try:
        for start in range(0, 2_000, 250):
            server.collect_batch(events[start:start + 250])
        held_2k = _bytes_held_by_poet_and_events()
        for start in range(2_000, 22_000, 250):
            server.collect_batch(events[start:start + 250])
        held_22k = _bytes_held_by_poet_and_events()
    finally:
        tracemalloc.stop()
    assert server.num_events == 22_000
    assert held_22k <= held_2k


class TestLinearize:
    def test_weaver_stream_is_linearization(self):
        _, events = _sample_stream()
        assert is_linearization(events, 3)

    def test_swapping_message_endpoints_is_detected(self):
        _, events = _sample_stream()
        send_pos = next(
            i for i, e in enumerate(events) if e.partner is not None
        )
        swapped = list(events)
        swapped[send_pos - 1], swapped[send_pos] = (
            swapped[send_pos],
            swapped[send_pos - 1],
        )
        assert not is_linearization(swapped, 3)

    def test_linearize_shuffled_events(self):
        _, events = _sample_stream()
        shuffled = list(reversed(events))
        ordered = linearize(shuffled)
        assert is_linearization(ordered, 3)
        assert sorted(ordered, key=id) == sorted(events, key=id)

    def test_wrong_width_rejected(self):
        _, events = _sample_stream()
        assert not is_linearization(events, 2)
        assert not is_linearization(events, 4)

    def test_same_trace_gap_rejected(self):
        """Omitting one event of a trace breaks the per-trace count."""
        w = Weaver(2)
        w.local(0, "A")
        w.local(0, "B")
        w.local(0, "C")
        gapped = [w.events[0], w.events[2]]  # B missing
        assert not is_linearization(gapped, 2)

    def test_cross_trace_premature_delivery_rejected(self):
        """A receive delivered before its send violates happens-before
        even though every per-trace sequence stays contiguous."""
        w = Weaver(2)
        s, r = w.message(0, 1)
        assert is_linearization([s, r], 2)
        assert not is_linearization([r, s], 2)

    def test_empty_stream_is_trivially_linear(self):
        assert is_linearization([], 3)


class TestDumpReload:
    def test_round_trip(self, tmp_path):
        _, events = _sample_stream()
        path = tmp_path / "trace.poet"
        written = dump_events(path, events, 3, ["P0", "P1", "P2"])
        assert written == len(events)
        loaded, num_traces, names = load_events(path)
        assert num_traces == 3
        assert names == ["P0", "P1", "P2"]
        assert len(loaded) == len(events)
        for original, restored in zip(events, loaded):
            assert original.event_id == restored.event_id
            assert original.etype == restored.etype
            assert original.clock == restored.clock
            assert original.kind == restored.kind
            assert original.partner == restored.partner
            assert original.lamport == restored.lamport

    def test_replay_builds_server(self, tmp_path):
        _, events = _sample_stream()
        path = tmp_path / "trace.poet"
        dump_events(path, events, 3, ["P0", "P1", "P2"])
        loaded, num_traces, names = load_events(path)
        server = POETServer(num_traces, names, verify=True)
        server.collect_batch(loaded)
        assert server.num_events == len(events)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.poet"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_events(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.poet"
        path.write_text("")
        with pytest.raises(ValueError):
            load_events(path)


class TestDumpFormatErrors:
    """Corrupt dumps raise DumpFormatError naming file, line, field."""

    def _dump(self, tmp_path):
        _, events = _sample_stream()
        path = tmp_path / "trace.poet"
        dump_events(path, events, 3, ["P0", "P1", "P2"])
        return path, path.read_text().splitlines()

    def test_broken_json_record_names_line(self, tmp_path):
        path, lines = self._dump(tmp_path)
        lines[2] = '{"t": 0, "i":'  # truncated JSON on line 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DumpFormatError) as excinfo:
            load_events(path)
        assert excinfo.value.line == 3
        assert "unparseable record" in str(excinfo.value)

    def test_missing_field_names_field(self, tmp_path):
        path, lines = self._dump(tmp_path)
        record = json.loads(lines[1])
        del record["c"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DumpFormatError) as excinfo:
            load_events(path)
        assert excinfo.value.line == 2
        assert excinfo.value.field == "c"

    def test_clock_width_mismatch_rejected(self, tmp_path):
        path, lines = self._dump(tmp_path)
        record = json.loads(lines[1])
        record["c"] = record["c"][:2]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DumpFormatError, match="clock width"):
            load_events(path)

    def test_mistyped_field_rejected(self, tmp_path):
        path, lines = self._dump(tmp_path)
        record = json.loads(lines[1])
        record["i"] = "not-an-int"
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DumpFormatError) as excinfo:
            load_events(path)
        assert excinfo.value.line == 2

    def test_header_name_count_mismatch_rejected(self, tmp_path):
        path, lines = self._dump(tmp_path)
        header = json.loads(lines[0])
        header["trace_names"] = ["P0", "P1"]
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DumpFormatError) as excinfo:
            load_events(path)
        assert excinfo.value.line == 1

    def test_truncated_dump_fails_order_validation(self, tmp_path):
        path, lines = self._dump(tmp_path)
        # Drop an early record: later clocks now reference a hole.
        del lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DumpFormatError, match="linearization"):
            load_events(path)

    def test_validate_order_false_allows_partial_dump(self, tmp_path):
        path, lines = self._dump(tmp_path)
        del lines[1]
        path.write_text("\n".join(lines) + "\n")
        events, num_traces, _ = load_events(path, validate_order=False)
        assert num_traces == 3
        assert not is_linearization(events, 3)

    def test_corrupted_dump_trips_verifying_server(self, tmp_path):
        """A causally broken stream fed to POETServer(verify=True)
        raises DeliveryOrderError (load with validation off to get the
        broken stream through)."""
        path, lines = self._dump(tmp_path)
        del lines[1]
        path.write_text("\n".join(lines) + "\n")
        events, num_traces, _ = load_events(path, validate_order=False)
        server = POETServer(num_traces, verify=True)
        with pytest.raises(DeliveryOrderError):
            for event in events:
                server.collect(event)
