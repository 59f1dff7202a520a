"""Unit tests for the POET substrate: server, linearization, dump/reload."""

import json

import pytest

from repro.poet import (
    CallbackClient,
    POETClient,
    POETServer,
    RecordingClient,
    dump_events,
    is_linearization,
    linearize,
    load_events,
    replay,
)
from repro.poet.dumpfile import DumpFormatError
from repro.poet.server import DeliveryOrderError
from repro.testing import Weaver


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

    def test_other_clients_still_receive_and_error_propagates(self):
        from repro.obs import MetricsRegistry

        _, events = _sample_stream()
        registry = MetricsRegistry()
        server = POETServer(3, verify=True, registry=registry)
        before = RecordingClient()
        boom = self._exploding_client(fail_on=2)
        after = RecordingClient()
        server.connect(before)
        server.connect(boom)
        server.connect(after)

        server.collect(events[0])
        with pytest.raises(self._Boom):
            server.collect(events[1])
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
        order: _delivered was advanced for the delivered event."""
        _, events = _sample_stream()
        server = POETServer(3, verify=True)
        server.connect(self._exploding_client(fail_on=1))
        with pytest.raises(self._Boom):
            server.collect(events[0])
        for e in events[1:]:
            server.collect(e)  # must not raise DeliveryOrderError
        assert server.num_events == len(events)


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
        server = replay(path, verify=True)
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
