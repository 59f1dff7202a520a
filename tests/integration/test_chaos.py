"""Integration tests: fault injection, hold-back repair, quarantine,
and the chaos matrix end to end."""

import pytest

from repro import Kernel, Monitor, instrument
from repro.engine import ShardedDispatcher
from repro.poet import RecordingClient
from repro.poet.holdback import HoldbackBuffer
from repro.resilience import (
    DEFAULT_PLANS,
    FaultInjector,
    FaultPlan,
    run_fault_matrix,
)

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"


def _producer_consumer(seed=0):
    kernel = Kernel(num_processes=2, seed=seed, buffer_capacity=4)
    server = instrument(kernel, verify=True)

    def producer(p):
        for i in range(10):
            yield p.emit("A", text=str(i))
            yield p.send(1, payload=i)

    def consumer(p):
        for _ in range(10):
            yield p.receive()
            yield p.emit("B")

    kernel.spawn(0, producer)
    kernel.spawn(1, consumer)
    return kernel, server


def _recorded_stream(seed=0):
    kernel, server = _producer_consumer(seed=seed)
    recorder = RecordingClient()
    server.connect(recorder)
    kernel.run()
    return recorder.events, kernel.trace_names()


class TestFaultyPipeline:
    """Kernel -> injector -> hold-back -> monitor equals the clean run."""

    @pytest.mark.parametrize(
        "plan",
        [FaultPlan.reorder(0.3), FaultPlan.delay(0.2),
         FaultPlan.duplicate(0.3)],
        ids=lambda p: p.kind,
    )
    def test_monitor_behind_holdback_matches_clean_run(self, plan):
        events, names = _recorded_stream(seed=3)
        clean = Monitor.from_source(AB, names)
        for e in events:
            clean.on_event(e)

        shielded = Monitor.from_source(AB, names)
        buffer = HoldbackBuffer(len(names), shielded.on_event)
        injector = FaultInjector(plan, buffer.on_event, seed=4)
        for e in events:
            injector.feed(e)
        injector.flush()
        assert buffer.flush() == []
        assert shielded.subset.signature() == clean.subset.signature()
        assert len(shielded.reports) == len(clean.reports)

    def test_injector_wired_as_live_server_front(self):
        """The injector can sit between the kernel's delivery and a
        verifying server's collect without breaking causal order, since
        the hold-back buffer repairs the stream in between."""
        from repro.poet import POETServer

        events, names = _recorded_stream(seed=6)
        server = POETServer(len(names), names, verify=True)
        monitor = Monitor.from_source(AB, names)
        server.connect(monitor)
        buffer = HoldbackBuffer(len(names), server.collect)
        injector = FaultInjector(
            FaultPlan.reorder(0.4), buffer.on_event, seed=1
        )
        for e in events:
            injector.feed(e)
        injector.flush()
        assert buffer.flush() == []
        assert server.num_events == len(events)
        assert monitor.reports


class TestChaosMatrix:
    def test_full_matrix_on_recorded_stream(self):
        events, names = _recorded_stream(seed=2)
        report = run_fault_matrix(
            events, AB, names, seeds=range(3), stall_watermark=8
        )
        assert report.ok, report.summary()
        kinds = {run.kind for run in report.runs}
        assert kinds == {plan.kind for plan in DEFAULT_PLANS}
        # Faults were genuinely injected somewhere in the matrix.
        assert any(
            run.injected > 0 and run.kind in ("reorder", "delay", "duplicate")
            for run in report.runs
        )

    def test_drop_cells_detect_or_match(self):
        events, names = _recorded_stream(seed=2)
        report = run_fault_matrix(
            events, AB, names,
            plans=[FaultPlan(kind="drop", probability=0.3, max_faults=1)],
            seeds=range(5), stall_watermark=4,
        )
        assert report.ok, report.summary()
        dropped_cells = [r for r in report.runs if r.injected > 0]
        assert dropped_cells, "no cell injected a drop"
        for run in dropped_cells:
            assert run.stalled or run.pending > 0

    def test_report_serializes(self):
        import json

        events, names = _recorded_stream(seed=2)
        report = run_fault_matrix(
            events, AB, names,
            plans=[FaultPlan.reorder()], seeds=[0],
        )
        document = json.loads(json.dumps(report.to_dict()))
        assert document["num_events"] == len(events)
        assert document["runs"][0]["kind"] == "reorder"

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_fault_matrix([], AB, ["P0", "P1"])


class TestQuarantine:
    def test_failing_pattern_monitor_is_isolated(self):
        events, names = _recorded_stream(seed=1)
        multi = ShardedDispatcher(names)
        multi.watch("good", AB)
        bad = multi.watch("bad", AB)

        # the shard is handed only the events its pattern names: fail
        # on the first of those past the middle of the stream
        fail_at = next(
            i for i in range(len(events) // 2, len(events))
            if events[i].etype in ("A", "B")
        )
        original = bad.matcher.on_event

        def exploding(event):
            if event is events[fail_at]:
                raise RuntimeError("matcher corrupted")
            return original(event)

        bad.matcher.on_event = exploding

        for e in events:
            multi.on_event(e)  # must not raise

        assert multi.is_quarantined("bad")
        assert not multi.is_quarantined("good")
        assert multi.quarantined_total == 1
        assert "matcher corrupted" in multi.quarantine_report()["bad"]
        # The healthy pattern saw the whole stream...
        assert multi["good"].matcher.events_processed == len(events)
        # ...the failed one froze at the failure and stayed readable.
        assert multi["bad"].matcher.events_processed == fail_at
        assert multi["bad"].stats().events_seen == fail_at

    def test_quarantined_monitor_counted_in_registry(self):
        from repro.obs import MetricsRegistry

        events, names = _recorded_stream(seed=1)
        registry = MetricsRegistry()
        multi = ShardedDispatcher(names, registry=registry)
        bad = multi.watch("bad", AB)
        bad.matcher.on_event = lambda event: (_ for _ in ()).throw(
            RuntimeError("dead on arrival")
        )
        for e in events[:3]:
            multi.on_event(e)
        snapshot = {
            m.name: m.value
            for m in registry.metrics()
            if m.kind != "histogram"
        }
        assert snapshot["ocep_multi_quarantined_total"] == 1

    def test_server_survives_when_multi_absorbs_failure(self):
        """End to end: POETServer keeps a verified stream flowing while
        the dispatcher quarantines a poisoned pattern."""
        kernel, server = _producer_consumer(seed=7)
        multi = ShardedDispatcher(kernel.trace_names())
        multi.watch("good", AB)
        bad = multi.watch("bad", AB)
        bad.matcher.on_event = lambda event: (_ for _ in ()).throw(
            RuntimeError("poisoned")
        )
        server.connect(multi)
        result = kernel.run()
        assert not result.deadlocked
        assert multi.is_quarantined("bad")
        assert multi["good"].reports
        assert server.delivery_errors == 0  # the failure never escaped
