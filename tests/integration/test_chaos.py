"""Integration tests: fault injection, hold-back repair, quarantine,
and the deployment checker's fault and crash cells end to end."""

import pytest

from repro import Kernel, Monitor, instrument
from repro.engine import ShardedDispatcher
from repro.poet import RecordingClient
from repro.poet.holdback import HoldbackBuffer
from repro.resilience import (
    CellReport,
    Deployment,
    FaultInjector,
    FaultPlan,
    Recording,
    deployments,
    run_cell,
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
    """Fault and crash cells of the one deployment checker."""

    def test_full_matrix_on_recorded_stream(self):
        rows = [
            run_cell(Recording("race", seed, max_events=600), cell)
            for seed in range(3)
            for cell in deployments(["all"], crash=True)
        ]
        assert all(row.ok for row in rows), [r.line() for r in rows]
        assert {row.deployment for row in rows} == {
            "plain", "reorder", "delay", "duplicate", "drop", "crash",
        }
        # Faults were genuinely injected somewhere in the matrix.
        assert any(
            row.injected > 0
            and row.deployment in ("reorder", "delay", "duplicate")
            for row in rows
        )

    def test_drop_cells_detect_or_match(self):
        rows = [
            run_cell(Recording("atomicity", seed, max_events=600),
                     Deployment(fault="drop"))
            for seed in range(3)
        ]
        assert all(row.ok for row in rows), [r.line() for r in rows]
        detected = [row for row in rows if row.injected > 0]
        assert detected, "no cell injected a drop"
        assert all(row.verdict == "detected" for row in detected)
        assert all(row.verdict == "equal" for row in rows
                   if row.injected == 0)

    def test_report_serializes(self):
        import json

        recording = Recording("race", 0, max_events=600)
        row = run_cell(recording, Deployment(fault="reorder"))
        document = json.loads(json.dumps(row.to_dict()))
        assert document["events"] == len(recording.events)
        assert document["deployment"] == "reorder"
        assert document["verdict"] == "equal"

    @pytest.mark.parametrize(
        "case, cell",
        [("race", Deployment()),
         ("race", Deployment(fault="duplicate")),
         ("atomicity", Deployment(fault="drop")),
         ("race", Deployment(crash=True)),
         ("race", Deployment(shed=0.2)),
         ("race", Deployment(fault="reorder", shed=0.2)),
         ("race", Deployment(shed="burst"))],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_every_verdict_kind_serialises_to_the_same_row_keys(
        self, case, cell
    ):
        import dataclasses
        import json

        row = run_cell(Recording(case, 0, max_events=600), cell)
        assert row.ok, row.line()
        assert row.verdict in ("equal", "detected", "recall")
        document = json.loads(json.dumps(row.to_dict()))
        assert list(document) == [
            field.name for field in dataclasses.fields(CellReport)
        ]

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Recording("race", 0, max_events=0)


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
