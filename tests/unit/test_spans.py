"""Unit tests for the causal span tracer, detection-latency tracker,
and structured logger (the PR-3 observability layer)."""

import io
import json
import logging

import pytest

from repro.core.config import MatcherConfig
from repro.core.monitor import Monitor
from repro.obs import log as obs_log
from repro.obs.latency import (
    DETECTION_LATENCY_METRIC,
    DetectionLatencyTracker,
    track_detection_latency,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    MONITOR_PID,
    NULL_TRACER,
    SIM_PID,
    NullTracer,
    SpanTracer,
    to_chrome_json,
    validate_chrome_trace,
    validate_trace_events,
)
from repro.poet.client import POETClient
from repro.poet.instrument import instrument
from repro.workloads import build_message_race, message_race_pattern


def run_traced_race(traces=4, max_events=1500, seed=0):
    """One message-race case with full tracing; returns useful handles."""
    workload = build_message_race(
        num_traces=traces, seed=seed, messages_per_sender=10
    )
    tracer = SpanTracer()
    registry = MetricsRegistry()
    workload.kernel.set_tracer(tracer)
    workload.server.use_registry(registry)
    workload.server.use_tracer(tracer)
    latency = track_detection_latency(workload.kernel, registry)
    monitor = Monitor.from_source(
        message_race_pattern(),
        workload.kernel.trace_names(),
        config=MatcherConfig(search_trace_size=256),
        registry=registry,
        tracer=tracer,
        on_match=latency.observe_report,
    )
    workload.server.connect(monitor)
    workload.run(max_events=max_events)
    return tracer, registry, monitor, latency


class TestSpanTracer:
    def test_span_context_manager_pairs_begin_end(self):
        tracer = SpanTracer()
        with tracer.span("outer", track="t"):
            with tracer.span("inner", track="t"):
                pass
        events = tracer.events()
        phases = [e["ph"] for e in events if e["ph"] in ("B", "E")]
        assert phases == ["B", "B", "E", "E"]
        validate_trace_events(events)

    def test_current_span_id_tracks_innermost(self):
        tracer = SpanTracer()
        assert tracer.current_span_id is None
        with tracer.span("a"):
            first = tracer.current_span_id
            with tracer.span("b"):
                assert tracer.current_span_id != first
            assert tracer.current_span_id == first
        assert tracer.current_span_id is None

    def test_end_without_begin_raises(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            tracer.end()

    def test_sim_events_bump_colliding_timestamps(self):
        tracer = SpanTracer()
        tracer.sim_track(0, "p0")
        ts1 = tracer.sim_event(0, "A", 1.0)
        ts2 = tracer.sim_event(0, "B", 1.0)  # same simulated instant
        assert ts2 > ts1
        counts = validate_trace_events(tracer.events())
        assert counts["sim_events"] == 2

    def test_sim_event_keeps_exact_time_in_args(self):
        tracer = SpanTracer()
        tracer.sim_event(0, "A", 2.5)
        tracer.sim_event(0, "B", 2.5)
        sims = [e["args"]["sim_time"] for e in tracer.events() if e["ph"] == "X"]
        assert sims == [2.5, 2.5]

    def test_flow_start_finish_validates(self):
        tracer = SpanTracer()
        ts = tracer.sim_event(0, "Send", 1.0)
        tracer.flow_start("m1", 0, 1.0, ts=ts)
        ts2 = tracer.sim_event(1, "Receive", 2.0)
        tracer.flow_finish("m1", 1, 2.0, ts=ts2)
        counts = validate_trace_events(tracer.events())
        assert counts["flows"] == 1

    def test_flow_finish_before_start_rejected(self):
        tracer = SpanTracer()
        tracer.flow_start("m1", 0, 5.0)
        tracer.flow_finish("m1", 1, 1.0)
        with pytest.raises(ValueError, match="finishes at sim_time"):
            validate_trace_events(tracer.events())

    def test_unclosed_span_rejected(self):
        tracer = SpanTracer()
        tracer.begin("leak", track="t")
        with pytest.raises(ValueError, match="unclosed"):
            validate_trace_events(tracer.events())

    def test_wall_span_stamps_sim_time_when_clock_bound(self):
        tracer = SpanTracer(sim_clock=lambda: 42.0)
        with tracer.span("s", track="t"):
            pass
        begin = next(e for e in tracer.events() if e["ph"] == "B")
        assert begin["args"]["sim_time"] == 42.0

    def test_chrome_trace_document_shape(self):
        tracer = SpanTracer()
        with tracer.span("s"):
            pass
        document = json.loads(to_chrome_json(tracer))
        assert "traceEvents" in document
        counts = validate_chrome_trace(document)
        assert counts["spans"] == 1

    def test_tracks_get_metadata_once(self):
        tracer = SpanTracer()
        tracer.sim_track(0, "p0")
        tracer.sim_track(0, "p0")
        with tracer.span("a", track="x"):
            pass
        with tracer.span("b", track="x"):
            pass
        metadata = [e for e in tracer.events() if e["ph"] == "M"]
        # process_name for each pid + one thread_name per track
        pids = {(e["pid"], e["tid"], e["name"]) for e in metadata}
        assert len(pids) == len(metadata)

    def test_instant_on_sim_track(self):
        tracer = SpanTracer()
        tracer.instant("fault", sim_time=3.0, trace=1)
        event = tracer.events()[-1]
        assert event["pid"] == SIM_PID and event["tid"] == 1

    def test_instant_on_wall_track(self):
        tracer = SpanTracer()
        tracer.instant("mark", track="chaos")
        event = tracer.events()[-1]
        assert event["pid"] == MONITOR_PID


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        tracer.sim_track(0, "p0")
        tracer.sim_event(0, "A", 1.0)
        tracer.flow_start("k", 0, 1.0)
        tracer.flow_finish("k", 1, 2.0)
        with tracer.span("s"):
            tracer.instant("i")
        assert tracer.events() == []
        assert len(tracer) == 0
        assert not tracer.enabled
        assert tracer.current_span_id is None

    def test_shared_instance_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.chrome_trace()["traceEvents"] == []


class TestPipelineTracing:
    def test_traced_run_validates_and_has_flows(self):
        tracer, _, _, _ = run_traced_race()
        counts = validate_trace_events(tracer.events())
        assert counts["flows"] >= 1
        assert counts["sim_events"] >= 1
        assert counts["spans"] >= 1

    def test_search_spans_match_search_trace_ordinals(self):
        tracer, _, monitor, _ = run_traced_race()
        span_searches = {
            e["args"]["search"]
            for e in tracer.events()
            if e["ph"] == "B" and e["name"] == "matcher.search"
        }
        assert len(span_searches) == monitor.matcher.searches_run
        ring_searches = {r.search for r in monitor.search_trace.records()}
        assert ring_searches <= span_searches | {0}

    def test_goforward_spans_nest_inside_search(self):
        tracer, _, _, _ = run_traced_race()
        events = tracer.events()
        matcher_tid = next(
            e["tid"] for e in events
            if e["ph"] == "M" and e.get("args", {}).get("name") == "matcher"
        )
        depth = 0
        saw_nested = False
        for e in events:
            if e.get("tid") != matcher_tid or e.get("pid") != MONITOR_PID:
                continue
            if e["ph"] == "B":
                if depth > 0 and e["name"].startswith("matcher.go"):
                    saw_nested = True
                depth += 1
            elif e["ph"] == "E":
                depth -= 1
        assert saw_nested

    def test_instrument_helper_installs_tracer(self):
        from repro.simulation.kernel import Kernel

        kernel = Kernel(num_processes=2, seed=0)
        tracer = SpanTracer()
        instrument(kernel, tracer=tracer)

        def body(p):
            yield p.emit("E")

        kernel.spawn(0, body)
        kernel.spawn(1, body)
        kernel.run(max_events=10)
        counts = validate_trace_events(tracer.events())
        assert counts["sim_events"] == 2


class TestDetectionLatency:
    def test_tracker_observes_per_assignment_event(self):
        _, registry, monitor, latency = run_traced_race()
        assert latency.reports_observed == len(monitor.reports)
        per_report = [len(r.assignment) for r in monitor.reports]
        assert latency.latencies_observed == sum(per_report)
        snapshot = {
            (m.name, m.labels): m for m in registry.metrics()
        }
        total = snapshot[(DETECTION_LATENCY_METRIC, ())]
        assert total.count == latency.latencies_observed

    def test_latencies_are_nonnegative_and_bounded_by_run(self):
        clock_value = [0.0]
        tracker = DetectionLatencyTracker(clock=lambda: clock_value[0])

        class _Event:
            trace, index = 0, 1

        class _Report:
            assignment = ((0, _Event()),)

        clock_value[0] = 1.0
        tracker.observe_event(_Event())
        clock_value[0] = 5.0
        tracker.observe_report(_Report())
        assert tracker.latencies_observed == 1

    def test_unstamped_event_contributes_zero(self):
        registry = MetricsRegistry()
        tracker = DetectionLatencyTracker(clock=lambda: 9.0, registry=registry)

        class _Event:
            trace, index = 2, 7

        class _Report:
            assignment = ((1, _Event()),)

        tracker.observe_report(_Report())
        total = next(
            m for m in registry.metrics()
            if m.name == DETECTION_LATENCY_METRIC and not m.labels
        )
        assert total.count == 1
        assert total.sum == 0.0

    def test_per_leaf_series_created(self):
        _, registry, _, latency = run_traced_race()
        leaf_series = [
            m for m in registry.metrics()
            if m.name == DETECTION_LATENCY_METRIC and m.labels
        ]
        if latency.latencies_observed:
            assert leaf_series
            assert all(
                dict(m.labels).get("leaf") is not None for m in leaf_series
            )


class TestPendingStampRetention:
    """Regression: occurrence stamps were retained forever; the
    tracker now evicts oldest-first past ``max_pending``."""

    @staticmethod
    def _event(trace, index):
        return type("_Event", (), {"trace": trace, "index": index})()

    def test_retention_bounded_and_gauge_exported(self):
        registry = MetricsRegistry()
        tracker = DetectionLatencyTracker(
            clock=lambda: 1.0, registry=registry, max_pending=4
        )
        for index in range(10):
            tracker.observe_event(self._event(0, index + 1))
        assert tracker.events_stamped == 4
        assert tracker.stamps_evicted == 6
        gauge = next(
            m for m in registry.metrics()
            if m.name == "ocep_detection_pending_stamps"
        )
        assert gauge.value == 4

    def test_evicted_stamp_contributes_zero(self):
        clock_value = [1.0]
        tracker = DetectionLatencyTracker(
            clock=lambda: clock_value[0], max_pending=1
        )
        first = self._event(0, 1)
        tracker.observe_event(first)
        tracker.observe_event(self._event(0, 2))  # evicts first's stamp
        observed = []
        tracker.add_listener(observed.append)
        clock_value[0] = 9.0
        report = type("_Report", (), {"assignment": ((0, first),)})()
        tracker.observe_report(report)
        assert observed == [0.0]

    def test_unbounded_mode_still_available(self):
        tracker = DetectionLatencyTracker(clock=lambda: 0.0, max_pending=None)
        for index in range(100_000 // 500):
            tracker.observe_event(self._event(0, index + 1))
        assert tracker.stamps_evicted == 0
        assert tracker.events_stamped == 200

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            DetectionLatencyTracker(clock=lambda: 0.0, max_pending=0)

    def test_listeners_receive_every_latency(self):
        clock_value = [0.0]
        tracker = DetectionLatencyTracker(clock=lambda: clock_value[0])
        a, b = self._event(0, 1), self._event(1, 1)
        tracker.observe_event(a)
        clock_value[0] = 2.0
        tracker.observe_event(b)
        observed = []
        tracker.add_listener(observed.append)
        clock_value[0] = 5.0
        report = type(
            "_Report", (), {"assignment": ((0, a), (1, b))}
        )()
        tracker.observe_report(report)
        assert observed == [5.0, 3.0]


class TestStructuredLog:
    def test_json_lines_format(self):
        stream = io.StringIO()
        handler = obs_log.configure(stream=stream, level=logging.INFO)
        try:
            obs_log.get_logger("test.unit").info(
                "hello", extra={"detail": 42}
            )
        finally:
            obs_log.unconfigure(handler)
        record = json.loads(stream.getvalue().strip())
        assert record["msg"] == "hello"
        assert record["logger"] == "ocep.test.unit"
        assert record["level"] == "info"
        assert record["detail"] == 42

    def test_span_correlation(self):
        stream = io.StringIO()
        tracer = SpanTracer()
        handler = obs_log.configure(stream=stream, tracer=tracer)
        try:
            with tracer.span("work"):
                obs_log.get_logger("test.span").warning("inside")
            obs_log.get_logger("test.span").warning("outside")
        finally:
            obs_log.unconfigure(handler)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert "span" in lines[0]
        assert "span" not in lines[1]

    def test_unconfigured_logging_is_silent(self, capsys):
        obs_log.get_logger("test.silent").warning("should vanish")
        captured = capsys.readouterr()
        assert "should vanish" not in captured.err
        assert "should vanish" not in captured.out

    def test_delivery_failure_logged(self):
        stream = io.StringIO()
        handler = obs_log.configure(stream=stream, level=logging.WARNING)

        class _Boom(POETClient):
            def on_event(self, event):
                raise RuntimeError("boom")

        workload = build_message_race(
            num_traces=3, seed=0, messages_per_sender=2
        )
        workload.server.connect(_Boom())
        try:
            with pytest.raises(RuntimeError):
                workload.run(max_events=200)
        finally:
            obs_log.unconfigure(handler)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert any(
            line["msg"] == "client delivery failed" and line["client"] == "_Boom"
            for line in lines
        )
