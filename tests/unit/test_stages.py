"""Unit tests for the stage-axis telemetry (``repro.obs.stages``).

Covers the :class:`StageLink` interposer (counting, batch sizes,
inclusive latency), :class:`PipelineTelemetry` series minting and
probe publication, and the pipeline integration: a run with a live
registry exposes all seven ``ocep_stage_*`` series, with the
resilience stages counting only when wired.
"""

import pytest

from repro.engine import Pipeline
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.stages import (
    STAGES,
    PipelineTelemetry,
    StageLink,
    attach_telemetry,
)
from repro.resilience.faults import FaultPlan
from repro.testing import Weaver

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"


def _ab_stream():
    w = Weaver(3)
    w.local(0, "A")
    w.message(0, 2)
    w.local(2, "B")
    w.local(1, "A")
    w.message(1, 2)
    w.local(2, "B")
    return w.events


TRACES = ["P0", "P1", "P2"]


class _Downstream:
    def __init__(self):
        self.events = []
        self.batches = []

    def on_event(self, event):
        self.events.append(event)

    def on_batch(self, events):
        self.batches.append(list(events))
        self.events.extend(events)


class TestStageLink:
    def _link(self):
        telemetry = PipelineTelemetry(MetricsRegistry())
        downstream = _Downstream()
        return telemetry, downstream, telemetry.link("dispatcher", downstream)

    def test_on_event_forwards_and_counts(self):
        telemetry, downstream, link = self._link()
        assert isinstance(link, StageLink)
        link.on_event("e1")
        link.on_event("e2")
        assert downstream.events == ["e1", "e2"]
        assert telemetry.stage_summary()["dispatcher"]["events"] == 2

    def test_on_event_goes_out_as_on_event_of_size_one(self):
        """An event is handed on as an event, not as a slice, and is
        observed as a delivery of size 1."""
        telemetry, downstream, link = self._link()
        link.on_event("e1")
        link.on_event("e2")
        assert downstream.batches == []
        assert downstream.events == ["e1", "e2"]
        batch = next(
            m for m in telemetry.registry.metrics()
            if m.name == "ocep_stage_batch_size_events"
            and dict(m.labels)["stage"] == "dispatcher"
        )
        assert (batch.count, batch.sum) == (2, 2)

    def test_on_batch_counts_events_and_batch_size(self):
        telemetry, downstream, link = self._link()
        link.on_batch(["a", "b", "c"])
        assert downstream.batches == [["a", "b", "c"]]
        assert telemetry.stage_summary()["dispatcher"]["events"] == 3
        registry = telemetry.registry
        batch = next(
            m for m in registry.metrics()
            if m.name == "ocep_stage_batch_size_events"
            and dict(m.labels)["stage"] == "dispatcher"
        )
        assert batch.count == 1
        assert batch.sum == 3

    def test_latency_histogram_observes_each_delivery(self):
        telemetry, _, link = self._link()
        link.on_event("x")
        link.on_batch(["y", "z"])
        latency = next(
            m for m in telemetry.registry.metrics()
            if m.name == "ocep_stage_latency_seconds"
            and dict(m.labels)["stage"] == "dispatcher"
        )
        # One observation per delivery (per batch, not per event).
        assert latency.count == 2
        assert latency.sum >= 0.0

    def test_unknown_stage_is_rejected(self):
        telemetry = PipelineTelemetry(MetricsRegistry())
        with pytest.raises(KeyError):
            telemetry.link("nonesuch", _Downstream())


class TestPipelineTelemetry:
    def test_all_series_minted_up_front(self):
        registry = MetricsRegistry()
        PipelineTelemetry(registry)
        names = {
            (m.name, dict(m.labels).get("stage")) for m in registry.metrics()
        }
        for stage in STAGES:
            for family in (
                "ocep_stage_events_total",
                "ocep_stage_queue_depth",
                "ocep_stage_latency_seconds",
                "ocep_stage_batch_size_events",
            ):
                assert (family, stage) in names

    def test_count_probe_is_monotone_guarded(self):
        telemetry = PipelineTelemetry(MetricsRegistry())
        value = {"n": 5}
        telemetry.set_count_probe("source", lambda: value["n"])
        telemetry.refresh()
        assert telemetry.stage_summary()["source"]["events"] == 5
        # A torn mid-update read may step backwards; the published
        # counter must not.
        value["n"] = 3
        telemetry.refresh()
        assert telemetry.stage_summary()["source"]["events"] == 5
        value["n"] = 9
        telemetry.refresh()
        assert telemetry.stage_summary()["source"]["events"] == 9

    def test_queue_probe_published_on_refresh(self):
        telemetry = PipelineTelemetry(MetricsRegistry())
        telemetry.set_queue_probe("holdback", lambda: 7)
        assert telemetry.stage_summary()["holdback"]["queue_depth"] == 0
        telemetry.refresh()
        assert telemetry.stage_summary()["holdback"]["queue_depth"] == 7

    def test_lifecycle_flags(self):
        telemetry = PipelineTelemetry(MetricsRegistry())
        assert not telemetry.started and not telemetry.finished
        telemetry.mark_started()
        assert telemetry.started and not telemetry.finished
        telemetry.mark_finished()
        assert telemetry.started and telemetry.finished

    def test_attach_telemetry_requires_live_registry(self):
        assert attach_telemetry(None) is None
        assert attach_telemetry(NULL_REGISTRY) is None
        assert isinstance(attach_telemetry(MetricsRegistry()),
                          PipelineTelemetry)


class TestPipelineIntegration:
    def test_bare_run_publishes_core_stages(self):
        registry = MetricsRegistry()
        pipeline = Pipeline.replay(_ab_stream(), TRACES, registry=registry)
        pipeline.watch("ab", AB)
        result = pipeline.run()
        summary = result.telemetry.stage_summary()
        assert set(summary) == set(STAGES)
        for stage in ("source", "poet", "dispatcher", "monitors"):
            assert summary[stage]["events"] == result.num_events, stage
        # Unwired resilience stages exist but never count.
        for stage in ("faults", "holdback", "shedder"):
            assert summary[stage]["events"] == 0, stage

    def test_resilience_stages_count_when_wired(self):
        registry = MetricsRegistry()
        pipeline = Pipeline.replay(_ab_stream(), TRACES, registry=registry)
        pipeline.with_overload_control()
        pipeline.watch("ab", AB)
        pipeline.with_faults(FaultPlan(kind="none"))
        pipeline.with_holdback()
        result = pipeline.run()
        summary = result.telemetry.stage_summary()
        for stage in STAGES:
            assert summary[stage]["events"] == result.num_events, stage

    def test_disabled_registry_keeps_links_out(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES)
        monitor = pipeline.watch("ab", AB)
        result = pipeline.run()
        assert result.telemetry is None
        assert monitor.stats().matches_reported > 0

    def test_match_output_identical_with_and_without_telemetry(self):
        """A live registry, a bound scrape server and a live span
        tracer each observe the run without changing its output."""
        events = _ab_stream()
        plain = Pipeline.replay(events, TRACES)
        plain_monitor = plain.watch("ab", AB)
        plain.run()

        tracer = SpanTracer()
        observers = {
            "registry": lambda: Pipeline.replay(
                events, TRACES, registry=MetricsRegistry()
            ),
            "server": lambda: Pipeline.replay(events, TRACES).with_server(
                port=0
            ),
            "tracer": lambda: Pipeline.replay(
                events, TRACES, tracer=tracer
            ),
        }
        for name, build in observers.items():
            observed = build()
            observed_monitor = observed.watch("ab", AB)
            result = observed.run()
            if result.obs_server is not None:
                result.obs_server.stop()
            assert observed_monitor.reports == plain_monitor.reports, name
            assert (observed_monitor.subset.signature()
                    == plain_monitor.subset.signature()), name
        assert tracer.spans_opened > 0
