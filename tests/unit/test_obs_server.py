"""Tests for the embedded scrape server (``repro.obs.server``) and the
thread-safety hardening it leans on.

The acceptance invariant lives here: a scrape taken *mid-run* over
HTTP returns parseable Prometheus text carrying per-stage series for
all seven pipeline stages, and ``/healthz`` reflects the overload
detector's state.  The concurrency suites hammer the span ring and the
detection-latency tracker from server-style reader threads while a
writer mutates them.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine import Pipeline
from repro.obs.export import to_prometheus
from repro.obs.latency import DetectionLatencyTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, ObsServer
from repro.obs.spans import SpanTracer
from repro.obs.stages import STAGES
from repro.resilience.overload import OverloadState
from repro.testing import Weaver

from tests.unit.test_export_prometheus import parse_exposition
from tests.unit.test_metric_conformance import (
    RETIRED_METRIC_NAMES,
    _full_registry,
)

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"
TRACES = ["P0", "P1", "P2"]


def _ab_stream(repeat=1):
    w = Weaver(3)
    for _ in range(repeat):
        w.local(0, "A")
        w.message(0, 2)
        w.local(2, "B")
        w.local(1, "A")
        w.message(1, 2)
        w.local(2, "B")
    return w.events


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read().decode()


class TestLazyImport:
    def test_importing_the_engine_loads_no_http_stack(self):
        """Only a pipeline with a scrape server needs ``http.server``
        (and the ``ssl``, ``http.client`` and ``email`` it pulls in):
        importing the library does not load it, and the server's names
        still resolve from :mod:`repro.obs` on first use."""
        probe = (
            "import sys, repro, repro.engine\n"
            "print(sorted(m for m in ('http.server', 'ssl')"
            " if m in sys.modules))\n"
            "from repro.obs import ObsServer, PROMETHEUS_CONTENT_TYPE\n"
            "print(ObsServer.__module__, 'http.server' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, check=True,
        )
        assert done.stdout.splitlines() == ["[]", "repro.obs.server True"]


class TestEndpoints:
    def test_metrics_roundtrip_and_content_type(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "a demo counter").inc(3)
        with ObsServer(registry) as server:
            status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        samples, types, _ = parse_exposition(body)
        values = {name: value for name, _, value in samples}
        assert values["demo_total"] == 3
        assert types["ocep_obs_requests_total"] == "counter"

    def test_snapshot_omits_retired_names(self):
        with ObsServer(_full_registry()) as server:
            _, _, body = _get(server.url + "/snapshot")
        metrics = {m["name"]: m for m in json.loads(body)["metrics"]}
        for retired, current in RETIRED_METRIC_NAMES.items():
            assert current in metrics
            assert retired not in metrics
        assert not any("alias_of" in m for m in metrics.values())

    def test_unknown_route_is_404(self):
        with ObsServer(MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_spans_limit_validation(self):
        with ObsServer(MetricsRegistry(), tracer=SpanTracer()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/spans?limit=banana")
            assert excinfo.value.code == 400
            _, _, body = _get(server.url + "/spans?limit=2")
            assert json.loads(body)["limit"] == 2

    def test_requests_counter_counts_scrapes(self):
        registry = MetricsRegistry()
        with ObsServer(registry) as server:
            for _ in range(3):
                _get(server.url + "/metrics")
        assert registry.get("ocep_obs_requests_total").value >= 3

    def test_default_health_and_readiness(self):
        with ObsServer(MetricsRegistry()) as server:
            status, _, body = _get(server.url + "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            status, _, _ = _get(server.url + "/readyz")
            assert status == 200

    def test_readyz_503_before_ready(self):
        health = {"ready": False}
        server = ObsServer(MetricsRegistry(), health=lambda: dict(health))
        with server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/readyz")
            assert excinfo.value.code == 503
            health["ready"] = True
            status, _, _ = _get(server.url + "/readyz")
            assert status == 200

    def test_stop_is_idempotent_and_restartable_state(self):
        server = ObsServer(MetricsRegistry())
        server.start()
        port = server.port
        assert server.running
        server.stop()
        server.stop()
        assert not server.running
        # The last bound port stays reportable after stop (result
        # banners read it post-run).
        assert server.port == port
        assert port > 0


class TestMidRunScrape:
    """The acceptance criterion: scrape a *running* pipeline."""

    def _run_with_midrun_scrape(self, pipeline):
        scraped = {}

        def on_match(report):
            if "metrics" not in scraped and pipeline.obs_server is not None:
                url = pipeline.obs_server.url
                scraped["metrics"] = _get(url + "/metrics")[2]
                scraped["health"] = json.loads(_get(url + "/healthz")[2])

        pipeline.watch("ab", AB, on_match=on_match)
        result = pipeline.run()
        assert scraped, "no match fired, scrape never happened"
        return result, scraped

    def test_midrun_metrics_have_all_seven_stages(self):
        pipeline = Pipeline.replay(
            _ab_stream(repeat=40), TRACES
        ).with_server(port=0)
        result, scraped = self._run_with_midrun_scrape(pipeline)
        try:
            samples, types, helps = parse_exposition(scraped["metrics"])
            stages_seen = {
                labels["stage"]
                for name, labels, _ in samples
                if name == "ocep_stage_events_total"
            }
            assert stages_seen == set(STAGES)
            assert types["ocep_stage_latency_seconds"] == "histogram"
            assert helps["ocep_stage_events_total"]
        finally:
            result.obs_server.stop()

    def test_midrun_health_reports_running(self):
        pipeline = Pipeline.replay(
            _ab_stream(repeat=40), TRACES
        ).with_server(port=0)
        result, scraped = self._run_with_midrun_scrape(pipeline)
        try:
            health = scraped["health"]
            assert health["status"] == "ok"
            assert health["ready"] is True
            assert health["running"] is True
            assert health["events"] > 0
            assert set(health["stages"]) == set(STAGES)
        finally:
            result.obs_server.stop()

    def test_post_run_health_and_server_survives_run(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES).with_server(port=0)
        pipeline.watch("ab", AB)
        result = pipeline.run()
        try:
            assert result.obs_server.running
            health = json.loads(_get(result.obs_server.url + "/healthz")[2])
            assert health["running"] is False
            assert health["finished"] is True
            assert health["events"] == result.num_events
            # End-of-run refresh already published the probes.
            assert health["stages"]["monitors"]["events"] == result.num_events
        finally:
            result.obs_server.stop()

    def test_snapshot_carries_routed_beside_offered(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES).with_server(port=0)
        pipeline.watch("ab", AB)
        result = pipeline.run()
        try:
            document = json.loads(_get(result.obs_server.url + "/snapshot")[2])
            values = {
                m["name"]: m["value"] for m in document["metrics"]
                if m.get("labels") == {"pattern": "ab"} and "value" in m
            }
            offered = values["ocep_monitor_events_total"]
            assert offered == result.num_events
            assert 0 < values["ocep_dispatch_routed_events_total"] < offered
        finally:
            result.obs_server.stop()

    def test_healthz_reflects_overload_state(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES).with_server(port=0)
        pipeline.with_overload_control()
        pipeline.watch("ab", AB)
        result = pipeline.run()
        try:
            url = result.obs_server.url
            health = json.loads(_get(url + "/healthz")[2])
            assert health["overload_state"] == "NORMAL"
            assert health["status"] == "ok"
            # Degradation is reported in the body, never as a non-200.
            pipeline.overload_detector.state = OverloadState.SHEDDING
            status, _, body = _get(url + "/healthz")
            health = json.loads(body)
            assert status == 200
            assert health["overload_state"] == "SHEDDING"
            assert health["status"] == "degraded"
        finally:
            result.obs_server.stop()

    def test_with_server_mints_registry_and_orders_watch(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES)
        assert pipeline.registry is None
        pipeline.with_server(port=0)
        assert pipeline.registry is not None and pipeline.registry.enabled
        pipeline.watch("ab", AB)
        with pytest.raises(RuntimeError):
            pipeline.with_server(port=0)
        late = Pipeline.replay(_ab_stream(), TRACES)
        late.watch("ab", AB)
        with pytest.raises(RuntimeError):
            late.with_server(port=0)


class TestEphemeralPort:
    """``port=0`` must always surface the *actual* bound port — result
    banners report it, sometimes after the server already stopped."""

    def test_port_zero_reports_bound_port(self):
        registry = MetricsRegistry()
        with ObsServer(registry, port=0) as server:
            assert server.port != 0
            assert f":{server.port}" in server.url
            status, _, _ = _get(server.url + "/healthz")
            assert status == 200

    def test_port_and_url_survive_stop(self):
        registry = MetricsRegistry()
        server = ObsServer(registry, port=0)
        server.start()
        bound = server.port
        server.stop()
        assert server.port == bound
        assert server.url.endswith(f":{bound}")

    def test_never_started_server_has_no_port(self):
        server = ObsServer(MetricsRegistry(), port=0)
        with pytest.raises(RuntimeError, match="never started"):
            _ = server.port

    def test_wildcard_bind_renders_fetchable_url(self):
        server = ObsServer(MetricsRegistry(), host="0.0.0.0", port=0)
        server.start()
        try:
            assert server.url.startswith("http://127.0.0.1:")
            status, _, _ = _get(server.url + "/readyz")
            assert status == 200
        finally:
            server.stop()


class TestSpanRingUnderServer:
    """Regression: ``/spans`` reads must not race the pipeline writer."""

    def test_concurrent_tail_reads_while_writing(self):
        tracer = SpanTracer()
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    tail = tracer.events_tail(32)
                    assert len(tail) <= 32
                    json.dumps(tail, default=repr)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for i in range(4000):
            tracer.instant(f"tick{i}", track="test")
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(tracer.events_tail(16)) == 16

    def test_spans_endpoint_serves_live_tracer(self):
        tracer = SpanTracer()
        registry = MetricsRegistry()
        pipeline = Pipeline.replay(
            _ab_stream(repeat=10), TRACES, registry=registry, tracer=tracer,
        ).with_server(port=0)
        seen = {}

        def on_match(report):
            if "spans" not in seen and pipeline.obs_server is not None:
                _, _, body = _get(pipeline.obs_server.url + "/spans?limit=64")
                seen["spans"] = json.loads(body)

        pipeline.watch("ab", AB, on_match=on_match)
        result = pipeline.run()
        try:
            assert seen["spans"]["total_recorded"] > 0
            assert 0 < len(seen["spans"]["events"]) <= 64
        finally:
            result.obs_server.stop()


class _FakeEvent:
    def __init__(self, trace, index):
        self.trace = trace
        self.index = index


class _FakeReport:
    def __init__(self, events):
        self.assignment = [(leaf, event) for leaf, event in enumerate(events)]


class TestDetectionLatencyUnderConcurrentScrapes:
    def test_listener_hooks_receive_every_latency(self):
        clock = {"now": 0.0}
        tracker = DetectionLatencyTracker(clock=lambda: clock["now"],
                                          registry=MetricsRegistry())
        observed = []
        tracker.add_listener(observed.append)
        event = _FakeEvent(0, 1)
        tracker.observe_event(event)
        clock["now"] = 2.5
        tracker.observe_report(_FakeReport([event]))
        assert observed == [2.5]
        assert tracker.latencies_observed == 1

    def test_pending_gauge_tracks_retention_and_eviction(self):
        registry = MetricsRegistry()
        tracker = DetectionLatencyTracker(clock=lambda: 0.0,
                                          registry=registry, max_pending=4)
        gauge = registry.get("ocep_detection_pending_stamps")
        for index in range(10):
            tracker.observe_event(_FakeEvent(0, index))
        assert gauge.value == 4
        assert tracker.events_stamped == 4
        assert tracker.stamps_evicted == 6

    def test_eviction_while_server_snapshots_midrun(self):
        registry = MetricsRegistry()
        clock = {"now": 0.0}
        tracker = DetectionLatencyTracker(clock=lambda: clock["now"],
                                          registry=registry, max_pending=64)
        stop = threading.Event()
        errors = []

        def scraper():
            # What a /metrics + /snapshot handler does, as fast as it
            # can, while the pipeline thread stamps and evicts.
            while not stop.is_set():
                try:
                    to_prometheus(registry)
                    registry.snapshot()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=scraper) for _ in range(3)]
        for thread in threads:
            thread.start()
        for index in range(5000):
            event = _FakeEvent(index % 7, index)
            tracker.observe_event(event)
            if index % 50 == 0:
                clock["now"] += 1.0
                tracker.observe_report(_FakeReport([event]))
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert tracker.stamps_evicted > 0
        assert registry.get("ocep_detection_pending_stamps").value == 64
        assert tracker.reports_observed == 100
