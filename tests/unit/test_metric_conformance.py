"""Metric-name conformance audit as a test.

Every metric the stack can register — across a full-featured pipeline
run (faults + hold-back + overload + stage telemetry + detection
latency + scrape server) — must:

* carry non-empty HELP text,
* follow the Prometheus naming conventions (counters end ``_total``;
  wall-clock duration histograms end ``_seconds``; names are
  ``snake_case``),
* survive the Prometheus text-exposition reparse harness.

This is the executable form of the naming audit: a new metric that
breaks the conventions fails here, not in a reviewer's head.
"""

import re

from repro.engine import Pipeline
from repro.obs.export import to_prometheus
from repro.obs.latency import DetectionLatencyTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import ObsServer
from repro.obs.stages import STAGES
from repro.resilience.faults import FaultPlan
from repro.testing import Weaver

from tests.unit.test_export_prometheus import parse_exposition

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"
TRACES = ["P0", "P1", "P2"]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Histograms measuring something other than wall-clock seconds carry
#: their unit as the suffix instead.
_NON_SECONDS_HISTOGRAM_UNITS = ("_units", "_events")

#: Pre-audit spellings and the names that replaced them.  The retired
#: names are gone from every surface (no alias entries).
RETIRED_METRIC_NAMES = {
    "ocep_detection_latency_sim_time": "ocep_detection_latency_sim_time_units",
    "poet_holdback_pending": "poet_holdback_pending_events",
}


def _full_registry():
    """A registry populated by every metric source in the stack."""
    registry = MetricsRegistry()
    w = Weaver(3)
    for _ in range(20):
        w.local(0, "A")
        w.message(0, 2)
        w.local(2, "B")
    pipeline = Pipeline.replay(w.events, TRACES, registry=registry)
    pipeline.with_overload_control()
    monitor = pipeline.watch("ab", AB)
    pipeline.with_faults(FaultPlan(kind="none"))
    pipeline.with_holdback()
    tracker = DetectionLatencyTracker(clock=lambda: 0.0, registry=registry)
    for event in w.events:
        tracker.observe_event(event)
    server = ObsServer(registry)
    pipeline.run()
    for report in monitor.reports:
        tracker.observe_report(report)
    monitor.publish_metrics()
    assert server is not None
    return registry


class TestConformance:
    def setup_method(self):
        self.registry = _full_registry()

    def test_every_metric_has_help(self):
        missing = [m.name for m in self.registry.metrics() if not m.help]
        assert not missing, f"metrics without HELP text: {sorted(set(missing))}"

    def test_names_are_snake_case(self):
        bad = [
            m.name for m in self.registry.metrics()
            if not _NAME_RE.match(m.name)
        ]
        assert not bad, f"non-conforming metric names: {sorted(set(bad))}"

    def test_counters_end_total(self):
        bad = [
            m.name for m in self.registry.metrics()
            if m.kind == "counter" and not m.name.endswith("_total")
        ]
        assert not bad, f"counters missing _total: {sorted(set(bad))}"

    def test_histograms_carry_a_unit_suffix(self):
        bad = [
            m.name for m in self.registry.metrics()
            if m.kind == "histogram"
            and not m.name.endswith("_seconds")
            and not m.name.endswith(_NON_SECONDS_HISTOGRAM_UNITS)
        ]
        assert not bad, f"histograms without a unit suffix: {sorted(set(bad))}"

    def test_aliases_never_leak_into_exposition(self):
        _, types, _ = parse_exposition(to_prometheus(self.registry))
        snapshot = self.registry.snapshot()
        snapshot_names = {entry["name"] for entry in snapshot}
        for retired, current in RETIRED_METRIC_NAMES.items():
            assert current in types and current in snapshot_names
            assert retired not in types
            assert retired not in snapshot_names
        assert not any("alias_of" in entry for entry in snapshot)

    def test_full_registry_reparses(self):
        samples, types, helps = parse_exposition(to_prometheus(self.registry))
        assert samples
        # Every TYPEd family has HELP text in the exposition too.
        assert set(types) == set(helps)

    def test_stage_series_present_and_typed(self):
        samples, types, _ = parse_exposition(to_prometheus(self.registry))
        assert types["ocep_stage_events_total"] == "counter"
        assert types["ocep_stage_queue_depth"] == "gauge"
        assert types["ocep_stage_latency_seconds"] == "histogram"
        assert types["ocep_stage_batch_size_events"] == "histogram"
        stages = {
            labels["stage"]
            for name, labels, _ in samples
            if name == "ocep_stage_events_total"
        }
        assert stages == set(STAGES)
