"""Observability: metrics, search traces, spans, logs, and exporters.

A dependency-free instrumentation layer for the OCEP stack:

* :mod:`~repro.obs.metrics` — counters, gauges, log-scale-bucket
  latency histograms, and the :class:`MetricsRegistry` that owns them
  (plus the shared no-op :data:`NULL_REGISTRY` making disabled
  observability nearly free);
* :mod:`~repro.obs.trace` — the bounded ring-buffer **search trace**
  recording individual goForward/goBackward decisions for post-mortem
  debugging;
* :mod:`~repro.obs.spans` — the **causal span tracer**: hierarchical
  wall-clock spans plus simulated-time event tracks with
  happens-before flow arrows, exported as Chrome trace-event JSON for
  Perfetto (and the shared no-op :data:`NULL_TRACER`);
* :mod:`~repro.obs.latency` — end-to-end **detection latency**
  (event occurrence to match report, in simulated time);
* :mod:`~repro.obs.log` — JSON-lines structured logging over stdlib
  :mod:`logging`, span-id correlated;
* :mod:`~repro.obs.export` — JSON and Prometheus-text exporters over
  a registry snapshot;
* :mod:`~repro.obs.stages` — the **stage axis**: uniform
  ``ocep_stage_*`` throughput/queue-depth/latency/batch-size series
  for the seven pipeline stages, live-measured via :class:`StageLink`
  interposers;
* :mod:`~repro.obs.server` — the embedded **scrape server**
  (``/metrics``, ``/snapshot``, ``/healthz``, ``/readyz``,
  ``/spans``) serving a running pipeline over HTTP;
* :mod:`~repro.obs.profile` — the thread-sampling wall-clock
  **profiler** with collapsed-stack (flamegraph) output and per-stage
  self-time attribution.

See ``docs/observability.md`` for the metric inventory and usage.
"""

from repro.obs.export import parse_json, to_json, to_prometheus
from repro.obs.latency import (
    DETECTION_LATENCY_BUCKETS,
    DETECTION_LATENCY_METRIC,
    DetectionLatencyTracker,
    track_detection_latency,
)
from repro.obs.log import JsonLinesFormatter, bind_tracer, configure, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.profile import (
    OTHER_STAGE,
    STAGE_MODULES,
    SamplingProfiler,
    stage_of_stack,
)
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
from repro.obs.stages import (
    BATCH_SIZE_BUCKETS,
    STAGES,
    PipelineTelemetry,
    StageLink,
    attach_telemetry,
)
from repro.obs.trace import KINDS, SearchTrace, TraceRecord

#: Names served by :mod:`repro.obs.server`, imported on first use: it
#: pulls in ``http.server`` (and with it ``http.client``, ``ssl``,
#: ``email``), which only a pipeline with a scrape server needs.
_SERVER_NAMES = frozenset(
    ("ObsServer", "DEFAULT_SPANS_LIMIT", "PROMETHEUS_CONTENT_TYPE")
)


def __getattr__(name: str):
    if name in _SERVER_NAMES:
        from repro.obs import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "SearchTrace",
    "TraceRecord",
    "KINDS",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "SIM_PID",
    "MONITOR_PID",
    "to_chrome_json",
    "validate_trace_events",
    "validate_chrome_trace",
    "DetectionLatencyTracker",
    "track_detection_latency",
    "DETECTION_LATENCY_BUCKETS",
    "DETECTION_LATENCY_METRIC",
    "STAGES",
    "BATCH_SIZE_BUCKETS",
    "PipelineTelemetry",
    "StageLink",
    "attach_telemetry",
    "ObsServer",
    "PROMETHEUS_CONTENT_TYPE",
    "DEFAULT_SPANS_LIMIT",
    "SamplingProfiler",
    "STAGE_MODULES",
    "OTHER_STAGE",
    "stage_of_stack",
    "JsonLinesFormatter",
    "bind_tracer",
    "configure",
    "get_logger",
    "to_json",
    "to_prometheus",
    "parse_json",
]
