"""Exporters: registry snapshots as JSON or Prometheus text format.

Two formats cover the two consumers the ROADMAP cares about:

* **JSON** — machine-readable dumps (``ocep case --metrics json``,
  ``/snapshot``); round-trips through :func:`parse_json` back to plain
  dicts keyed by ``(name, labels)``.
* **Prometheus text exposition format** — scrapeable output for a
  production deployment (``# TYPE``/``# HELP`` lines, cumulative
  ``_bucket`` series with ``le`` labels, ``_sum``/``_count``).

Both operate on a :class:`~repro.obs.metrics.MetricsRegistry`; the
no-op registry exports an empty document.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Schema version stamped into JSON exports.
JSON_SCHEMA_VERSION = 1


def to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """Serialise every metric in the registry as a JSON document."""
    payload = {
        "schema": JSON_SCHEMA_VERSION,
        "metrics": registry.snapshot(),
    }
    # Metric dicts render non-finite values (the +Inf histogram bucket)
    # as strings, so strict JSON with allow_nan=False stays valid.
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


def parse_json(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], dict]:
    """Parse a :func:`to_json` document back to a dict keyed by
    ``(name, labels)`` — the round-trip used by tests and by run
    comparison tooling."""
    payload = json.loads(text)
    if payload.get("schema") != JSON_SCHEMA_VERSION:
        raise ValueError(f"unsupported metrics schema {payload.get('schema')!r}")
    result = {}
    for metric in payload["metrics"]:
        labels = tuple(sorted(metric.get("labels", {}).items()))
        result[(metric["name"], labels)] = metric
    return result


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------


def _prom_labels(labels, extra=()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    rendered = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in pairs)
    return "{" + rendered + "}"


def _prom_escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_float(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines = []
    typed = set()
    for metric in registry.metrics():
        if metric.name not in typed:
            typed.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {_prom_escape(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Counter):
            lines.append(
                f"{metric.name}{_prom_labels(metric.labels)} {metric.value}"
            )
        elif isinstance(metric, Gauge):
            lines.append(
                f"{metric.name}{_prom_labels(metric.labels)} "
                f"{_prom_float(metric.value)}"
            )
        elif isinstance(metric, Histogram):
            cumulative = 0
            for le, count in zip(
                list(metric.bounds) + [math.inf], metric.bucket_counts
            ):
                cumulative += count
                labels = _prom_labels(
                    metric.labels, extra=[("le", _prom_float(le))]
                )
                lines.append(f"{metric.name}_bucket{labels} {cumulative}")
            base = _prom_labels(metric.labels)
            lines.append(f"{metric.name}_sum{base} {_prom_float(metric.sum)}")
            lines.append(f"{metric.name}_count{base} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")
