"""Coordinator-side metric aggregation.

Each worker runs its own :class:`~repro.obs.metrics.MetricsRegistry`
(processes share nothing), snapshots it into the RESULT frame, and the
coordinator imports every snapshot here — re-minting each series with a
``worker=<id>`` label so one scrape of the coordinator's registry shows
the whole deployment without collapsing workers into each other.

Histograms are rebuilt bucket-for-bucket: every registry in the tree
uses the same log-scale
:data:`~repro.obs.metrics.DEFAULT_LATENCY_BUCKETS`, so the imported
series keeps its quantile resolution (summing counts across differently
bucketed histograms would not be meaningful; a snapshot whose bucket
bounds cannot be reconstructed falls back to ``_count``/``_sum``
counters).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.obs.metrics import MetricsRegistry


def _bucket_bounds(buckets: List[dict]) -> List[float]:
    bounds = []
    for bucket in buckets:
        le = bucket["le"]
        if le == "+Inf":
            continue
        bounds.append(float(le))
    return bounds


def import_worker_snapshot(
    registry: MetricsRegistry, worker_id: int, snapshot: List[dict]
) -> int:
    """Mint every metric of one worker's registry snapshot into
    ``registry`` under an added ``worker`` label; returns the number of
    series imported."""
    imported = 0
    worker_label = str(worker_id)
    for metric in snapshot:
        labels: Dict[str, str] = dict(metric.get("labels", {}))
        labels["worker"] = worker_label
        name = metric["name"]
        help_text = metric.get("help", "")
        kind = metric.get("kind")
        if kind == "counter":
            registry.counter(name, help_text, labels=labels).set_total(
                int(metric["value"])
            )
            imported += 1
        elif kind == "gauge":
            registry.gauge(name, help_text, labels=labels).set(
                float(metric["value"])
            )
            imported += 1
        elif kind == "histogram":
            buckets = metric.get("buckets") or []
            bounds = _bucket_bounds(buckets)
            if len(buckets) == len(bounds) + 1:
                histogram = registry.histogram(
                    name, help_text, labels=labels, bounds=bounds
                )
                histogram.bucket_counts = [b["count"] for b in buckets]
                histogram.count = int(metric.get("count", 0))
                histogram.sum = float(metric.get("sum", 0.0))
                minimum = metric.get("min")
                maximum = metric.get("max")
                histogram.min = (
                    float(minimum) if minimum is not None else math.inf
                )
                histogram.max = (
                    float(maximum) if maximum is not None else -math.inf
                )
                imported += 1
            else:
                # Unreconstructable buckets: keep the moments at least.
                registry.counter(
                    f"{name}_count", help_text, labels=labels
                ).set_total(int(metric.get("count", 0)))
                registry.gauge(
                    f"{name}_sum", help_text, labels=labels
                ).set(float(metric.get("sum", 0.0)))
                imported += 2
    return imported


__all__ = ["import_worker_snapshot"]
