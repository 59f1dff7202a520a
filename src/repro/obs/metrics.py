"""Dependency-free metrics primitives: counters, gauges, histograms.

The paper's headline evaluation metric is "execution time ... taken by
the monitor to find the set of matches on arrival of an event"
(Section V), and the ROADMAP's production north star needs pruning
effectiveness and latency to be first-class outputs rather than ad-hoc
``List[float]`` timing lists.  This module provides the minimal metric
model those callers need:

* :class:`Counter` — a monotone count (searches run, candidates
  scanned, back-jumps taken, ...);
* :class:`Gauge` — a point-in-time value (subset size, history size);
* :class:`Histogram` — a latency distribution over **fixed log-scale
  buckets**, so per-event matching times spanning six orders of
  magnitude (sub-microsecond no-op events to millisecond searches) are
  all resolved without pre-tuning;
* :class:`MetricsRegistry` — the namespace that owns them, snapshots
  them, and feeds the exporters in :mod:`repro.obs.export`.

Instrumentation is **off-by-default-cheap**: :data:`NULL_REGISTRY` (a
:class:`NullRegistry`) hands out shared no-op metric objects whose
``inc``/``set``/``observe`` do nothing, so components can
unconditionally hold metric references and pay only an attribute load
and an empty call when observability is disabled.  Hot inner loops
(the matcher's candidate scan) avoid even that by accumulating plain
integers and publishing them into the registry at snapshot time — see
``OCEPMatcher.publish_metrics``.

Metric identity is ``(name, labels)`` where ``labels`` is a sorted
tuple of ``(key, value)`` pairs, mirroring the Prometheus data model;
:class:`~repro.engine.dispatch.ShardedDispatcher` uses a ``pattern``
label to keep per-pattern series apart in one registry.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Canonical label form: sorted (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: powers of two from ~1 microsecond to
#: ~16 seconds (in seconds).  25 buckets cover every per-event latency
#: the monitor can plausibly produce at <5% relative resolution cost.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(-20, 5)
)


def _labels(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: LabelSet = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def set_total(self, value: int) -> None:
        """Publish an externally accumulated total (e.g. a plain-int
        hot-path counter).  Must never move backwards."""
        if value < self.value:
            raise ValueError(
                f"counter {self.name} cannot decrease "
                f"({self.value} -> {value})"
            )
        self.value = value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A point-in-time value that can go up and down."""

    __slots__ = ("name", "help", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: LabelSet = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """A distribution over fixed log-scale buckets.

    ``bounds`` are the inclusive upper edges of the finite buckets; an
    implicit +Inf bucket catches the overflow.  Alongside the bucket
    counts the histogram tracks exact ``count``/``sum``/``min``/``max``
    so means are not quantised.
    """

    __slots__ = ("name", "help", "labels", "bounds", "bucket_counts",
                 "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelSet = (),
        bounds: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.help = help
        self.labels = labels
        chosen = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        if list(chosen) != sorted(chosen):
            raise ValueError(f"histogram {name}: bounds must be sorted")
        self.bounds = chosen
        self.bucket_counts = [0] * (len(chosen) + 1)  # +Inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolved quantile estimate (upper bucket edge).

        Exact to within one log-scale bucket; returns ``max`` for the
        overflow bucket and ``0`` on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bucket in enumerate(self.bucket_counts):
            seen += bucket
            if seen >= rank and bucket:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max
        return self.max

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": [
                {"le": le if le != math.inf else "+Inf", "count": c}
                for le, c in zip(
                    list(self.bounds) + [math.inf], self.bucket_counts
                )
            ],
        }


class MetricsRegistry:
    """Owns every metric of one monitoring deployment.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call mints the metric, later calls with the same ``(name, labels)``
    return the same object (kind mismatches raise).  ``snapshot``
    produces the JSON-ready structure consumed by the exporters.

    Registration and snapshotting are guarded by an internal lock, so
    a scrape-server thread can snapshot a registry while the pipeline
    thread is still minting per-label series (the ``/metrics`` and
    ``/snapshot`` endpoints of :mod:`repro.obs.server` do exactly
    that).  Individual ``inc``/``set``/``observe`` calls are *not*
    locked — under the GIL a concurrent reader sees a slightly stale
    but structurally valid value, which is the usual scrape bargain.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}
        self._lock = threading.RLock()

    def _get(self, cls, name, help, labels, **kwargs):
        key = (name, _labels(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            metric = cls(name, help=help, labels=key[1], **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        bounds: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, bounds=bounds)

    def metrics(self) -> List[object]:
        """Every registered metric, in deterministic (name, labels)
        order (a point-in-time copy, safe against concurrent
        registration)."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[object]:
        """Look up a metric without creating it."""
        with self._lock:
            return self._metrics.get((name, _labels(labels)))

    def snapshot(self) -> List[dict]:
        """JSON-ready dump of every metric."""
        return [metric.as_dict() for metric in self.metrics()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __iter__(self) -> Iterable[object]:
        return iter(self.metrics())


class _NullMetric:
    """Shared do-nothing stand-in for every metric kind."""

    __slots__ = ()

    name = "null"
    help = ""
    labels: LabelSet = ()
    kind = "null"
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount=1):  # noqa: D102 - no-op
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def set_total(self, value):
        pass

    def observe(self, value):
        pass

    def quantile(self, q):
        return 0.0

    @property
    def mean(self):
        return 0.0

    def as_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind}


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """The disabled-observability path: every request returns one
    shared no-op metric, nothing is stored, snapshots are empty.

    Kept class-compatible with :class:`MetricsRegistry` so callers
    never branch — they just call ``inc``/``observe`` into the void.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def _get(self, cls, name, help, labels, **kwargs):
        return _NULL_METRIC

    def metrics(self) -> List[object]:
        return []

    def get(self, name, labels=None):
        return None


#: Module-level shared no-op registry; the default everywhere.
NULL_REGISTRY = NullRegistry()
