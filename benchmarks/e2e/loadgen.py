"""The paced (open-loop) diagnostic.

The pipeline is synchronous with no internal queue, so its capacity is
the closed-loop ``throughput_eps`` and nothing here is gated.  What
this replay adds is the view from a source that does not wait: events
fall due on a fixed schedule, each is timed from its *due* time (so a
stall is charged to every event that waited behind it), and the
generator reports how late it ran itself.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from repro.engine import Pipeline
from repro.events.event import Event

from measure import p50_p95


def paced_replay(
    pipeline: Pipeline, events: Sequence[Event], rate_eps: float
) -> Dict[str, float]:
    """Replay ``events`` at ``rate_eps`` on one thread: whenever events
    are due, everything already due is fed as one slice."""
    count = len(events)
    interval = 1.0 / rate_eps
    late_us = []
    latency_us = []
    clock = time.perf_counter
    origin = clock()
    deadline = origin + count * interval
    backlog_end = None
    sent = 0
    while sent < count:
        now = clock()
        due = min(count, int((now - origin) * rate_eps) + 1)
        if backlog_end is None and now >= deadline:
            backlog_end = count - sent
        if due <= sent:
            continue  # spin: a sleep's wake-up jitter would be measured
        pipeline.feed(events[sent:due])
        done = clock()
        for index in range(sent, due):
            due_at = origin + index * interval
            late_us.append((now - due_at) * 1e6)
            latency_us.append((done - due_at) * 1e6)
        sent = due
    elapsed = clock() - origin
    pipeline.finish()
    return {
        "loadgen.paced_rate_eps": count / elapsed,
        "loadgen.paced_late_p95_us": p50_p95(late_us)[1],
        "loadgen.paced_latency_p95_us": p50_p95(latency_us)[1],
        "loadgen.paced_backlog_end": float(backlog_end or 0),
    }
