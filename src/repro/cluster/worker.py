"""The worker process: one shard slice of the deployment.

:func:`worker_main` is the ``multiprocessing`` target the coordinator
spawns — importable at module top level so both the ``fork`` and
``spawn`` start methods work.  Each worker is an ordinary single-process
engine wearing a socket: it connects back to the coordinator, handshakes
(HELLO/CONFIG/READY), builds a :meth:`~repro.engine.Pipeline.stream`
pipeline watching exactly the shards the coordinator assigned, and then
consumes coordinator-driven frames:

RESTORE
    Load an ``ocep-sharded-checkpoint-v1`` document into the watched
    shards (``partial=True`` — the document may describe a different
    shard layout; this worker restores only its slice, which is what
    makes elastic re-sharding a no-op at this layer).

EVENTS
    Feed the decoded batch to the stream pipeline, then answer with a
    CREDIT frame — the back-pressure grant *and* a piggy-backed
    heartbeat (events seen, reports so far).  The coordinator never has
    more than its credit budget of unacknowledged batches in flight, so
    a slow worker throttles its own inflow instead of ballooning the
    socket buffer.

CHECKPOINT
    Answer with CHECKPOINT_STATE: the shard slice's checkpoint document
    plus the stream offset it covers.

FINISH / SHUTDOWN
    Close the stream, ship the RESULT document (reports, stats,
    signatures, timing summaries, and — when metrics are on — the whole
    registry snapshot for coordinator-side aggregation), then exit on
    SHUTDOWN.

A side thread volunteers HEARTBEAT frames while the worker idles
between coordinator frames (send is lock-protected in
:class:`~repro.cluster.transport.FrameConnection`).

Observability: with ``obs`` in the CONFIG the worker starts its own
:class:`~repro.obs.server.ObsServer` on an ephemeral port and reports
the actually bound port/URL in READY — the coordinator surfaces every
worker's scrape URL.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import traceback
from typing import Dict, List, Optional

from repro.cluster.transport import (
    ClusterProtocolError,
    ConnectionClosed,
    FrameConnection,
)
from repro.cluster.wire import (
    PROTOCOL_VERSION,
    FrameType,
    decode_event_batch,
    decode_json,
    report_to_record,
    signature_to_record,
    stats_to_record,
)
from repro.engine.pipeline import Pipeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import ObsServer

#: Seconds between volunteered heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 2.0


def _timings_summary(timings: List[float]) -> Dict[str, float]:
    """Detection-latency summary of one shard's per-search timings
    (exact order statistics — the worker holds the full list, so no
    bucket quantisation is needed)."""
    if not timings:
        return {"count": 0, "sum_seconds": 0.0}
    ordered = sorted(timings)
    count = len(ordered)

    def pct(q: float) -> float:
        return ordered[min(count - 1, int(q * count))]

    return {
        "count": count,
        "sum_seconds": sum(ordered),
        "p50_seconds": pct(0.50),
        "p95_seconds": pct(0.95),
        "p99_seconds": pct(0.99),
        "max_seconds": ordered[-1],
    }


class _Heartbeat(threading.Thread):
    """Volunteers HEARTBEAT frames while the main loop blocks on the
    coordinator; dies quietly when the socket does."""

    def __init__(self, conn: FrameConnection, worker_id: int,
                 counters, interval: float):
        super().__init__(name=f"ocep-worker-{worker_id}-heartbeat",
                         daemon=True)
        self._conn = conn
        self._worker_id = worker_id
        self._counters = counters
        self._interval = interval
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._conn.send_json(
                    FrameType.HEARTBEAT,
                    {
                        "worker": self._worker_id,
                        "events_seen": self._counters["events"],
                        "reports": self._counters["reports"],
                        "pid": os.getpid(),
                    },
                )
            except OSError:
                return


def worker_main(
    worker_id: int,
    host: str,
    port: int,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
) -> None:
    """Process entry point: serve one worker until SHUTDOWN/EOF."""
    try:
        _worker_loop(worker_id, host, port, heartbeat_interval)
    except ConnectionClosed:
        # Coordinator went away first (e.g. it crashed); nothing to
        # report to and nothing to clean up beyond process exit.
        sys.exit(0)
    except Exception:  # noqa: BLE001 - the process boundary
        traceback.print_exc(file=sys.stderr)
        sys.exit(1)


def _worker_loop(
    worker_id: int, host: str, port: int, heartbeat_interval: float
) -> None:
    conn = FrameConnection(socket.create_connection((host, port)))
    conn.send_json(
        FrameType.HELLO,
        {"version": PROTOCOL_VERSION, "worker": worker_id,
         "pid": os.getpid()},
    )
    config = conn.recv_json(expect=FrameType.CONFIG)
    if config.get("version") != PROTOCOL_VERSION:
        raise ClusterProtocolError(
            f"coordinator speaks protocol {config.get('version')}, "
            f"worker speaks {PROTOCOL_VERSION}"
        )

    registry: Optional[MetricsRegistry] = None
    if config.get("metrics", True):
        registry = MetricsRegistry()
    pipeline = Pipeline.stream(config["trace_names"], registry=registry)
    shards: Dict[str, str] = dict(config.get("shards", {}))
    for name, pattern_source in shards.items():
        pipeline.watch(name, pattern_source)

    obs_server: Optional[ObsServer] = None
    if config.get("obs") and registry is not None:
        obs_server = ObsServer(registry, port=0)
        obs_server.start()

    ready = {
        "worker": worker_id,
        "pid": os.getpid(),
        "shards": sorted(shards),
    }
    if obs_server is not None:
        ready["obs_port"] = obs_server.port
        ready["obs_url"] = obs_server.url
    conn.send_json(FrameType.READY, ready)

    counters = {"events": 0, "reports": 0}
    heartbeat = _Heartbeat(conn, worker_id, counters, heartbeat_interval)
    heartbeat.start()
    finished = False
    try:
        while True:
            ftype, payload = conn.recv()
            if ftype is FrameType.EVENTS:
                events = decode_event_batch(payload, pipeline.num_traces)
                pipeline.feed(events)
                counters["events"] += len(events)
                if shards:
                    counters["reports"] = pipeline.dispatcher.total_reports()
                conn.send_json(
                    FrameType.CREDIT,
                    {
                        "worker": worker_id,
                        "events_seen": counters["events"],
                        "reports": counters["reports"],
                    },
                )
            elif ftype is FrameType.RESTORE:
                document = decode_json(payload)
                document.pop("overload", None)
                # partial=True: the snapshot may have been written at a
                # different shard layout; restore only this slice.
                pipeline.dispatcher.restore(document, partial=True)
            elif ftype is FrameType.CHECKPOINT:
                conn.send_json(
                    FrameType.CHECKPOINT_STATE,
                    {
                        "worker": worker_id,
                        "offset": counters["events"],
                        # a worker never wires a shedder
                        "state": pipeline.dispatcher.checkpoint(),
                    },
                )
            elif ftype is FrameType.FINISH:
                result = pipeline.finish()
                finished = True
                conn.send_json(
                    FrameType.RESULT, _build_result(worker_id, result,
                                                    registry),
                )
            elif ftype is FrameType.SHUTDOWN:
                return
            else:
                raise ClusterProtocolError(
                    f"worker got unexpected {ftype.name} frame"
                )
    finally:
        heartbeat.stop()
        if obs_server is not None:
            obs_server.stop()
        if not finished and pipeline._wired and not pipeline._ran:
            # Torn down without FINISH (coordinator crash): close the
            # stream locally so stage metrics flush for post-mortems.
            try:
                pipeline.finish()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        conn.close()


def _build_result(
    worker_id: int, result, registry: Optional[MetricsRegistry]
) -> dict:
    shards = {}
    for name, monitor in result.dispatcher:
        shards[name] = {
            "reports": [
                report_to_record(report) for report in monitor.reports
            ],
            "stats": stats_to_record(monitor.stats()),
            "signature": signature_to_record(monitor.subset.signature()),
            "timings": _timings_summary(monitor.terminating_timings),
        }
    document = {
        "worker": worker_id,
        "events": result.num_events,
        "shards": shards,
    }
    if registry is not None:
        for _name, monitor in result.dispatcher:
            monitor.publish_metrics()
        document["metrics"] = registry.snapshot()
    return document


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "worker_main",
]
