"""The cluster coordinator: shard routing, flow control, recovery.

:class:`ClusterCoordinator` owns the deployment: it listens on an
ephemeral loopback port, spawns ``workers`` processes running
:func:`~repro.cluster.worker.worker_main` (``fork`` start method when
the platform has it, ``spawn`` otherwise), handshakes each one, and
assigns every watched pattern shard to exactly one worker with the
stable CRC-32 policy of :func:`~repro.engine.dispatch.shard_worker` —
the same policy family the in-process
:class:`~repro.engine.dispatch.ShardedDispatcher` represents with one
execution unit.  Because shards (not traces) are partitioned, **every
worker receives the full broadcast linearization** — causal patterns
match across traces, so a shard cannot see a trace-sliced stream —
and the deployment's match output is bit-identical to the in-process
sharded run by construction.

Flow control is credit-based: at most ``credits`` unacknowledged EVENTS
frames are in flight per worker; each processed batch comes back as a
CREDIT frame (doubling as a heartbeat with live counters).  A slow
worker therefore throttles the coordinator instead of growing an
unbounded socket queue — the cluster-shaped analogue of the in-process
back-pressure stages.

Recovery reuses the ``ocep-sharded-checkpoint-v1`` machinery end to
end.  :meth:`ClusterCoordinator.checkpoint` quiesces the stream (drains
all credits), collects each worker's shard-slice snapshot, and merges
them into one standard v1 document — readable by
:meth:`~repro.engine.Pipeline.restore` and by any future layout
(elastic re-sharding: each worker of the new layout restores only its
slice, ``partial=True``).  When a worker dies — crash, kill, or wire
error — the coordinator respawns it, replays the CONFIG handshake,
sends the last merged checkpoint as RESTORE, and re-broadcasts the
already-sent stream prefix: restored monitors fast-forward through the
deliveries their checkpoint already covers
(:meth:`~repro.core.monitor.Monitor.restore` arms suffix-skipping), so
matcher work is O(suffix) even though transport is O(stream), and the
recovered deployment converges to the uninterrupted run's exact output.

:class:`ClusterPipeline` wraps the coordinator in the fluent
single-process :class:`~repro.engine.Pipeline` surface (``watch`` /
``restore`` / ``run``) — it is what
:meth:`Pipeline.distributed() <repro.engine.Pipeline.distributed>`
returns.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import socket
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.metrics import import_worker_snapshot
from repro.cluster.transport import (
    ClusterProtocolError,
    FrameConnection,
)
from repro.cluster.wire import (
    PROTOCOL_VERSION,
    FrameType,
    WireFormatError,
    decode_json,
    encode_event_batch,
    report_from_record,
    signature_from_record,
    stats_from_record,
)
from repro.cluster.worker import worker_main
from repro.core.matcher import MatchReport
from repro.core.monitor import MonitorStats
from repro.engine.dispatch import CHECKPOINT_FORMAT, worker_shards
from repro.events.event import Event
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: Unacknowledged EVENTS frames allowed in flight per worker.
DEFAULT_CREDITS = 4

#: Events per EVENTS frame when a drive loop chooses the slicing.
DEFAULT_CLUSTER_BATCH_SIZE = 512

#: Socket timeout for coordinator-side reads (a worker must ack a
#: batch, answer a checkpoint, or deliver its result within this).
DEFAULT_TIMEOUT = 120.0

#: Respawn attempts per worker before the deployment gives up.
DEFAULT_MAX_RESTARTS = 3


class ClusterError(RuntimeError):
    """The deployment cannot make progress (worker unrecoverable,
    restart budget exhausted, handshake failure)."""


@dataclasses.dataclass
class ShardOutcome:
    """Final state of one pattern shard, decoded from its worker's
    RESULT frame.  ``reports`` events are rebuilt from their wire
    records; event identity is ``(trace, index)``, so these compare
    equal to the in-process run's reports."""

    name: str
    worker: int
    reports: List[MatchReport]
    stats: MonitorStats
    signature: tuple
    timings: dict


@dataclasses.dataclass
class ClusterResult:
    """Outcome of one cluster drive — the result surface the
    equivalence tooling shares with
    :class:`~repro.engine.pipeline.PipelineResult`."""

    num_events: int
    shards: Dict[str, ShardOutcome]
    workers: int
    restarts: int
    registry: Optional[MetricsRegistry]
    #: ``worker index -> scrape URL`` when worker observability is on.
    obs_urls: Dict[int, str]
    #: Merged final checkpoint (collected pre-FINISH) — ``None`` unless
    #: the drive requested checkpoints.
    final_checkpoint: Optional[dict] = None

    def __getitem__(self, name: str) -> ShardOutcome:
        return self.shards[name]

    def reports(self, name: str) -> List[MatchReport]:
        return self.shards[name].reports

    def stats(self) -> Dict[str, MonitorStats]:
        return {name: shard.stats for name, shard in self.shards.items()}

    def signatures(self) -> Dict[str, tuple]:
        return {name: shard.signature for name, shard in self.shards.items()}

    def total_reports(self) -> int:
        return sum(len(shard.reports) for shard in self.shards.values())


class WorkerHandle:
    """Coordinator-side state of one worker process."""

    def __init__(self, index: int, shards: List[str]):
        self.index = index
        self.shards = shards
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[FrameConnection] = None
        self.pid: Optional[int] = None
        self.obs_url: Optional[str] = None
        #: Unacknowledged EVENTS frames in flight.
        self.outstanding = 0
        #: Latest counters from CREDIT/HEARTBEAT frames.
        self.events_seen = 0
        self.reports = 0
        self.restarts = 0

    def alive(self) -> bool:
        return (
            self.process is not None
            and self.conn is not None
            and self.process.is_alive()
        )


class ClusterCoordinator:
    """Owns the worker fleet and the recorded stream being broadcast.

    Drive order: :meth:`watch` the shards, optionally :meth:`restore`
    a checkpoint, :meth:`start`, any number of :meth:`send_batch`
    (with :meth:`checkpoint` / :meth:`kill_worker` interleaved), then
    :meth:`finish`.  :class:`ClusterPipeline` packages that order for
    the common replay-everything case.
    """

    def __init__(
        self,
        events: Sequence[Event],
        trace_names: Sequence[str],
        workers: int = 2,
        credits: int = DEFAULT_CREDITS,
        registry: Optional[MetricsRegistry] = None,
        worker_obs: bool = False,
        worker_metrics: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
        start_method: Optional[str] = None,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if credits < 1:
            raise ValueError(f"credits must be >= 1, got {credits}")
        self.events = list(events)
        self.trace_names = tuple(trace_names)
        self.num_workers = workers
        self.credits = credits
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.worker_obs = worker_obs
        self.worker_metrics = worker_metrics
        self.timeout = timeout
        self.start_method = start_method
        self.max_restarts = max_restarts

        self._shards: Dict[str, str] = {}
        self._restore_document: Optional[dict] = None
        self._handles: List[WorkerHandle] = []
        self._listener: Optional[socket.socket] = None
        self._ctx: Optional[multiprocessing.context.BaseContext] = None
        self._started = False
        self._finished = False
        #: Events broadcast so far (prefix length of :attr:`events`).
        self.offset = 0
        #: Last merged checkpoint: ``(offset, document)``.
        self._checkpoint: Optional[Tuple[int, dict]] = None

        self._events_sent = self.registry.counter(
            "ocep_cluster_events_sent_total",
            "events broadcast to workers (events x workers)",
        )
        self._batches_sent = self.registry.counter(
            "ocep_cluster_batches_sent_total",
            "EVENTS frames sent to workers",
        )
        self._restarts_counter = self.registry.counter(
            "ocep_cluster_worker_restarts_total",
            "worker processes respawned after a crash",
        )
        self._workers_gauge = self.registry.gauge(
            "ocep_cluster_workers", "worker processes in the deployment"
        )
        self._checkpoints_counter = self.registry.counter(
            "ocep_cluster_checkpoints_total",
            "whole-deployment checkpoints collected",
        )

    # ------------------------------------------------------------------
    # Configuration (pre-start)
    # ------------------------------------------------------------------

    def watch(self, name: str, pattern_source: str) -> "ClusterCoordinator":
        """Add a pattern shard (routed to its worker at :meth:`start`)."""
        if self._started:
            raise RuntimeError("cannot watch() after start(): the shard "
                               "would have missed the stream prefix")
        if name in self._shards:
            raise ValueError(f"shard {name!r} already watched")
        self._shards[name] = pattern_source
        return self

    def restore(self, state: dict) -> "ClusterCoordinator":
        """Start every worker from this ``ocep-sharded-checkpoint-v1``
        document (each restores only its slice — the document may come
        from any shard layout, including a single-process run)."""
        if self._started:
            raise RuntimeError("restore() must precede start()")
        if state.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"not a {CHECKPOINT_FORMAT} document: "
                f"format={state.get('format')!r}"
            )
        self._restore_document = state
        self._checkpoint = (0, state)
        return self

    # ------------------------------------------------------------------
    # Deployment lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterCoordinator":
        """Bind, spawn the fleet, handshake every worker."""
        if self._started:
            raise RuntimeError("cluster already started")
        if not self._shards:
            raise RuntimeError("start() needs at least one watched shard")
        self._started = True

        methods = multiprocessing.get_all_start_methods()
        method = self.start_method
        if method is None:
            method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(method)

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(self.num_workers)
        self._listener.settimeout(self.timeout)

        assignment = worker_shards(list(self._shards), self.num_workers)
        self._handles = [
            WorkerHandle(index, shard_names)
            for index, shard_names in enumerate(assignment)
        ]
        for handle in self._handles:
            self._spawn(handle)
        # Workers connect in arbitrary order; route each accepted
        # connection to its handle by the HELLO identity.
        pending = {handle.index: handle for handle in self._handles}
        while pending:
            conn = self._accept()
            hello = conn.recv_json(expect=FrameType.HELLO)
            if hello.get("version") != PROTOCOL_VERSION:
                raise ClusterError(
                    f"worker speaks protocol {hello.get('version')}, "
                    f"coordinator speaks {PROTOCOL_VERSION}"
                )
            handle = pending.pop(hello["worker"])
            handle.conn = conn
            handle.pid = hello.get("pid")
        for handle in self._handles:
            self._configure(handle)
        self._workers_gauge.set(len(self._handles))
        return self

    def _accept(self) -> FrameConnection:
        assert self._listener is not None
        try:
            sock, _addr = self._listener.accept()
        except socket.timeout as exc:
            raise ClusterError(
                "no worker connected within the timeout"
            ) from exc
        sock.settimeout(self.timeout)
        return FrameConnection(sock)

    def _spawn(self, handle: WorkerHandle) -> None:
        assert self._ctx is not None and self._listener is not None
        _host, port = self._listener.getsockname()
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.index, "127.0.0.1", port),
            name=f"ocep-cluster-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        handle.process = process
        handle.outstanding = 0
        handle.events_seen = 0

    def _configure(self, handle: WorkerHandle) -> None:
        """CONFIG -> READY (-> RESTORE) for one connected worker."""
        assert handle.conn is not None
        handle.conn.send_json(
            FrameType.CONFIG,
            {
                "version": PROTOCOL_VERSION,
                "trace_names": list(self.trace_names),
                "shards": {
                    name: self._shards[name] for name in handle.shards
                },
                "metrics": self.worker_metrics,
                "obs": self.worker_obs,
            },
        )
        ready = handle.conn.recv_json(expect=FrameType.READY)
        handle.obs_url = ready.get("obs_url")
        if self._checkpoint is not None:
            handle.conn.send_json(FrameType.RESTORE, self._checkpoint[1])

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def send_batch(self, events: Sequence[Event]) -> None:
        """Broadcast the next contiguous slice of :attr:`events` to the
        whole fleet (the slice must start at :attr:`offset`)."""
        if not self._started or self._finished:
            raise RuntimeError("cluster is not streaming")
        if not events:
            return
        payload = encode_event_batch(events)
        for handle in self._handles:
            self._send_events(handle, payload)
        self.offset += len(events)
        self._batches_sent.inc()
        self._events_sent.inc(len(events) * len(self._handles))

    def _send_events(self, handle: WorkerHandle, payload: bytes) -> None:
        for _attempt in range(self.max_restarts + 1):
            try:
                if handle.process is not None and not handle.process.is_alive():
                    raise ClusterProtocolError(
                        f"worker {handle.index} process died "
                        f"(exitcode {handle.process.exitcode})"
                    )
                while handle.outstanding >= self.credits:
                    self._pump(handle)
                if handle.conn is None:
                    raise ClusterProtocolError(
                        f"worker {handle.index} has no connection"
                    )
                handle.conn.send(FrameType.EVENTS, payload)
                handle.outstanding += 1
                return
            except (OSError, ClusterProtocolError, WireFormatError):
                self._recover(handle)
        raise ClusterError(
            f"worker {handle.index} keeps failing; restart budget "
            f"({self.max_restarts}) exhausted"
        )

    def _pump(self, handle: WorkerHandle):
        """Receive one frame from ``handle``; CREDIT/HEARTBEAT are
        absorbed (returning ``None``), anything else is returned for
        the caller to interpret."""
        if handle.conn is None:
            raise ClusterProtocolError(
                f"worker {handle.index} has no connection"
            )
        ftype, payload = handle.conn.recv()
        if ftype is FrameType.CREDIT:
            handle.outstanding -= 1
            document = decode_json(payload)
            handle.events_seen = document.get("events_seen",
                                              handle.events_seen)
            handle.reports = document.get("reports", handle.reports)
            return None
        if ftype is FrameType.HEARTBEAT:
            document = decode_json(payload)
            handle.events_seen = document.get("events_seen",
                                              handle.events_seen)
            handle.reports = document.get("reports", handle.reports)
            return None
        return ftype, payload

    def _drain(self, handle: WorkerHandle) -> None:
        """Block until every in-flight batch is acknowledged — after
        this the worker has *processed* exactly :attr:`offset` events."""
        while handle.outstanding > 0:
            extra = self._pump(handle)
            if extra is not None:
                raise ClusterProtocolError(
                    f"unexpected {extra[0].name} frame while draining"
                )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict:
        """Quiesce the stream and merge every worker's shard slice into
        one ``ocep-sharded-checkpoint-v1`` document (also retained for
        crash recovery)."""
        if not self._started or self._finished:
            raise RuntimeError("cluster is not streaming")
        merged_shards: Dict[str, dict] = {}
        for handle in self._handles:
            for _attempt in range(self.max_restarts + 1):
                try:
                    self._drain(handle)
                    if handle.conn is None:
                        raise ClusterProtocolError(
                            f"worker {handle.index} has no connection"
                        )
                    handle.conn.send_json(FrameType.CHECKPOINT, {})
                    while True:
                        extra = self._pump(handle)
                        if extra is None:
                            continue
                        ftype, payload = extra
                        if ftype is not FrameType.CHECKPOINT_STATE:
                            raise ClusterProtocolError(
                                f"expected CHECKPOINT_STATE, got {ftype.name}"
                            )
                        document = decode_json(payload)
                        break
                    if document["offset"] != self.offset:
                        raise ClusterProtocolError(
                            f"worker {handle.index} checkpointed at offset "
                            f"{document['offset']}, coordinator at "
                            f"{self.offset}"
                        )
                    merged_shards.update(document["state"].get("shards", {}))
                    break
                except (OSError, ClusterProtocolError, WireFormatError):
                    self._recover(handle)
            else:
                raise ClusterError(
                    f"worker {handle.index} keeps failing during checkpoint"
                )
        merged = {
            "format": CHECKPOINT_FORMAT,
            "trace_names": list(self.trace_names),
            "shards": merged_shards,
        }
        self._checkpoint = (self.offset, merged)
        self._checkpoints_counter.inc()
        return merged

    # ------------------------------------------------------------------
    # Failure + recovery
    # ------------------------------------------------------------------

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker (the chaos harness's crash injection).
        Recovery is lazy: the next interaction with the worker detects
        the death and respawns it."""
        handle = self._handles[index]
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=self.timeout)
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None

    def _recover(self, handle: WorkerHandle) -> None:
        """Respawn a dead worker and bring it back to :attr:`offset`:
        handshake, RESTORE the last merged checkpoint, re-broadcast the
        already-sent prefix (restored shards fast-forward through the
        checkpointed part)."""
        handle.restarts += 1
        self._restarts_counter.inc()
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
        if handle.process is not None:
            handle.process.join(timeout=self.timeout)
        self._spawn(handle)
        conn = self._accept()
        hello = conn.recv_json(expect=FrameType.HELLO)
        if hello.get("worker") != handle.index:
            raise ClusterError(
                f"respawned worker identified as {hello.get('worker')}, "
                f"expected {handle.index}"
            )
        handle.conn = conn
        handle.pid = hello.get("pid")
        self._configure(handle)
        # Replay the broadcast prefix.  Transport is O(stream); matcher
        # work is O(suffix past the checkpoint) thanks to restore()'s
        # suffix-skipping.  Credit flow control applies as usual.
        for start in range(0, self.offset, DEFAULT_CLUSTER_BATCH_SIZE):
            end = min(start + DEFAULT_CLUSTER_BATCH_SIZE, self.offset)
            slice_ = self.events[start:end]
            while handle.outstanding >= self.credits:
                self._pump(handle)
            conn.send(FrameType.EVENTS, encode_event_batch(slice_))
            handle.outstanding += 1

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def finish(self) -> ClusterResult:
        """Close the stream: FINISH every worker, decode the RESULT
        documents, import worker metric snapshots, SHUTDOWN, reap."""
        if not self._started:
            raise RuntimeError("cluster never started")
        if self._finished:
            raise RuntimeError("cluster already finished")
        shards: Dict[str, ShardOutcome] = {}
        obs_urls: Dict[int, str] = {}
        for handle in self._handles:
            document = None
            for _attempt in range(self.max_restarts + 1):
                try:
                    self._drain(handle)
                    if handle.conn is None:
                        raise ClusterProtocolError(
                            f"worker {handle.index} has no connection"
                        )
                    handle.conn.send_json(FrameType.FINISH, {})
                    while True:
                        extra = self._pump(handle)
                        if extra is None:
                            continue
                        ftype, payload = extra
                        if ftype is not FrameType.RESULT:
                            raise ClusterProtocolError(
                                f"expected RESULT, got {ftype.name}"
                            )
                        document = decode_json(payload)
                        break
                    break
                except (OSError, ClusterProtocolError, WireFormatError):
                    self._recover(handle)
            if document is None:
                raise ClusterError(
                    f"worker {handle.index} keeps failing during finish"
                )
            for name, shard in document["shards"].items():
                shards[name] = ShardOutcome(
                    name=name,
                    worker=handle.index,
                    reports=[
                        report_from_record(record)
                        for record in shard["reports"]
                    ],
                    stats=stats_from_record(shard["stats"]),
                    signature=signature_from_record(shard["signature"]),
                    timings=shard["timings"],
                )
            if self.registry.enabled and "metrics" in document:
                import_worker_snapshot(
                    self.registry, handle.index, document["metrics"]
                )
            if handle.obs_url:
                obs_urls[handle.index] = handle.obs_url
        self._finished = True
        for handle in self._handles:
            if handle.conn is not None:
                try:
                    handle.conn.send_json(FrameType.SHUTDOWN, {})
                except OSError:
                    pass
            if handle.process is not None:
                handle.process.join(timeout=self.timeout)
                if handle.process.is_alive():  # pragma: no cover
                    handle.process.kill()
                    handle.process.join(timeout=self.timeout)
            if handle.conn is not None:
                handle.conn.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._workers_gauge.set(0)
        return ClusterResult(
            num_events=self.offset,
            shards=shards,
            workers=self.num_workers,
            restarts=sum(handle.restarts for handle in self._handles),
            registry=(self.registry if self.registry.enabled else None),
            obs_urls=obs_urls,
            final_checkpoint=(
                self._checkpoint[1] if self._checkpoint is not None else None
            ),
        )

    def abort(self) -> None:
        """Tear the fleet down without results (error paths)."""
        for handle in self._handles:
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
            if handle.process is not None and handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=self.timeout)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._finished = True
        self._workers_gauge.set(0)


class ClusterPipeline:
    """The fluent drive for the common case: broadcast a recorded
    stream end to end.  Mirrors the single-process
    :class:`~repro.engine.Pipeline` surface (this is what
    ``Pipeline.distributed(...)`` returns)::

        result = (
            Pipeline.distributed(events, names, workers=4)
            .watch("races", pattern_source)
            .run()
        )
    """

    def __init__(
        self,
        events: Sequence[Event],
        trace_names: Sequence[str],
        workers: int = 2,
        **cluster_options,
    ):
        self.coordinator = ClusterCoordinator(
            events=events,
            trace_names=trace_names,
            workers=workers,
            **cluster_options,
        )
        self._ran = False

    def watch(self, name: str, pattern_source: str) -> "ClusterPipeline":
        self.coordinator.watch(name, pattern_source)
        return self

    def restore(self, state: dict) -> "ClusterPipeline":
        self.coordinator.restore(state)
        return self

    def run(
        self,
        max_events: Optional[int] = None,
        batch_size: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        kill_worker_after: Optional[Tuple[int, int]] = None,
    ) -> ClusterResult:
        """Stream the whole recording through the fleet.

        ``checkpoint_every`` collects a merged deployment checkpoint
        every N batches; ``kill_worker_after=(index, batch)`` SIGKILLs
        one worker after the given batch number (the chaos cell —
        recovery is exercised inline and the result must still be
        bit-identical).  A cluster pipeline runs once.
        """
        if self._ran:
            raise RuntimeError("a ClusterPipeline runs once; build a "
                               "fresh one")
        self._ran = True
        coordinator = self.coordinator
        events = coordinator.events
        if max_events is not None:
            events = events[:max_events]
        size = (batch_size if batch_size is not None
                else DEFAULT_CLUSTER_BATCH_SIZE)
        if size < 1:
            raise ValueError(f"batch_size must be >= 1, got {size}")
        coordinator.start()
        try:
            batch_number = 0
            for start in range(0, len(events), size):
                coordinator.send_batch(events[start:start + size])
                batch_number += 1
                if (
                    checkpoint_every is not None
                    and batch_number % checkpoint_every == 0
                ):
                    coordinator.checkpoint()
                if (
                    kill_worker_after is not None
                    and batch_number == kill_worker_after[1]
                ):
                    coordinator.kill_worker(kill_worker_after[0])
            return coordinator.finish()
        except BaseException:
            coordinator.abort()
            raise


__all__ = [
    "ClusterCoordinator",
    "ClusterError",
    "ClusterPipeline",
    "ClusterResult",
    "DEFAULT_CLUSTER_BATCH_SIZE",
    "DEFAULT_CREDITS",
    "DEFAULT_MAX_RESTARTS",
    "DEFAULT_TIMEOUT",
    "ShardOutcome",
    "WorkerHandle",
]
