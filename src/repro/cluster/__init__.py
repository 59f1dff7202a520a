"""``repro.cluster``: the multi-process sharded runtime.

An **isolation and crash-recovery** feature, not a faster deployment:
a shard's process can be killed and respawned without losing a match,
and the fleet moves 0.2-0.5x the events/s of the same shards in one
process (every worker gets the full stream; numbers in ROADMAP
"Carried over").  The shape is that of cloud-native pattern-detection
frameworks (Mavroudopoulos & Gounaris): a
**stateless ingress** (the coordinator, owning the recorded stream
and the shard-routing policy) fanning events out to **stateful
per-shard workers** (each a ``multiprocessing`` process running an
ordinary single-shard :class:`~repro.engine.Pipeline` in stream mode),
connected by a socket-based POET transport:

* :mod:`repro.cluster.wire` — the length-prefixed binary frame format
  and the event-batch codec;
* :mod:`repro.cluster.transport` — blocking framed connections plus
  the credit-based back-pressure ledger;
* :mod:`repro.cluster.worker` — the worker process main loop;
* :mod:`repro.cluster.coordinator` — shard routing
  (:func:`~repro.engine.dispatch.shard_worker`), heartbeats,
  checkpoint/recovery of crashed workers, and result aggregation;
* :mod:`repro.cluster.metrics` — per-worker metric snapshots imported
  into the coordinator's registry for one-stop scraping.

Shard semantics match the in-process
:class:`~repro.engine.dispatch.ShardedDispatcher` exactly: every shard
observes the full linearization, so cluster match output is
bit-identical to the single-process sharded run — the equivalence
``ocep check --workers N`` and the CI ``check`` job assert.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterError,
    ClusterPipeline,
    ClusterResult,
    ShardOutcome,
    WorkerHandle,
)
from repro.cluster.transport import ClusterProtocolError, FrameConnection
from repro.cluster.wire import (
    PROTOCOL_VERSION,
    FrameType,
    WireFormatError,
    decode_event_batch,
    decode_json,
    encode_event_batch,
    encode_json,
)
from repro.cluster.worker import worker_main

__all__ = [
    "ClusterCoordinator",
    "ClusterError",
    "ClusterPipeline",
    "ClusterProtocolError",
    "ClusterResult",
    "FrameConnection",
    "FrameType",
    "PROTOCOL_VERSION",
    "ShardOutcome",
    "WireFormatError",
    "WorkerHandle",
    "decode_event_batch",
    "decode_json",
    "encode_event_batch",
    "encode_json",
    "worker_main",
]
