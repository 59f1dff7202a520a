"""The staged pipeline engine: one artifact for every wiring.

Every entry point of this reproduction runs the same detection
pipeline::

    source -> POETServer -> [FaultInjector] -> [HoldbackBuffer]
           -> [LoadShedder] -> ShardedDispatcher -> { Monitor, ... }

Historically each CLI subcommand, benchmark, and example hand-assembled
that chain; :class:`Pipeline` makes it an explicit, composable object
(the shape cloud-native CEP engines use for scalable pattern
detection).  A pipeline is built from a *source* —

* :meth:`Pipeline.for_case` / :meth:`Pipeline.for_workload` /
  :meth:`Pipeline.for_kernel` — a live simulation pushing events as
  the kernel runs; :meth:`run` drives the kernel (slices of one, since
  each event must reach the clients before simulated time advances
  past it);
* :meth:`Pipeline.stream` — an outside source pushing contiguous
  slices of the linearization with :meth:`feed`, closed by
  :meth:`finish`; :meth:`Pipeline.replay` / :meth:`Pipeline.from_dump`
  are that pipeline holding a recording (the paper's POET dump/reload
  methodology), which :meth:`run` feeds slice by slice.  Slices flow
  **batch-first** through
  :meth:`~repro.poet.server.POETServer.collect_batch` into the
  dispatcher's ``on_batch``, amortizing per-event dispatch overhead
  while staying observably identical to per-event delivery —

then configured fluently: :meth:`watch` adds pattern shards,
:meth:`with_faults`, :meth:`with_holdback`, and
:meth:`with_overload_control` insert the resilience stages,
:meth:`record` taps the collection order, :meth:`restore`
resumes from a checkpoint.  All of them must come before the first
delivery, which wires the stages; :meth:`run` / :meth:`finish` flush
the resilience stages in order and return a :class:`PipelineResult`.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.clocks.encoded import EncodedClock, StreamEncoder
from repro.core.config import MatcherConfig
from repro.core.matcher import MatchReport
from repro.core.monitor import MatchCallback, Monitor, MonitorStats
from repro.engine.cases import CASES, build_case
from repro.engine.dispatch import ShardedDispatcher
from repro.events.event import Event
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.stages import PipelineTelemetry, attach_telemetry
from repro.poet.client import POETClient, RecordingClient
from repro.poet.dumpfile import DumpFormatError, load_events
from repro.poet.holdback import HoldbackBuffer
from repro.poet.instrument import instrument
from repro.poet.server import POETServer
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.overload import (
    BAND_CHAFF,
    EventUtilityScorer,
    LoadShedder,
    OverloadDetector,
    OverloadState,
)
from repro.simulation.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    # imported when a pipeline wires its scrape server: http.server is
    # not a cost every importer of the engine pays
    from repro.obs.server import ObsServer

#: Default contiguous-slice size for replay sources.
DEFAULT_BATCH_SIZE = 256


@dataclasses.dataclass
class PipelineResult:
    """Outcome of one :meth:`Pipeline.run`.

    ``outcome`` is the kernel's :class:`SimulationResult` for live
    sources and ``None`` for replays; ``leftover`` holds events still
    stuck in the hold-back stage at end of stream (empty unless faults
    made the stream unrepairable).
    """

    num_events: int
    outcome: Optional[object]
    dispatcher: ShardedDispatcher
    leftover: List[Event]
    injector: Optional[FaultInjector]
    holdback: Optional[HoldbackBuffer]
    shedder: Optional[LoadShedder] = None
    #: True when the run was cut short by SIGTERM/``KeyboardInterrupt``
    #: and the pipeline shut down gracefully instead of unwinding
    #: mid-batch (obs server stopped, stage metrics flushed).  Its
    #: :meth:`checkpoint` with the recorded stream is exactly a
    #: crash-recovery pair — restore it into a fresh deployment and
    #: replay the recording to converge.
    interrupted: bool = False
    #: Stage-axis telemetry surface (``None`` when observability is
    #: disabled).
    telemetry: Optional[PipelineTelemetry] = None
    #: The embedded scrape server when :meth:`Pipeline.with_server`
    #: configured one; still serving after the run so post-run scrapes
    #: (and humans) can read the final state — stop it when done.
    obs_server: Optional[ObsServer] = None

    def __getitem__(self, name: str) -> Monitor:
        return self.dispatcher[name]

    @property
    def deadlocked(self) -> bool:
        return bool(self.outcome is not None and self.outcome.deadlocked)

    @property
    def stalled(self) -> bool:
        return bool(self.holdback is not None and self.holdback.stalled)

    def stats(self) -> Dict[str, MonitorStats]:
        return self.dispatcher.stats()

    def reports(self, name: str) -> List[MatchReport]:
        return self.dispatcher[name].reports

    def total_reports(self) -> int:
        return self.dispatcher.total_reports()

    def signatures(self) -> Dict[str, tuple]:
        return self.dispatcher.signatures()

    def checkpoint(self) -> dict:
        """Sharded snapshot of the matcher states where the run ended
        (finished or interrupted); when an overload stage ran, its
        shedder/detector snapshot rides along under the ``overload``
        key (the v1 format tolerates it)."""
        state = self.dispatcher.checkpoint()
        if self.shedder is not None:
            state["overload"] = self.shedder.snapshot()
        return state


class Pipeline:
    """A composable detection pipeline over one event source.

    Build with one of the constructors, add stages fluently, then drive
    it exactly once (:meth:`run`, or :meth:`feed` … :meth:`finish`).
    Every stage and pattern is added before the first delivery (a late
    shard would miss the prefix, like any late POET client).
    """

    def __init__(
        self,
        server: POETServer,
        trace_names: Sequence[str],
        kernel: Optional[Kernel] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.server = server
        self.kernel = kernel
        self.trace_names = tuple(trace_names)
        self.registry = registry
        self.tracer = tracer
        #: The one transcoder of this pipeline (see :meth:`feed`).
        self._stream_encoder = StreamEncoder(len(self.trace_names))
        #: The recording :meth:`run` feeds (set by :meth:`replay`).
        self._recording: Optional[Iterable[Event]] = None
        self._dispatcher: Optional[ShardedDispatcher] = None
        self._fault_plan: Optional[FaultPlan] = None
        self._fault_seed = 0
        self._holdback_config: Optional[dict] = None
        self._overload_config: Optional[dict] = None
        self._overload_restore: Optional[dict] = None
        #: Set by :meth:`with_overload_control` (public so callers can
        #: feed it latency observations, e.g. from the detection
        #: latency tracker).
        self.overload_detector: Optional[OverloadDetector] = None
        self._server_config: Optional[dict] = None
        #: Built when the stages wire, if the registry is live.
        self.telemetry: Optional[PipelineTelemetry] = None
        #: Built when the stages wire, if :meth:`with_server` was called.
        self.obs_server: Optional[ObsServer] = None
        #: Live stage references for the health endpoint (set on wiring).
        self._active_holdback: Optional[HoldbackBuffer] = None
        #: Wired by the first delivery; closed by :meth:`finish`.
        self._wired = False
        self._ran = False
        self._active_injector: Optional[FaultInjector] = None
        self._active_shedder: Optional[LoadShedder] = None
        #: Set by :meth:`for_case`: the case's pattern source, sized
        #: for the workload.
        self.case_pattern: Optional[str] = None

    # ------------------------------------------------------------------
    # Constructors (sources)
    # ------------------------------------------------------------------

    @classmethod
    def for_kernel(
        cls,
        kernel: Kernel,
        verify: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> "Pipeline":
        """Instrument a simulation kernel as the live event source."""
        server = instrument(kernel, verify=verify, registry=registry,
                            tracer=tracer)
        return cls(
            server=server,
            trace_names=kernel.trace_names(),
            kernel=kernel,
            registry=registry,
            tracer=tracer,
        )

    @classmethod
    def for_workload(
        cls,
        workload: object,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> "Pipeline":
        """Wrap an already-built workload (anything exposing ``kernel``,
        ``server``, and ``run(max_events)`` — every builder in
        :mod:`repro.workloads` does)."""
        server = workload.server
        kernel = workload.kernel
        if registry is not None:
            server.use_registry(registry)
        if tracer is not None:
            kernel.set_tracer(tracer)
            server.use_tracer(tracer)
        return cls(
            server=server,
            trace_names=kernel.trace_names(),
            kernel=kernel,
            registry=registry,
            tracer=tracer,
        )

    @classmethod
    def for_case(
        cls,
        name: str,
        traces: int = 10,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> "Pipeline":
        """Build a named case study (see :data:`repro.engine.CASES`) as
        the live source; its detection pattern, sized for the workload,
        is left unwatched in ``case_pattern``."""
        if name not in CASES:
            raise KeyError(
                f"unknown case {name!r}; known: {sorted(CASES)}"
            )
        workload, pattern_source = build_case(name, traces, seed)
        pipeline = cls.for_workload(workload, registry=registry, tracer=tracer)
        pipeline.case_pattern = pattern_source
        return pipeline

    @classmethod
    def replay(
        cls,
        events: Iterable[Event],
        trace_names: Sequence[str],
        verify: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> "Pipeline":
        """A :meth:`stream` pipeline holding a recorded stream (a valid
        linearization, e.g. from :meth:`record` or a dump file), which
        :meth:`run` feeds slice by slice.  ``events`` is kept as it is
        and read once: a list or a one-pass iterator both do.

        A full-vector recording (a dump file, a
        :class:`~repro.testing.Weaver` stream) is transcoded per slice
        (see :meth:`feed`); a stream recorded from a kernel is already
        stamped and passes through untouched.  Matcher output is
        bit-identical either way.
        """
        pipeline = cls.stream(
            trace_names, verify=verify, registry=registry, tracer=tracer
        )
        pipeline._recording = events
        return pipeline

    @classmethod
    def from_dump(
        cls,
        path,
        verify: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> "Pipeline":
        """Replay a POET dump file (the paper's reload methodology),
        read one record at a time as :meth:`run` feeds it: a bad record
        raises from :meth:`run`, after the records before it."""
        events, _num_traces, names = load_events(path)
        return cls.replay(
            events, names, verify=verify, registry=registry, tracer=tracer
        )

    @classmethod
    def stream(
        cls,
        trace_names: Sequence[str],
        verify: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> "Pipeline":
        """A pipeline over an *external* event source: slices of the
        linearization are pushed with :meth:`feed` as they arrive, and
        :meth:`finish` closes the stream and returns the result.

        This is the shape a live transport needs, one that cannot hand
        the pipeline a finite source up front.  Stages wire on the
        first :meth:`feed` (so every ``watch``/``with_*`` call happens
        strictly before delivery).
        """
        server = POETServer(
            num_traces=len(trace_names),
            trace_names=trace_names,
            verify=verify,
            registry=registry,
            tracer=tracer,
        )
        return cls(
            server=server,
            trace_names=trace_names,
            registry=registry,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Stage configuration
    # ------------------------------------------------------------------

    def _configurable(self, method: str) -> None:
        """The one "still configurable" guard: a stage, shard, tap or
        restore added once delivery has wired the pipeline would never
        see the stream's prefix (or never be inserted at all)."""
        if self._wired:
            raise RuntimeError(
                f"cannot {method}() after run()/feed(): what it adds "
                "would have missed the whole stream"
            )

    def watch(
        self,
        name: str,
        pattern_source: str,
        config: Optional[MatcherConfig] = None,
        record_timings: bool = True,
        on_match: Optional[MatchCallback] = None,
    ) -> Monitor:
        """Add a pattern shard; returns its monitor.  ``on_match``
        receives each of its reports."""
        self._configurable("watch")
        if self._overload_config is not None:
            # Shards downstream of a shedder must tolerate stream
            # holes; while no event is actually shed the matcher's
            # behaviour (and output) is unchanged.
            config = dataclasses.replace(
                config if config is not None else MatcherConfig(),
                complete_stream=False,
            )
        return self.dispatcher.watch(
            name,
            pattern_source,
            config=config,
            record_timings=record_timings,
            on_match=on_match,
        )

    def with_faults(self, plan: FaultPlan, seed: int = 0) -> "Pipeline":
        """Insert a seeded :class:`FaultInjector` stage downstream of
        the server (faults perturb *delivery to the monitors*; the
        server checks the true collection order, and :meth:`record`
        taps it)."""
        self._configurable("with_faults")
        if self._fault_plan is not None:
            raise RuntimeError("pipeline already has a fault stage")
        self._fault_plan = plan
        self._fault_seed = seed
        return self

    def with_holdback(
        self,
        capacity: Optional[int] = None,
        overflow: str = "raise",
        stall_watermark: Optional[int] = None,
    ) -> "Pipeline":
        """Insert a causal :class:`HoldbackBuffer` stage in front of
        the dispatcher (repairs repairable fault kinds, detects the
        rest as stalls)."""
        self._configurable("with_holdback")
        if self._holdback_config is not None:
            raise RuntimeError("pipeline already has a hold-back stage")
        self._holdback_config = {
            "capacity": capacity,
            "overflow": overflow,
            "stall_watermark": stall_watermark,
        }
        return self

    def with_overload_control(
        self,
        detector: Optional[OverloadDetector] = None,
        shed_band: int = BAND_CHAFF,
        max_drop_rate: Optional[float] = None,
        latency_profile=None,
        record_kept: bool = False,
    ) -> "Pipeline":
        """Insert a :class:`~repro.resilience.overload.LoadShedder`
        stage between the hold-back buffer (when present) and the
        dispatcher.  Must be called before the first :meth:`watch`:
        shards downstream of a shedder run with
        ``complete_stream=False``, so their matchers tolerate the holes
        shedding leaves and re-verify candidates once a gap is seen
        (match output is bit-identical while the detector never
        engages).

        ``detector`` defaults to a fresh
        :class:`~repro.resilience.overload.OverloadDetector` with
        default thresholds.  Events are scored by an
        :class:`~repro.resilience.overload.EventUtilityScorer` over
        every watched shard, which is also handed to the hold-back
        buffer so its ``shed`` overflow policy evicts least-useful
        first.  See :class:`~repro.resilience.overload.LoadShedder`
        for the remaining knobs.
        """
        self._configurable("with_overload_control")
        if self._overload_config is not None:
            raise RuntimeError("pipeline already has an overload stage")
        if self._dispatcher is not None:
            raise RuntimeError(
                "with_overload_control() must be set before the first "
                "watch(): shards must be built gap-tolerant"
            )
        if detector is None:
            detector = OverloadDetector(
                registry=self.registry, tracer=self.tracer
            )
        self._overload_config = {
            "shed_band": shed_band,
            "max_drop_rate": max_drop_rate,
            "latency_profile": latency_profile,
            "record_kept": record_kept,
        }
        self.overload_detector = detector
        return self

    def with_server(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> "Pipeline":
        """Serve live observability over HTTP while the pipeline runs
        (``/metrics``, ``/snapshot``, ``/healthz``, ``/readyz``,
        ``/spans`` — see :class:`~repro.obs.server.ObsServer`).

        Port ``0`` binds a free port (read it from
        ``pipeline.obs_server.port`` once :meth:`run` has started the
        server).  Must be called before the first :meth:`watch`: a
        pipeline built without a registry gets one minted here, and the
        shards must be born into it.  The server outlives :meth:`run`
        so the end-of-run state stays scrapeable; call
        ``obs_server.stop()`` (or let the daemon thread die with the
        process) when done.
        """
        self._configurable("with_server")
        if self._server_config is not None:
            raise RuntimeError("pipeline already has a scrape server")
        if self._dispatcher is not None:
            raise RuntimeError(
                "with_server() must be set before the first watch(): "
                "shards must be born into the served registry"
            )
        if self.registry is None or not self.registry.enabled:
            self.registry = MetricsRegistry()
            self.server.use_registry(self.registry)
        self._server_config = {"port": port, "host": host}
        return self

    def _health_document(self) -> dict:
        """The ``/healthz`` body; called from server threads, so it
        only reads plain attributes (safe under the GIL)."""
        telemetry = self.telemetry
        started = bool(telemetry is not None and telemetry.started)
        finished = bool(telemetry is not None and telemetry.finished)
        quarantined = (
            sorted(self._dispatcher.quarantined)
            if self._dispatcher is not None
            else []
        )
        stalled = bool(
            self._active_holdback is not None and self._active_holdback.stalled
        )
        degraded = stalled or bool(quarantined)
        document = {
            "ready": started,
            "running": started and not finished,
            "finished": finished,
            "events": self.server.num_events,
            "stalled": stalled,
            "quarantined": quarantined,
            "stages": telemetry.stage_summary() if telemetry is not None else {},
        }
        if self.overload_detector is not None:
            state = self.overload_detector.state
            document["overload_state"] = state.name
            degraded = degraded or state != OverloadState.NORMAL
        document["status"] = "degraded" if degraded else "ok"
        return document

    def record(self) -> RecordingClient:
        """Tap the server's collection order (the true linearization,
        upstream of any fault stage); returns the recorder."""
        self._configurable("record")
        recorder = RecordingClient()
        self.server.connect(recorder)
        return recorder

    def restore(self, state: dict) -> "Pipeline":
        """Resume from a sharded checkpoint
        (:meth:`PipelineResult.checkpoint`; a single monitor resumes
        with :meth:`Monitor.restore`).  Restored shards skip
        already-delivered events, so running the pipeline over the full
        recorded stream converges to the uninterrupted run.  A checkpoint carrying shedder state needs
        an overload stage to restore it into."""
        self._configurable("restore")
        if self._dispatcher is None or len(self.dispatcher) == 0:
            raise RuntimeError("restore() needs the shards watched first")
        if "overload" in state:
            if self._overload_config is None:
                raise ValueError(
                    "the checkpoint's 'overload' section needs a pipeline "
                    "with an overload stage (with_overload_control())"
                )
            # The shedder is built when the stages wire; stash its snapshot.
            self._overload_restore = state["overload"]
            state = {k: v for k, v in state.items() if k != "overload"}
        self.dispatcher.restore(state)
        return self

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def dispatcher(self) -> ShardedDispatcher:
        """The shard dispatcher (created on first use)."""
        if self._dispatcher is None:
            self._dispatcher = ShardedDispatcher(
                self.trace_names,
                registry=self.registry,
                tracer=self.tracer,
            )
        return self._dispatcher

    def __getitem__(self, name: str) -> Monitor:
        return self.dispatcher[name]

    @property
    def num_traces(self) -> int:
        return len(self.trace_names)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _wire(self) -> None:
        """Build and connect the stage chain (exactly once, at the first
        delivery): telemetry, shedder, hold-back, fault injector, scrape
        server."""
        if self._wired:
            return
        self._wired = True

        telemetry = attach_telemetry(self.registry)
        self.telemetry = telemetry

        dispatcher = self._dispatcher
        holdback: Optional[HoldbackBuffer] = None
        injector: Optional[FaultInjector] = None
        shedder: Optional[LoadShedder] = None

        tail: Optional[POETClient] = dispatcher
        if telemetry is not None and dispatcher is not None:
            tail = telemetry.link("dispatcher", dispatcher)
        scorer: Optional[EventUtilityScorer] = None
        if self._overload_config is not None:
            if dispatcher is None or len(dispatcher) == 0:
                raise RuntimeError("an overload stage needs a watched shard")
            scorer = EventUtilityScorer([monitor for _, monitor in dispatcher])
            shedder = LoadShedder(
                tail,
                scorer,
                self.overload_detector,
                registry=self.registry,
                tracer=self.tracer,
                **self._overload_config,
            )
            if self._overload_restore is not None:
                shedder.restore(self._overload_restore)
            tail = shedder
            if telemetry is not None:
                tail = telemetry.link("shedder", shedder)
        if self._holdback_config is not None:
            if tail is None:
                raise RuntimeError("a hold-back stage needs a watched shard")
            # Releases go downstream one event at a time, as in the
            # per-event stage chain the end-to-end benchmark traces and
            # compares this pipeline's counters with (ROADMAP 0(f)).
            holdback = HoldbackBuffer(
                self.num_traces,
                tail.on_event,
                registry=self.registry,
                tracer=self.tracer,
                utility_scorer=scorer,
                **self._holdback_config,
            )
            if shedder is not None:
                shedder.set_backlog_probe(lambda: holdback.pending_count)
            tail = holdback
            if telemetry is not None:
                tail = telemetry.link("holdback", holdback)
        if self._fault_plan is not None:
            if tail is None:
                raise RuntimeError("a fault stage needs a watched shard")
            injector = FaultInjector(
                self._fault_plan,
                tail,
                seed=self._fault_seed,
                registry=self.registry,
                tracer=self.tracer,
            )
            tail = injector
            if telemetry is not None:
                tail = telemetry.link("faults", injector)
        if tail is not None:
            self.server.connect(tail)

        self._active_holdback = holdback
        if telemetry is not None:
            poet_server = self.server
            telemetry.set_count_probe(
                "source", lambda: poet_server.num_events
            )
            # The server retains nothing: its queue depth stays 0.
            telemetry.set_count_probe("poet", lambda: poet_server.num_events)
            if dispatcher is not None:
                telemetry.set_count_probe(
                    "monitors",
                    lambda: sum(
                        mon.matcher.events_processed
                        for _name, mon in dispatcher
                    ),
                )
            if holdback is not None:
                telemetry.set_queue_probe(
                    "holdback", lambda: holdback.pending_count
                )
            if injector is not None:
                telemetry.set_queue_probe(
                    "faults", lambda: injector.pending_count
                )

        if self._server_config is not None:
            from repro.obs.server import ObsServer

            self.obs_server = ObsServer(
                self.registry,
                tracer=self.tracer,
                health=self._health_document,
                refresh=telemetry.refresh if telemetry is not None else None,
                host=self._server_config["host"],
                port=self._server_config["port"],
            )
            self.obs_server.start()
        if telemetry is not None:
            telemetry.mark_started()

        self._active_injector = injector
        self._active_shedder = shedder

    def _finalize(
        self,
        outcome: Optional[object],
        interrupted: bool = False,
    ) -> PipelineResult:
        """Close the pipeline: flush the resilience stages (skipped on an
        interrupted run — a repair flush mid-stream would deliver out of
        causal order), flush stage metrics, and assemble the result."""
        self._ran = True
        injector = self._active_injector
        holdback = self._active_holdback
        telemetry = self.telemetry

        leftover: List[Event] = []
        if not interrupted:
            if injector is not None:
                injector.flush()
            if holdback is not None:
                leftover = holdback.flush()

        if telemetry is not None:
            telemetry.mark_finished()
            telemetry.refresh()

        if interrupted:
            # A graceful shutdown leaves nothing listening: callers of
            # an uninterrupted run may keep scraping the end-of-run
            # state, but an interrupted process is on its way out.
            if self.obs_server is not None:
                self.obs_server.stop()

        return PipelineResult(
            num_events=self.server.num_events,
            outcome=outcome,
            dispatcher=self.dispatcher,
            leftover=leftover,
            injector=injector,
            holdback=holdback,
            shedder=self._active_shedder,
            telemetry=telemetry,
            obs_server=self.obs_server,
            interrupted=interrupted,
        )

    def run(
        self,
        max_events: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> PipelineResult:
        """Wire the stages, drive the source to completion, flush the
        resilience stages, and return the result.

        A live pipeline runs its kernel for at most ``max_events``; a
        :meth:`replay` pipeline hands the first ``max_events`` of its
        recording to :meth:`feed` in slices of ``batch_size`` (default
        :data:`DEFAULT_BATCH_SIZE`) and then finishes.  A
        pipeline runs exactly once.

        Shutdown is graceful: SIGTERM (when running on the main
        thread) and ``KeyboardInterrupt`` stop the source at the next
        delivery boundary instead of unwinding mid-batch — stage
        metrics are flushed, the scrape server is stopped, and
        ``result.checkpoint()`` paired with the recording recovers the
        run exactly.
        """
        if self._wired:
            raise RuntimeError("a Pipeline runs once; build a fresh one")
        size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
        if size < 1:
            raise ValueError(f"batch_size must be >= 1, got {size}")
        if self.kernel is None and self._recording is None:
            raise RuntimeError(
                "pipeline has no source: a stream() pipeline is driven "
                "with feed()/finish()"
            )
        self._wire()

        outcome = None
        interrupted = False
        with _graceful_sigterm():
            try:
                if self.kernel is not None:
                    outcome = self.kernel.run(max_events=max_events)
                else:
                    events = islice(self._recording, max_events)
                    while True:
                        batch: List[Event] = []
                        try:
                            # one append per record: what was read
                            # before a bad record stays in ``batch``
                            for event in islice(events, size):
                                batch.append(event)
                        except DumpFormatError:
                            # the records read before the bad one
                            # are delivered, as a rejected slice's are
                            if batch:
                                self.feed(batch)
                            raise
                        if not batch:
                            break
                        self.feed(batch)
            except KeyboardInterrupt:
                interrupted = True
        return self._finalize(outcome, interrupted=interrupted)

    def feed(self, events: Sequence[Event]) -> int:
        """Deliver the next slice of the linearization (not on a live
        pipeline, whose kernel is the source).

        Wires the stages on first use.  A full-vector slice (a dump, a
        wire batch, a :class:`~repro.testing.Weaver` stream) is stamped
        with encoded clocks first, through the pipeline's one
        :class:`~repro.clocks.encoded.StreamEncoder`; a slice whose
        first event already carries an
        :class:`~repro.clocks.encoded.EncodedClock` goes to the server
        as it is — read off the input, never a parameter.  Returns the
        number of events delivered.
        """
        if self.kernel is not None:
            raise RuntimeError("feed() on a live pipeline: its kernel is "
                               "the source, drive it with run()")
        if self._ran:
            raise RuntimeError("stream already finished")
        if not self._wired:
            self._wire()
        if not events:
            return 0
        if not isinstance(events[0].clock, EncodedClock):
            events = self._stream_encoder.extend(events)
        self.server.collect_batch(events)
        return len(events)

    def finish(self) -> PipelineResult:
        """Close a fed stream: flush the resilience stages, flush stage
        metrics, and return the result (a stream finishes once)."""
        if self._ran:
            raise RuntimeError("stream already finished")
        self._wire()  # an empty stream still yields a well-formed result
        return self._finalize(outcome=None)


class _graceful_sigterm:
    """Turn SIGTERM into ``KeyboardInterrupt`` for the duration of a
    pipeline drive, so both interrupt paths share the graceful-shutdown
    handling.  Installed only on the main thread (signal handlers
    cannot be set elsewhere); a no-op otherwise, and the previous
    handler is always restored."""

    def __init__(self) -> None:
        self._previous = None

    def __enter__(self) -> "_graceful_sigterm":
        if threading.current_thread() is threading.main_thread():
            def _raise(signum, frame):
                raise KeyboardInterrupt
            try:
                self._previous = signal.signal(signal.SIGTERM, _raise)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                self._previous = None
        return self

    def __exit__(self, *exc) -> bool:
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)
            self._previous = None
        return False


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Pipeline",
    "PipelineResult",
]
