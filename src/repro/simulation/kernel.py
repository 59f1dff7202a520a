"""Discrete-event simulation kernel.

The kernel runs a set of generator-based processes
(:mod:`repro.simulation.process`) over a buffered message-passing
network (:mod:`repro.simulation.network`), maintains encoded vector
timestamps (:mod:`repro.clocks.encoded`, one shared
:class:`~repro.clocks.encoded.ClockFrame`) and Lamport clocks for every
trace, and emits one
:class:`repro.events.Event` per instrumented action to its sinks in
simulation-time order — a valid linearization of the happens-before
partial order by construction.

Trace layout: process ``i`` owns trace ``i``; semaphore ``j`` owns
trace ``num_processes + j``.  Modelling semaphores as separate traces
reproduces the μC++ POET plugin behaviour the atomicity case study
depends on (paper, Section V-C3): a grant is a message from the
semaphore trace to the acquiring process and a release is a message
back, so critical sections protected by the semaphore are causally
ordered through it, while a bypassed (buggy) acquire leaves them
concurrent.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
import random
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Sequence, Tuple

from repro.clocks.lamport import LamportClock
from repro.clocks.encoded import ClockFrame, EncodedClock
from repro.events.event import Event, EventId, EventKind
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.simulation.errors import DeadlockError, SimulationError
from repro.simulation.network import Message, Network
from repro.simulation.process import (
    AcquireAction,
    Action,
    EmitAction,
    Proc,
    ReceiveAction,
    ReleaseAction,
    SendAction,
    SleepAction,
)

#: Wildcard source for receives (mirrors ``MPI_ANY_SOURCE``).
ANY_SOURCE = -1

ProcessBody = Callable[[Proc], Generator[Action, Any, None]]
EventSink = Callable[[Event], None]


class _ProcState(enum.Enum):
    READY = "ready"
    BLOCKED_SEND = "blocked-send"
    BLOCKED_RECV = "blocked-recv"
    BLOCKED_SEM = "blocked-sem"
    DONE = "done"


@dataclasses.dataclass
class _Semaphore:
    count: int
    waiters: Deque[int] = dataclasses.field(default_factory=deque)


@dataclasses.dataclass
class SimulationResult:
    """Outcome of a kernel run.

    Attributes
    ----------
    num_events:
        Total events emitted.
    deadlocked:
        True when the run ended because every live process was blocked
        with nothing in flight.
    blocked:
        Process ids that were blocked at the end (the deadlock cycle
        participants when ``deadlocked``).
    truncated:
        True when the run stopped at the ``max_events`` budget.
    sim_time:
        Final simulation clock value.
    """

    num_events: int
    deadlocked: bool
    blocked: Tuple[int, ...]
    truncated: bool
    sim_time: float


class Kernel:
    """Seeded discrete-event simulator for message-passing programs.

    Parameters
    ----------
    num_processes:
        Number of sequential processes (one trace each).
    num_semaphores:
        Number of semaphores, each a separate trace.
    seed:
        RNG seed; all nondeterminism (delays, jitter) derives from it,
        so a run is fully reproducible.
    buffer_capacity:
        Per-destination network buffer capacity (``None`` = unbounded,
        ``0`` = rendezvous); see :class:`repro.simulation.network.Network`.
    semaphore_counts:
        Initial count per semaphore (default all 1, i.e. mutexes).
    mean_delay:
        Mean network latency; actual delays jitter uniformly in
        ``[0.5, 1.5] * mean_delay``.
    action_delay:
        Local time consumed by each process action (with jitter).
    trace_blocking:
        Emit a ``SendBlock`` event when a send enters the blocked
        state (the instrumented activity deadlock patterns match on).
    """

    def __init__(
        self,
        num_processes: int,
        num_semaphores: int = 0,
        seed: int = 0,
        buffer_capacity: Optional[int] = None,
        semaphore_counts: Optional[Sequence[int]] = None,
        mean_delay: float = 1.0,
        action_delay: float = 0.1,
        trace_blocking: bool = True,
    ):
        if num_processes <= 0:
            raise ValueError(f"need at least one process, got {num_processes}")
        if num_semaphores < 0:
            raise ValueError(f"num_semaphores must be >= 0, got {num_semaphores}")
        if semaphore_counts is not None and len(semaphore_counts) != num_semaphores:
            raise ValueError(
                f"got {len(semaphore_counts)} counts for {num_semaphores} semaphores"
            )

        self.num_processes = num_processes
        self.num_semaphores = num_semaphores
        self.num_traces = num_processes + num_semaphores
        self._rng = random.Random(seed)
        self._mean_delay = mean_delay
        self._action_delay = action_delay
        self._trace_blocking = trace_blocking

        self._network = Network(num_processes, capacity=buffer_capacity)
        self._semaphores = [
            _Semaphore(count=(semaphore_counts[i] if semaphore_counts else 1))
            for i in range(num_semaphores)
        ]

        self.clock_frame = ClockFrame(self.num_traces)
        self._clocks: List[EncodedClock] = [
            self.clock_frame.zero(t) for t in range(self.num_traces)
        ]
        self._lamports: List[LamportClock] = [
            LamportClock() for _ in range(self.num_traces)
        ]

        self._bodies: List[Optional[Generator[Action, Any, None]]] = [
            None
        ] * num_processes
        self._states: List[_ProcState] = [_ProcState.DONE] * num_processes
        self._recv_filters: Dict[int, ReceiveAction] = {}
        self._pending_sends: List[Deque[Tuple[int, Message]]] = [
            deque() for _ in range(num_processes)
        ]

        self._last_arrival: Dict[Tuple[int, int], float] = {}
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._num_events = 0
        self._sinks: List[EventSink] = []
        self._transmit_fault: Optional[Callable[[Message], float]] = None
        self._tracer: SpanTracer = NULL_TRACER

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def add_sink(self, sink: EventSink) -> None:
        """Register a callback invoked for every emitted event, in
        linearization order."""
        self._sinks.append(sink)

    def set_transmit_fault(self, fault: Optional[Callable[[Message], float]]) -> None:
        """Install a network fault hook (``None`` removes it).

        The hook is called once per transmitted message and returns
        extra delivery latency (>= 0 simulated time units) added to the
        jittered network delay — e.g.
        :class:`repro.resilience.faults.TransmitFaults`.  Non-overtaking
        per-channel delivery is still enforced afterwards, so a faulted
        run remains a valid computation (a different interleaving, not
        a corrupted one)."""
        self._transmit_fault = fault

    def set_tracer(self, tracer: Optional[SpanTracer]) -> None:
        """Attach a span tracer (``None`` detaches).  Every emitted
        event becomes a slice on its trace's simulated-time track, and
        every message (point-to-point or semaphore grant/release)
        becomes a flow event from its send slice to its receive slice
        — the happens-before edges of the computation."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if self._tracer.enabled:
            for trace, name in enumerate(self.trace_names()):
                self._tracer.sim_track(trace, name)
            self._tracer.bind_sim_clock(lambda: self._now)

    @property
    def now(self) -> float:
        """Current simulated time (advances monotonically while
        :meth:`run` drains the schedule)."""
        return self._now

    def spawn(self, pid: int, body: ProcessBody) -> None:
        """Install the program for process ``pid``."""
        if not 0 <= pid < self.num_processes:
            raise ValueError(f"process id {pid} out of range")
        if self._bodies[pid] is not None:
            raise SimulationError(f"process {pid} already has a body")
        proc_rng = random.Random(self._rng.randrange(2**62))
        self._bodies[pid] = body(Proc(pid, proc_rng))
        self._states[pid] = _ProcState.READY
        self._schedule(self._jitter(self._action_delay), self._resume, pid, None)

    def trace_names(self) -> List[str]:
        """Human-readable names for all traces, processes then semaphores."""
        names = [f"P{i}" for i in range(self.num_processes)]
        names += [f"sem{j}" for j in range(self.num_semaphores)]
        return names

    def semaphore_trace(self, sem: int) -> int:
        """Trace id of semaphore ``sem``."""
        if not 0 <= sem < self.num_semaphores:
            raise ValueError(f"semaphore {sem} out of range")
        return self.num_processes + sem

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(
        self,
        max_events: Optional[int] = None,
        max_time: Optional[float] = None,
        stop_on_deadlock: bool = True,
    ) -> SimulationResult:
        """Run until completion, deadlock, or a budget is exhausted.

        With ``stop_on_deadlock=False`` a deadlock raises
        :class:`DeadlockError` instead of returning normally.
        """
        truncated = False
        while self._heap:
            if max_events is not None and self._num_events >= max_events:
                truncated = True
                break
            when, _, thunk = heapq.heappop(self._heap)
            if max_time is not None and when > max_time:
                truncated = True
                break
            self._now = when
            thunk()

        blocked = tuple(
            pid
            for pid, state in enumerate(self._states)
            if state
            in (_ProcState.BLOCKED_SEND, _ProcState.BLOCKED_RECV, _ProcState.BLOCKED_SEM)
        )
        deadlocked = not truncated and bool(blocked) and not self._heap
        if deadlocked and not stop_on_deadlock:
            raise DeadlockError(blocked)
        return SimulationResult(
            num_events=self._num_events,
            deadlocked=deadlocked,
            blocked=blocked,
            truncated=truncated,
            sim_time=self._now,
        )

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        heapq.heappush(
            self._heap,
            (self._now + delay, next(self._seq), lambda: fn(*args)),
        )

    def _jitter(self, mean: float) -> float:
        return mean * self._rng.uniform(0.5, 1.5)

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------

    def _emit(
        self,
        trace: int,
        etype: str,
        text: str,
        kind: EventKind,
        partner: Optional[EventId] = None,
        merge_clock: Optional[EncodedClock] = None,
        merge_lamport: Optional[int] = None,
    ) -> Event:
        clock = self._clocks[trace]
        if merge_clock is not None:
            clock = clock.merge(merge_clock)
        clock = clock.tick(trace)
        self._clocks[trace] = clock

        if merge_lamport is not None:
            lamport = self._lamports[trace].receive(merge_lamport)
        else:
            lamport = self._lamports[trace].tick()

        event = Event(
            trace=trace,
            index=clock[trace],
            etype=etype,
            text=text,
            clock=clock,
            kind=kind,
            partner=partner,
            lamport=lamport,
        )
        self._num_events += 1
        if self._tracer.enabled:
            ts = self._tracer.sim_event(
                trace,
                etype,
                self._now,
                args={"id": repr(event.event_id), "kind": kind.value,
                      "text": text},
            )
            if kind is EventKind.SEND:
                self._tracer.flow_start(event.event_id, trace, self._now, ts=ts)
            elif kind is EventKind.RECEIVE and partner is not None:
                self._tracer.flow_finish(partner, trace, self._now, ts=ts)
        for sink in self._sinks:
            sink(event)
        return event

    # ------------------------------------------------------------------
    # Process stepping
    # ------------------------------------------------------------------

    def _resume(self, pid: int, value: Any) -> None:
        body = self._bodies[pid]
        if body is None or self._states[pid] is _ProcState.DONE:
            return
        self._states[pid] = _ProcState.READY
        try:
            action = body.send(value)
        except StopIteration:
            self._states[pid] = _ProcState.DONE
            return
        self._handle(pid, action)

    def _resume_later(self, pid: int, value: Any) -> None:
        self._schedule(self._jitter(self._action_delay), self._resume, pid, value)

    def _handle(self, pid: int, action: Action) -> None:
        if isinstance(action, EmitAction):
            event = self._emit(pid, action.etype, action.text, EventKind.UNARY)
            self._resume_later(pid, event)
        elif isinstance(action, SleepAction):
            self._schedule(action.duration, self._resume, pid, None)
        elif isinstance(action, SendAction):
            self._handle_send(pid, action)
        elif isinstance(action, ReceiveAction):
            self._handle_receive(pid, action)
        elif isinstance(action, AcquireAction):
            self._handle_acquire(pid, action)
        elif isinstance(action, ReleaseAction):
            self._handle_release(pid, action)
        else:
            raise SimulationError(f"process {pid} yielded unknown action {action!r}")

    # ------------------------------------------------------------------
    # Point-to-point messaging
    # ------------------------------------------------------------------

    def _handle_send(self, pid: int, action: SendAction) -> None:
        if not 0 <= action.dst < self.num_processes:
            raise SimulationError(f"send to unknown process {action.dst}")
        if action.dst == pid:
            raise SimulationError(f"process {pid} cannot send to itself")

        event = self._emit(pid, action.etype, action.text, EventKind.SEND)
        message = Message(
            src=pid,
            dst=action.dst,
            payload=action.payload,
            send_event=event.event_id,
            send_clock=event.clock,
            send_lamport=event.lamport,
            tag=action.tag,
        )

        receiver_waiting = self._states[action.dst] is _ProcState.BLOCKED_RECV and (
            self._matches_filter(self._recv_filters[action.dst], message)
        )
        if self._network.has_room(action.dst) or receiver_waiting:
            self._transmit(message)
            self._resume_later(pid, event)
        else:
            # The send cannot be buffered: the caller blocks (the
            # MPI_Send subtlety).  The tracer records the transition
            # into the blocked state as its own instrumented event —
            # this is what deadlock-cycle patterns match on.
            if self._trace_blocking:
                self._emit(pid, "SendBlock", action.text, EventKind.LOCAL)
            self._pending_sends[action.dst].append((pid, message))
            self._states[pid] = _ProcState.BLOCKED_SEND

    def _transmit(self, message: Message) -> None:
        self._network.reserve(message.dst)
        # Non-overtaking channels (MPI guarantee): arrivals on one
        # (src, dst) pair are monotone in transmission order even
        # though each delivery is independently jittered.
        arrival = self._now + self._jitter(self._mean_delay)
        if self._transmit_fault is not None:
            extra = self._transmit_fault(message)
            if extra < 0:
                raise SimulationError(
                    f"transmit fault returned negative delay {extra}"
                )
            arrival += extra
        channel = (message.src, message.dst)
        floor = self._last_arrival.get(channel, 0.0)
        arrival = max(arrival, floor + 1e-9)
        self._last_arrival[channel] = arrival
        self._schedule(arrival - self._now, self._arrive, message)

    def _arrive(self, message: Message) -> None:
        self._network.arrive(message)
        dst = message.dst
        if self._states[dst] is _ProcState.BLOCKED_RECV:
            fltr = self._recv_filters[dst]
            matched = self._network.match(dst, fltr.source, fltr.tag)
            if matched is not None:
                self._consume(dst, fltr, matched)

    def _matches_filter(self, fltr: ReceiveAction, message: Message) -> bool:
        if fltr.source >= 0 and message.src != fltr.source:
            return False
        if fltr.tag is not None and message.tag != fltr.tag:
            return False
        return True

    def _handle_receive(self, pid: int, action: ReceiveAction) -> None:
        buffered = self._network.match(pid, action.source, action.tag)
        if buffered is not None:
            self._consume(pid, action, buffered)
            return

        # No buffered message: a sender blocked on a full (or
        # zero-capacity rendezvous) channel may be carrying one we can
        # accept directly.
        pending = self._pending_sends[pid]
        for entry in pending:
            sender, message = entry
            if self._matches_filter(action, message):
                pending.remove(entry)
                self._transmit(message)
                self._resume_later(sender, None)
                break

        self._recv_filters[pid] = action
        self._states[pid] = _ProcState.BLOCKED_RECV

    def _consume(self, pid: int, action: ReceiveAction, message: Message) -> None:
        self._network.consume(pid, message)
        self._recv_filters.pop(pid, None)
        # The receive is satisfied now; the resume is merely scheduled.
        # Clearing the blocked state here keeps later arrivals (before
        # the resume fires) from matching against a stale filter.
        self._states[pid] = _ProcState.READY
        self._emit(
            pid,
            action.etype,
            action.text,
            EventKind.RECEIVE,
            partner=message.send_event,
            merge_clock=message.send_clock,
            merge_lamport=message.send_lamport,
        )
        self._resume_later(pid, message)
        self._drain_pending(pid)

    def _drain_pending(self, dst: int) -> None:
        """Consumption freed buffer space; let blocked senders proceed."""
        pending = self._pending_sends[dst]
        while pending and self._network.has_room(dst):
            sender, message = pending.popleft()
            self._transmit(message)
            self._resume_later(sender, None)

    # ------------------------------------------------------------------
    # Semaphores (separate traces)
    # ------------------------------------------------------------------

    def _handle_acquire(self, pid: int, action: AcquireAction) -> None:
        if action.bypass:
            # Injected bug: the acquire "succeeds" without touching the
            # semaphore, so no causal edge is created.
            event = self._emit(pid, "Acquire", "bypass", EventKind.LOCAL)
            self._resume_later(pid, event)
            return

        sem = self._sem(action.sem)
        if sem.count > 0:
            sem.count -= 1
            self._grant(action.sem, pid)
        else:
            sem.waiters.append(pid)
            self._states[pid] = _ProcState.BLOCKED_SEM

    def _grant(self, sem_id: int, pid: int) -> None:
        trace = self.semaphore_trace(sem_id)
        grant = self._emit(trace, "Grant", str(pid), EventKind.SEND)
        event = self._emit(
            pid,
            "Acquire",
            f"sem{sem_id}",
            EventKind.RECEIVE,
            partner=grant.event_id,
            merge_clock=grant.clock,
            merge_lamport=grant.lamport,
        )
        self._resume_later(pid, event)

    def _handle_release(self, pid: int, action: ReleaseAction) -> None:
        sem_id = action.sem
        sem = self._sem(sem_id)
        trace = self.semaphore_trace(sem_id)

        release = self._emit(pid, "Release", f"sem{sem_id}", EventKind.SEND)
        self._emit(
            trace,
            "Released",
            str(pid),
            EventKind.RECEIVE,
            partner=release.event_id,
            merge_clock=release.clock,
            merge_lamport=release.lamport,
        )
        sem.count += 1
        if sem.waiters:
            sem.count -= 1
            waiter = sem.waiters.popleft()
            self._grant(sem_id, waiter)
        self._resume_later(pid, release)

    def _sem(self, sem_id: int) -> _Semaphore:
        if not 0 <= sem_id < self.num_semaphores:
            raise SimulationError(f"unknown semaphore {sem_id}")
        return self._semaphores[sem_id]
