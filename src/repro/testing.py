"""Hand-construction of distributed computations for tests and docs.

The :class:`Weaver` builds event streams with correct vector clocks,
Lamport clocks, and partner links without running the simulator —
useful for unit tests that need a *specific* causal structure (e.g.
the Figure 3 scenario) and for documentation examples.

    >>> from repro.testing import Weaver
    >>> w = Weaver(num_traces=2)
    >>> a = w.local(0, "A")
    >>> s = w.send(0)
    >>> r = w.recv(1, s)
    >>> b = w.local(1, "B")
    >>> a.happens_before(b)
    True

Events are produced in a causally consistent order (each call appends
to the stream), so ``weaver.events`` can be fed directly to a monitor
or POET server.

:func:`random_computation` drives a Weaver from a seeded RNG — the
generator behind the randomized oracle-equivalence and property tests.
:func:`assert_contract` is what those tests hold a finished run to, and
:func:`install_order` how a test picks the evaluation order itself.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import types
from typing import List, Optional, Sequence

from repro.clocks.encoded import ClockFrame
from repro.clocks.lamport import LamportClock
from repro.clocks.vector_clock import VectorClock
from repro.events.event import Event, EventKind

#: The Weaver's two stamping modes.  The runtime (Kernel, Pipeline,
#: POETServer) stamps and checks encoded clocks only; the
#: Weaver is the one producer of full Fidge/Mattern streams, kept so
#: tests can diff the two representations.
CLOCK_BACKENDS = ("fidge", "encoded")


def make_clock_bank(backend: str, num_traces: int):
    """Initial per-trace clocks for ``backend``: ``(clocks, frame)``,
    ``frame`` being the shared :class:`ClockFrame` of the encoded mode
    and ``None`` for full vectors."""
    if backend == "encoded":
        frame = ClockFrame(num_traces)
        return [frame.zero(t) for t in range(num_traces)], frame
    if backend == "fidge":
        return [VectorClock.zero(num_traces) for _ in range(num_traces)], None
    raise ValueError(
        f"unknown clock backend {backend!r}; known: {CLOCK_BACKENDS}"
    )


class Weaver:
    """Builds a causally consistent event stream by hand.

    ``clock_backend`` selects the timestamp scheme (``"fidge"`` full
    vectors, ``"encoded"`` O(1)-per-event encoded clocks); both weave
    causally identical streams.
    """

    def __init__(self, num_traces: int, clock_backend: str = "fidge"):
        if num_traces <= 0:
            raise ValueError(f"need at least one trace, got {num_traces}")
        self.num_traces = num_traces
        self.clock_backend = clock_backend
        self._clocks, self.clock_frame = make_clock_bank(
            clock_backend, num_traces
        )
        self._lamports = [LamportClock() for _ in range(num_traces)]
        self.events: List[Event] = []

    # ------------------------------------------------------------------
    # Event constructors
    # ------------------------------------------------------------------

    def local(self, trace: int, etype: str = "E", text: str = "") -> Event:
        """Append a unary event on ``trace``."""
        return self._emit(trace, etype, text, EventKind.UNARY)

    def send(self, trace: int, etype: str = "Send", text: str = "") -> Event:
        """Append a send event on ``trace`` (pair it with :meth:`recv`)."""
        return self._emit(trace, etype, text, EventKind.SEND)

    def recv(
        self,
        trace: int,
        send_event: Event,
        etype: str = "Receive",
        text: str = "",
    ) -> Event:
        """Append the receive of ``send_event`` on ``trace``."""
        if send_event.kind is not EventKind.SEND:
            raise ValueError(f"{send_event!r} is not a send event")
        return self._emit(
            trace,
            etype,
            text,
            EventKind.RECEIVE,
            partner=send_event,
        )

    def message(self, src: int, dst: int, text: str = "") -> tuple:
        """Convenience: a send on ``src`` plus its receive on ``dst``."""
        send = self.send(src, text=text)
        receive = self.recv(dst, send, text=text)
        return send, receive

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _emit(
        self,
        trace: int,
        etype: str,
        text: str,
        kind: EventKind,
        partner: Optional[Event] = None,
    ) -> Event:
        if not 0 <= trace < self.num_traces:
            raise ValueError(f"trace {trace} out of range")
        clock = self._clocks[trace]
        if partner is not None:
            clock = clock.merge(partner.clock)
            lamport = self._lamports[trace].receive(partner.lamport)
        else:
            lamport = self._lamports[trace].tick()
        clock = clock.tick(trace)
        self._clocks[trace] = clock

        event = Event(
            trace=trace,
            index=clock[trace],
            etype=etype,
            text=text,
            clock=clock,
            kind=kind,
            partner=partner.event_id if partner is not None else None,
            lamport=lamport,
        )
        self.events.append(event)
        return event


def full_vectors(events: Sequence[Event]) -> List[Event]:
    """The same stream stamped with full Fidge/Mattern vectors (what a
    dump file or a wire batch decodes to)."""
    return [
        dataclasses.replace(e, clock=VectorClock(e.clock.components))
        for e in events
    ]


def random_computation(
    seed: int,
    num_traces: int = 3,
    steps: int = 20,
    etypes: Sequence[str] = ("A", "B", "C"),
    texts: Sequence[str] = ("",),
    local_probability: float = 0.45,
    send_probability: float = 0.30,
    clock_backend: str = "fidge",
) -> Weaver:
    """Weave a random-but-valid computation from a seed.

    Each step emits a local event of a random type, starts a message,
    or completes a previously started message on a random other trace;
    the remaining probability mass falls through to completing
    messages, so traffic drains naturally.  Deterministic per
    ``(seed, parameters)``.
    """
    if not 0 <= local_probability + send_probability <= 1:
        raise ValueError("probabilities must sum to at most 1")
    rng = random.Random(seed)
    weaver = Weaver(num_traces, clock_backend=clock_backend)
    pending: List[Event] = []
    for _ in range(steps):
        roll = rng.random()
        trace = rng.randrange(num_traces)
        if roll < local_probability or num_traces == 1:
            weaver.local(trace, rng.choice(etypes), rng.choice(texts))
        elif roll < local_probability + send_probability:
            pending.append(weaver.send(trace))
        elif pending:
            send = pending.pop(rng.randrange(len(pending)))
            choices = [t for t in range(num_traces) if t != send.trace]
            weaver.recv(rng.choice(choices), send)
    return weaver


def install_order(matcher, order_of) -> None:
    """Make ``matcher`` search in ``order_of(trigger leaf)`` — any
    permutation of the leaves that starts at the trigger — instead of
    the order it would plan.  The order decides what a search costs,
    never what it finds."""
    from repro.patterns.plan import level_program

    @functools.lru_cache(maxsize=None)
    def plan(trigger_leaf: int):
        order = tuple(order_of(trigger_leaf))
        return types.SimpleNamespace(order=order, program=level_program(
            matcher.pattern, order, matcher.history.histories
        ))

    matcher._plan = plan


def assert_contract(pattern, events, reports, subset, config=None) -> None:
    """The paper's guarantees, on a finished run of ``pattern`` over
    ``events`` (a prefix short enough for the exponential oracle) that
    gave ``reports`` and ``subset`` under ``config``: every report is a
    match the oracle enumerates; the representative subset covers
    exactly the ``(leaf, trace)`` slots some match covers, within the
    ``k * n`` bound; and the same configuration gives the same output
    again.  Which matches stand for a slot is the search's choice."""
    from repro.core import oracle
    from repro.core.matcher import OCEPMatcher

    def key(match):
        return frozenset((leaf, e.trace, e.index) for leaf, e in match.items())

    wall = config.wall_clock if config is not None else None
    matches = oracle.enumerate_matches(pattern, events, wall_clock=wall)
    known = {key(match) for match in matches}
    unknown = [r for r in reports if key(r.as_dict()) not in known]
    assert not unknown, f"reports the oracle does not know: {unknown[:3]}"
    coverable, covered = oracle.covered_slots(matches), subset.covered_slots
    assert covered == coverable, (
        f"slots left uncovered: {sorted(coverable - covered)}, "
        f"covered by no match: {sorted(covered - coverable)}"
    )
    assert subset.check_bound(), f"{len(subset)} stored matches exceed k * n"
    again = OCEPMatcher(pattern, subset.num_traces, config)
    rerun = [report for event in events for report in again.on_event(event)]
    assert rerun == list(reports), "a second run reported differently"
    assert again.subset.signature() == subset.signature()
