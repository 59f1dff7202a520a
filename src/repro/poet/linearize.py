"""Linearizations of the event partial order.

A linearization of a partial order ``->`` on a set ``X`` is a sequence
containing each element of ``X`` once such that any ``x`` occurs before
``x'`` whenever ``x -> x'`` (paper, Section V-A).  The POET server
delivers events to clients in such an order; this module both builds
linearizations from stored events and holds the one deliverability
rule (:func:`admit`), which the dump reader applies to every record
and :func:`is_linearization` to a whole delivery order.
"""

from __future__ import annotations

from operator import le
from typing import Iterable, List

from repro.events.event import Event


def linearize(events: Iterable[Event]) -> List[Event]:
    """Order events causally using their Lamport timestamps.

    Lamport clocks are consistent with happens-before (``a -> b``
    implies ``L(a) < L(b)``), so sorting by ``(lamport, trace, index)``
    yields a valid linearization, with the trace/index components only
    breaking ties between concurrent events deterministically.
    """
    return sorted(events, key=lambda e: (e.lamport, e.trace, e.index))


def admit(delivered: List[int], event: Event) -> bool:
    """The deliverability rule, the one copy of it: ``event`` on trace
    ``t`` with clock ``V`` may follow a prefix holding ``delivered[m]``
    events of each trace ``m`` only when ``delivered[t] == V[t] - 1``
    and ``V[m] <= delivered[m]`` for every other trace — all its causal
    predecessors are in the prefix.  An event that may is counted into
    ``delivered`` and True is returned; otherwise the counts are left
    as they were.  Linear in the clock width.
    """
    clock = event.clock
    trace = event.trace
    if len(clock) != len(delivered) or delivered[trace] != clock[trace] - 1:
        return False
    delivered[trace] += 1  # its own slot now reads V[t]
    if all(map(le, clock.components, delivered)):
        return True
    delivered[trace] -= 1
    return False


def is_linearization(events: Iterable[Event], num_traces: int) -> bool:
    """Check that a delivery order is a linearization of happens-before:
    every event passes :func:`admit` after the ones before it."""
    delivered = [0] * num_traces
    return all(admit(delivered, event) for event in events)
