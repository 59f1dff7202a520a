"""Logical clocks for causality tracking in distributed computations.

This package provides the timestamping substrate the paper builds on
(Section III): Fidge/Mattern vector clocks [14, 28] that *accurately*
encode potential causality between events, plus Lamport scalar clocks
[22] for baselines that only need a consistent total order.

The central fact (paper, Section III-A): given events ``a`` on trace ``i``
and ``b`` on trace ``j`` with timestamps ``Va`` and ``Vb``,

    a -> b  <=>  Va[i] <= Vb[i]  (and a != b)

so happens-before can be decided with at most two integer comparisons,
and equality/concurrency with two more (trace id and event index).
"""

from repro.clocks.vector_clock import VectorClock
from repro.clocks.lamport import LamportClock
from repro.clocks.causality import (
    Ordering,
    Timestamp,
    compare,
    concurrent,
    happens_before,
)
from repro.clocks.encoded import (
    ClockFrame,
    EncodedClock,
    encode_events,
)

__all__ = [
    "ClockFrame",
    "EncodedClock",
    "LamportClock",
    "Ordering",
    "Timestamp",
    "VectorClock",
    "compare",
    "concurrent",
    "encode_events",
    "happens_before",
]
