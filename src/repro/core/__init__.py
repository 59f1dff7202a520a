"""OCEP core: the online causal-event-pattern matcher.

This package implements the paper's contribution (Section IV):

* :mod:`~repro.core.gpls` — greatest-predecessor / least-successor
  queries over vector timestamps, the primitives behind domain
  restriction;
* :mod:`~repro.core.domain` — per-trace candidate domains restricted
  by the causality of already-instantiated events (Figure 4);
* :mod:`~repro.core.front` — the stream front: the one GP/LS index,
  communication-epoch row and type route table shared by every pattern
  watching a stream;
* :mod:`~repro.core.history` — per-leaf event histories grouped by
  trace, with the O(1) same-epoch pruning rule of Section V-D;
* :mod:`~repro.core.subset` — the representative subset of matches
  (at most ``k * n`` stored matches, Section IV-B);
* :mod:`~repro.core.matcher` — the backtracking search with
  timestamp-guided back-jumping (Algorithms 1-3, Figure 5);
* :mod:`~repro.core.monitor` — the online monitor: a POET client that
  feeds the matcher and reports matches as events arrive;
* :mod:`~repro.core.checkpoint` — monitor checkpoint/recovery: the
  snapshot format that lets a crashed monitor resume from a dumpfile
  suffix and converge to the identical representative subset;
* :mod:`~repro.core.oracle` — a brute-force reference matcher used as
  the correctness oracle by the test suite.
"""

from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.config import MatcherConfig, SweepMode
from repro.core.front import StreamFront
from repro.core.gpls import CausalIndex
from repro.core.history import HistorySet, LeafHistory
from repro.core.subset import RepresentativeSubset, Slot
from repro.core.matcher import Match, MatchReport, OCEPMatcher
from repro.core.monitor import Monitor, MonitorStats
from repro.core.oracle import enumerate_matches

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "MatcherConfig",
    "SweepMode",
    "CausalIndex",
    "StreamFront",
    "HistorySet",
    "LeafHistory",
    "RepresentativeSubset",
    "Slot",
    "Match",
    "MatchReport",
    "OCEPMatcher",
    "Monitor",
    "MonitorStats",
    "enumerate_matches",
]
