"""Matcher configuration.

The flags here exist for two reasons: they parameterise the ablation
benchmarks (every optimisation the paper describes can be switched off
to quantify its effect), and they let the test suite run the matcher in
an exhaustive mode comparable against the brute-force oracle.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Optional


class SweepMode(enum.Enum):
    """How far a triggered search explores beyond the first match.

    COVERAGE (the paper's behaviour):
        After the first complete match of a trigger, the search keeps
        sweeping traces to cover representative-subset slots, skipping
        traces whose ``(pattern event, trace)`` slot is already
        covered.  Guarantees at least one reported match per trigger
        that participates in any match, and drives subset coverage.
    FIRST:
        Stop at the first complete match — pure violation detection
        with no subset coverage sweep.
    EXHAUSTIVE:
        Enumerate every match involving the trigger event (used by the
        oracle-comparison tests; unbounded output in general).
    """

    COVERAGE = "coverage"
    FIRST = "first"
    EXHAUSTIVE = "exhaustive"


@dataclasses.dataclass(frozen=True)
class MatcherConfig:
    """Tunable behaviour of :class:`~repro.core.matcher.OCEPMatcher`.

    Attributes
    ----------
    sweep:
        Search extent per trigger; see :class:`SweepMode`.
    prune_history:
        Apply the O(1) history-pruning rule (Section V-D): a newly
        matched event replaces the previous match of the same leaf on
        the same trace when no send/receive event — and no other
        pattern-relevant event — occurred on that trace in between
        (the two are then causally interchangeable for every remote
        constraint).
    restrict_domains:
        Use GP/LS vector-timestamp bounds to restrict candidate
        domains (Figure 4).  Off = chronological backtracking that
        scans full per-trace histories (the paper's strawman).
    backjump:
        Use the recorded-conflict ``bt`` table for timestamp-guided
        back-jumping (Figure 5).  Off = plain one-level backtracking.
    paranoid:
        Re-verify every pairwise constraint on candidate acceptance
        (defence in depth for tests; redundant with exact domains).
    max_forward_steps:
        Per-trigger budget on ``goForward`` iterations, bounding the
        matcher's per-event latency.  The search is exponential in the
        pattern length in the worst case (paper, Section V-C1); an
        online monitor must bound it, so a search that exhausts the
        budget is abandoned and counted in
        ``OCEPMatcher.searches_truncated``.  ``None`` disables the
        budget (used by the oracle-equivalence tests).  Matches found
        before the budget ran out are still reported; newest-first
        candidate order finds genuine violations early, so truncation
        in practice cuts only hopeless search tails.
    indexed_histories:
        Use the search hints this reproduction adds beyond the paper:
        skip the trace sweep when a leaf's process attribute is exact
        or already bound (it can match on one trace only), and serve
        candidates from a per-trace text index when the text attribute
        is resolved.  Pure optimisations — results are identical either
        way (ablated in the benchmark suite).
    search_trace_size:
        When set, the matcher records its individual goForward /
        goBackward decisions (candidate scanned, domain emptied,
        back-jump vs. plain backtrack, budget truncation) into a
        bounded ring buffer of this capacity, exposed as
        ``OCEPMatcher.search_trace`` — see :mod:`repro.obs.trace`.
        ``None`` (default) disables recording; the hot path then pays
        one pointer comparison per decision point.
    wall_clock:
        Extractor mapping an event to a wall-clock stamp, required to
        evaluate ``WITHIN n wall`` window guards (the logical ``sim``
        domain needs no configuration).  Watching a wall-domain
        pattern without an extractor is a configuration error.
    complete_stream:
        ``True`` (default) promises the matcher sees *every* event of
        the computation, so per-trace indices arrive contiguously and
        the GP/LS domains are exact.  ``False`` tolerates holes in the
        delivered stream (load shedding, sampled delivery): the causal
        index accepts forward index jumps, and once a gap has actually
        been observed a remote least-successor entry may read too late
        or be missing.  As an upper bound that only *widens* a domain;
        as a lower bound it would cut true successors off, so the
        domain kernel (:mod:`repro.core.domain`) drops it, reports the
        interval as a superset, and each candidate of such an interval
        is re-verified against its vector clock.  A match whose events
        were all delivered is therefore still detected and no false
        match is reported — the lost events cost only the matches they
        were part of (except via ``~>`` immediacy, whose in-between
        witness may itself have been shed — which is why the shedding
        harness measures precision too).
    """

    sweep: SweepMode = SweepMode.COVERAGE
    prune_history: bool = True
    restrict_domains: bool = True
    backjump: bool = True
    paranoid: bool = False
    max_forward_steps: Optional[int] = 100_000
    indexed_histories: bool = True
    search_trace_size: Optional[int] = None
    complete_stream: bool = True
    wall_clock: Optional[Callable[..., float]] = None
