"""Output checks behind ``failed`` / ``attempted``.

The brute-force oracle (``repro.core.oracle``) is the arbiter of what
a match is.  It is exponential, so it is run on a short prefix of each
stream (soundness of every report, coverage of every coverable
``(leaf, trace)`` slot) and, report by report, on a seeded sample of
the full run (``verify_match`` against the prefix delivered when the
report fired).  Equality of passes — batch vs per-event, faulty vs
fault-free — is checked by the caller on report count and signature.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.core import oracle
from repro.engine import PipelineResult
from repro.events.event import Event
from repro.patterns.compile import CompiledPattern, compile_pattern
from repro.patterns.parser import parse_pattern
from repro.patterns.tree import PatternTree

SAMPLED_REPORTS = 16


def compile_patterns(
    patterns: Dict[str, str], trace_names: Sequence[str]
) -> Dict[str, CompiledPattern]:
    return {
        name: compile_pattern(PatternTree(parse_pattern(source), trace_names))
        for name, source in patterns.items()
    }


def _key(match: Dict[int, Event]) -> frozenset:
    return frozenset(
        (leaf, event.trace, event.index) for leaf, event in match.items()
    )


def check_prefix(
    compiled: Dict[str, CompiledPattern],
    prefix: Sequence[Event],
    result: PipelineResult,
) -> Tuple[int, int]:
    """Compare a run over ``prefix`` with the oracle's full
    enumeration: returns ``(checked, failed)`` where checked counts
    reports plus oracle-coverable slots, and failed counts reports the
    oracle does not know plus coverable slots left uncovered."""
    checked = failed = 0
    for name, pattern in compiled.items():
        matches = oracle.enumerate_matches(pattern, prefix)
        known = {_key(match) for match in matches}
        reports = result.reports(name)
        checked += len(reports)
        failed += sum(1 for r in reports if _key(r.as_dict()) not in known)
        coverable = oracle.covered_slots(matches)
        checked += len(coverable)
        failed += len(coverable - result[name].subset.covered_slots)
    return checked, failed


def check_sample(
    compiled: Dict[str, CompiledPattern],
    events: Sequence[Event],
    result: PipelineResult,
    seed: int,
) -> Tuple[int, int]:
    """``verify_match`` a seeded sample of the full run's reports, each
    against the events delivered up to its trigger."""
    position = {
        (event.trace, event.index): i for i, event in enumerate(events)
    }
    reports: List[tuple] = [
        (name, report)
        for name in compiled
        for report in result.reports(name)
    ]
    sample = random.Random(seed).sample(
        reports, min(SAMPLED_REPORTS, len(reports))
    )
    failed = 0
    for name, report in sample:
        trigger = report.trigger_event
        delivered = events[: position[(trigger.trace, trigger.index)] + 1]
        if not oracle.verify_match(compiled[name], report.as_dict(), delivered):
            failed += 1
    return len(sample), failed
