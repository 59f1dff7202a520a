"""Offline (post-mortem) pattern analysis.

The paper positions OCEP as complementary to post-mortem tools that
parse complete logs after the fact [7, 31, 34, 41]: offline analysis
sees the whole execution at once and can afford exhaustive search, but
"does not help service providers resolve operational problems as they
occur".  This module packages the brute-force enumerator as exactly
such a tool — load a POET dump, enumerate *every* match, and report —
so the online/offline trade-off can be demonstrated and measured
(unbounded output and end-of-run latency versus OCEP's bounded online
subset).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Sequence

from repro.core.oracle import covered_slots, enumerate_matches
from repro.events.event import Event
from repro.patterns.compile import CompiledPattern, compile_pattern
from repro.patterns.parser import parse_pattern
from repro.patterns.tree import PatternTree
from repro.poet.dumpfile import load_events


@dataclasses.dataclass
class OfflineResult:
    """Everything a post-mortem run produces."""

    matches: List[Dict[int, Event]]
    covered: set
    analysis_seconds: float

    @property
    def num_matches(self) -> int:
        return len(self.matches)


class OfflineAnalyzer:
    """Post-mortem causal-pattern analysis over a complete event log."""

    def __init__(self, pattern: CompiledPattern):
        self.pattern = pattern

    @classmethod
    def from_source(
        cls, source: str, trace_names: Sequence[str]
    ) -> "OfflineAnalyzer":
        tree = PatternTree(parse_pattern(source), trace_names)
        return cls(compile_pattern(tree))

    def analyze(self, events: Sequence[Event]) -> OfflineResult:
        """Enumerate every match in the complete log."""
        start = time.perf_counter()
        matches = enumerate_matches(self.pattern, events)
        elapsed = time.perf_counter() - start
        return OfflineResult(
            matches=matches,
            covered=covered_slots(matches),
            analysis_seconds=elapsed,
        )

    def analyze_dump(self, path) -> OfflineResult:
        """Load a POET dump file and analyze it."""
        events, _, _ = load_events(path)
        return self.analyze(list(events))
