"""The paper's contract on every case study.

What a run owes its user is not one particular search order or one
particular representative subset, it is :func:`repro.testing.assert_contract`:
every report is a match the brute-force oracle enumerates, the subset
covers exactly the coverable ``(leaf, trace)`` slots within ``k * n``,
and the output is a function of the configuration.  Every ``CASES``
entry is held to it on seeds 0..9, at two widths and on two prefixes of
each stream: a missing COVERAGE sweep shows only on the short one,
before later matches have filled the slots, and only on the wide one.
"""

from __future__ import annotations

import pytest

from repro.core.matcher import MatcherConfig, OCEPMatcher, SweepMode
from repro.engine.cases import CASES
from repro.engine.pipeline import Pipeline
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.testing import assert_contract

SEEDS = range(10)
SHORT = 400
#: Prefix lengths the exponential oracle stays cheap on: ``race`` is
#: match-dense, ``deadlock`` has no match before ~1,000 events at 4
#: traces and costs the oracle a minute at 1,200 events on 7.
LONG = {("race", 4): 250, ("race", 7): 250, ("deadlock", 7): 800}


def recorded(case, traces, seed, max_events):
    source = Pipeline.for_case(case, traces, seed)
    recorder = source.record()
    source.run(max_events=max_events)
    pattern = compile_pattern(
        PatternTree(parse_pattern(source.case_pattern), source.trace_names)
    )
    return pattern, recorder.events


def held_to_contract(pattern, events, config=None):
    matcher = OCEPMatcher(pattern, len(pattern.tree.trace_names), config)
    reports = [report for event in events for report in matcher.on_event(event)]
    assert_contract(pattern, events, reports, matcher.subset, config)
    return reports


@pytest.mark.parametrize("traces", [4, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_case_keeps_the_contract(case, traces):
    long = LONG.get((case, traces), 1200)
    reported = 0
    for seed in SEEDS:
        pattern, events = recorded(case, traces, seed, long)
        for length in sorted({min(SHORT, long), long}):
            reported += len(held_to_contract(pattern, events[:length]))
    assert reported, "no cell of this case has a match: nothing was checked"


@pytest.mark.parametrize("seed", [2, 4, 6])
def test_the_contract_notices_a_missing_coverage_sweep(seed):
    """Stopping at a trigger's first match (``SweepMode.FIRST``) is
    sound and leaves coverable slots uncovered — visible on the short,
    wide prefix only."""
    pattern, events = recorded("atomicity", 7, seed, SHORT)
    held_to_contract(pattern, events)
    with pytest.raises(AssertionError, match="slots left uncovered"):
        held_to_contract(pattern, events, MatcherConfig(sweep=SweepMode.FIRST))
