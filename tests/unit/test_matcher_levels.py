"""A plan's levels are built once and carry nothing between searches.

The matcher keeps one list of search levels per cached plan and enters
each level afresh whenever a search reaches it from above.  A search
that ends early — its step budget ran out, or ``SweepMode.FIRST``
stopped it at its first match — leaves those levels mid-sweep, and the
next search on the same plan must not see it.  Checked against a twin
restored from the matcher's checkpoint just before each event: it has
the same cross-event state (histories, index, subset, plans, counters)
but levels no search has used, so every report, counter and subset
signature must come out the same.
"""

from __future__ import annotations

import pytest

from repro.core import MatcherConfig, OCEPMatcher, SweepMode, enumerate_matches
from repro.engine import Pipeline
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.testing import install_order
from repro.workloads import build_message_race, message_race_pattern


@pytest.fixture(scope="module")
def race():
    pipeline = Pipeline.for_workload(
        build_message_race(num_traces=4, seed=3, messages_per_sender=12)
    )
    recorder = pipeline.record()
    pipeline.run()
    names = list(pipeline.trace_names)
    pattern = compile_pattern(
        PatternTree(parse_pattern(message_race_pattern()), names)
    )
    return pattern, len(names), recorder.events


def outcome(reports):
    return [
        (
            r.trigger_leaf,
            r.trigger_event.event_id,
            tuple((leaf, e.event_id) for leaf, e in r.assignment),
            r.bindings,
            r.new_slots,
        )
        for r in reports
    ]


def twin_of(matcher, order_of=None):
    twin = OCEPMatcher(matcher.pattern, matcher.num_traces, matcher.config)
    twin.restore(matcher.checkpoint())
    if order_of is not None:
        install_order(twin, order_of)
    return twin


def matcher_for(race, config=None, order_of=None):
    pattern, num_traces, _ = race
    matcher = OCEPMatcher(pattern, num_traces, config)
    if order_of is not None:
        install_order(matcher, order_of)
    return matcher


def run_against_twins(race, config, order_of=None):
    """Feed the stream to one matcher and, event by event, to a twin
    restored just before it; returns the matcher."""
    matcher = matcher_for(race, config, order_of)
    events = race[2]
    for event in events:
        twin = twin_of(matcher, order_of)
        assert outcome(matcher.on_event(event)) == outcome(twin.on_event(event))
        assert matcher.counters() == twin.counters()
        assert matcher.subset.signature() == twin.subset.signature()
    return matcher


def test_a_truncated_search_leaves_nothing_for_the_next(race):
    matcher = run_against_twins(race, MatcherConfig(max_forward_steps=16))
    assert 0 < matcher.searches_truncated < matcher.searches_run
    assert matcher.matches_found > 0


def test_a_first_match_break_leaves_nothing_for_the_next(race):
    matcher = run_against_twins(race, MatcherConfig(sweep=SweepMode.FIRST))
    assert matcher.matches_found > 1


def test_an_installed_order_runs_on_its_own_levels(race):
    pattern, _, events = race

    def reverse(trigger):
        return [trigger] + [
            leaf for leaf in reversed(range(pattern.num_leaves))
            if leaf != trigger
        ]

    installed = run_against_twins(
        race, MatcherConfig(max_forward_steps=16), reverse
    )
    assert installed.searches_truncated > 0
    # the order decides what a search costs, never what it finds
    prefix = events[:80]
    exhaustive = matcher_for(race, MatcherConfig(
        sweep=SweepMode.EXHAUSTIVE, prune_history=False, paranoid=True
    ), reverse)
    got = {
        frozenset((leaf, e.event_id) for leaf, e in r.assignment)
        for event in prefix for r in exhaustive.on_event(event)
    }
    want = {
        frozenset((leaf, e.event_id) for leaf, e in match.items())
        for match in enumerate_matches(pattern, prefix)
    }
    assert got == want and want


def test_a_restored_matcher_builds_its_own_levels(race):
    events = race[2]
    whole = matcher_for(race)
    reports = [outcome(whole.on_event(event)) for event in events]
    cut = len(events) // 2
    first = matcher_for(race)
    for event in events[:cut]:
        first.on_event(event)
    assert first.plans_computed > 0
    resumed = twin_of(first)
    assert [outcome(resumed.on_event(e)) for e in events[cut:]] == reports[cut:]
    assert resumed.counters() == whole.counters()
    assert resumed.subset.signature() == whole.subset.signature()
