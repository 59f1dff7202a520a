"""The partnered-trigger rule: no search for a trigger that cannot end
a match.

``_search`` returns at once when the trigger sits on a ``<>`` leaf and
is not a receive naming its send.  Soundness is a delivery-order fact —
a send's receive is delivered after it, a unary event has no partner —
checked here against the oracle; and the rule must be invisible in the
output: reports, representative subset and the work counters of the
searches that do run equal a reference matcher with the rule switched
off (test-side, by emptying its ``_partnered`` set).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OCEPMatcher
from repro.core.oracle import enumerate_matches
from repro.events import EventKind
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.patterns.compile import Constraint
from repro.testing import random_computation
from repro.workloads import message_race_pattern

SOURCES = [
    message_race_pattern(),
    "S := ['', Send, '']; R := ['', Receive, '']; S $s; R $r;"
    "pattern := $s <> $r;",
    "A := ['', A, '']; S := ['', Send, '']; R := ['', Receive, '']; S $s; R $r;"
    "pattern := A -> ($s <> $r);",
    "A := ['', A, '']; S := ['', Send, '']; R := ['', Receive, '']; S $s; R $r;"
    "pattern := ($s <> $r) -> A;",
]


@st.composite
def schedule_and_pattern(draw):
    num_traces = draw(st.integers(min_value=2, max_value=4))
    steps = draw(st.integers(min_value=6, max_value=36))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    weaver = random_computation(
        seed, num_traces, steps, local_probability=0.25, send_probability=0.4
    )
    names = [f"P{i}" for i in range(num_traces)]
    source = draw(st.sampled_from(SOURCES))
    compiled = compile_pattern(PatternTree(parse_pattern(source), names))
    return weaver, compiled


def run(compiled, weaver, fail_fast):
    matcher = OCEPMatcher(compiled, weaver.num_traces)
    assert matcher._partnered  # every pattern here has a <> pair
    if not fail_fast:
        matcher._partnered = frozenset()
    reports = []
    for event in weaver.events:
        reports.extend(matcher.on_event(event))
    return matcher, reports


@given(schedule_and_pattern())
@settings(max_examples=80, deadline=None)
def test_last_partnered_event_of_every_match_is_a_receive(data):
    weaver, compiled = data
    delivered = {e.event_id: n for n, e in enumerate(weaver.events)}
    matrix = compiled.constraint_matrix
    partnered = [
        leaf for leaf, row in enumerate(matrix) if Constraint.PARTNER in row
    ]
    for match in enumerate_matches(compiled, weaver.events):
        last = max(
            (match[leaf] for leaf in partnered),
            key=lambda e: delivered[e.event_id],
        )
        assert last.kind is EventKind.RECEIVE and last.partner is not None


@given(schedule_and_pattern())
@settings(max_examples=80, deadline=None)
def test_output_equals_a_run_without_the_rule(data):
    weaver, compiled = data
    matcher, reports = run(compiled, weaver, fail_fast=True)
    reference, want = run(compiled, weaver, fail_fast=False)
    assert reports == want
    assert matcher.subset.signature() == reference.subset.signature()
    got, ref = matcher.counters(), reference.counters()
    for name in ("searches_run", "matches_found", "forward_steps",
                 "candidates_scanned", "back_jumps"):
        assert got[name] == ref[name], name
    # what the rule saves: the doomed sweep of a send-triggered search
    assert got["domain_conflicts"] <= ref["domain_conflicts"]
    assert got["backtracks"] <= ref["backtracks"]
