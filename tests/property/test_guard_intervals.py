"""The interval-served v2 guards against a brute-force reference.

``LeafHistory.between`` / ``has_between``, the negation witness and the
Kleene group expansion read only the Figure-4 causal interval of the
events they are asked about.  On randomized Weaver schedules, for both
clock backends, each must equal a reference that walks *every*
delivered event and decides with ``happens_before`` alone — on complete
streams, where the intervals are exact, and on streams with interior
gaps (``complete_stream=False``), where the least-successor index is
under-informed and the guards have to fall back on verification.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MatcherConfig, OCEPMatcher
from repro.core.gpls import CausalIndex
from repro.core.history import LeafHistory
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.patterns.compile import Constraint
from repro.testing import random_computation

CLASSES = "X := ['', A, '']; Y := ['', B, '']; Z := ['', C, ''];"

NEGATION_SOURCES = [
    CLASSES + "pattern := X -> !Z -> Y;",
    "X := [$1, A, '']; Z := [$1, C, '']; Y := [$1, B, ''];"
    "pattern := X -> !Z -> Y;",
    "X := ['', A, '']; Z := ['', C, $2]; Y := ['', B, $2];"
    "pattern := X -> !Z -> Y;",
]

KLEENE_SOURCES = [
    CLASSES + "pattern := X -> Y+;",
    CLASSES + "pattern := Y+ -> X;",
    CLASSES + "pattern := X || Y+;",
    CLASSES + "pattern := X ~> Y+;",
    CLASSES + "pattern := Y+ ~> X;",
    CLASSES + "Y $y; pattern := (X ~> $y+) /\\ ($y+ -> Z);",
    "X := [$1, A, '']; Y := [$1, B, $2]; Z := ['', C, $2]; Y $y;"
    "pattern := (X -> $y+) /\\ ($y+ -> Z);",
]


@st.composite
def delivered_stream(draw):
    """``(num_traces, delivered events, gapped)``: a random computation
    of which a seeded share of events is shed before delivery."""
    num_traces = draw(st.integers(min_value=2, max_value=4))
    steps = draw(st.integers(min_value=8, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    backend = draw(st.sampled_from(("fidge", "encoded")))
    drop_rate = draw(st.sampled_from((0.0, 0.15, 0.35)))
    weaver = random_computation(
        seed, num_traces, steps, texts=("", "t"), clock_backend=backend
    )
    rng = random.Random(seed ^ 0x9E3779B9)
    delivered = [e for e in weaver.events if rng.random() >= drop_rate]
    return num_traces, delivered, drop_rate > 0


def between(low, high, pool):
    return [x for x in pool if low.happens_before(x) and x.happens_before(high)]


def fed_matcher(source, num_traces, delivered, gapped):
    names = [f"P{i}" for i in range(num_traces)]
    compiled = compile_pattern(PatternTree(parse_pattern(source), names))
    matcher = OCEPMatcher(
        compiled,
        num_traces,
        MatcherConfig(prune_history=False, complete_stream=not gapped),
    )
    for event in delivered:
        matcher.on_event(event)
    return matcher


def environments(pattern, assignment):
    """The empty environment, plus the one the plain leaves of
    ``assignment`` bind (each class that matches its event)."""
    env = {}
    for leaf_id, event in sorted(assignment.items()):
        leaf = pattern.leaves[leaf_id]
        if not leaf.kleene:
            env = leaf.event_class.matches(event, env) or env
    return [{}, env] if env else [{}]


class TestHistoryBetween:
    @given(delivered_stream())
    @settings(max_examples=40, deadline=None)
    def test_equals_full_history_scan(self, data):
        num_traces, delivered, gapped = data
        index = CausalIndex(num_traces, allow_gaps=gapped)
        history = LeafHistory(0, num_traces)
        stored = [e for e in delivered if e.etype in ("B", "Receive")]
        for event in delivered:
            index.observe(event)
        for event in stored:
            history.append(event, epoch=0, may_prune=False)
        for low in delivered:
            for high in delivered:
                want = between(low, high, stored)
                assert history.has_between(low, high, index) == bool(want)
                for trace in range(num_traces):
                    on_trace = [x for x in want if x.trace == trace]
                    got = history.between(low, high, trace, index)
                    assert list(got) == on_trace
                    got = history.between(low, high, trace, index, "t")
                    assert list(got) == [x for x in on_trace if x.text == "t"]


class TestNegationWitness:
    @given(delivered_stream(), st.sampled_from(NEGATION_SOURCES))
    @settings(max_examples=40, deadline=None)
    def test_equals_full_history_scan(self, data, source):
        num_traces, delivered, gapped = data
        matcher = fed_matcher(source, num_traces, delivered, gapped)
        spec = matcher.pattern.negations[0]
        absent = spec.event_class
        for left in delivered:
            for right in delivered:
                anchors = {spec.left_leaf: left, spec.right_leaf: right}
                for env in environments(matcher.pattern, anchors):
                    want = any(
                        absent.matches(e, env) is not None
                        for e in between(left, right, delivered)
                    )
                    got = matcher._negation_witness(0, spec, left, right, env)
                    assert got == want


def relation_holds(constraint, other, event, other_pool, own_pool):
    """``constraint`` (of ``other``'s leaf towards ``event``'s), decided
    from ``happens_before`` over whole class pools."""
    before = other.happens_before(event)
    after = event.happens_before(other)
    if constraint is Constraint.NONE:
        return True
    if constraint is Constraint.BEFORE:
        return before
    if constraint is Constraint.AFTER:
        return after
    if constraint is Constraint.CONCURRENT:
        return not before and not after
    if constraint is Constraint.LIMITED:
        return before and not between(other, event, other_pool)
    if constraint is Constraint.LIMITED_REV:
        return after and not between(event, other, own_pool)
    raise AssertionError(f"unexpected constraint {constraint!r}")


def brute_group(pattern, g, assignment, env, delivered):
    def key(e):
        return (e.trace, e.index)

    def pool(leaf_id):
        event_class = pattern.leaves[leaf_id].event_class
        return [e for e in delivered if event_class.could_match(e)]

    leaf_class = pattern.leaves[g].event_class
    bound = {key(e) for e in assignment.values()}
    members = [assignment[g]]
    for event in delivered:
        if key(event) in bound or leaf_class.matches(event, env) is None:
            continue
        if all(
            relation_holds(
                pattern.constraint(leaf_id, g), other, event,
                pool(leaf_id), pool(g),
            )
            for leaf_id, other in assignment.items()
            if leaf_id != g
        ):
            members.append(event)
    return tuple(sorted(members, key=key))


def assignments(pattern, delivered, limit=60):
    """Up to ``limit`` assignments of one class event per leaf, distinct
    events, spread over the product by a fixed stride."""
    pools = [
        [e for e in delivered if leaf.event_class.could_match(e)]
        for leaf in pattern.leaves
    ]
    total = 1
    for candidates in pools:
        total *= len(candidates)
    for start in range(0, total, max(1, total // limit)):
        rest = start
        chosen = {}
        for leaf_id, candidates in enumerate(pools):
            rest, pick = divmod(rest, len(candidates))
            chosen[leaf_id] = candidates[pick]
        if len({(e.trace, e.index) for e in chosen.values()}) == len(chosen):
            yield chosen


class TestKleeneGroup:
    @given(delivered_stream(), st.sampled_from(KLEENE_SOURCES))
    @settings(max_examples=40, deadline=None)
    def test_equals_full_history_scan(self, data, source):
        num_traces, delivered, gapped = data
        matcher = fed_matcher(source, num_traces, delivered, gapped)
        pattern = matcher.pattern
        (g,) = [leaf.leaf_id for leaf in pattern.leaves if leaf.kleene]
        for assignment in assignments(pattern, delivered):
            for env in environments(pattern, assignment):
                want = brute_group(pattern, g, assignment, env, delivered)
                assert matcher._expand_group(g, assignment, env) == want
