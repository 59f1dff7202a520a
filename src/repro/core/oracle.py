"""Brute-force reference matcher.

Enumerates *every* assignment of events to pattern leaves that
satisfies the compiled constraints, by exhaustive search over the full
(unpruned) candidate lists.  Exponential and offline by design — its
only job is to be obviously correct, so the test suite can compare the
OCEP engine's online results against ground truth on small traces.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.events.event import Event
from repro.patterns.classes import Bindings
from repro.patterns.compile import CompiledPattern, Constraint

Match = Dict[int, Event]

WallClock = Optional[Callable[[Event], float]]


def enumerate_matches(
    pattern: CompiledPattern,
    events: Iterable[Event],
    wall_clock: WallClock = None,
) -> List[Match]:
    """All complete matches of ``pattern`` over the event collection.

    Events may be given in any order.  Matches are returned as
    leaf-id -> event dictionaries, in no particular order.  A Kleene
    leaf binds its *anchor* event — every class event satisfying the
    position's constraints is a valid anchor of a one-or-more match;
    the aggregated group is derived per match by :func:`kleene_groups`.
    ``wall_clock`` supplies the stamp extractor for ``WITHIN n wall``
    guards (required when the pattern has any).
    """
    ordered = sorted(events, key=lambda e: (e.trace, e.index))
    candidates: List[List[Event]] = []
    for leaf in pattern.leaves:
        candidates.append([e for e in ordered if leaf.event_class.could_match(e)])

    matches: List[Match] = []
    assignment: Match = {}

    def backtrack(leaf_id: int, env: Bindings) -> None:
        if leaf_id == pattern.num_leaves:
            if _exist_checks_pass(pattern, assignment) and _negations_pass(
                pattern, assignment, env, ordered
            ):
                matches.append(dict(assignment))
            return
        leaf = pattern.leaves[leaf_id]
        for event in candidates[leaf_id]:
            if any(event == chosen for chosen in assignment.values()):
                continue
            next_env = leaf.event_class.matches(event, env)
            if next_env is None:
                continue
            if not _pairwise_ok(pattern, assignment, leaf_id, event, candidates):
                continue
            if not _windows_ok(pattern, assignment, leaf_id, event, wall_clock):
                continue
            assignment[leaf_id] = event
            backtrack(leaf_id + 1, next_env)
            del assignment[leaf_id]

    backtrack(0, {})
    return matches


def _pairwise_ok(
    pattern: CompiledPattern,
    assignment: Match,
    leaf_id: int,
    event: Event,
    candidates: List[List[Event]],
) -> bool:
    for other_id, other in assignment.items():
        constraint = pattern.constraint(other_id, leaf_id)
        if constraint is Constraint.NONE:
            continue
        if not _holds(constraint, other, event, other_id, leaf_id, candidates):
            return False
    return True


def _holds(
    constraint: Constraint,
    assigned: Event,
    event: Event,
    assigned_leaf: int,
    event_leaf: int,
    candidates: List[List[Event]],
) -> bool:
    if constraint is Constraint.BEFORE:
        return assigned.happens_before(event)
    if constraint is Constraint.AFTER:
        return event.happens_before(assigned)
    if constraint is Constraint.NOT_AFTER:
        return not event.happens_before(assigned)
    if constraint is Constraint.NOT_BEFORE:
        return not assigned.happens_before(event)
    if constraint is Constraint.CONCURRENT:
        return event.concurrent_with(assigned)
    if constraint is Constraint.PARTNER:
        return event.is_partner_of(assigned)
    if constraint is Constraint.LIMITED:
        return assigned.happens_before(event) and not _has_between(
            candidates[assigned_leaf], assigned, event
        )
    if constraint is Constraint.LIMITED_REV:
        return event.happens_before(assigned) and not _has_between(
            candidates[event_leaf], event, assigned
        )
    raise ValueError(f"unhandled constraint {constraint!r}")


def _has_between(pool: List[Event], low: Event, high: Event) -> bool:
    return any(
        x != low and x != high and low.happens_before(x) and x.happens_before(high)
        for x in pool
    )


def _windows_ok(
    pattern: CompiledPattern,
    assignment: Match,
    leaf_id: int,
    event: Event,
    wall_clock: WallClock,
) -> bool:
    if not pattern.windows:
        return True
    for other_id, other in assignment.items():
        if not _window_pair_ok(
            pattern, leaf_id, other_id, event, other, wall_clock
        ):
            return False
    return True


def _window_pair_ok(
    pattern: CompiledPattern,
    leaf_a: int,
    leaf_b: int,
    event_a: Event,
    event_b: Event,
    wall_clock: WallClock,
) -> bool:
    bound = pattern.window_bound(leaf_a, leaf_b, "sim")
    if bound is not None:
        delta = event_a.lamport - event_b.lamport
        if delta > bound or -delta > bound:
            return False
    bound = pattern.window_bound(leaf_a, leaf_b, "wall")
    if bound is not None:
        if wall_clock is None:
            raise ValueError(
                "pattern has wall-clock windows; pass a wall_clock extractor"
            )
        delta = wall_clock(event_a) - wall_clock(event_b)
        if delta > bound or -delta > bound:
            return False
    return True


def _negations_pass(
    pattern: CompiledPattern,
    assignment: Match,
    env: Bindings,
    pool: List[Event],
) -> bool:
    """No event of an absent class falls causally strictly between its
    two anchor events, under the match's final bindings."""
    for spec in pattern.negations:
        left = assignment[spec.left_leaf]
        right = assignment[spec.right_leaf]
        for event in pool:
            if event == left or event == right:
                continue
            if spec.event_class.matches(event, env) is None:
                continue
            if left.happens_before(event) and event.happens_before(right):
                return False
    return True


def kleene_groups(
    pattern: CompiledPattern,
    match: Match,
    events: Iterable[Event],
    wall_clock: WallClock = None,
) -> Tuple[Tuple[int, Tuple[Event, ...]], ...]:
    """Expand each Kleene anchor of a complete match to its maximal
    group, mirroring the engine's report-time expansion: every class
    event (over the *full* pool) matching under the final bindings,
    distinct from the other bound events, satisfying the Kleene leaf's
    pairwise constraints against every bound leaf, and within the
    window guards — including the member-member self bound, checked
    greedily in (trace, index) scan order."""
    ordered = sorted(events, key=lambda e: (e.trace, e.index))
    candidates: List[List[Event]] = []
    for leaf in pattern.leaves:
        candidates.append([e for e in ordered if leaf.event_class.could_match(e)])
    env: Bindings = {}
    for leaf_id in range(pattern.num_leaves):
        env = pattern.leaves[leaf_id].event_class.matches(match[leaf_id], env)
        if env is None:
            raise ValueError("assignment is not a match of the pattern")
    groups = []
    for g in range(pattern.num_leaves):
        leaf = pattern.leaves[g]
        if not leaf.kleene:
            continue
        anchor = match[g]
        others = [(lid, ev) for lid, ev in match.items() if lid != g]
        self_sim = pattern.window_bound(g, g, "sim")
        self_wall = pattern.window_bound(g, g, "wall")
        members: List[Event] = [anchor]
        for event in candidates[g]:
            if event == anchor:
                continue
            if leaf.event_class.matches(event, env) is None:
                continue
            ok = True
            for other_id, other in others:
                if event == other:
                    ok = False
                    break
                constraint = pattern.constraint(other_id, g)
                if constraint is not Constraint.NONE and not _holds(
                    constraint, other, event, other_id, g, candidates
                ):
                    ok = False
                    break
                if not _window_pair_ok(
                    pattern, g, other_id, event, other, wall_clock
                ):
                    ok = False
                    break
            if ok and self_sim is not None:
                for member in members:
                    delta = event.lamport - member.lamport
                    if delta > self_sim or -delta > self_sim:
                        ok = False
                        break
            if ok and self_wall is not None:
                for member in members:
                    delta = wall_clock(event) - wall_clock(member)
                    if delta > self_wall or -delta > self_wall:
                        ok = False
                        break
            if ok:
                members.append(event)
        members.sort(key=lambda e: (e.trace, e.index))
        groups.append((g, tuple(members)))
    return tuple(groups)


def _exist_checks_pass(pattern: CompiledPattern, assignment: Match) -> bool:
    for check in pattern.exist_checks:
        if not any(
            assignment[a].happens_before(assignment[b])
            for a in check.left_leaves
            for b in check.right_leaves
        ):
            return False
    for check in pattern.entangle_checks:
        forward = any(
            assignment[a].happens_before(assignment[b])
            for a in check.left_leaves
            for b in check.right_leaves
        )
        backward = any(
            assignment[b].happens_before(assignment[a])
            for a in check.left_leaves
            for b in check.right_leaves
        )
        if not (forward and backward):
            return False
    return True


def verify_match(
    pattern: CompiledPattern,
    match: Match,
    events: Iterable[Event],
    wall_clock: WallClock = None,
) -> bool:
    """Ground-truth check of one reported match against the *full*
    event collection: every leaf class, every pairwise constraint
    (including ``~>`` immediacy, whose in-between witness pool comes
    from ``events``, not from whatever subset the reporter saw), and
    the compound existential/entanglement checks.  This is how the
    shedding harness measures precision — a monitor fed a gapped
    stream can only report a false match through a shed ``~>``
    witness, and this predicate catches exactly that."""
    ordered = sorted(events, key=lambda e: (e.trace, e.index))
    candidates: List[List[Event]] = []
    for leaf in pattern.leaves:
        candidates.append(
            [e for e in ordered if leaf.event_class.could_match(e)]
        )
    env: Bindings = {}
    assignment: Match = {}
    for leaf_id in range(pattern.num_leaves):
        event = match.get(leaf_id)
        if event is None:
            return False
        env = pattern.leaves[leaf_id].event_class.matches(event, env)
        if env is None:
            return False
        if not _pairwise_ok(pattern, assignment, leaf_id, event, candidates):
            return False
        if not _windows_ok(pattern, assignment, leaf_id, event, wall_clock):
            return False
        assignment[leaf_id] = event
    return _exist_checks_pass(pattern, assignment) and _negations_pass(
        pattern, assignment, env, ordered
    )


def covered_slots(matches: Iterable[Match]) -> set:
    """The full set of (leaf, trace) slots any match covers — what a
    perfect representative subset must cover."""
    slots = set()
    for match in matches:
        for leaf_id, event in match.items():
            slots.add((leaf_id, event.trace))
    return slots
