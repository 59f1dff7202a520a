"""Oracle equivalence for the v2 pattern operators.

Every new operator — Kleene closure, time windows (both domains),
negation, disjunction — and their interactions are checked against the
brute-force oracle on randomized Weaver schedules, seeds 0..9:

* EXHAUSTIVE-mode matcher output (unpruned histories, as in the
  legacy oracle-equivalence suite) must equal the oracle's full match
  enumeration (as assignment sets), in the planned order AND in seeded
  permutations of it, also on gapped streams against the oracle over
  the delivered events (the drop-rate cells of the legacy suite);
* every reported Kleene group must equal the oracle's maximal-group
  expansion;
* COVERAGE-mode reports must individually verify against the full
  event pool.
"""

from __future__ import annotations

import pytest

from repro.core import Monitor
from repro.core.matcher import MatcherConfig, SweepMode
from repro.core import oracle
from repro.testing import random_computation
from tests.integration.test_oracle_equivalence import (
    drop_rate_cells,
    in_seeded_order,
    shed,
)

SEEDS = range(10)
TRACES = 3
STEPS = 40


def wall_stamp(event) -> float:
    """Deterministic wall-clock stand-in for the wall window tests."""
    return float(event.index)


KLEENE = """
X := ['', A, ''];
Y := ['', B, ''];
pattern := X -> Y+;
"""

WINDOW_SIM = """
X := ['', A, ''];
Y := ['', B, ''];
pattern := X -> Y WITHIN 4;
"""

WINDOW_WALL = """
X := ['', A, ''];
Y := ['', B, ''];
pattern := X -> Y WITHIN 3 wall;
"""

NEGATION = """
X := ['', A, ''];
Z := ['', C, ''];
Y := ['', B, ''];
pattern := X -> !Z -> Y;
"""

NEGATION_VAR = """
X := [$1, A, ''];
Z := [$1, C, ''];
Y := [$1, B, ''];
pattern := X -> !Z -> Y;
"""

# $1 is bound only by the left anchor: the search from Y cannot bound
# X's domain by the newest Z before Y, whose trace $1 has not named yet
NEGATION_VAR_LEFT = """
X := [$1, A, ''];
Z := [$1, C, ''];
Y := ['', B, ''];
pattern := X -> !Z -> Y;
"""

# Y and W both terminate: from W the order binds X before Y, and the
# oldest Z after X puts a ceiling on Y's domain
NEGATION_CEILING = """
X := ['', A, ''];
Z := ['', C, ''];
Y := ['', B, ''];
W := ['', A, ''];
X $x;
pattern := ($x -> !Z -> Y) /\\ ($x -> W);
"""

DISJUNCTION = """
X := ['', A, ''];
Z := ['', C, ''];
Y := ['', B, ''];
pattern := X \\/ Z -> Y;
"""

KLEENE_OF_DISJUNCTION = """
X := ['', A, ''];
Z := ['', C, ''];
Y := ['', B, ''];
pattern := (X \\/ Z)+ -> Y;
"""

KLEENE_WINDOW = """
X := ['', A, ''];
Y := ['', B, ''];
Z := ['', C, ''];
Y $y;
pattern := ((X ~> $y+) /\\ ($y+ -> Z)) WITHIN 6;
"""

NEGATION_WINDOW = """
X := ['', A, ''];
Z := ['', C, ''];
Y := ['', B, ''];
pattern := X -> !Z -> Y WITHIN 8;
"""

# Implied precedence (W before every $y, X before Z: declared nowhere,
# applied by the level program) across the v2 operators.
IMPLIED_INTO_KLEENE = """
W := ['', C, ''];
X := ['', A, ''];
Y := ['', B, ''];
X $x;
Y $y;
pattern := (W -> $x) /\\ ($x ~> $y+);
"""

IMPLIED_INTO_KLEENE_STRICT = """
W := ['', C, ''];
X := ['', A, ''];
Y := ['', B, ''];
X $x;
pattern := (W -> $x) /\\ ($x -> Y+);
"""

# no v2 operator, but the kernel-recorded complete streams of the
# legacy suite are too sparse to hold a single 4-chain
IMPLIED_4_CHAIN = """
W := ['', A, ''];
X := ['', B, ''];
Y := ['', C, ''];
Z := ['', A, ''];
X $x;
Y $y;
pattern := (W -> $x) /\\ ($x -> $y) /\\ ($y -> Z);
"""

# every X-group member precedes every Z-group member, through $y
IMPLIED_BETWEEN_KLEENE = """
X := ['', A, ''];
Y := ['', B, ''];
Z := ['', C, ''];
Y $y;
pattern := (X+ -> $y) /\\ ($y -> Z+);
"""

IMPLIED_CHAIN_WINDOW = """
X := ['', A, ''];
Y := ['', B, ''];
Z := ['', C, ''];
Y $y;
pattern := ((X -> $y) /\\ ($y -> Z)) WITHIN 8;
"""

ALL_PATTERNS = {
    "implied_into_kleene": IMPLIED_INTO_KLEENE,
    "implied_into_kleene_strict": IMPLIED_INTO_KLEENE_STRICT,
    "implied_4_chain": IMPLIED_4_CHAIN,
    "implied_between_kleene": IMPLIED_BETWEEN_KLEENE,
    "implied_chain_window": IMPLIED_CHAIN_WINDOW,
    "kleene": KLEENE,
    "window_sim": WINDOW_SIM,
    "window_wall": WINDOW_WALL,
    "negation": NEGATION,
    "negation_var": NEGATION_VAR,
    "negation_var_left": NEGATION_VAR_LEFT,
    "negation_ceiling": NEGATION_CEILING,
    "disjunction": DISJUNCTION,
    "kleene_of_disjunction": KLEENE_OF_DISJUNCTION,
    "kleene_window": KLEENE_WINDOW,
    "negation_window": NEGATION_WINDOW,
}

NAMES = [f"P{i}" for i in range(TRACES)]


def run_monitor(source, events, order_seed=None, **config_kwargs):
    config = MatcherConfig(**config_kwargs)
    monitor = Monitor.from_source(
        source, NAMES, config=config, record_timings=False
    )
    if order_seed is not None:
        in_seeded_order(monitor, order_seed)
    for event in events:
        monitor.on_event(event)
    return monitor


def fingerprint(assignment_items):
    return tuple(sorted((l, e.trace, e.index) for l, e in assignment_items))


def wall_clock_for(source):
    return wall_stamp if "wall" in source else None


def exhaustive_equals_oracle(name, source, drop_rate, permuted):
    wall = wall_clock_for(source)
    for seed in SEEDS:
        events = shed(
            random_computation(seed, TRACES, STEPS).events, seed, drop_rate
        )
        monitor = run_monitor(
            source,
            events,
            order_seed=seed if permuted else None,
            sweep=SweepMode.EXHAUSTIVE,
            prune_history=False,
            wall_clock=wall,
            complete_stream=not drop_rate,
        )
        pattern = monitor.matcher.pattern
        got = {fingerprint(r.assignment) for r in monitor.reports}
        want = {
            fingerprint(m.items())
            for m in oracle.enumerate_matches(pattern, events, wall_clock=wall)
        }
        assert got == want, (name, seed, drop_rate, got ^ want)

        # reported Kleene groups are the oracle's maximal expansions
        # over the events delivered up to the report (groups are
        # expanded online, at report time)
        position = {e: k for k, e in enumerate(events)}
        for report in monitor.reports:
            seen = events[: position[report.trigger_event] + 1]
            expected = oracle.kleene_groups(
                pattern, dict(report.assignment), seen, wall_clock=wall
            )
            assert tuple((l, tuple(g)) for l, g in report.groups) == expected


@pytest.mark.parametrize(
    "name,source,drop_rate", drop_rate_cells(sorted(ALL_PATTERNS.items()))
)
def test_exhaustive_equals_oracle(name, source, drop_rate):
    exhaustive_equals_oracle(name, source, drop_rate, permuted=False)


@pytest.mark.parametrize(
    "name,source,drop_rate", drop_rate_cells(sorted(ALL_PATTERNS.items()))
)
def test_planner_off_finds_the_same_matches(name, source, drop_rate):
    """The planner's choice switched off: with the non-trigger leaves in
    a seeded permutation instead, the interacting operators (Kleene ×
    ``WITHIN`` × negation × disjunction × implied precedence) still find
    exactly the oracle's matches and groups.  Any order is a correct
    order."""
    exhaustive_equals_oracle(name, source, drop_rate, permuted=True)


@pytest.mark.parametrize("name", sorted(ALL_PATTERNS))
def test_coverage_reports_verify(name):
    source = ALL_PATTERNS[name]
    wall = wall_clock_for(source)
    for seed in SEEDS:
        events = random_computation(seed, TRACES, STEPS).events
        monitor = run_monitor(source, events, wall_clock=wall)
        pattern = monitor.matcher.pattern
        for report in monitor.reports:
            assert oracle.verify_match(
                pattern, dict(report.assignment), events, wall_clock=wall
            ), (name, seed, report)
        assert monitor.matcher.subset.check_bound()
