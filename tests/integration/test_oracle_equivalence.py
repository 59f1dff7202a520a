"""Randomized equivalence of the OCEP engine against the brute-force oracle.

This is the correctness centrepiece: for a corpus of random small
computations and a battery of patterns covering every operator,

* EXHAUSTIVE mode must report *exactly* the oracle's match set — also
  on a gapped stream (a seeded share of events shed before delivery,
  ``complete_stream=False``), against the oracle over the delivered
  events: a match whose events were all delivered is detected — and it
  must do so in *any* evaluation order, not only the planned one;
* COVERAGE mode must never report a non-match (no false positives),
  must report at least one match for any trigger that participates in
  one (detection completeness), and its covered slots must be a subset
  of the oracle's achievable slots;
* the k*n subset bound must hold throughout.
"""


import random

import pytest

from repro import Kernel, MatcherConfig, Monitor, SweepMode, instrument
from repro.core import enumerate_matches
from repro.core.oracle import covered_slots
from repro.poet import RecordingClient
from repro.testing import install_order, random_computation

PATTERNS = [
    ("precedence", "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"),
    ("concurrency", "A := ['', A, '']; B := ['', B, '']; pattern := A || B;"),
    (
        "fan-out",
        "A := ['', A, '']; B := ['', B, '']; C := ['', C, ''];"
        "pattern := (A -> B) /\\ (A -> C);",
    ),
    (
        "variable-fan-out",
        "A := ['', A, '']; B := ['', B, '']; C := ['', C, '']; A $x;"
        "pattern := ($x -> B) /\\ ($x -> C);",
    ),
    (
        "compound-concurrent",
        "A := ['', A, '']; B := ['', B, '']; C := ['', C, ''];"
        "pattern := (A -> B) || C;",
    ),
    (
        "same-process",
        "A := [$1, A, '']; B := [$1, B, '']; pattern := A -> B;",
    ),
    ("partner", "S := ['', Send, '']; R := ['', Receive, '']; pattern := S <> R;"),
    ("limited", "A := ['', A, '']; B := ['', B, '']; pattern := A ~> B;"),
    (
        "compound-chain",
        "A := ['', A, '']; B := ['', B, '']; C := ['', C, ''];"
        "pattern := A -> B -> C;",
    ),
    (
        "mixed",
        "A := ['', A, '']; B := ['', B, '']; C := ['', C, ''];"
        "pattern := (A || B) /\\ (B -> C);",
    ),
    # Precedence the pattern implies but does not declare: the level
    # program restricts by it (A -> C below), the oracle reads the
    # declared pairs only.
    (
        "implied-chain",
        "A := ['', A, '']; B := ['', B, '']; C := ['', C, '']; B $b;"
        "pattern := (A -> $b) /\\ ($b -> C);",
    ),
    (
        # the weak A-not-after-C of the compound is subsumed by the
        # strict A -> C implied through $b
        "implied-subsumes-weak",
        "A := ['', A, '']; B := ['', B, '']; C := ['', C, '']; X := ['', A, ''];"
        "A $a; B $b; C $c;"
        "pattern := (($a /\\ X) -> $c) /\\ ($a -> $b) /\\ ($b -> $c);",
    ),
]


def random_events(seed, num_processes=4, steps=6, max_events=150):
    """A random small computation's recorded event stream."""
    kernel = Kernel(num_processes=num_processes, seed=seed, buffer_capacity=None)
    server = instrument(kernel, verify=True)
    recorder = RecordingClient()
    server.connect(recorder)

    def body(p):
        rng = p.rng
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.4:
                yield p.emit(rng.choice("ABC"), rng.choice(["", "t"]))
            elif roll < 0.75:
                dst = rng.randrange(num_processes)
                if dst != p.pid:
                    yield p.send(dst)
            else:
                yield p.sleep(rng.random())

    for pid in range(num_processes):
        kernel.spawn(pid, body)
    kernel.run(max_events=max_events)
    return recorder.events, kernel.trace_names()


def canonical(assignment_items):
    return tuple(sorted((lid, e.event_id) for lid, e in assignment_items))


def shed(events, seed, drop_rate):
    """The events that survive a seeded per-event drop."""
    rng = random.Random(seed ^ 0x9E3779B9)
    return [e for e in events if rng.random() >= drop_rate]


def delivered_stream(seed, drop_rate):
    """``(events, trace names)``: complete, :func:`random_events`;
    gapped, a denser Weaver schedule with a share of its events shed —
    on the kernel's sparse computations no hole ever moves a domain
    bound, so no gapped cell could fail there."""
    if not drop_rate:
        return random_events(seed)
    events = random_computation(seed, 3, 40).events
    return shed(events, seed, drop_rate), ["P0", "P1", "P2"]


def drop_rate_cells(patterns):
    """``(name, source, drop rate)`` cells, the complete-stream ones
    under the pattern's bare name.  ``~>`` stays out of the gapped
    cells: its in-between witness may itself be shed."""
    return [
        pytest.param(
            name, source, rate,
            id=name if not rate else f"{name}-shed{round(rate * 100)}",
        )
        for rate in (0.0, 0.15, 0.35)
        for name, source in patterns
        if not rate or "~>" not in source
    ]


def in_seeded_order(monitor, seed):
    """Replace the planned order of ``monitor``'s searches by a seeded
    permutation of the non-trigger leaves, per trigger leaf."""

    def order_of(trigger):
        rest = [i for i in range(monitor.pattern.num_leaves) if i != trigger]
        random.Random(seed * 31 + trigger).shuffle(rest)
        return [trigger] + rest

    install_order(monitor.matcher, order_of)
    return monitor


def exhaustive_equals_oracle(name, source, drop_rate, permuted):
    for seed in range(12):
        events, names = delivered_stream(seed, drop_rate)
        monitor = Monitor.from_source(
            source,
            names,
            config=MatcherConfig(
                sweep=SweepMode.EXHAUSTIVE,
                prune_history=False,
                paranoid=True,
                complete_stream=not drop_rate,
            ),
        )
        if permuted:
            in_seeded_order(monitor, seed)
        for event in events:
            monitor.on_event(event)
        got = {canonical(r.assignment) for r in monitor.reports}
        want = {canonical(m.items()) for m in enumerate_matches(monitor.pattern, events)}
        assert got == want, f"{name} seed={seed} drop={drop_rate}"


@pytest.mark.parametrize("name,source,drop_rate", drop_rate_cells(PATTERNS))
def test_exhaustive_equals_oracle(name, source, drop_rate):
    exhaustive_equals_oracle(name, source, drop_rate, permuted=False)


@pytest.mark.parametrize("name,source,drop_rate", drop_rate_cells(PATTERNS))
def test_any_order_finds_the_same_matches(name, source, drop_rate):
    """What makes a data-driven order safe at all: the order decides
    what a search costs, never what it finds."""
    exhaustive_equals_oracle(name, source, drop_rate, permuted=True)


@pytest.mark.parametrize("name,source", PATTERNS, ids=[n for n, _ in PATTERNS])
def test_coverage_mode_is_sound_and_detects(name, source):
    """Unpruned coverage mode: reports are exactly oracle matches, slots
    are achievable, detection never misses, and the k*n bound holds."""
    for seed in range(12):
        events, names = random_events(seed)
        monitor = Monitor.from_source(
            source, names, config=MatcherConfig(prune_history=False)
        )
        for event in events:
            monitor.on_event(event)
        oracle = enumerate_matches(monitor.pattern, events)
        oracle_set = {canonical(m.items()) for m in oracle}
        oracle_slots = covered_slots(oracle)

        for report in monitor.reports:
            assert canonical(report.assignment) in oracle_set
        assert monitor.subset.covered_slots <= oracle_slots

        if oracle_set:
            assert monitor.reports, f"{name} seed={seed}: all matches missed"
        else:
            assert not monitor.reports

        assert monitor.subset.check_bound()


@pytest.mark.parametrize(
    "name,source", PATTERNS[:7], ids=[n for n, _ in PATTERNS[:7]]
)
def test_pruned_coverage_mode_reports_are_causally_valid(name, source):
    """With the O(1) history pruning on (the default), every report must
    still be a true match of the pattern over the full event set, and
    detection must still fire whenever the oracle has matches (pruning
    keeps one interchangeable representative, never zero)."""
    for seed in range(12):
        events, names = random_events(seed)
        monitor = Monitor.from_source(source, names)
        for event in events:
            monitor.on_event(event)
        oracle_set = {
            canonical(m.items())
            for m in enumerate_matches(monitor.pattern, events)
        }
        for report in monitor.reports:
            assert canonical(report.assignment) in oracle_set
        if oracle_set:
            assert monitor.reports, f"{name} seed={seed}: all matches missed"
        assert monitor.subset.check_bound()


@pytest.mark.parametrize("name,source", PATTERNS[:6], ids=[n for n, _ in PATTERNS[:6]])
def test_backjumping_does_not_lose_matches(name, source):
    """With and without the bt-table back-jump, exhaustive enumeration
    must agree (the jump only skips provably dead search regions)."""
    for seed in range(8):
        events, names = random_events(seed)
        results = []
        for backjump in (True, False):
            monitor = Monitor.from_source(
                source,
                names,
                config=MatcherConfig(
                    sweep=SweepMode.EXHAUSTIVE,
                    prune_history=False,
                    backjump=backjump,
                ),
            )
            for event in events:
                monitor.on_event(event)
            results.append({canonical(r.assignment) for r in monitor.reports})
        assert results[0] == results[1], f"{name} seed={seed}"


def _pin_bound_mid_search(pin, b, t, union):
    """A D -> C precedence under A, with C pinned to a trace (``b``) or a
    text (``t``) by a variable a leaf evaluated between D and C binds:
    B, or — behind a union naming it in one branch only — B or F."""
    if union:
        classes = f"E := ['', E, '']; F := [{b}, F, {t}]; F $g;"
        between = "((B \\/ E) -> $a) /\\ ($g -> $a)"
    else:
        classes, between = "", "($b -> $a)"
    return pytest.param(
        "A := ['', A, '']; D := ['', D, '']; "
        f"B := [{b}, B, {t}]; C := [{b}, C, {t}]; {classes}"
        "A $a; D $d; B $b; C $c;"
        f"pattern := ($d -> $a) /\\ {between} /\\ ($c -> $a) /\\ ($d -> $c);",
        ("A", "B", "C", "D") + ("E", "F") * union,
        id=pin + "-union" * union,
    )


@pytest.mark.parametrize("source,etypes", [
    _pin_bound_mid_search(pin, b, t, union)
    for pin, b, t in (("trace-pin", "$f", "''"), ("text-pin", "''", "$r"))
    for union in (False, True)
])
def test_a_pin_bound_past_the_trigger_is_a_backjump_contributor(source, etypes):
    """Evaluated in the order the leaves are written — trigger A, then
    D, the binder(s), C — exhaustive search must report exactly the
    oracle's matches: a Figure-5 conflict from D must not jump back over
    the level that moved C's pin.  That level is blamed for every
    failure at C, as the partner level of a ``<>`` is, and a union that
    may or may not bind the variable does not stand in for the later
    leaf that then binds it."""
    for seed in range(120):
        weaver = random_computation(
            seed, num_traces=4, steps=40, etypes=etypes, texts=("x", "y")
        )
        monitor = Monitor.from_source(
            source,
            [f"P{t}" for t in range(4)],
            config=MatcherConfig(
                sweep=SweepMode.EXHAUSTIVE, prune_history=False, paranoid=True
            ),
        )
        leaves = range(monitor.pattern.num_leaves)
        assert [monitor.pattern.leaves[i].label for i in (0, 1)] == ["$d", "$a"]
        install_order(monitor.matcher, lambda trigger: [trigger] + [
            i for i in leaves if i != trigger
        ])
        for event in weaver.events:
            monitor.on_event(event)
        got = {canonical(r.assignment) for r in monitor.reports}
        want = {
            canonical(m.items())
            for m in enumerate_matches(monitor.pattern, weaver.events)
        }
        assert got == want, f"seed={seed}"
