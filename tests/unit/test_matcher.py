"""Unit tests for the OCEP matching engine on hand-built scenarios."""

from repro.core import MatcherConfig, OCEPMatcher, SweepMode, enumerate_matches
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.testing import Weaver, install_order


def build_matcher(source, num_traces, names=None, **config_kwargs):
    names = names or [f"P{i}" for i in range(num_traces)]
    compiled = compile_pattern(PatternTree(parse_pattern(source), names))
    return OCEPMatcher(compiled, num_traces, MatcherConfig(**config_kwargs))


def feed(matcher, events):
    reports = []
    for event in events:
        reports.extend(matcher.on_event(event))
    return reports


def ids(report):
    return {leaf: str(e.event_id) for leaf, e in report.assignment}


def got_and_want(matcher, events):
    """What ``matcher`` reports over ``events`` and what the oracle
    finds there, as sets of sorted ``(leaf, event id)`` tuples."""
    got = {
        tuple(sorted((leaf, e.event_id) for leaf, e in r.assignment))
        for r in feed(matcher, events)
    }
    want = {
        tuple(sorted((leaf, e.event_id) for leaf, e in m.items()))
        for m in enumerate_matches(matcher.pattern, events)
    }
    return got, want


AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"


class TestSimplePrecedence:
    def test_match_through_message(self):
        w = Weaver(2)
        a = w.local(0, "A")
        s, r = w.message(0, 1)
        b = w.local(1, "B")
        m = build_matcher(AB, 2)
        reports = feed(m, w.events)
        assert len(reports) == 1
        assert ids(reports[0]) == {0: "e0.1", 1: "e1.2"}

    def test_no_match_for_concurrent_events(self):
        w = Weaver(2)
        w.local(0, "A")
        w.local(1, "B")
        m = build_matcher(AB, 2)
        assert feed(m, w.events) == []

    def test_no_match_for_reversed_order(self):
        w = Weaver(2)
        b = w.local(0, "B")
        s, r = w.message(0, 1)
        a = w.local(1, "A")
        m = build_matcher(AB, 2)
        assert feed(m, w.events) == []

    def test_same_trace_precedence(self):
        w = Weaver(1)
        w.local(0, "A")
        w.local(0, "B")
        m = build_matcher(AB, 1)
        reports = feed(m, w.events)
        assert len(reports) == 1

    def test_figure3_representative_subset(self):
        """The Figure 3 scenario: on arrival of b, the desired subset
        pairs b with the newest a on each trace that has one."""
        w = Weaver(3)
        # P0: c a a a  (a13 a14 a15 in the figure, approximately)
        w.local(0, "C")
        a13 = w.local(0, "A")
        a14 = w.local(0, "A")
        a15 = w.local(0, "A")
        # P1: a then a message to P2 so a21 precedes b25
        a21 = w.local(1, "A")
        s, r = w.message(1, 2)
        # P0 -> P2 message so P0's a events precede b as well
        s2, r2 = w.message(0, 2)
        b25 = w.local(2, "B")
        m = build_matcher(AB, 3, prune_history=False)
        reports = feed(m, w.events)
        pairs = {ids(rep)[0] for rep in reports}
        # one match per trace with an A, using the newest A on P0
        assert pairs == {str(a15.event_id), str(a21.event_id)}
        assert m.subset.covered_slots == {(0, 0), (0, 1), (1, 2)}

    def test_history_pruning_keeps_newest_and_still_matches(self):
        w = Weaver(3)
        w.local(0, "C")
        for _ in range(3):
            w.local(0, "A")
        s2, r2 = w.message(0, 2)
        b = w.local(2, "B")
        m = build_matcher(AB, 3, prune_history=True)
        reports = feed(m, w.events)
        assert len(reports) == 1
        assert m.history.leaf(0).size == 1  # three As collapsed to one


class TestConcurrency:
    def test_both_directions_trigger(self):
        AB_CONC = "A := ['', A, '']; B := ['', B, '']; pattern := A || B;"
        w = Weaver(2)
        w.local(0, "A")
        w.local(1, "B")
        m = build_matcher(AB_CONC, 2)
        reports = feed(m, w.events)
        # the B arrival completes the match (A arrived first)
        assert len(reports) == 1

    def test_ordered_events_never_match_concurrency(self):
        AB_CONC = "A := ['', A, '']; B := ['', B, '']; pattern := A || B;"
        w = Weaver(2)
        w.local(0, "A")
        s, r = w.message(0, 1)
        w.local(1, "B")
        m = build_matcher(AB_CONC, 2)
        assert feed(m, w.events) == []


class TestVariables:
    def test_event_variable_requires_same_event(self):
        source = (
            "A := ['', A, '']; B := ['', B, '']; C := ['', C, '']; A $x;"
            "pattern := ($x -> B) /\\ ($x -> C);"
        )
        w = Weaver(3)
        a = w.local(0, "A")
        s1, r1 = w.message(0, 1)
        b = w.local(1, "B")
        s2, r2 = w.message(0, 2)
        c = w.local(2, "C")
        m = build_matcher(source, 3)
        reports = feed(m, w.events)
        assert reports
        for rep in reports:
            assignment = rep.as_dict()
            assert assignment[0] == a  # the shared $x leaf

    def test_attribute_variable_constrains_process(self):
        source = "A := [$p, A, '']; B := [$p, B, '']; pattern := A -> B;"
        w = Weaver(2)
        w.local(0, "A")
        s, r = w.message(0, 1)
        w.local(1, "B")  # B on different trace: $p mismatch
        m = build_matcher(source, 2)
        assert feed(m, w.events) == []
        w2 = Weaver(2)
        w2.local(0, "A")
        w2.local(0, "B")
        m2 = build_matcher(source, 2)
        reports = feed(m2, w2.events)
        assert len(reports) == 1
        assert dict(reports[0].bindings) == {"p": "P0"}


class TestPartnerOperator:
    SR = "S := ['', Send, '']; R := ['', Receive, '']; pattern := S <> R;"

    def test_matches_only_true_partners(self):
        w = Weaver(3)
        s1, r1 = w.message(0, 1)
        s2, r2 = w.message(2, 1)
        m = build_matcher(self.SR, 3)
        reports = feed(m, w.events)
        matched_pairs = {
            tuple(sorted(str(e.event_id) for _, e in rep.assignment))
            for rep in reports
        }
        assert matched_pairs == {
            tuple(sorted((str(s1.event_id), str(r1.event_id)))),
            tuple(sorted((str(s2.event_id), str(r2.event_id)))),
        }


class TestLimitedPrecedence:
    LIM = "A := ['', A, '']; B := ['', B, '']; pattern := A ~> B;"

    def test_intermediate_a_blocks_match(self):
        w = Weaver(1)
        a1 = w.local(0, "A")
        a2 = w.local(0, "A")
        b = w.local(0, "B")
        m = build_matcher(self.LIM, 1, sweep=SweepMode.EXHAUSTIVE)
        reports = feed(m, w.events)
        # only the immediate predecessor a2 matches
        assert [ids(r)[0] for r in reports] == [str(a2.event_id)]

    def test_plain_match_when_no_intermediate(self):
        w = Weaver(1)
        a = w.local(0, "A")
        b = w.local(0, "B")
        m = build_matcher(self.LIM, 1)
        assert len(feed(m, w.events)) == 1


class TestSweepModes:
    def _scenario(self):
        w = Weaver(3)
        a1 = w.local(0, "A")
        a2 = w.local(1, "A")
        s1, r1 = w.message(0, 2)
        s2, r2 = w.message(1, 2)
        b = w.local(2, "B")
        return w

    def test_first_stops_after_one(self):
        w = self._scenario()
        m = build_matcher(AB, 3, sweep=SweepMode.FIRST)
        assert len(feed(m, w.events)) == 1

    def test_coverage_reports_one_per_trace(self):
        w = self._scenario()
        m = build_matcher(AB, 3, sweep=SweepMode.COVERAGE)
        reports = feed(m, w.events)
        assert len(reports) == 2  # one A per trace

    def test_exhaustive_reports_all(self):
        w = Weaver(2)
        a1 = w.local(0, "A")
        a2 = w.local(0, "A")
        s, r = w.message(0, 1)
        b = w.local(1, "B")
        m = build_matcher(AB, 2, sweep=SweepMode.EXHAUSTIVE, prune_history=False)
        assert len(feed(m, w.events)) == 2


class TestTriggering:
    def test_non_terminating_event_runs_no_search(self):
        w = Weaver(2)
        w.local(0, "A")
        m = build_matcher(AB, 2)
        feed(m, w.events)
        assert m.searches_run == 0

    def test_terminating_event_runs_search(self):
        w = Weaver(2)
        w.local(1, "B")
        m = build_matcher(AB, 2)
        feed(m, w.events)
        assert m.searches_run == 1

    def test_single_leaf_pattern_matches_immediately(self):
        source = "A := ['', A, '']; pattern := A;"
        w = Weaver(1)
        w.local(0, "A")
        m = build_matcher(source, 1)
        assert len(feed(m, w.events)) == 1


class TestChronologicalEquivalence:
    def test_ablation_produces_same_matches(self):
        import random

        for seed in range(5):
            rng = random.Random(seed)
            w = Weaver(3)
            pending = []
            for _ in range(40):
                roll = rng.random()
                trace = rng.randrange(3)
                if roll < 0.5:
                    w.local(trace, rng.choice("AB"))
                elif roll < 0.75 or not pending:
                    pending.append(w.send(trace))
                else:
                    send = pending.pop()
                    dst = rng.choice([t for t in range(3) if t != send.trace])
                    w.recv(dst, send)
            fast = build_matcher(AB, 3, sweep=SweepMode.EXHAUSTIVE)
            slow = build_matcher(
                AB,
                3,
                sweep=SweepMode.EXHAUSTIVE,
                restrict_domains=False,
                backjump=False,
            )
            fast_reports = {
                tuple(ids(r).items()) for r in feed(fast, w.events)
            }
            slow_reports = {
                tuple(ids(r).items()) for r in feed(slow, w.events)
            }
            assert fast_reports == slow_reports, seed


class TestGappedStream:
    """``complete_stream=False``: a match whose events were all
    delivered is detected, whatever else was shed."""

    @staticmethod
    def detected(source, delivered, **config_kwargs):
        matcher = build_matcher(
            source, 2, complete_stream=False, **config_kwargs
        )
        return got_and_want(matcher, delivered)

    def test_shed_receive_does_not_hide_a_delivered_match(self):
        """The shed receive was the one that raised trace 1's column for
        trace 0: the index reads LS(a, 1) off the second receive, past
        b, and as a lower bound that would cut b off."""
        w = Weaver(2)
        a = w.local(0, "A")
        r = w.recv(1, w.send(0))
        b = w.local(1, "B")
        w.recv(1, w.send(0))
        c = w.local(1, "C")
        delivered = [e for e in w.events if e is not r]
        source = (
            "A := ['', A, '']; B := ['', B, '']; C := ['', C, '']; A $a;"
            "pattern := ($a -> B) /\\ ($a -> C);"
        )
        for prune in (True, False):
            got, want = self.detected(source, delivered, prune_history=prune)
            assert got == want == {
                ((0, a.event_id), (1, b.event_id), (2, c.event_id))
            }

    def test_pruning_rule_does_not_merge_across_a_hole(self):
        """x1 and x2 have no delivered send or receive between them, but
        the hole between them was one: x2 follows b, x1 does not."""
        w = Weaver(2)
        x1 = w.local(1, "A")
        b = w.local(0, "B")
        r = w.recv(1, w.send(0))
        w.local(1, "A")  # x2
        c = w.local(0, "C")
        delivered = [e for e in w.events if e is not r]
        source = (
            "A := ['', A, '']; B := ['', B, '']; C := ['', C, '']; B $b;"
            "pattern := (A || $b) /\\ ($b -> C);"
        )
        for prune in (True, False):
            got, want = self.detected(source, delivered, prune_history=prune)
            assert got == want == {
                ((0, x1.event_id), (1, b.event_id), (2, c.event_id))
            }


class TestWindowClamp:
    """A sim ``WITHIN`` bound narrows the candidate window by Lamport
    time instead of rejecting out-of-window candidates one by one."""

    WINDOWED = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B WITHIN 3;"

    @staticmethod
    def run(source, events, order=None):
        matcher = build_matcher(
            source, 2, sweep=SweepMode.EXHAUSTIVE, prune_history=False
        )
        if order is not None:
            install_order(matcher, lambda trigger: order)
        return (matcher,) + got_and_want(matcher, events)

    def test_out_of_window_candidates_are_never_scanned(self):
        w = Weaver(2)
        for _ in range(10):
            w.local(0, "A")
        w.local(0, "B")
        matcher, got, want = self.run(self.WINDOWED, w.events)
        assert got == want and len(got) == 3
        assert matcher.candidates_scanned == 3
        assert matcher.window_rejections == 0

    def test_a_trace_with_a_lamport_regression_is_checked_per_candidate(self):
        import dataclasses

        w = Weaver(2)
        events = [
            dataclasses.replace(w.local(0, "A"), lamport=lamport)
            for lamport in (10, 2, 9)  # a foreign stream: not monotone
        ]
        events.append(dataclasses.replace(w.local(0, "B"), lamport=11))
        matcher, got, want = self.run(self.WINDOWED, events)
        assert got == want and len(got) == 2
        assert matcher.candidates_scanned == 3
        assert matcher.window_rejections == 1

    def test_clamped_out_candidate_is_a_rejection_not_a_figure_5_conflict(self):
        """y0 lies in x2's causal interval but outside its window.  Read
        as an empty slice, the conflict would name the nearest stored Y
        above the interval (yc) and back-jump to an X *after* yc —
        skipping x1, the only X whose window holds y0."""
        w = Weaver(2)
        y0 = w.local(1, "Y")
        w.recv(0, w.send(1))
        x1 = w.local(0, "X")
        for _ in range(3):
            w.local(0, "F")
        w.local(0, "X")  # x2: y0 is 7 Lamport ticks back
        w.local(1, "Y")  # yc: concurrent with both X
        w.recv(0, w.send(1))
        z = w.local(0, "Z")
        source = (
            "Y := ['', Y, '']; X := ['', X, '']; Z := ['', Z, '']; X $x;"
            "pattern := ((Y -> $x) WITHIN 4) /\\ ($x -> Z);"
        )
        # bind X before Y (the planner, on these sizes, would not)
        matcher, got, want = self.run(source, w.events, order=(2, 1, 0))
        assert got == want == {
            ((0, y0.event_id), (1, x1.event_id), (2, z.event_id))
        }
        assert matcher.empty_slice_conflicts == 0 and matcher.back_jumps == 0


class TestNegationBound:
    """A negation narrows its later anchor's domain to the candidates no
    stored witness vetoes, instead of vetoing complete assignments."""

    ABSENCE = (
        "R := [$1, Request, '']; V := [$1, Validate, ''];"
        "C := [$1, Commit, '']; pattern := R -> !V -> C;"
    )

    def test_a_floored_out_candidate_is_a_rejection_not_a_veto(self):
        w = Weaver(1)
        for etype in ("Request", "Validate", "Commit"):
            w.local(0, etype)
        r = w.local(0, "Request")
        c = w.local(0, "Commit")
        matcher = build_matcher(self.ABSENCE, 1)
        got, want = got_and_want(matcher, w.events)
        assert got == want == {((0, r.event_id), (1, c.event_id))}
        # the first Request lies below the newest Validate before either
        # Commit: never scanned, never vetoed, never a Figure-5 conflict
        assert matcher.candidates_scanned == 1
        assert matcher.negation_vetoes == 0
        assert matcher.empty_slice_conflicts == 0

    def test_a_gapped_ceiling_verifies_its_witness(self):
        """z precedes x's message to trace 1, so it is no successor of
        x; but the shed event on trace 2 makes the index gapped, where
        the lower bound of ``x -> Z`` is ``GP(x, 1) + 1`` — z's position.
        Taken as the witness unverified, z would put y (z -> y) above
        the ceiling and lose the match."""
        w = Weaver(3)
        w.local(1, "C")  # z
        x = w.local(0, "A")
        w.recv(1, w.send(0))
        y = w.local(1, "B")
        shed = w.local(2, "F")
        w.local(2, "F")
        v = w.local(0, "A")
        source = (
            "X := ['', A, '']; Z := ['', C, '']; Y := ['', B, ''];"
            "W := ['', A, '']; X $x;"
            "pattern := ($x -> !Z -> Y) /\\ ($x -> W);"
        )
        matcher = build_matcher(source, 3, complete_stream=False)
        # from v (leaf 2), bind x before y: y's domain gets the ceiling
        install_order(matcher, lambda trigger: (trigger,) + tuple(
            leaf for leaf in (0, 1, 2) if leaf != trigger
        ))
        got, want = got_and_want(
            matcher, [e for e in w.events if e is not shed]
        )
        assert matcher.index.gaps == 1
        assert got == want == {
            ((0, x.event_id), (1, y.event_id), (2, v.event_id))
        }
