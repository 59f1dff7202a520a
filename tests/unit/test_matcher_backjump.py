"""Regression and behaviour tests for back-jumping and the search budget.

The slice-conflict regression scenario is a distilled version of a bug
found by randomized testing during development: when a candidate
*slice* (not the interval) is empty, Figure-5 conflicts must be
recorded for every binding contributor — recording only interval
conflicts lets the back-jump hull prune a real match.
"""

from repro.core import MatcherConfig, OCEPMatcher, SweepMode
from repro.core.oracle import enumerate_matches
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.patterns.plan import plan_order
from repro.testing import Weaver


def build_matcher(source, num_traces, **config_kwargs):
    names = [f"P{i}" for i in range(num_traces)]
    compiled = compile_pattern(PatternTree(parse_pattern(source), names))
    return OCEPMatcher(compiled, num_traces, MatcherConfig(**config_kwargs))


def feed(matcher, events):
    reports = []
    for event in events:
        reports.extend(matcher.on_event(event))
    return reports


def canonical(report):
    return tuple(sorted((lid, str(e.event_id)) for lid, e in report.assignment))


class TestSliceConflictRegression:
    """Distilled from randomized seed 229: pattern (A -> B) /\\ (B || C)
    over a 2-trace computation where the newest A admits no B, and the
    back-jump from the B level must not prune the older A that does."""

    SRC = (
        "A := ['', A, '']; B := ['', B, '']; C := ['', C, ''];"
        "pattern := (A -> B) /\\ (B || C);"
    )

    def _weave(self):
        w = Weaver(2)
        s1 = w.send(0)
        r1 = w.recv(1, s1)
        s2 = w.send(1)
        s3 = w.send(0)
        s4 = w.send(0)
        c_event = w.local(0, "C")  # e0.4
        a_old = w.local(0, "A")  # e0.5: the A that admits a B
        w.local(1, "C")
        s5 = w.send(1)
        b_old = w.local(0, "B")  # e0.6
        w.recv(0, s5)
        s6 = w.send(1)
        a_new = w.recv(0, s6, etype="A")  # e0.8: newest A, admits no B
        w.recv(0, s2)
        trigger = w.local(1, "B")  # e1.6: the triggering B
        w.recv(1, s3)
        return w

    def test_backjump_keeps_the_match(self):
        w = self._weave()
        with_jump = build_matcher(
            self.SRC, 2, sweep=SweepMode.EXHAUSTIVE, prune_history=False
        )
        without_jump = build_matcher(
            self.SRC,
            2,
            sweep=SweepMode.EXHAUSTIVE,
            prune_history=False,
            backjump=False,
        )
        jump_reports = {canonical(r) for r in feed(with_jump, w.events)}
        plain_reports = {canonical(r) for r in feed(without_jump, w.events)}
        oracle = {
            tuple(sorted((lid, str(e.event_id)) for lid, e in m.items()))
            for m in enumerate_matches(with_jump.pattern, w.events)
        }
        assert oracle, "the scenario must contain a match"
        assert plain_reports == oracle
        assert jump_reports == oracle  # the regression: jump used to lose it


class TestSearchBudget:
    CONC = "A := ['', A, '']; B := ['', B, '']; pattern := A || B;"

    def _busy_weaver(self, events_per_trace=30):
        w = Weaver(2)
        for _ in range(events_per_trace):
            w.local(0, "A")
            w.local(1, "B")
        return w

    def test_tiny_budget_truncates_and_counts(self):
        w = self._busy_weaver()
        matcher = build_matcher(
            self.CONC,
            2,
            sweep=SweepMode.EXHAUSTIVE,
            prune_history=False,
            max_forward_steps=3,
        )
        feed(matcher, w.events)
        assert matcher.searches_truncated > 0

    def test_unlimited_budget_never_truncates(self):
        w = self._busy_weaver(10)
        matcher = build_matcher(
            self.CONC,
            2,
            sweep=SweepMode.EXHAUSTIVE,
            prune_history=False,
            max_forward_steps=None,
        )
        feed(matcher, w.events)
        assert matcher.searches_truncated == 0

    def test_matches_before_truncation_still_reported(self):
        w = self._busy_weaver()
        matcher = build_matcher(
            self.CONC,
            2,
            prune_history=False,
            max_forward_steps=50,
        )
        reports = feed(matcher, w.events)
        # newest-first finds a match quickly even under a small budget
        assert reports

    def test_default_budget_is_finite(self):
        assert MatcherConfig().max_forward_steps is not None


class TestSelectivityOrdering:
    def test_bound_attr_vars_pull_leaves_forward(self):
        """The ordering-bug pattern must evaluate the $r-keyed snapshot
        right after the trigger, not the unkeyed update (the difference
        between linear and quadratic search on that workload)."""
        from repro.workloads import ordering_bug_pattern

        compiled = compile_pattern(
            PatternTree(parse_pattern(ordering_bug_pattern()), ["P0", "P1"])
        )
        labels = [step.label for step in plan_order(compiled, 3).steps]
        assert labels[0] == "Forward#3"
        assert labels[1] == "$Diff"  # shares $l and $r with the trigger
