"""Unit tests for :class:`~repro.patterns.classes.UnionClass`.

The disjunction leaf matches its alternatives left to right,
first-match-wins; each branch is tried under a *copy* of the binding
environment, so a branch that binds an attribute variable and then
fails cannot leak that binding into the next branch (the ``$1``-in-
both-branches regression).
"""

import pytest

from repro.core import Monitor
from repro.patterns import PatternTree, parse_pattern
from repro.patterns.ast import AttrVar, ClassDef, Exact, Wildcard
from repro.patterns.classes import UnionClass
from repro.testing import Weaver

NAMES = ("P0", "P1", "P2")


def union(*defs):
    return UnionClass.from_defs(defs, NAMES)


def cdef(name, process=Wildcard(), etype=Wildcard(), text=Wildcard()):
    return ClassDef(name=name, process=process, etype=etype, text=text)


def event(etype="A", text="", trace=0):
    w = Weaver(len(NAMES))
    return w.local(trace, etype, text)


class TestMatching:
    def test_first_match_wins_left_to_right(self):
        u = union(cdef("A", etype=Exact("A")), cdef("B", etype=Exact("B")))
        assert u.matches(event("A")) == {}
        assert u.matches(event("B")) == {}
        assert u.matches(event("C")) is None

    def test_name_joins_alternatives(self):
        u = union(cdef("A"), cdef("B"))
        assert u.name == "A \\/ B"

    def test_needs_two_alternatives(self):
        with pytest.raises(ValueError):
            union(cdef("A"))

    def test_could_match_any_branch(self):
        u = union(cdef("A", etype=Exact("A")), cdef("B", etype=Exact("B")))
        assert u.could_match(event("B"))
        assert not u.could_match(event("C"))


class TestPerBranchScoping:
    def test_failed_branch_does_not_leak_bindings(self):
        # branch 1 binds $1 to the process, then fails on the text;
        # branch 2 must still see the *original* environment
        u = union(
            cdef("A", process=AttrVar("1"), text=Exact("nope")),
            cdef("B", process=AttrVar("1")),
        )
        env = u.matches(event(trace=2))
        assert env == {"1": "P2"}

    def test_variable_bound_by_matching_branch_propagates(self):
        u = union(
            cdef("A", etype=Exact("A"), process=AttrVar("1")),
            cdef("B", etype=Exact("B"), process=AttrVar("1")),
        )
        env = u.matches(event("B", trace=1))
        assert env == {"1": "P1"}
        # a pre-bound variable constrains every branch
        assert u.matches(event("B", trace=1), {"1": "P2"}) is None

    def test_input_environment_never_mutated(self):
        u = union(
            cdef("A", process=AttrVar("1"), text=Exact("nope")),
            cdef("B", process=AttrVar("2")),
        )
        before = {"0": "x"}
        u.matches(event(trace=0), before)
        assert before == {"0": "x"}


class TestHints:
    def test_hints_only_when_all_branches_agree(self):
        agree = union(
            cdef("A", etype=Exact("E"), process=Exact("P1")),
            cdef("B", etype=Exact("E"), process=Exact("P1")),
        )
        assert agree.etypes() == {"E"}
        assert agree.pinned_trace({}) == 1
        disagree = union(
            cdef("A", etype=Exact("E")), cdef("B", etype=Exact("F"))
        )
        assert disagree.etypes() == {"E", "F"}  # routed per branch
        assert disagree.pinned_trace({}) is None


class TestDisjunctionPatternRegression:
    """End-to-end: ``$1`` used inside both branches of ``\\/``."""

    SOURCE = """
A := [$1, A, 'x'];
B := [$1, B, ''];
C := [$1, C, ''];
pattern := A \\/ B -> C;
"""

    def test_branch_failure_keeps_env_clean(self):
        # an A-typed event with the wrong text falls through branch 1
        # *after* branch 1 bound $1; branch 2 must not inherit that
        w = Weaver(3)
        b = w.local(1, "B")          # matches branch 2, binds $1=P1
        c = w.local(1, "C")          # completes the match on P1
        w.local(2, "A", "wrong")     # branch 1 fails on text
        monitor = Monitor.from_source(self.SOURCE, NAMES)
        for e in w.events:
            monitor.on_event(e)
        assert len(monitor.reports) == 1
        assert monitor.reports[0].as_dict() == {0: b, 1: c}
        assert dict(monitor.reports[0].bindings) == {"1": "P1"}

    def test_cross_leaf_consistency_respected(self):
        # $1 bound by the union leaf must constrain the C leaf
        w = Weaver(3)
        w.local(1, "B")
        w.local(2, "C")              # wrong process: no match
        monitor = Monitor.from_source(self.SOURCE, NAMES)
        for e in w.events:
            monitor.on_event(e)
        assert monitor.reports == []

    def test_tree_builds_single_union_leaf(self):
        tree = PatternTree(parse_pattern(self.SOURCE), NAMES)
        assert len(tree.leaves) == 2
        assert isinstance(tree.leaves[0].event_class, UnionClass)
