"""Unit tests for the compile layer of the v2 pattern operators.

Covers the derived window matrices, negation specs and
Kleene-position restrictions.
"""

import pytest

from repro.patterns import (
    PatternError,
    PatternTree,
    compile_pattern,
    parse_pattern,
)
from repro.patterns.compile import Constraint

NAMES = ["P0", "P1", "P2"]

HOTPATH = """
P := ['', Pickup, ''];
M := ['', Move, 'hot'];
D := ['', Drop, ''];
M $m;
pattern := ((P ~> $m+) /\\ ($m+ -> D)) WITHIN 16;
"""


def compiled(source):
    return compile_pattern(PatternTree(parse_pattern(source), NAMES))


class TestRestrictions:
    def test_constraint_between_two_kleene_positions_rejected(self):
        source = """
A := ['', A, ''];
B := ['', B, ''];
pattern := A+ -> B+;
"""
        with pytest.raises(PatternError, match="two Kleene positions"):
            compiled(source)

    def test_partner_on_kleene_rejected(self):
        source = """
A := ['', A, ''];
B := ['', B, ''];
pattern := A+ <> B;
"""
        with pytest.raises(PatternError, match="partner"):
            compiled(source)

    def test_negation_anchored_on_kleene_rejected(self):
        source = """
A := ['', A, ''];
B := ['', B, ''];
C := ['', C, ''];
pattern := A+ -> !B -> C;
"""
        with pytest.raises(PatternError, match="anchor"):
            compiled(source)

    def test_mixed_plain_and_kleene_variable_rejected(self):
        source = """
A := ['', A, ''];
B := ['', B, ''];
B $m;
pattern := (A -> $m) /\\ ($m+ -> A);
"""
        with pytest.raises(PatternError, match="plain and Kleene"):
            compiled(source)


class TestWindowMatrices:
    def test_window_covers_all_leaf_pairs_and_diagonal(self):
        pattern = compiled(HOTPATH)
        n = pattern.num_leaves
        assert n == 3
        for i in range(n):
            for j in range(n):
                assert pattern.window_bound(i, j, "sim") == 16
                assert pattern.window_bound(i, j, "wall") is None

    def test_diagonal_bounds_kleene_members_to_each_other(self):
        # window_bound(g, g) constrains every pair of *group members*
        # at the Kleene leaf g, not just the anchor
        pattern = compiled(HOTPATH)
        kleene = next(
            i for i, leaf in enumerate(pattern.leaves) if leaf.kleene
        )
        assert pattern.window_bound(kleene, kleene, "sim") == 16

    def test_unwindowed_relation_in_conjunction_is_unbounded(self):
        source = """
A := ['', A, ''];
B := ['', B, ''];
C := ['', C, ''];
pattern := (A -> B WITHIN 5) /\\ (B -> C);
"""
        pattern = compiled(source)
        # A and B appear as distinct leaves per reference; the windowed
        # relation covers leaves 0 and 1 only
        assert pattern.window_bound(0, 1, "sim") == 5
        spec = pattern.windows[0]
        assert spec.bound == 5 and spec.domain == "sim"
        assert set(spec.leaf_ids) == {0, 1}

    def test_nested_windows_keep_the_tightest_bound(self):
        source = """
A := ['', A, ''];
B := ['', B, ''];
pattern := (A -> B WITHIN 12) WITHIN 4;
"""
        pattern = compiled(source)
        assert pattern.window_bound(0, 1, "sim") == 4
        assert len(pattern.windows) == 2

    def test_wall_and_sim_domains_are_independent(self):
        source = """
A := ['', A, ''];
B := ['', B, ''];
pattern := (A -> B WITHIN 7 wall) WITHIN 20;
"""
        pattern = compiled(source)
        assert pattern.window_bound(0, 1, "wall") == 7
        assert pattern.window_bound(0, 1, "sim") == 20
        assert pattern.has_wall_windows


class TestNegationSpecs:
    def test_anchors_flank_the_removed_position(self):
        source = """
R := [$1, Request, ''];
V := [$1, Validate, ''];
C := [$1, Commit, ''];
pattern := R -> !V -> C;
"""
        pattern = compiled(source)
        assert pattern.num_leaves == 2
        (spec,) = pattern.negations
        assert spec.left_leaf == 0
        assert spec.right_leaf == 1
        assert spec.event_class.etypes() == {"Validate"}
        # the surviving anchors keep their ordinary precedence edge
        assert pattern.constraint(0, 1) is Constraint.BEFORE

    def test_chain_with_two_negations(self):
        source = """
A := ['', A, ''];
B := ['', B, ''];
C := ['', C, ''];
D := ['', D, ''];
E := ['', E, ''];
pattern := A -> !B -> C -> !D -> E;
"""
        pattern = compiled(source)
        assert pattern.num_leaves == 3
        specs = sorted(
            pattern.negations, key=lambda s: (s.left_leaf, s.right_leaf)
        )
        assert [(s.left_leaf, s.right_leaf) for s in specs] == [
            (0, 1),
            (1, 2),
        ]


class TestTerminatingLeaves:
    def test_hotpath_conjunction_triggers_only_on_drop(self):
        # P ~> $m+ makes m LIMITED-restricted; $m+ -> D makes m BEFORE
        # D — so only the Drop leaf lacks a (BEFORE, LIMITED)
        # obligation and can terminate a match
        pattern = compiled(HOTPATH)
        assert pattern.terminating_leaves() == (2,)

    def test_kleene_leaf_can_terminate_when_last(self):
        source = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B+;"
        pattern = compiled(source)
        assert pattern.terminating_leaves() == (1,)
