"""Unit tests for pattern compilation to pairwise constraints."""

import pytest

from repro.patterns import (
    Constraint,
    PatternError,
    PatternTree,
    compile_pattern,
    parse_pattern,
)


def compiled(source, names=("P0", "P1", "P2")):
    return compile_pattern(PatternTree(parse_pattern(source), names))


BASE = "A := ['', a, '']; B := ['', b, '']; C := ['', c, '']; D := ['', d, ''];"


class TestPairwiseDerivation:
    def test_simple_precedence(self):
        p = compiled(BASE + "pattern := A -> B;")
        assert p.constraint(0, 1) is Constraint.BEFORE
        assert p.constraint(1, 0) is Constraint.AFTER

    def test_concurrency(self):
        p = compiled(BASE + "pattern := A || B;")
        assert p.constraint(0, 1) is Constraint.CONCURRENT
        assert p.constraint(1, 0) is Constraint.CONCURRENT

    def test_partner_and_limited(self):
        p = compiled(BASE + "pattern := (A <> B) /\\ (C ~> D);")
        assert p.constraint(0, 1) is Constraint.PARTNER
        assert p.constraint(2, 3) is Constraint.LIMITED
        assert p.constraint(3, 2) is Constraint.LIMITED_REV

    def test_and_leaves_unrelated(self):
        p = compiled(BASE + "pattern := (A -> B) /\\ (C -> D);")
        assert p.constraint(0, 2) is Constraint.NONE
        assert p.constraint(1, 3) is Constraint.NONE

    def test_compound_precedence_weakens_to_not_after(self):
        p = compiled(BASE + "pattern := (A || B) -> C;")
        assert p.constraint(0, 2) is Constraint.NOT_AFTER
        assert p.constraint(1, 2) is Constraint.NOT_AFTER
        assert p.constraint(2, 0) is Constraint.NOT_BEFORE
        assert len(p.exist_checks) == 1
        check = p.exist_checks[0]
        assert set(check.left_leaves) == {0, 1}
        assert check.right_leaves == (2,)

    def test_compound_concurrency_is_pairwise(self):
        p = compiled(BASE + "pattern := (A -> B) || (C -> D);")
        for left in (0, 1):
            for right in (2, 3):
                assert p.constraint(left, right) is Constraint.CONCURRENT
        assert p.constraint(0, 1) is Constraint.BEFORE
        assert p.constraint(2, 3) is Constraint.BEFORE

    def test_chained_concurrency_is_all_pairs(self):
        p = compiled(BASE + "pattern := A || B || C;")
        assert p.constraint(0, 1) is Constraint.CONCURRENT
        assert p.constraint(0, 2) is Constraint.CONCURRENT
        assert p.constraint(1, 2) is Constraint.CONCURRENT


class TestConstraintConjunction:
    def test_variable_accumulates_compatible_constraints(self):
        p = compiled(
            "A := ['', a, '']; B := ['', b, '']; A $x;"
            "pattern := ($x -> B) /\\ ($x -> B);"
        )
        # both conjuncts give the same pair the same constraint
        assert p.constraint(0, 1) is Constraint.BEFORE

    def test_contradiction_detected(self):
        with pytest.raises(PatternError):
            compiled(
                "A := ['', a, '']; B := ['', b, '']; A $x; B $y;"
                "pattern := ($x -> $y) /\\ ($y -> $x);"
            )

    def test_before_and_concurrent_contradict(self):
        with pytest.raises(PatternError):
            compiled(
                "A := ['', a, '']; B := ['', b, '']; A $x; B $y;"
                "pattern := ($x -> $y) /\\ ($x || $y);"
            )

    def test_shared_leaf_on_both_sides_rejected(self):
        with pytest.raises(PatternError):
            compiled("A := ['', a, '']; A $x; pattern := $x -> $x;")

    def test_partner_needs_single_leaves(self):
        with pytest.raises(PatternError):
            compiled(BASE + "pattern := (A -> B) <> C;")

    def test_limited_needs_single_leaves(self):
        with pytest.raises(PatternError):
            compiled(BASE + "pattern := (A -> B) ~> C;")


class TestTerminatingLeaves:
    def test_precedence_only_sink_terminates(self):
        p = compiled(BASE + "pattern := A -> B;")
        assert p.terminating_leaves() == (1,)

    def test_concurrency_both_terminate(self):
        p = compiled(BASE + "pattern := A || B;")
        assert p.terminating_leaves() == (0, 1)

    def test_chain_is_compound_precedence(self):
        # A -> B -> C parses as (A -> B) -> C: the left side is the
        # compound {A, B}, so only the pair (A, B) is strict; C relates
        # to the compound by equation (2).  B can therefore be the last
        # event of a match.  Use explicit conjunctions for a pairwise
        # strict chain.
        p = compiled(BASE + "pattern := A -> B -> C;")
        assert p.constraint(0, 1) is Constraint.BEFORE
        assert p.constraint(0, 2) is Constraint.NOT_AFTER
        assert p.constraint(1, 2) is Constraint.NOT_AFTER
        assert p.terminating_leaves() == (1, 2)

    def test_conjunctive_chain_has_single_terminator(self):
        # a variable carries the middle event across the conjuncts
        p = compiled(BASE + "B $b; pattern := (A -> $b) /\\ ($b -> C);")
        labels = [leaf.label for leaf in p.leaves]
        assert labels == ["A#0", "$b", "C#2"]
        assert p.terminating_leaves() == (2,)

    def test_partner_does_not_block_termination(self):
        p = compiled(BASE + "pattern := A <> B;")
        assert p.terminating_leaves() == (0, 1)


class TestStaticSatisfiability:
    VARS = "A $x; B $y; C $z;"

    def test_precedence_cycle_rejected(self):
        with pytest.raises(PatternError):
            compiled(
                BASE + self.VARS
                + "pattern := ($x -> $y) /\\ ($y -> $z) /\\ ($z -> $x);"
            )

    def test_implied_precedence_vs_concurrency_rejected(self):
        with pytest.raises(PatternError):
            compiled(
                BASE + self.VARS
                + "pattern := ($x -> $y) /\\ ($y -> $z) /\\ ($x || $z);"
            )

    def test_consistent_chain_accepted(self):
        compiled(
            BASE + self.VARS
            + "pattern := ($x -> $y) /\\ ($y -> $z) /\\ ($x -> $z);"
        )

    def test_limited_counts_as_strict(self):
        with pytest.raises(PatternError):
            compiled(
                BASE + self.VARS
                + "pattern := ($x ~> $y) /\\ ($y -> $z) /\\ ($z ~> $x);"
            )

    def test_weak_cycle_is_satisfiable(self):
        # NOT_AFTER around a cycle allows all-concurrent assignments
        compiled(
            BASE + "pattern := ((A || B) -> C) /\\ (C || D);"
        )


class TestImpliedPrecedence:
    """``precedes``: the strict closure ``_check_satisfiable`` derives,
    kept for the level programs; the declared matrix stays as written."""

    VARS = "A $x; B $y; C $z; D $w;"
    #: source -> the (i, j) with leaf i strictly before leaf j that no
    #: declared pair states (leaves number x, y, z, w as they appear)
    TABLE = {
        "($x -> $y) /\\ ($y -> $z)": {(0, 2)},
        "($x -> $y) /\\ ($y -> $z) /\\ ($z -> $w)": {(0, 2), (0, 3), (1, 3)},
        "($x ~> $y) /\\ ($y ~> $z)": {(0, 2)},
        "($x -> $y) /\\ ($x -> $z)": set(),
        # a message's direction is not the pattern's to know
        "($x <> $y) /\\ ($y -> $z)": set(),
        "($x -> $y) /\\ ($y || $z)": set(),
        # weak pairs (x, y not after z) chain nothing
        "(($x || $y) -> $z) /\\ ($z -> $w)": set(),
    }

    @pytest.mark.parametrize("source", sorted(TABLE))
    def test_closure(self, source):
        from repro.patterns.plan import effective_constraint

        p = compiled(BASE + self.VARS + f"pattern := {source};")
        strict = (Constraint.BEFORE, Constraint.LIMITED)
        size = p.num_leaves
        implied = {
            (i, j)
            for i in range(size) for j in range(size)
            if p.precedes(i, j) and p.constraint(i, j) not in strict
        }
        assert implied == self.TABLE[source]
        for i in range(size):
            assert not p.precedes(i, i)
            for j in range(size):
                if i == j:
                    continue
                effective, via = effective_constraint(p, i, j)
                if (i, j) in implied:
                    assert p.constraint(i, j) is Constraint.NONE
                    assert effective is Constraint.BEFORE
                    assert p.precedes(i, via) and p.precedes(via, j)
                    assert effective_constraint(p, j, i)[0] is Constraint.AFTER
                elif (j, i) not in implied:
                    assert (effective, via) == (p.constraint(i, j), None)

    def test_declared_readers_do_not_see_implied_pairs(self):
        chain = compiled(
            BASE + self.VARS + "pattern := ($x -> $y) /\\ ($y -> $z);"
        )
        assert chain.terminating_leaves() == (2,)
        assert chain.constraint_matrix[0][2] is Constraint.NONE
        # the order's cost model is not a declared reader: x is costed
        # by the x -> z the program will restrict it by
        from repro.patterns.plan import plan_order

        plan = plan_order(chain, 2)
        assert plan.order == (2, 0, 1)
        assert "before into prefix" in plan.steps[1].reason

    def test_kleene_leaves_linked_only_by_implication_compile(self):
        p = compiled(
            BASE + self.VARS + "pattern := ($x+ -> $y) /\\ ($y -> $z+);"
        )
        assert p.leaves[0].kleene and p.leaves[2].kleene
        assert p.precedes(0, 2) and p.constraint(0, 2) is Constraint.NONE
