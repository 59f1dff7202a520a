"""Unit tests for the cost-based constraint planner."""

from repro.core import Monitor
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.patterns.plan import LeafStats, level_program, plan_order
from repro.testing import Weaver

NAMES = ["P0", "P1", "P2"]


def compiled(source):
    return compile_pattern(PatternTree(parse_pattern(source), NAMES))

SKEWED = """
P := ['', Pickup, ''];
M := ['', Move, 'hot'];
D := ['', Drop, ''];
M $m;
pattern := ((P ~> $m+) /\\ ($m+ -> D)) WITHIN 16;
"""

CHAIN = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"

VARS = """
S := ['', Synch, $r];
T := [$l, Snap, $r];
U := [$l, Fwd, $r];
T $t;
pattern := (S -> $t) /\\ ($t -> U);
"""


class TestCostBasedOrder:
    def test_rare_leaf_ordered_before_huge_leaf(self):
        # both precede the Drop trigger: the populations decide
        pattern = compiled(SKEWED)
        stats = {0: LeafStats(30), 1: LeafStats(5), 2: LeafStats(30)}
        assert plan_order(pattern, 2, stats).order == (2, 1, 0)
        stats = {0: LeafStats(30), 1: LeafStats(5000), 2: LeafStats(30)}
        assert plan_order(pattern, 2, stats).order == (2, 0, 1)

    def test_trigger_is_always_level_one(self):
        pattern = compiled(SKEWED)
        stats = {0: LeafStats(10), 1: LeafStats(10), 2: LeafStats(10)}
        for trigger in range(3):
            assert plan_order(pattern, trigger, stats).order[0] == trigger

    def test_connected_leaves_come_first(self):
        # from trigger $b, the directly constrained A and $c come before
        # the only-indirectly-connected D, whatever the populations
        pattern = compiled(
            "A := ['', A, '']; B := ['', B, '']; C := ['', C, ''];"
            "D := ['', D, '']; B $b; C $c;"
            "pattern := (A -> $b) /\\ ($c -> $b) /\\ ($c -> D);"
        )
        for stats in (None, {i: LeafStats(50, 3) for i in range(4)}):
            order = plan_order(pattern, 1, stats).order
            assert set(order[1:3]) == {0, 2} and order[3] == 3

    def test_order_is_a_permutation(self):
        pattern = compiled(VARS)
        stats = {0: LeafStats(7), 1: LeafStats(900), 2: LeafStats(40)}
        plan = plan_order(pattern, 2, stats)
        assert sorted(plan.order) == [0, 1, 2]

    def test_bound_attr_vars_discount_estimate(self):
        # T shares $l and $r with the prefix: its effective estimate is
        # size × 0.01, cheaper than an unshared leaf of equal size
        pattern = compiled(VARS)
        stats = {0: LeafStats(500), 1: LeafStats(500), 2: LeafStats(500)}
        plan = plan_order(pattern, 2, stats)
        step = next(s for s in plan.steps if s.leaf_id == 1)
        assert "$l" in step.reason and "$r" in step.reason

    def test_deterministic_tie_break(self):
        pattern = compiled(CHAIN)
        stats = {0: LeafStats(10), 1: LeafStats(10)}
        assert plan_order(pattern, 1, stats).order == (1, 0)


class TestExplain:
    def test_explain_mentions_every_leaf(self):
        pattern = compiled(SKEWED)
        stats = {0: LeafStats(3), 1: LeafStats(100), 2: LeafStats(3)}
        text = plan_order(pattern, 2, stats).explain()
        for leaf in pattern.leaves:
            assert leaf.label in text


class TestLevelProgram:
    def test_program_is_the_static_half_of_every_level(self):
        from repro.patterns.compile import Constraint
        from repro.workloads import message_race_pattern

        pattern = compiled(message_race_pattern())  # s1, r1, s2, r2
        order = (1, 3, 0, 2)
        program = trigger, r2, s1, s2 = level_program(pattern, order)
        assert [step.leaf_id for step in program] == list(order)
        assert trigger.constraints == {} and trigger.partner_levels == ()
        assert r2.constraints == {} and r2.trace_pin == "$p"
        assert s1.constraints == {0: Constraint.PARTNER}
        assert s1.partner_levels == (0,) and s1.trace_pin is None
        assert s2.constraints == {
            1: Constraint.PARTNER, 2: Constraint.CONCURRENT,
        }
        assert s2.partner_levels == (1,) and s2.text_pin is None
        assert all(step.windows == () for step in program)
        assert all(step.history is None for step in program)

    def test_windows_and_pins_of_a_v2_pattern(self):
        pattern = compiled(SKEWED)  # P, $m+, D WITHIN 16
        stats = {0: LeafStats(30), 1: LeafStats(5000), 2: LeafStats(30)}
        drop, pickup, move = plan_order(pattern, 2, stats, "PMD").program
        assert pickup.windows == ((0, 16, None),)
        assert move.windows == ((0, 16, None), (1, 16, None))
        assert move.text_pin == "hot" and move.trace_pin is None
        assert (drop.history, pickup.history, move.history) == ("D", "P", "M")

    def test_a_pin_names_the_level_that_binds_it(self):
        pattern = compiled(VARS)  # S [_, _, $r], T [$l, _, $r], U [$l, _, $r]
        trigger, t, u = level_program(pattern, (0, 1, 2))
        assert trigger.pin_binders == (None, None) and trigger.pin_level is None
        # T binds $l itself; $r is the trigger's, which no jump moves
        assert t.pin_binders == (None, 0) and t.pin_level is None
        assert u.pin_binders == (1, 0) and u.pin_level == 1
        text = plan_order(pattern, 0).explain()
        assert "trace pinned by $l (bound at level 2)" in text
        assert "text pinned by $r (bound at level 1)" in text

    def test_a_union_binding_in_one_branch_does_not_stand_in_for_a_later_binder(self):
        pattern = compiled(
            "A := ['', A, '']; B := [$f, B, '']; E := ['', E, '']; "
            "F := [$f, F, '']; C := [$f, C, '']; A $a; F $g; C $c;"
            "pattern := ((B \\/ E) -> $a) /\\ ($g -> $a) /\\ ($c -> $a);"
        )  # (B \/ E), $a, $g, $c
        *_, f, c = level_program(pattern, (1, 0, 2, 3))
        assert f.pin_binders == (1, None) and c.pin_binders == (2, None)
        *_, c, f = level_program(pattern, (1, 0, 3, 2))
        assert c.pin_level == 1 and f.pin_level == 2

    def test_explain_prints_the_level_program(self):
        from repro.workloads import message_race_pattern

        # r1, s1 (its partner), r2, s2
        text = plan_order(compiled(message_race_pattern()), 1).explain()
        assert "level program" in text
        assert "2. leaf 0: partner level 1" in text
        assert "4. leaf 2: level 2 concurrent; partner level 3" in text
        assert "3. leaf 3: no constraint into the prefix; trace pinned by $p" in text
        assert "text pinned by hot" in plan_order(compiled(SKEWED), 2).explain()


class TestNegationBounds:
    """A negation bounds the level of whichever anchor the order binds
    second, where the prefix binds every variable of the absent class."""

    ABSENCE = (
        "R := [$1, Request, '']; V := [$1, Validate, ''];"
        "C := [$1, Commit, '']; pattern := R -> !V -> C;"
    )

    def test_the_later_anchor_carries_the_bound(self):
        commit, request = level_program(compiled(self.ABSENCE), (1, 0))
        assert commit.negations == ()
        ((d, absent, level, floor),) = request.negations
        assert (d, absent.name, level, floor) == (0, "V", 0, True)
        ceiling = compiled(
            "X := ['', A, '']; Z := ['', C, '']; Y := ['', B, ''];"
            "W := ['', A, '']; X $x; pattern := ($x -> !Z -> Y) /\\ ($x -> W);"
        )  # leaves x, Y, W
        _, x, y = level_program(ceiling, (2, 0, 1))
        assert x.negations == ()
        assert [(d, level, floor) for d, _, level, floor in y.negations] == [
            (0, 1, False)
        ]

    def test_no_bound_while_a_variable_of_the_absent_class_is_unbound(self):
        pattern = compiled(
            "X := [$1, A, '']; Z := [$1, C, '']; Y := ['', B, ''];"
            "pattern := X -> !Z -> Y;"
        )
        assert all(not s.negations for s in level_program(pattern, (1, 0)))

    def test_explain_names_the_bound(self):
        text = plan_order(compiled(self.ABSENCE), 1).explain()
        assert (
            "2. leaf 0: level 1 after; no V between level 1 and this "
            "(floor); trace pinned by $1" in text
        )


class TestImpliedRestrictions:
    """The program restricts by what the pattern implies, and the plan
    says so."""

    STATS = {0: LeafStats(30), 1: LeafStats(5000), 2: LeafStats(30)}

    def test_program_carries_the_implied_pair_the_matrix_does_not(self):
        from repro.patterns.compile import Constraint

        pattern = compiled(SKEWED)  # P ~> $m+, $m+ -> D: P before D
        assert pattern.constraint(2, 0) is Constraint.NONE
        drop, pickup, move = plan_order(pattern, 2, self.STATS).program
        assert pickup.constraints == {0: Constraint.AFTER}
        assert pickup.implied == {0: 1}
        assert move.constraints == {
            0: Constraint.AFTER, 1: Constraint.LIMITED,
        }
        assert drop.implied == move.implied == {}

    def test_implied_strict_replaces_a_declared_weak_pair(self):
        from repro.patterns.compile import Constraint

        pattern = compiled(
            "A := ['', A, '']; B := ['', B, '']; C := ['', C, ''];"
            "X := ['', A, '']; A $a; B $b; C $c;"
            "pattern := (($a /\\ X) -> $c) /\\ ($a -> $b) /\\ ($b -> $c);"
        )  # leaves a, X, c, b
        assert pattern.constraint(0, 2) is Constraint.NOT_AFTER
        program = plan_order(pattern, 2).program
        by_leaf = {step.leaf_id: step for step in program}
        assert by_leaf[0].constraints[0] is Constraint.AFTER  # c after a
        assert by_leaf[0].implied == {0: 3}
        assert by_leaf[1].constraints[0] is Constraint.NOT_BEFORE  # X: as declared
        assert by_leaf[1].implied == {}

    def test_explain_marks_implied_pairs_and_lists_windows(self):
        text = plan_order(compiled(SKEWED), 2, self.STATS).explain()
        assert (
            "2. leaf 0: level 1 after (implied via leaf 1); "
            "within 16 sim of level 1" in text
        )
        assert (
            "3. leaf 1: level 1 after; level 2 limited; "
            "within 16 sim of level 1; within 16 sim of level 2; "
            "text pinned by hot" in text
        )
        wall = compiled(
            "A := ['', A, '']; B := ['', B, '']; pattern := A -> B WITHIN 3 wall;"
        )
        assert "within 3 wall of level 1" in plan_order(wall, 1).explain()

    def test_cost_model_reads_what_the_program_applies(self):
        # Pickup is no longer costed (or printed) as unconstrained, and
        # the hotpath order stays D, P, $m+
        plan = plan_order(compiled(SKEWED), 2, self.STATS)
        assert plan.order == (2, 0, 1)
        pickup = plan.steps[1]
        assert pickup.reason == (
            "history 30 × before into prefix × swept over 1 trace"
        )
        assert pickup.estimate == 30 * 0.25
        assert "unconstrained" not in plan.explain()
        lone = compiled(
            "A := ['', A, '']; B := ['', B, '']; pattern := (A /\\ B) WITHIN 4;"
        )
        stats = {0: LeafStats(5), 1: LeafStats(5)}
        assert "unconstrained" not in plan_order(lone, 1, stats).explain()

    def test_hotpath_workload_keeps_its_order(self):
        from repro.engine import Pipeline
        from repro.workloads import build_hotpath, hotpath_pattern

        pipeline = Pipeline.for_workload(
            build_hotpath(num_couriers=3, seed=7, jobs_per_courier=4)
        )
        monitor = pipeline.watch("hotpath", hotpath_pattern())
        pipeline.run()
        plan = monitor.matcher.current_plan(2)
        assert plan.order == (2, 0, 1)


class TestSweepWidth:
    """A level nothing pins to one trace runs once per trace holding an
    event of its leaf, and is costed so."""

    def ordering(self, traces):
        from repro.workloads import ordering_bug_pattern

        pattern = compile_pattern(PatternTree(
            parse_pattern(ordering_bug_pattern()),
            [f"P{i}" for i in range(traces)],
        ))  # Synch, $Diff, $Write, Forward
        stats = {
            0: LeafStats(66, traces - 1), 1: LeafStats(66, traces - 1),
            2: LeafStats(74, traces - 1), 3: LeafStats(66, traces - 1),
        }
        return plan_order(pattern, 3, stats)

    def test_pinned_write_is_bound_before_the_swept_synch(self):
        # per candidate count alone Synch (66 × 0.25 × 0.1, +1 after)
        # looks cheaper than $Write (74 × 0.25 × 0.1); Synch names no
        # process, $Write's is bound by the trigger
        plan = self.ordering(12)
        assert plan.order == (3, 1, 2, 0)
        write, synch = plan.steps[2], plan.steps[3]
        assert write.reason.endswith("bound $l, trace pinned")
        assert synch.reason.endswith("bound $r × swept over 11 traces")
        assert "swept over 11 traces" in plan.explain()

    def test_a_pinned_level_is_not_multiplied(self):
        for traces in (12, 40):
            write = self.ordering(traces).steps[2]
            assert write.label == "$Write"
            assert write.estimate == 74 * 0.25 * 0.25 * 0.1

    def test_an_unpinned_level_is_multiplied_by_the_traces_it_sweeps(self):
        synch = self.ordering(12).steps[3]
        assert synch.label.startswith("Synch")
        assert synch.estimate == 66 * 0.25 ** 3 * 0.1 * 11


class TestMatcherIntegration:
    def test_order_follows_live_statistics(self):
        monitor = Monitor.from_source(SKEWED, NAMES)
        w = Weaver(3)
        w.local(0, "Pickup")
        for _ in range(6):
            w.local(0, "Move", "hot")
        w.local(0, "Drop")
        for e in w.events:
            monitor.on_event(e)
        matcher = monitor.matcher
        assert matcher.current_plan(2).order == (2, 0, 1)
        assert matcher.current_plan(2).stats == (
            LeafStats(1, 1), LeafStats(6, 1), LeafStats(1, 1),
        )
        assert matcher.plans_computed == 1

    def test_plan_cache_refreshes_on_interval(self):
        """The interval is a doubling of the stream: O(log n) plans,
        and a population flip is followed within one doubling."""
        monitor = Monitor.from_source(SKEWED, NAMES)
        matcher = monitor.matcher
        w = Weaver(3)
        monitor.on_event(w.local(1, "Pickup"))
        for etype in ("Pickup", "Move") + ("Drop",) * 125:
            monitor.on_event(w.local(0, etype, "hot"))
        # Drop triggers at events 4 .. 128: one plan per bit length of
        # the event count (3 .. 8)
        assert matcher.events_processed == 128
        assert matcher.plans_computed == 6
        assert matcher._plan(2).order == (2, 1, 0)  # the one Move first
        # Moves now outnumber Pickups 50 : 1 ...
        for _ in range(100):
            monitor.on_event(w.local(1, "Move", "hot"))
        assert matcher.plans_computed == 6  # ... no search, no plan
        monitor.on_event(w.local(0, "Drop"))  # event 229: still 8 bits
        assert matcher._plan(2).order == (2, 1, 0)
        while matcher.events_processed < 256:
            monitor.on_event(w.local(0, "Drop"))
        assert matcher._plan(2).order == (2, 0, 1)
        assert matcher.plans_computed == 7

    def test_one_program_per_trigger_leaf_over_the_live_histories(self):
        # built on a trigger leaf's first search, then reused: the
        # search executes it, it does not derive it
        monitor = Monitor.from_source(CHAIN, NAMES)
        matcher = monitor.matcher
        assert matcher._plans == {}
        w = Weaver(3)
        w.local(0, "A")
        for _ in range(3):
            w.local(0, "B")
        for e in w.events:
            monitor.on_event(e)
        assert list(matcher._plans) == [1]  # only B terminates
        program = matcher._plan(1).program
        assert program is matcher._plan(1).program
        assert [step.history for step in program] == [
            matcher.history.leaf(1), matcher.history.leaf(0),
        ]
        assert matcher.matches_found == 3
