"""Unit tests for the cost-based constraint planner."""

from repro.core import Monitor
from repro.core.matcher import MatcherConfig
from repro.patterns import PatternTree, compile_pattern, parse_pattern
from repro.patterns.plan import LeafStats, plan_order
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


class TestFallback:
    def test_no_stats_selects_legacy_order(self):
        pattern = compiled(SKEWED)
        plan = plan_order(pattern, 2, None)
        assert not plan.cost_based
        assert plan.order == pattern.evaluation_order(2)

    def test_empty_stats_select_legacy_order(self):
        pattern = compiled(SKEWED)
        stats = {i: LeafStats(size=0) for i in range(3)}
        plan = plan_order(pattern, 2, stats)
        assert not plan.cost_based
        assert plan.order == pattern.evaluation_order(2)


class TestCostBasedOrder:
    def test_rare_leaf_ordered_before_huge_leaf(self):
        # the static heuristic ranks the doubly-exact Move class right
        # after the trigger; live sizes flip that to Pickup-first
        pattern = compiled(SKEWED)
        assert pattern.evaluation_order(2) == (2, 1, 0)
        stats = {0: LeafStats(30), 1: LeafStats(5000), 2: LeafStats(30)}
        plan = plan_order(pattern, 2, stats)
        assert plan.cost_based
        assert plan.order == (2, 0, 1)

    def test_trigger_is_always_level_one(self):
        pattern = compiled(SKEWED)
        stats = {0: LeafStats(10), 1: LeafStats(10), 2: LeafStats(10)}
        for trigger in range(3):
            assert plan_order(pattern, trigger, stats).order[0] == trigger

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
        assert "cost-based" in text
        for leaf in pattern.leaves:
            assert leaf.label in text

    def test_legacy_explain_says_so(self):
        pattern = compiled(CHAIN)
        assert "legacy heuristic" in plan_order(pattern, 1, None).explain()


class TestLevelProgram:
    def test_program_is_the_static_half_of_every_level(self):
        from repro.patterns.compile import Constraint
        from repro.workloads import message_race_pattern

        pattern = compiled(message_race_pattern())  # s1, r1, s2, r2
        plan = plan_order(pattern, 1, None)
        assert plan.order == (1, 3, 0, 2)
        trigger, r2, s1, s2 = plan.program
        assert [step.leaf_id for step in plan.program] == list(plan.order)
        assert trigger.constraints == {} and trigger.partner_levels == ()
        assert r2.constraints == {} and r2.trace_pin == "$p"
        assert s1.constraints == {0: Constraint.PARTNER}
        assert s1.partner_levels == (0,) and s1.trace_pin is None
        assert s2.constraints == {
            1: Constraint.PARTNER, 2: Constraint.CONCURRENT,
        }
        assert s2.partner_levels == (1,) and s2.text_pin is None
        assert all(step.windows == () for step in plan.program)
        assert all(step.history is None for step in plan.program)

    def test_windows_and_pins_of_a_v2_pattern(self):
        pattern = compiled(SKEWED)  # P, $m+, D WITHIN 16
        stats = {0: LeafStats(30), 1: LeafStats(5000), 2: LeafStats(30)}
        drop, pickup, move = plan_order(pattern, 2, stats, "PMD").program
        assert pickup.windows == ((0, 16, None),)
        assert move.windows == ((0, 16, None), (1, 16, None))
        assert move.text_pin == "hot" and move.trace_pin is None
        assert (drop.history, pickup.history, move.history) == ("D", "P", "M")

    def test_explain_prints_the_level_program(self):
        from repro.workloads import message_race_pattern

        text = plan_order(compiled(message_race_pattern()), 1, None).explain()
        assert "level program" in text
        assert "3. leaf 0: partner level 1" in text
        assert "4. leaf 2: partner level 2; level 3 concurrent" in text
        assert "2. leaf 3: no constraint into the prefix; trace pinned by $p" in text
        assert "text pinned by hot" in plan_order(compiled(SKEWED), 2, None).explain()


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
        program = plan_order(pattern, 2, None).program
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
        assert "within 3 wall of level 1" in plan_order(wall, 1, None).explain()

    def test_cost_model_reads_what_the_program_applies(self):
        # Pickup is no longer costed (or printed) as unconstrained, and
        # the hotpath order stays D, P, $m+
        plan = plan_order(compiled(SKEWED), 2, self.STATS)
        assert plan.order == (2, 0, 1)
        pickup = plan.steps[1]
        assert pickup.reason == "history 30 × before into prefix"
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
        assert plan.cost_based and plan.order == (2, 0, 1)


class TestMatcherIntegration:
    def test_legacy_patterns_never_use_cost_based_order(self):
        # output-compatibility guard: no v2 operator -> legacy order,
        # even with the planner enabled and live statistics available
        monitor = Monitor.from_source(CHAIN, NAMES)
        w = Weaver(3)
        for _ in range(5):
            w.local(0, "A")
        w.local(1, "B")
        for e in w.events:
            monitor.on_event(e)
        matcher = monitor.matcher
        assert not matcher.pattern.has_v2_features
        plan = matcher.current_plan(1)
        assert not plan.cost_based
        assert matcher.plans_computed == 0

    def test_v2_pattern_uses_cost_based_order(self):
        monitor = Monitor.from_source(SKEWED, NAMES)
        w = Weaver(3)
        w.local(0, "Pickup")
        for _ in range(6):
            w.local(0, "Move", "hot")
        w.local(0, "Drop")
        for e in w.events:
            monitor.on_event(e)
        matcher = monitor.matcher
        assert matcher.current_plan(2).cost_based
        assert matcher.plans_computed >= 1

    def test_planner_disabled_by_config(self):
        monitor = Monitor.from_source(
            SKEWED, NAMES, config=MatcherConfig(planner=False)
        )
        w = Weaver(3)
        w.local(0, "Pickup")
        w.local(0, "Move", "hot")
        w.local(0, "Drop")
        for e in w.events:
            monitor.on_event(e)
        assert not monitor.matcher.current_plan(2).cost_based
        assert monitor.matcher.plans_computed == 0

    def test_plan_cache_refreshes_on_interval(self):
        monitor = Monitor.from_source(
            SKEWED, NAMES, config=MatcherConfig(plan_refresh_interval=2)
        )
        w = Weaver(3)
        w.local(0, "Pickup")
        w.local(0, "Move", "hot")
        for _ in range(4):
            w.local(0, "Drop")
        for e in w.events:
            monitor.on_event(e)
        # four Drop triggers across different refresh stamps recompute
        # the plan more than once, but not once per search forever
        assert 2 <= monitor.matcher.plans_computed <= 4

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
