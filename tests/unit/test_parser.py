"""Unit tests for the pattern-language parser."""

import pytest

from repro.patterns import (
    AndExpr,
    AttrVar,
    BinaryExpr,
    ClassRef,
    Exact,
    Operator,
    PatternParseError,
    VarRef,
    Wildcard,
    parse_pattern,
)


class TestClassDefs:
    def test_attribute_kinds(self):
        parsed = parse_pattern(
            "C := [$1, Take_Snapshot, '']; D := ['x', 'y z', $2];"
            "pattern := C -> D;"
        )
        c = parsed.classes["C"]
        assert c.process == AttrVar("1")
        assert c.etype == Exact("Take_Snapshot")
        assert c.text == Wildcard()
        d = parsed.classes["D"]
        assert d.process == Exact("x")
        assert d.etype == Exact("y z")

    def test_duplicate_class_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern("A := ['','',''];A := ['','',''];pattern := A -> A;")

    def test_malformed_class_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern("A := ['', ''];pattern := A;")


class TestVarDecls:
    def test_variable_declared_with_class(self):
        parsed = parse_pattern(
            "Snap := ['', S, '']; Snap $Diff; pattern := $Diff -> $Diff;"
        )
        assert parsed.variables["Diff"].class_name == "Snap"
        assert parsed.class_of_var("Diff").name == "Snap"

    def test_numeric_variable_name_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern("A := ['','','']; A $1; pattern := A;")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern(
                "A := ['','','']; A $x; A $x; pattern := $x -> $x;"
            )

    def test_variable_of_unknown_class_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern("Nope $x; pattern := $x;")


class TestExpressions:
    def test_operator_precedence_and_binds_loosest(self):
        parsed = parse_pattern(
            "A := ['', a, '']; B := ['', b, '']; C := ['', c, ''];"
            "pattern := A -> B /\\ B -> C;"
        )
        assert isinstance(parsed.expr, AndExpr)
        left, right = parsed.expr.parts
        assert isinstance(left, BinaryExpr) and left.op is Operator.PRECEDES
        assert isinstance(right, BinaryExpr)

    def test_causal_chain_is_left_associative(self):
        parsed = parse_pattern(
            "A := ['', a, '']; B := ['', b, '']; C := ['', c, ''];"
            "pattern := A -> B -> C;"
        )
        expr = parsed.expr
        assert isinstance(expr, BinaryExpr)
        assert isinstance(expr.left, BinaryExpr)
        assert expr.left.left == ClassRef("A")
        assert expr.right == ClassRef("C")

    def test_parentheses_override(self):
        parsed = parse_pattern(
            "A := ['', a, '']; B := ['', b, '']; C := ['', c, ''];"
            "pattern := A -> (B || C);"
        )
        expr = parsed.expr
        assert expr.op is Operator.PRECEDES
        assert isinstance(expr.right, BinaryExpr)
        assert expr.right.op is Operator.CONCURRENT

    def test_variables_in_expression(self):
        parsed = parse_pattern(
            "A := ['', a, '']; A $x; B := ['', b, ''];"
            "pattern := ($x -> B) /\\ (B || $x);"
        )
        left, right = parsed.expr.parts
        assert left.left == VarRef("x")

    def test_unknown_class_in_pattern_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern("A := ['','',''];pattern := A -> Missing;")

    def test_unknown_variable_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern("A := ['','',''];pattern := A -> $ghost;")

    def test_missing_pattern_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern("A := ['','',''];")

    def test_duplicate_pattern_rejected(self):
        with pytest.raises(PatternParseError):
            parse_pattern("A := ['','',''];pattern := A;pattern := A;")

    def test_paper_zookeeper_pattern_parses(self):
        source = """
        Synch    := [$1, Synch_Leader, $2];
        Snapshot := [$2, Take_Snapshot, ''];
        Update   := [$2, Make_Update, ''];
        Forward  := [$2, Take_Snapshot, $1];
        Snapshot $Diff;
        Update $Write;
        pattern := (Synch -> $Diff) /\\ ($Diff -> $Write) /\\ ($Write -> Forward);
        """
        parsed = parse_pattern(source)
        assert set(parsed.classes) == {"Synch", "Snapshot", "Update", "Forward"}
        assert set(parsed.variables) == {"Diff", "Write"}
        assert isinstance(parsed.expr, AndExpr)
        assert len(parsed.expr.parts) == 3


class TestInputLimits:
    """Pattern source is a trust boundary: oversized input raises a
    positioned parse error, never a RecursionError."""

    HEADER = "A := ['', A, ''];\n"

    def test_deep_nesting_raises_a_positioned_error(self):
        from repro.patterns.parser import MAX_NESTING

        source = self.HEADER + "pattern := " + "(" * 145 + "A" + ")" * 145 + ";"
        with pytest.raises(PatternParseError, match="nested deeper") as exc:
            parse_pattern(source)
        assert (exc.value.line, exc.value.column) == (2, 12 + MAX_NESTING)

    def test_thousand_leaf_chain_raises_a_positioned_error(self):
        from repro.patterns.parser import MAX_LEAVES

        source = self.HEADER + "pattern := " + " -> ".join(["A"] * 1000) + ";"
        with pytest.raises(PatternParseError, match="event references") as exc:
            parse_pattern(source)
        assert (exc.value.line, exc.value.column) == (2, 12 + 5 * MAX_LEAVES)

    def test_declarations_do_not_count_toward_the_leaf_limit(self):
        from repro.patterns.parser import MAX_LEAVES

        declared = "".join(f"A $v{i};\n" for i in range(MAX_LEAVES + 1))
        chain = " -> ".join(["A"] * 1000)
        source = self.HEADER + declared + f"pattern := {chain};"
        with pytest.raises(PatternParseError, match="event references") as exc:
            parse_pattern(source)
        assert (exc.value.line, exc.value.column) == (
            MAX_LEAVES + 3, 12 + 5 * MAX_LEAVES
        )
        # Each declared variable referenced once stays within the limit.
        variables = " -> ".join(f"$v{i}" for i in range(MAX_LEAVES))
        parsed = parse_pattern(self.HEADER + declared
                               + f"pattern := {variables};")
        assert len(parsed.variables) == MAX_LEAVES + 1

    def test_patterns_at_the_limits_compile(self):
        from repro.patterns import PatternTree, compile_pattern
        from repro.patterns.parser import MAX_LEAVES, MAX_NESTING

        nested = "(" * MAX_NESTING + "A -> A" + ")" * MAX_NESTING
        chain = " -> ".join(["A"] * MAX_LEAVES)
        for expr in (nested, chain):
            tree = PatternTree(
                parse_pattern(self.HEADER + f"pattern := {expr};"),
                ["P0", "P1"],
            )
            assert compile_pattern(tree).num_leaves >= 2

    def test_every_shipped_pattern_is_within_the_limits(self):
        from pathlib import Path

        from repro.engine import CASES
        from repro.workloads import deadlock_pattern, traffic_light_pattern

        root = Path(__file__).resolve().parents[2]
        from repro.patterns.parser import MAX_LEAVES

        sources = [deadlock_pattern(MAX_LEAVES), traffic_light_pattern()]
        sources += [CASES[name].pattern(10) for name in CASES]
        sources += [
            path.read_text()
            for path in sorted((root / "benchmarks/e2e/patterns").glob("*.pat"))
        ]
        for source in sources:
            parse_pattern(source)
