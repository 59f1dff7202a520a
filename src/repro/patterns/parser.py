"""Recursive-descent parser for the pattern language.

Grammar (see the package docstring for examples)::

    program      := { class_def | var_decl } pattern_def { class_def | var_decl }
    class_def    := IDENT ':=' '[' attr ',' attr ',' attr ']' ';'
    attr         := STRING            # '' is a wildcard, otherwise exact
                  | IDENT             # exact
                  | '$' NUM           # attribute variable
    var_decl     := IDENT '$' IDENT ';'
    pattern_def  := 'pattern' ':=' expr ';'
    expr         := windowed { '/\\' windowed }          # AND binds loosest
    windowed     := rel [ 'WITHIN' NUMBER [ domain ] ]   # window guard
    domain       := 'sim' | 'wall'
    rel          := term { causal_op term }              # left-associative
    causal_op    := '->' | '||' | '<>' | '~>' | '<->'
    term         := ( '!' | 'ABSENT' ) postfix | postfix
    postfix      := alt [ '+' ]                          # Kleene closure
    alt          := primary { '\\/' primary }            # leaf disjunction
    primary      := IDENT | '$' IDENT | '(' expr ')'

Attribute variables are ``$`` followed by digits (``$1``); event
variables are ``$`` followed by a name (``$Diff``).  Declarations may
appear in any order relative to each other; the pattern may reference
only declared classes and variables.  ``WITHIN`` and ``ABSENT`` are
reserved words.

Structural rules enforced here (with source positions):

* disjunction alternatives must be plain class references — one leaf
  position matched by any alternative, bindings scoped per branch;
* the Kleene ``+`` applies to a class reference or a disjunction of
  class references, never to an event variable or a compound;
* a negation (``!C`` / ``ABSENT C``) must sit strictly *between* two
  ``->`` operators of a precedence chain (its neighbours are its
  causal anchors), its operand must be a plain class reference, and
  two negations may not be adjacent.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.patterns.ast import (
    AndExpr,
    AttrSpec,
    AttrVar,
    BinaryExpr,
    ClassDef,
    ClassRef,
    Exact,
    Expr,
    KleeneExpr,
    NotExpr,
    Operator,
    OrExpr,
    PatternDef,
    VarDecl,
    VarRef,
    Wildcard,
    WithinExpr,
)
from repro.patterns.errors import PatternParseError
from repro.patterns.lexer import Token, TokenKind, tokenize

_CAUSAL_OPS = {
    TokenKind.PRECEDES: Operator.PRECEDES,
    TokenKind.CONCURRENT: Operator.CONCURRENT,
    TokenKind.PARTNER: Operator.PARTNER,
    TokenKind.LIMITED: Operator.LIMITED,
    TokenKind.ENTANGLED: Operator.ENTANGLED,
}

#: Identifiers with grammatical meaning — not usable as class or
#: variable names.
RESERVED_WORDS = frozenset({"WITHIN", "ABSENT", "pattern"})

#: Window clock domains accepted after ``WITHIN <n>``.
WINDOW_DOMAINS = ("sim", "wall")

#: Deepest parenthesis nesting accepted.  Each level costs the
#: recursive descent seven frames, so an unchecked input of ~145 levels
#: would exhaust the interpreter's stack.
MAX_NESTING = 32

#: Most event references (class or variable leaves of the pattern
#: expression) accepted in one pattern.  Building and compiling the
#: tree recurses about one frame per leaf (~990 leaves exhaust the
#: default stack) and its time grows super-linearly: 0.2 s at 256
#: leaves, 1.4 s at 512 (2-core Xeon).  512 keeps ``deadlock_pattern``
#: rings of up to 512 traces.
MAX_LEAVES = 512


class _Parser:
    def __init__(self, tokens: List[Token], source: Optional[str] = None):
        self._tokens = tokens
        self._source = source
        self._pos = 0
        self._depth = 0
        self._leaves = 0
        # Every class/variable reference in the pattern expression,
        # with its token — validation points at the exact occurrence.
        self._class_refs: List[Token] = []
        self._var_refs: List[Token] = []

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: TokenKind, what: str) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise self._error(f"expected {what}, found {token.value!r}", token)
        return self._advance()

    def _error(self, message: str, token: Token) -> PatternParseError:
        return PatternParseError.at_token(message, token, self._source)

    # ------------------------------------------------------------------
    # Program
    # ------------------------------------------------------------------

    def parse(self) -> PatternDef:
        classes = {}
        variables = {}
        expr: Optional[Expr] = None

        while self._peek().kind is not TokenKind.EOF:
            token = self._peek()
            if token.kind is not TokenKind.IDENT:
                raise self._error(
                    f"expected a declaration or 'pattern', found {token.value!r}",
                    token,
                )
            if token.value == "pattern":
                if expr is not None:
                    raise self._error("duplicate pattern definition", token)
                expr = self._parse_pattern_def()
                continue
            name_token = self._advance()
            nxt = self._peek()
            if nxt.kind is TokenKind.ASSIGN:
                if name_token.value in RESERVED_WORDS:
                    raise self._error(
                        f"{name_token.value!r} is a reserved word", name_token
                    )
                class_def = self._parse_class_body(name_token.value)
                if class_def.name in classes:
                    raise self._error(
                        f"duplicate class {class_def.name!r}", name_token
                    )
                classes[class_def.name] = class_def
            elif nxt.kind is TokenKind.DOLLAR:
                var_token = self._advance()
                self._expect(TokenKind.SEMI, "';'")
                if var_token.value.isdigit():
                    raise self._error(
                        "event variable names cannot be numeric", var_token
                    )
                if var_token.value in RESERVED_WORDS:
                    raise self._error(
                        f"{var_token.value!r} is a reserved word", var_token
                    )
                if var_token.value in variables:
                    raise self._error(
                        f"duplicate variable ${var_token.value}", var_token
                    )
                variables[var_token.value] = VarDecl(
                    class_name=name_token.value, var_name=var_token.value
                )
                self._class_refs.append(name_token)
            else:
                raise self._error(
                    f"expected ':=' or a variable after {name_token.value!r}", nxt
                )

        if expr is None:
            token = self._peek()
            raise self._error("missing 'pattern := ...;' definition", token)

        definition = PatternDef(classes=classes, variables=variables, expr=expr)
        self._validate(definition)
        return definition

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _parse_class_body(self, name: str) -> ClassDef:
        self._expect(TokenKind.ASSIGN, "':='")
        self._expect(TokenKind.LBRACKET, "'['")
        process = self._parse_attr()
        self._expect(TokenKind.COMMA, "','")
        etype = self._parse_attr()
        self._expect(TokenKind.COMMA, "','")
        text = self._parse_attr()
        self._expect(TokenKind.RBRACKET, "']'")
        self._expect(TokenKind.SEMI, "';'")
        return ClassDef(name=name, process=process, etype=etype, text=text)

    def _parse_attr(self) -> AttrSpec:
        token = self._peek()
        if token.kind is TokenKind.STRING:
            self._advance()
            return Wildcard() if token.value == "" else Exact(token.value)
        if token.kind in (TokenKind.IDENT, TokenKind.NUMBER):
            self._advance()
            return Exact(token.value)
        if token.kind is TokenKind.DOLLAR:
            self._advance()
            return AttrVar(token.value)
        raise self._error(
            f"expected an attribute (string, name, or $var), found {token.value!r}",
            token,
        )

    # ------------------------------------------------------------------
    # Pattern expression
    # ------------------------------------------------------------------

    def _parse_pattern_def(self) -> Expr:
        self._advance()  # 'pattern'
        self._expect(TokenKind.ASSIGN, "':='")
        expr = self._parse_expr()
        self._expect(TokenKind.SEMI, "';'")
        return expr

    def _parse_expr(self) -> Expr:
        parts = [self._parse_windowed()]
        while self._peek().kind is TokenKind.AND:
            self._advance()
            parts.append(self._parse_windowed())
        if len(parts) == 1:
            return parts[0]
        return AndExpr(parts=tuple(parts))

    def _parse_windowed(self) -> Expr:
        expr = self._parse_rel()
        token = self._peek()
        if token.kind is TokenKind.IDENT and token.value == "WITHIN":
            self._advance()
            number = self._expect(TokenKind.NUMBER, "a window width")
            domain = "sim"
            nxt = self._peek()
            if nxt.kind is TokenKind.IDENT and nxt.value in WINDOW_DOMAINS:
                self._advance()
                domain = nxt.value
            elif nxt.kind is TokenKind.IDENT and nxt.value not in RESERVED_WORDS:
                raise self._error(
                    f"expected a window domain {WINDOW_DOMAINS}, "
                    f"found {nxt.value!r}",
                    nxt,
                )
            if isinstance(expr, NotExpr):
                raise self._error(
                    "a negation cannot carry a window guard", token
                )
            expr = WithinExpr(
                operand=expr, bound=int(number.value), domain=domain
            )
        return expr

    def _parse_rel(self) -> Expr:
        terms: List[Tuple[Expr, Token]] = [self._parse_term()]
        ops: List[Token] = []
        while self._peek().kind in _CAUSAL_OPS:
            ops.append(self._advance())
            terms.append(self._parse_term())
        self._check_negation_placement(terms, ops)
        expr = terms[0][0]
        for op_token, (right, _right_tok) in zip(ops, terms[1:]):
            expr = BinaryExpr(
                op=_CAUSAL_OPS[op_token.kind], left=expr, right=right
            )
        return expr

    def _check_negation_placement(
        self, terms: List[Tuple[Expr, Token]], ops: List[Token]
    ) -> None:
        """A negated term must sit between two ``->`` operators, with
        non-negated neighbours (its causal anchors)."""
        for k, (term, term_token) in enumerate(terms):
            if not isinstance(term, NotExpr):
                continue
            if k == 0 or ops[k - 1].kind is not TokenKind.PRECEDES:
                raise self._error(
                    "a negation needs a preceding '->' anchor", term_token
                )
            if k == len(terms) - 1 or ops[k].kind is not TokenKind.PRECEDES:
                raise self._error(
                    "a negation needs a following '->' anchor", term_token
                )
            if isinstance(terms[k - 1][0], NotExpr) or isinstance(
                terms[k + 1][0], NotExpr
            ):
                raise self._error(
                    "adjacent negations are not supported", term_token
                )

    def _parse_term(self) -> Tuple[Expr, Token]:
        """One causal-chain element; returns (node, its first token)."""
        token = self._peek()
        negated = False
        if token.kind is TokenKind.BANG or (
            token.kind is TokenKind.IDENT and token.value == "ABSENT"
        ):
            self._advance()
            negated = True
        expr = self._parse_postfix()
        if negated:
            if not isinstance(expr, ClassRef):
                raise self._error(
                    "negation applies to a plain event class", token
                )
            return NotExpr(operand=expr), token
        return expr, token

    def _parse_postfix(self) -> Expr:
        expr = self._parse_alt()
        if self._peek().kind is TokenKind.PLUS:
            plus = self._advance()
            if not isinstance(expr, (ClassRef, OrExpr, VarRef)):
                raise self._error(
                    "the Kleene closure applies to an event class, an "
                    "event variable, or a disjunction of event classes",
                    plus,
                )
            expr = KleeneExpr(operand=expr)
            if self._peek().kind is TokenKind.PLUS:
                raise self._error(
                    "duplicate Kleene closure", self._peek()
                )
        return expr

    def _parse_alt(self) -> Expr:
        expr = self._parse_primary()
        if self._peek().kind is not TokenKind.OR:
            return expr
        parts = [expr]
        while self._peek().kind is TokenKind.OR:
            or_token = self._advance()
            part = self._parse_primary()
            parts.append(part)
        for part in parts:
            if not isinstance(part, ClassRef):
                raise self._error(
                    "disjunction alternatives must be plain event classes",
                    or_token,
                )
        return OrExpr(parts=tuple(parts))

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.LPAREN:
            if self._depth == MAX_NESTING:
                raise self._error(
                    f"parentheses nested deeper than {MAX_NESTING}", token
                )
            self._advance()
            self._depth += 1
            expr = self._parse_expr()
            self._depth -= 1
            self._expect(TokenKind.RPAREN, "')'")
            return expr
        if self._leaves >= MAX_LEAVES:
            raise self._error(
                f"more than {MAX_LEAVES} event references in one pattern",
                token,
            )
        self._leaves += 1
        if token.kind is TokenKind.IDENT:
            if token.value in RESERVED_WORDS:
                raise self._error(
                    f"{token.value!r} is a reserved word", token
                )
            self._advance()
            self._class_refs.append(token)
            return ClassRef(name=token.value)
        if token.kind is TokenKind.DOLLAR:
            self._advance()
            if token.value.isdigit():
                raise self._error(
                    "attribute variables cannot appear as pattern events", token
                )
            self._var_refs.append(token)
            return VarRef(name=token.value)
        raise self._error(
            f"expected an event class, variable, or '(', found {token.value!r}",
            token,
        )

    # ------------------------------------------------------------------
    # Semantic validation
    # ------------------------------------------------------------------

    def _validate(self, definition: PatternDef) -> None:
        for decl in definition.variables.values():
            if decl.class_name not in definition.classes:
                token = next(
                    (
                        t
                        for t in self._class_refs
                        if t.value == decl.class_name
                    ),
                    self._tokens[-1],
                )
                raise self._error(
                    f"variable ${decl.var_name} references unknown class "
                    f"{decl.class_name!r}",
                    token,
                )
        for token in self._class_refs:
            if token.value not in definition.classes:
                raise self._error(
                    f"unknown event class {token.value!r}", token
                )
        for token in self._var_refs:
            if token.value not in definition.variables:
                raise self._error(
                    f"unknown event variable ${token.value}", token
                )


def parse_pattern(source: str) -> PatternDef:
    """Parse pattern source text into a :class:`PatternDef`.

    Raises :class:`~repro.patterns.errors.PatternParseError` with line
    and column information — and a caret excerpt of the offending
    source line — on malformed input.
    """
    return _Parser(tokenize(source), source).parse()
