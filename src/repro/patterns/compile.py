"""Compiling a pattern tree to the matcher's constraint form.

The OCEP matcher works on *pairwise* causal constraints between leaf
positions plus a small number of whole-assignment checks.  This module
derives them from the tree:

* For every unordered pair of distinct leaves, the lowest common
  ancestor (LCA) node determines the constraint:

  - LCA ``->`` with single-leaf sides: strict ``BEFORE`` between the
    two leaves.
  - LCA ``->`` with a multi-leaf side: the compound precedence of
    equation (2) — no right-side event may precede a left-side event
    (``NOT_AFTER`` pairwise, which is non-entanglement for disjoint
    sets), and *some* left event must precede *some* right event
    (recorded as an existential check over the node).
  - LCA ``||``: pairwise ``CONCURRENT`` (equation (3)).
  - LCA ``<>``: ``PARTNER`` (single-leaf sides only).
  - LCA ``~>``: ``LIMITED`` — strict ``BEFORE`` plus the immediacy
    side-condition checked against the left leaf's history.
  - LCA ``/\\``: no constraint.

* Constraints accumulated on the same pair (possible when a variable
  leaf appears under several operators) are conjoined; contradictions
  (e.g. ``$A -> B /\\ B -> $A``) are reported at compile time.

All leaves must bind pairwise-distinct events; event identity is
expressed with variables, never by accident.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.patterns.ast import Operator
from repro.patterns.errors import PatternError
from repro.patterns.tree import (
    LeafNode,
    NegationSpec,
    PatternTree,
    TreeExpr,
    TreeLeaf,
    WindowSpec,
)


class Constraint(enum.Enum):
    """Directional causal requirement of leaf ``i`` relative to leaf ``j``."""

    NONE = "none"
    BEFORE = "before"  # e_i -> e_j, strictly
    AFTER = "after"  # e_j -> e_i, strictly
    NOT_AFTER = "not-after"  # not (e_j -> e_i)
    NOT_BEFORE = "not-before"  # not (e_i -> e_j)
    CONCURRENT = "concurrent"  # e_i || e_j
    PARTNER = "partner"  # halves of one message
    LIMITED = "limited"  # e_i -> e_j with no class-i event between
    LIMITED_REV = "limited-rev"  # mirror of LIMITED

    def inverse(self) -> "Constraint":
        """The same requirement stated from leaf ``j``'s perspective."""
        return _INVERSE[self]


_INVERSE = {
    Constraint.NONE: Constraint.NONE,
    Constraint.BEFORE: Constraint.AFTER,
    Constraint.AFTER: Constraint.BEFORE,
    Constraint.NOT_AFTER: Constraint.NOT_BEFORE,
    Constraint.NOT_BEFORE: Constraint.NOT_AFTER,
    Constraint.CONCURRENT: Constraint.CONCURRENT,
    Constraint.PARTNER: Constraint.PARTNER,
    Constraint.LIMITED: Constraint.LIMITED_REV,
    Constraint.LIMITED_REV: Constraint.LIMITED,
}

# Conjunction of two constraints on the same ordered pair.  Missing
# combinations are contradictions or unsupported mixes.
_COMBINE: Dict[FrozenSet[Constraint], Constraint] = {}


def _register(a: Constraint, b: Constraint, result: Constraint) -> None:
    _COMBINE[frozenset((a, b))] = result


for _c in Constraint:
    _register(_c, Constraint.NONE, _c)
    _register(_c, _c, _c)
_register(Constraint.BEFORE, Constraint.NOT_AFTER, Constraint.BEFORE)
_register(Constraint.AFTER, Constraint.NOT_BEFORE, Constraint.AFTER)
_register(Constraint.CONCURRENT, Constraint.NOT_AFTER, Constraint.CONCURRENT)
_register(Constraint.CONCURRENT, Constraint.NOT_BEFORE, Constraint.CONCURRENT)
_register(Constraint.NOT_AFTER, Constraint.NOT_BEFORE, Constraint.CONCURRENT)
_register(Constraint.LIMITED, Constraint.BEFORE, Constraint.LIMITED)
_register(Constraint.LIMITED, Constraint.NOT_AFTER, Constraint.LIMITED)
_register(Constraint.LIMITED_REV, Constraint.AFTER, Constraint.LIMITED_REV)
_register(Constraint.LIMITED_REV, Constraint.NOT_BEFORE, Constraint.LIMITED_REV)


def _combine(a: Constraint, b: Constraint, pair: Tuple[int, int]) -> Constraint:
    result = _COMBINE.get(frozenset((a, b)))
    if result is None:
        raise PatternError(
            f"contradictory or unsupported constraints {a.value!r} and "
            f"{b.value!r} between pattern positions {pair[0]} and {pair[1]}"
        )
    return result


@dataclasses.dataclass(frozen=True)
class ExistCheck:
    """A compound ``->`` node's existential requirement: some event
    bound on the left side must strictly precede some event bound on
    the right side (the ``exists`` half of equation (2))."""

    left_leaves: Tuple[int, ...]
    right_leaves: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class EntangleCheck:
    """A ``<->`` node's whole-assignment requirement (equation (1)).

    Leaves bind pairwise-distinct events, so overlap is impossible and
    entanglement reduces to *crossing*: some left event precedes some
    right event AND some right event precedes some left event.  This is
    inherently non-pairwise, so it is checked on complete assignments.
    """

    left_leaves: Tuple[int, ...]
    right_leaves: Tuple[int, ...]


class CompiledPattern:
    """A pattern in the matcher's form.

    Attributes
    ----------
    tree:
        The source :class:`~repro.patterns.tree.PatternTree`.
    leaves:
        Leaf nodes, indexed by leaf id.
    exist_checks:
        Whole-assignment existential checks for compound precedence.
    """

    def __init__(self, tree: PatternTree):
        self.tree = tree
        self.leaves: Sequence[LeafNode] = tree.leaves
        self._matrix: Dict[Tuple[int, int], Constraint] = {}
        self.exist_checks: List[ExistCheck] = []
        self.entangle_checks: List[EntangleCheck] = []
        self._derive(tree.root)
        # dense matrix for O(1) lookups in the matcher's hot path
        size = len(self.leaves)
        self._dense = [
            [Constraint.NONE] * size for _ in range(size)
        ]
        for (i, j), constraint in self._matrix.items():
            self._dense[i][j] = constraint
            self._dense[j][i] = constraint.inverse()
        self._check_satisfiable()
        self._check_v2_restrictions()
        # tightest WITHIN bound per leaf pair and clock domain; the
        # diagonal carries the member-member bound for Kleene groups
        self._window_sim: List[List[Optional[int]]] = [
            [None] * size for _ in range(size)
        ]
        self._window_wall: List[List[Optional[int]]] = [
            [None] * size for _ in range(size)
        ]
        for spec in self.windows:
            table = (
                self._window_sim if spec.domain == "sim" else self._window_wall
            )
            for i in spec.leaf_ids:
                for j in spec.leaf_ids:
                    current = table[i][j]
                    if current is None or spec.bound < current:
                        table[i][j] = spec.bound

    # ------------------------------------------------------------------
    # Constraint derivation
    # ------------------------------------------------------------------

    def _derive(self, node: TreeExpr) -> None:
        if isinstance(node, TreeLeaf):
            return
        for child in node.children:
            self._derive(child)
        if node.op is Operator.AND:
            return

        left, right = node.children
        left_ids = self.tree.leaf_ids_under(left)
        right_ids = self.tree.leaf_ids_under(right)
        shared = set(left_ids) & set(right_ids)
        if shared:
            labels = ", ".join(self.leaves[i].label for i in sorted(shared))
            raise PatternError(
                f"{labels} cannot appear on both sides of {node.op.value!r}"
            )

        if node.op is Operator.PRECEDES:
            if len(left_ids) == 1 and len(right_ids) == 1:
                self._add(left_ids[0], right_ids[0], Constraint.BEFORE)
            else:
                for i in left_ids:
                    for j in right_ids:
                        self._add(i, j, Constraint.NOT_AFTER)
                self.exist_checks.append(
                    ExistCheck(tuple(left_ids), tuple(right_ids))
                )
        elif node.op is Operator.CONCURRENT:
            for i in left_ids:
                for j in right_ids:
                    self._add(i, j, Constraint.CONCURRENT)
        elif node.op is Operator.PARTNER:
            if len(left_ids) != 1 or len(right_ids) != 1:
                raise PatternError(
                    "the partner operator relates single events, not compounds"
                )
            self._add(left_ids[0], right_ids[0], Constraint.PARTNER)
        elif node.op is Operator.LIMITED:
            if len(left_ids) != 1 or len(right_ids) != 1:
                raise PatternError(
                    "limited precedence relates single events, not compounds"
                )
            self._add(left_ids[0], right_ids[0], Constraint.LIMITED)
        elif node.op is Operator.ENTANGLED:
            if len(left_ids) == 1 and len(right_ids) == 1:
                raise PatternError(
                    "two single (distinct) events can never be entangled; "
                    "one side of '<->' must be a compound"
                )
            self.entangle_checks.append(
                EntangleCheck(tuple(left_ids), tuple(right_ids))
            )
        else:
            raise PatternError(f"unsupported operator {node.op!r}")

    def _add(self, i: int, j: int, constraint: Constraint) -> None:
        if i > j:
            i, j = j, i
            constraint = constraint.inverse()
        current = self._matrix.get((i, j), Constraint.NONE)
        self._matrix[(i, j)] = _combine(current, constraint, (i, j))

    # ------------------------------------------------------------------
    # Static satisfiability
    # ------------------------------------------------------------------

    def _check_satisfiable(self) -> None:
        """Reject patterns whose strict-precedence structure is
        globally unsatisfiable.

        Happens-before is a strict partial order, so the transitive
        closure of the pattern's strict edges (``BEFORE`` / ``LIMITED``;
        nothing follows from ``<>``, whose direction depends on which
        half is the send, nor from ``||`` or the weak forms) must be
        acyclic, and an implied ``i -> j`` contradicts a declared
        ``j -> i`` or ``i || j``.  The pairwise conjunction check
        cannot see these — a three-cycle of precedences conjoins fine
        pair by pair.  The closure is kept: see :meth:`precedes`.
        """
        size = len(self.leaves)
        strict = {
            Constraint.BEFORE,
            Constraint.LIMITED,
        }
        implied = [[False] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                if i != j and self._dense[i][j] in strict:
                    implied[i][j] = True
        # Floyd-Warshall closure over the strict edges
        for k in range(size):
            for i in range(size):
                if not implied[i][k]:
                    continue
                row_i, row_k = implied[i], implied[k]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
        self._precedes = implied
        for i in range(size):
            if implied[i][i]:
                raise PatternError(
                    f"unsatisfiable pattern: the precedence constraints "
                    f"place {self.leaves[i].label} strictly before itself"
                )
            for j in range(size):
                if i == j or not implied[i][j]:
                    continue
                declared = self._dense[i][j]
                if declared in (
                    Constraint.AFTER,
                    Constraint.LIMITED_REV,
                    Constraint.CONCURRENT,
                    Constraint.NOT_BEFORE,
                ):
                    raise PatternError(
                        f"unsatisfiable pattern: precedence implies "
                        f"{self.leaves[i].label} -> {self.leaves[j].label}, "
                        f"contradicting the declared "
                        f"{declared.value!r} constraint"
                    )

    def _check_v2_restrictions(self) -> None:
        """Operator combinations the matcher does not support.

        A direct constraint between two Kleene positions would require
        the maximal-group expansions of both to be mutually consistent
        — group-against-group search that the one-anchor-per-position
        model cannot express.  A ``<>`` on a Kleene position is
        likewise meaningless: a message has exactly two halves, not a
        group of them.
        """
        for i in range(len(self.leaves)):
            if not self.leaves[i].kleene:
                continue
            for j in range(len(self.leaves)):
                if i == j:
                    continue
                constraint = self._dense[i][j]
                if constraint is Constraint.NONE:
                    continue
                if self.leaves[j].kleene:
                    raise PatternError(
                        f"constraints between two Kleene positions "
                        f"({self.leaves[i].label}, {self.leaves[j].label}) "
                        f"are not supported"
                    )
                if constraint is Constraint.PARTNER:
                    raise PatternError(
                        f"the partner operator cannot apply to the Kleene "
                        f"position {self.leaves[i].label}"
                    )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    @property
    def negations(self) -> Sequence[NegationSpec]:
        """Absence requirements between anchor leaves (``-> !C ->``)."""
        return self.tree.negations

    @property
    def windows(self) -> Sequence[WindowSpec]:
        """Time-window guards over leaf subsets (``WITHIN n``)."""
        return self.tree.windows

    def window_bound(self, i: int, j: int, domain: str = "sim") -> Optional[int]:
        """The tightest window bound covering leaves ``i`` and ``j`` in
        the given clock domain, or ``None``.  ``window_bound(g, g)`` is
        the member-member bound for a Kleene group at leaf ``g``."""
        table = self._window_sim if domain == "sim" else self._window_wall
        return table[i][j]

    @property
    def has_wall_windows(self) -> bool:
        return any(
            spec.domain == "wall" for spec in self.tree.windows
        )

    def precedes(self, i: int, j: int) -> bool:
        """True when every match has leaf ``i``'s event strictly before
        leaf ``j``'s: the pair is declared ``->`` / ``~>`` or a chain of
        such pairs links them.  The declared matrix does not carry the
        implied pairs — only level programs apply them (see
        :func:`repro.patterns.plan.effective_constraint`)."""
        return self._precedes[i][j]

    def constraint(self, i: int, j: int) -> Constraint:
        """The requirement of leaf ``i`` relative to leaf ``j``."""
        if i == j:
            raise ValueError("no constraint between a leaf and itself")
        return self._dense[i][j]

    @property
    def constraint_matrix(self) -> Sequence[Sequence[Constraint]]:
        """The dense leaf-pair constraint table (``[i][j]`` is leaf
        ``i``'s requirement relative to leaf ``j``; the diagonal is
        ``NONE``).  Hot loops index this directly instead of paying a
        :meth:`constraint` call per pair."""
        return self._dense

    def terminating_leaves(self) -> Tuple[int, ...]:
        """Leaves whose match can be the last event of a complete match.

        A newly delivered event on leaf ``L`` can complete a match only
        if no constraint requires another leaf's event strictly after
        it — delivery order guarantees no already-delivered event
        causally follows the new one.  For ``A -> B`` only ``B`` is
        terminating; for ``A || B`` both are (Section V-B).
        """
        result = []
        for i in range(self.num_leaves):
            needs_later = any(
                self.constraint(i, j)
                in (Constraint.BEFORE, Constraint.LIMITED)
                for j in range(self.num_leaves)
                if j != i
            )
            if not needs_later:
                result.append(i)
        return tuple(result)

    def __repr__(self) -> str:
        return (
            f"CompiledPattern({self.num_leaves} leaves, "
            f"{len(self._matrix)} constraints, "
            f"{len(self.exist_checks)} existential checks, "
            f"{len(self.entangle_checks)} entanglement checks)"
        )


def compile_pattern(tree: PatternTree) -> CompiledPattern:
    """Compile a pattern tree; raises :class:`PatternError` on
    contradictory or unsupported constraint combinations."""
    return CompiledPattern(tree)
