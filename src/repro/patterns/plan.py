"""The evaluation order: a cost-based constraint planner.

The paper gives every leaf an *Order* attribute — the level at which
the backtracking search instantiates it — and fixes only that the
terminating event comes first.  :func:`plan_order` decides the rest,
for every pattern, from *live statistics* of the matcher's leaf
histories: the number of candidates a leaf contributes, discounted by
how hard the constraints into the already-ordered prefix restrict its
domain and multiplied by the traces the level has to sweep when nothing
pins it to one.  It is a greedy smallest-estimated-candidates-first
join-order search — the classic Selinger recipe shrunk to the
pattern-matching setting, where every "relation" is one leaf history
and every "join predicate" is a pairwise causal constraint.  A skewed
population is where it matters: a heavily constrained class with a huge
history is not enumerated before a rare class has cut the space to
almost nothing.  Any order finds the same matches (the oracle suites
check seeded permutations); the order decides only what a search costs.

The plan also carries the *level program* the search executes
(:func:`level_program`): per level, what the pattern and the order fix
about it.  That is the one place where a precedence the pattern implies
but does not declare (:func:`effective_constraint`, off the closure
:meth:`CompiledPattern.precedes` keeps) becomes a pair the search
restricts by; the cost model reads the same function, so an estimate
never calls a level the program restricts "unconstrained".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.domain import UNDECIDED
from repro.patterns.ast import AttrVar, Exact
from repro.patterns.compile import CompiledPattern, Constraint

#: Domain-restriction factor of one constraint kind: the estimated
#: fraction of a leaf's candidates that survive when the constraint
#: partner is already bound.  PARTNER is (at most) one event; strict
#: precedence cuts a causal cone; concurrency cuts the complement;
#: weak precedence barely filters.
_RESTRICTION = {
    Constraint.PARTNER: 0.001,
    Constraint.BEFORE: 0.25,
    Constraint.AFTER: 0.25,
    Constraint.LIMITED: 0.05,
    Constraint.LIMITED_REV: 0.05,
    Constraint.CONCURRENT: 0.5,
    Constraint.NOT_AFTER: 0.8,
    Constraint.NOT_BEFORE: 0.8,
    Constraint.NONE: 1.0,
}

#: Restriction factor for each attribute variable already bound by the
#: ordered prefix — an exact-match key into the candidate history.
_ATTR_VAR_FACTOR = 0.1


@dataclasses.dataclass(frozen=True)
class LeafStats:
    """Statistics of one leaf history at planning time: stored events
    and the traces holding at least one (an empty history plans as one
    event on one trace — no search runs before every leaf has one)."""

    size: int = 0
    traces: int = 1


@dataclasses.dataclass(frozen=True)
class PlanStep:
    """One level of the evaluation order with its cost estimate."""

    leaf_id: int
    label: str
    history_size: int
    estimate: float
    reason: str


class LevelStep(NamedTuple):
    """One level of a *level program*: what the pattern and the
    evaluation order fix about a pattern position, derived once so that
    a search executes it instead of deriving it again on every call."""

    leaf_id: int
    event_class: object
    #: Earlier level -> that leaf's :func:`effective_constraint` towards
    #: this one (``NONE`` left out), in level order; the ``<>`` ones by
    #: level.
    constraints: Dict[int, Constraint]
    partner_levels: Tuple[int, ...]
    #: The process / text attribute (``$var`` or exact value) that pins
    #: candidates to one trace / text bucket once bound; None when the
    #: class leaves it open and can never pin.
    trace_pin: Optional[str]
    text_pin: Optional[str]
    #: ``(earlier level, sim bound, wall bound)`` per ``WITHIN`` pair.
    windows: Tuple[Tuple[int, Optional[int], Optional[int]], ...]
    #: The leaf's entry of the ``histories`` the program was built over.
    history: object
    #: Earlier level -> the leaf its entry of ``constraints`` is implied
    #: through, for the entries the pattern does not declare.
    implied: Dict[int, int]
    #: ``(negation, absent class, level of the other anchor, floor)``
    #: per negation the leaf anchors last, where the prefix binds every
    #: variable of the absent class: a floor on a left anchor, else a
    #: ceiling on a right one.
    negations: Tuple[Tuple[int, object, int, bool], ...]
    #: Per pin (``trace_pin``, ``text_pin``): the earlier level whose
    #: event fixes its ``$var`` (the deepest that may bind one), or
    #: None — an exact value, no pin, or a variable this level binds.
    pin_binders: Tuple[Optional[int], Optional[int]]
    #: The deepest of ``pin_binders`` past the trigger, or None: another
    #: event there moves a pin, so every failure of this level is
    #: blamed on it too (the search seeds the level's conflicts with it).
    pin_level: Optional[int]
    #: ``constraints`` as ``(earlier level, constraint)`` pairs, the
    #: form the domain kernel reads.
    pairs: Tuple[Tuple[int, Constraint], ...]
    #: The pairs an exact interval leaves to the candidate checks
    #: (:data:`repro.core.domain.UNDECIDED`).
    checks: Tuple[Tuple[int, Constraint], ...]


#: Declared forms a strict precedence implied by other pairs replaces.
_SUBSUMED = (Constraint.NONE, Constraint.NOT_AFTER, Constraint.NOT_BEFORE)


def effective_constraint(
    pattern: CompiledPattern, i: int, j: int
) -> Tuple[Constraint, Optional[int]]:
    """Leaf ``i``'s requirement relative to leaf ``j`` as a level
    program applies it, and the leaf it is implied through (``None``:
    it is the declared one).  Where the pattern declares nothing
    between the two, or only a weak form, but its strict precedences
    chain them (``P ~> $m`` and ``$m -> D`` put ``P`` before ``D``), the
    requirement is that plain ``BEFORE`` / ``AFTER``: every match
    satisfies it, so restricting a domain by it loses none — and the
    search need not find it out one doomed candidate at a time."""
    declared = pattern.constraint_matrix[i][j]
    if declared in _SUBSUMED:
        for a, b, strict in ((i, j, Constraint.BEFORE), (j, i, Constraint.AFTER)):
            if pattern.precedes(a, b):
                return strict, next(
                    k for k in range(pattern.num_leaves)
                    if pattern.precedes(a, k) and pattern.precedes(k, b)
                )
    return declared, None


def _pin(event_class, attribute: str) -> Optional[str]:
    """A union pins only what every one of its branches pins."""
    branches = getattr(event_class, "alternatives", (event_class,))
    specs = [getattr(branch, attribute) for branch in branches]
    if not all(isinstance(spec, (Exact, AttrVar)) for spec in specs):
        return None
    return "/".join(sorted({
        spec.value if isinstance(spec, Exact) else f"${spec.name}"
        for spec in specs
    }))


def level_program(
    pattern: CompiledPattern, order: Tuple[int, ...], histories=None
) -> Tuple[LevelStep, ...]:
    """The level program of evaluating ``pattern`` in ``order``, over
    the per-leaf ``histories`` of the matcher that will run it."""
    steps = []
    bound_vars: set = set()
    # $var -> the deepest level so far that may bind it: the first that
    # surely does (a class naming it, a union naming it in every
    # branch), and until then each union naming it in some branch
    binder: Dict[str, int] = {}
    surely: set = set()
    for level, leaf_id in enumerate(order):
        event_class = pattern.leaves[leaf_id].event_class
        branches = getattr(event_class, "alternatives", (event_class,))
        pins = (_pin(event_class, "process"), _pin(event_class, "text"))
        pin_binders = tuple(
            None if pin is None else max((
                binder[var]
                for branch in branches
                for var in _attr_vars(branch, (attribute,))
                if var in binder
            ), default=None)
            for attribute, pin in zip(("process", "text"), pins)
        )
        named = [_attr_vars(branch) for branch in branches]
        for var in set().union(*named) - surely:
            binder[var] = level
        surely |= set.intersection(*named)
        negations = []
        for d, spec in enumerate(pattern.negations):
            other = {spec.left_leaf: spec.right_leaf,
                     spec.right_leaf: spec.left_leaf}.get(leaf_id)
            absent = spec.event_class  # a plain class, never a union
            if other in order[:level] and _attr_vars(absent) <= bound_vars:
                negations.append((d, absent, order.index(other),
                                  leaf_id == spec.left_leaf))
        bound_vars |= _attr_vars(event_class)
        effective = {
            j: effective_constraint(pattern, order[j], leaf_id)
            for j in range(level)
        }
        into = {j: c for j, (c, _) in effective.items()}
        constraints = {
            j: c for j, c in into.items() if c is not Constraint.NONE
        }
        bounds = [
            (j, pattern.window_bound(leaf_id, order[j]),
             pattern.window_bound(leaf_id, order[j], "wall"))
            for j in range(level)
        ]
        steps.append(LevelStep(
            leaf_id, event_class,
            constraints,
            tuple(j for j, c in into.items() if c is Constraint.PARTNER),
            *pins,
            tuple(b for b in bounds if b[1:] != (None, None)),
            histories[leaf_id] if histories else None,
            {j: via for j, (_, via) in effective.items() if via is not None},
            tuple(negations),
            pin_binders,
            max((j for j in pin_binders if j), default=None),
            tuple(constraints.items()),
            tuple((j, c) for j, c in constraints.items() if c in UNDECIDED),
        ))
    return tuple(steps)


@dataclasses.dataclass(frozen=True)
class Plan:
    """An explained evaluation order for one trigger leaf."""

    trigger_leaf: int
    order: Tuple[int, ...]
    steps: Tuple[PlanStep, ...]
    total_estimate: float
    program: Tuple[LevelStep, ...]
    #: Per leaf id, the statistics the order was computed from: with
    #: the pattern they determine the plan, which is how a checkpoint
    #: carries it.
    stats: Tuple[LeafStats, ...]

    def explain(self) -> str:
        """Human-readable plan and the level program it implies, one
        line per level each."""
        lines = [
            f"plan for trigger leaf {self.trigger_leaf}, "
            f"estimated search space {self.total_estimate:.1f}:"
        ]
        for level, step in enumerate(self.steps, start=1):
            lines.append(
                f"  {level}. leaf {step.leaf_id} [{step.label}] "
                f"history={step.history_size} "
                f"estimate={step.estimate:.2f} — {step.reason}"
            )
        lines.append("  level program (what earlier levels require of the leaf):")
        for level, step in enumerate(self.program, start=1):
            parts = [
                f"partner level {j + 1}" if constraint is Constraint.PARTNER
                else f"level {j + 1} {constraint.value}" + (
                    f" (implied via leaf {step.implied[j]})"
                    if j in step.implied else ""
                )
                for j, constraint in step.constraints.items()
            ] or ["trigger" if level == 1 else "no constraint into the prefix"]
            parts += [
                f"within {bound} {domain} of level {j + 1}"
                for j, *bounds in step.windows
                for domain, bound in zip(("sim", "wall"), bounds)
                if bound is not None
            ]
            parts += [
                f"no {absent.name} between level {j + 1} and this "
                f"({'floor' if floor else 'ceiling'})"
                for _, absent, j, floor in step.negations
            ]
            parts += [
                f"{what} pinned by {pin}" + (
                    f" (bound at level {j + 1})" if j is not None else ""
                )
                for what, pin, j in zip(
                    ("trace", "text"), (step.trace_pin, step.text_pin),
                    step.pin_binders,
                )
                if pin is not None
            ]
            lines.append(f"  {level}. leaf {step.leaf_id}: " + "; ".join(parts))
        return "\n".join(lines)


def _attr_vars(cls, attributes=("process", "etype", "text")) -> set:
    """The variables a class binds among ``attributes`` (a union's
    attributes read as wildcards: which branch binds is not known
    before one matches)."""
    return {
        spec.name
        for spec in (getattr(cls, attribute) for attribute in attributes)
        if isinstance(spec, AttrVar)
    }


def plan_order(
    pattern: CompiledPattern,
    trigger_leaf: int,
    stats: Optional[Dict[int, LeafStats]] = None,
    histories=None,
) -> Plan:
    """Greedy cheapest-leaf-next join order from live statistics.

    ``stats`` maps leaf id -> :class:`LeafStats`; a leaf without an
    entry counts as an empty history.  The trigger leaf is always level
    1 — the search is anchored on the newly delivered event, which is
    not a planning choice.  Deterministic in its arguments.  The plan's
    level program is built over ``histories`` (see :class:`LevelStep`).
    """
    stats = tuple(
        (stats or {}).get(i, LeafStats()) for i in range(pattern.num_leaves)
    )

    def step(leaf_id: int, estimate: float, reason: str) -> PlanStep:
        return PlanStep(
            leaf_id, pattern.leaves[leaf_id].label, stats[leaf_id].size,
            estimate, reason,
        )

    order: List[int] = [trigger_leaf]
    steps = [step(trigger_leaf, 1.0, "trigger (the newly delivered event)")]
    remaining = [i for i in range(pattern.num_leaves) if i != trigger_leaf]
    total = 1.0

    while remaining:
        bound_vars: set = set()
        for j in order:
            bound_vars |= _attr_vars(pattern.leaves[j].event_class)

        def estimate(i: int) -> Tuple[float, str]:
            size = stats[i].size
            value = float(max(size, 1))
            factors = []
            best = Constraint.NONE
            for j in order:
                # what the level program will restrict by, implied
                # pairs included
                constraint, _ = effective_constraint(pattern, i, j)
                factor = _RESTRICTION[constraint]
                if factor < _RESTRICTION[best]:
                    best = constraint
                value *= factor
            if best is not Constraint.NONE:
                factors.append(f"{best.value} into prefix")
            shared = _attr_vars(pattern.leaves[i].event_class) & bound_vars
            if shared:
                value *= _ATTR_VAR_FACTOR ** len(shared)
                factors.append(
                    "bound $" + ", $".join(sorted(shared))
                )
            costed = bool(factors)
            # Nothing pins the level to one trace (an exact process, or
            # a variable the prefix binds): the search runs it once per
            # trace holding an event of the leaf.
            process = pattern.leaves[i].event_class.process
            pinned = isinstance(process, Exact) or (
                isinstance(process, AttrVar) and process.name in bound_vars
            )
            if not pinned:
                swept = max(stats[i].traces, 1)
                value *= swept
                factors.append(
                    f"swept over {swept} trace{'s' * (swept != 1)}"
                )
            reason = " × ".join([f"history {size}"] + factors)
            if pinned:
                reason += ", trace pinned"
            if not costed:
                reason += (
                    ", WITHIN only (not costed)" if any(
                        pattern.window_bound(i, j, domain) is not None
                        for j in order for domain in ("sim", "wall")
                    ) else ", unconstrained"
                )
            return value, reason

        # cheapest first; ties broken by leaf id for determinism
        (value, reason), best_leaf = min(
            ((estimate(i), i) for i in remaining),
            key=lambda item: (item[0][0], item[1]),
        )
        order.append(best_leaf)
        remaining.remove(best_leaf)
        total *= max(value, 1.0)
        steps.append(step(best_leaf, value, reason))

    return Plan(
        trigger_leaf=trigger_leaf,
        order=tuple(order),
        steps=tuple(steps),
        total_estimate=total,
        program=level_program(pattern, tuple(order), histories),
        stats=stats,
    )
