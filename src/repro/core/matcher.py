"""The OCEP matching engine (paper, Section IV-C, Algorithms 1-3).

On each *terminating* event the matcher runs a backtracking search for
pattern matches containing it:

* level 1 of the search is the newly matched event (the partial match
  ``{e1}`` of Algorithm 1);
* ``goForward`` (Algorithm 2) instantiates the next pattern position:
  it sweeps the traces, computes the candidate domain on each trace by
  intersecting the Figure-4 restrictions contributed by every already
  instantiated event, and takes candidates newest-first;
* a restriction that empties a domain records a conflict in the ``bt``
  table together with the vector-timestamp-derived bounds within which
  a *different* choice at the conflicting level could resolve it
  (Figure 5);
* ``goBackward`` (Algorithm 3) consults the recorded conflicts: when
  the failing level never produced a candidate and every failure was a
  domain conflict, it jumps directly to the deepest conflicting level
  and narrows that level's remaining candidates with the recorded
  bounds; otherwise it backtracks one level (a jump past levels whose
  choices could have mattered — variable bindings, partner identity,
  exhausted candidates — would lose matches, so those failures
  deliberately fall back to plain backtracking);
* every complete match is offered to the representative subset
  (``updateSubset``); after a completed match the level it completed
  on advances to the next trace, which is what sweeps coverage across
  the ``(pattern event, trace)`` slots.

Figures 4 and 5 themselves live in :mod:`repro.core.domain`.  Its
intervals are exact on a complete stream, so candidate acceptance only
needs the non-interval checks: distinctness, attribute-variable
consistency, window guards, partner identity, and limited-precedence
immediacy — plus causal verification where the kernel reports an
interval as only a superset (a gapped stream, the ablation).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import MatcherConfig, SweepMode
from repro.core.domain import (
    Conflict,
    admit_bounds_lower,
    admit_bounds_upper,
    bounds_hull,
    lamport_range,
    narrow,
    restrict,
    satisfies,
)
from repro.core.front import StreamFront, TypeRoutes
from repro.core.history import HistorySet, LeafHistory, clamp_cut
from repro.core.subset import RepresentativeSubset
from repro.events.event import Event, EventKind
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.obs.trace import SearchTrace
from repro.patterns.ast import AttrVar
from repro.patterns.classes import Bindings
from repro.patterns.compile import CompiledPattern, Constraint
from repro.patterns.errors import PatternError
from repro.patterns.plan import (
    LeafStats,
    LevelStep,
    Plan,
    level_program,
    plan_order,
)

#: A complete match: leaf id -> event.
Match = Dict[int, Event]

# compared per candidate and constraint; see repro.core.domain on why
# not ``Constraint.PARTNER`` in place
_PARTNER = Constraint.PARTNER
_SEND = EventKind.SEND
_RECEIVE = EventKind.RECEIVE
_LIMITED = Constraint.LIMITED
_LIMITED_REV = Constraint.LIMITED_REV


@dataclasses.dataclass(frozen=True)
class MatchReport:
    """One complete match found online.

    Attributes
    ----------
    trigger_leaf, trigger_event:
        The terminating event that triggered the search.
    assignment:
        The matched event for every pattern leaf.
    bindings:
        Final attribute-variable environment.
    new_slots:
        Representative-subset slots this match newly covered (empty
        when the match was redundant for the subset).
    groups:
        For each Kleene leaf, the maximal event group the anchor
        expanded to (anchor included, ordered by trace then index).
        Empty for patterns without Kleene positions.
    """

    trigger_leaf: int
    trigger_event: Event
    assignment: Tuple[Tuple[int, Event], ...]
    bindings: Tuple[Tuple[str, str], ...]
    new_slots: Tuple[Tuple[int, int], ...]
    groups: Tuple[Tuple[int, Tuple[Event, ...]], ...] = ()

    def as_dict(self) -> Match:
        return dict(self.assignment)

    def group(self, leaf_id: int) -> Tuple[Event, ...]:
        """The expanded group of a Kleene leaf (anchor included)."""
        for g, events in self.groups:
            if g == leaf_id:
                return events
        raise KeyError(f"leaf {leaf_id} is not a Kleene position")


class _BudgetExhausted(Exception):
    """Internal: the per-trigger search budget ran out."""


class _Level:
    """Search state for one backtracking level (pattern position).  The
    event a level holds is ``OCEPMatcher._assigned[level]``."""

    __slots__ = (
        "step",
        "leaf_id",
        "trace",
        "candidates",
        "floor",
        "pos",
        "exact",
        "env",
        "extra_lo",
        "extra_hi",
        "bound",
        "conflicts",
        "accepted_any",
        "filter_rejected",
        "match_since_assign",
    )

    def __init__(self, step: LevelStep):
        self.step = step
        self.leaf_id = step.leaf_id
        self.reset()

    def reset(self) -> None:
        self.trace = 0
        # the candidate window: ``candidates[floor:pos + 1]`` of a live
        # history list is still to be scanned, newest (``pos``) first;
        # ``exact`` is what the domain kernel said of its interval
        self.candidates: Optional[Sequence[Event]] = None
        self.floor = 0
        self.pos = -1
        self.exact = True
        self.env: Optional[Bindings] = None
        self.extra_lo: Optional[int] = None
        self.extra_hi: Optional[int] = None
        # this activation's _negation_bound; None: not computed yet
        self.bound: Optional[tuple] = None
        # the level that fixed this level's pin is a contributor to
        # every failure here, as the partner level of a ``<>`` is
        pin_level = self.step.pin_level
        self.conflicts: List[Conflict] = (
            [] if pin_level is None else [Conflict(pin_level)]
        )
        self.accepted_any = False
        self.filter_rejected = False
        self.match_since_assign = False

    def advance_trace(self) -> None:
        """Abandon the current trace and move the sweep to the next."""
        self.trace += 1
        self.candidates = None
        self.pos = -1
        self.extra_lo = None
        self.extra_hi = None


class OCEPMatcher:
    """Online matcher for one compiled pattern.

    Feed events of the monitored computation (in linearization order)
    to :meth:`on_event`; it returns the match reports the event
    triggered.  The matcher owns the leaf histories and the
    representative subset and reads the GP/LS index and communication
    epochs of a :class:`~repro.core.front.StreamFront`.  Built without
    one it makes a private front, admits every event into it itself and
    must be fed the whole stream; the owner of a shared ``front`` admits
    each event first and need not feed those whose type no class of the
    pattern names.
    """

    def __init__(
        self,
        pattern: CompiledPattern,
        num_traces: int,
        config: Optional[MatcherConfig] = None,
        front: Optional[StreamFront] = None,
    ):
        self.pattern = pattern
        self.num_traces = num_traces
        self.config = config or MatcherConfig()
        self._owns_front = front is None
        if front is None:
            front = StreamFront(num_traces, self.config.complete_stream)
            front.attach(pattern, pattern)  # a key, not a back-reference
        elif (
            front.index.num_traces != num_traces
            or front.index.allow_gaps == self.config.complete_stream
        ):
            raise ValueError(
                f"the stream front has {front.index.num_traces} traces, "
                f"complete_stream={not front.index.allow_gaps}: a matcher "
                f"for {num_traces} traces, complete_stream="
                f"{self.config.complete_stream} cannot read it"
            )
        self.front = front
        self.index = front.index
        #: Per-trace lengths of the checkpoint restored from: the
        #: front's owner withholds events at or below it.
        self.watermark: Optional[List[int]] = None
        #: The checkpoint of this matcher while it does not stand where
        #: a *shared* front stands: the one it was restored from while
        #: the front is behind its watermark (it is handed nothing until
        #: then), or the one taken when it was quarantined.
        self.pinned: Optional[dict] = None
        self.history = HistorySet(
            pattern.num_leaves, num_traces, front.comm_epoch
        )
        self.subset = RepresentativeSubset(pattern.num_leaves, num_traces)
        self._terminating = frozenset(pattern.terminating_leaves())
        #: Leaves under a ``<>``.  Of the events typed there only a
        #: receive naming its send can end a match: a send's receive is
        #: delivered after it, and a unary event has no partner.
        self._partnered = frozenset(
            i
            for i, row in enumerate(pattern.constraint_matrix)
            if Constraint.PARTNER in row
        )
        # (leaf, may prune) by the event types the leaf's class names.
        # A Kleene leaf's history is never pruned: any class event may
        # later join a reported maximal group, and pruning keeps only
        # causally interchangeable representatives.
        self._leaf_routes = TypeRoutes()
        for leaf in pattern.leaves:
            self._leaf_routes.attach(
                (leaf, not leaf.kleene), leaf.event_class.etypes()
            )
        # -- v2 operator state -----------------------------------------
        #: Per Kleene leaf, the level program that evaluates it last:
        #: its final step is what a group member owes every other leaf.
        self._group_programs: Dict[int, Tuple[LevelStep, ...]] = {
            g: level_program(
                pattern,
                tuple(i for i in range(pattern.num_leaves) if i != g) + (g,),
                self.history.histories,
            )
            for g in (leaf.leaf_id for leaf in pattern.leaves if leaf.kleene)
        }
        self._negations = tuple(pattern.negations)
        #: Unpruned per-negation histories of potential witnesses
        #: (events matching the absent class modulo attribute
        #: variables); consulted by the complete-assignment veto.
        self.negation_history = (
            HistorySet(len(self._negations), num_traces, front.comm_epoch)
            if self._negations else None
        )
        self._negation_routes = TypeRoutes()
        for d, negation in enumerate(self._negations):
            self._negation_routes.attach(
                (d, negation.event_class), negation.event_class.etypes()
            )
        self._wall_clock = self.config.wall_clock
        if pattern.has_wall_windows and self._wall_clock is None:
            raise PatternError(
                "pattern uses a 'WITHIN n wall' guard but the matcher "
                "has no wall_clock extractor configured"
            )
        # (stamp, plan) per trigger leaf — the order and the level
        # program its searches execute — made on the first search and
        # again each time the stream has doubled (the stamp is the bit
        # length of ``events_processed``): statistics drift, and O(log n)
        # plans follow them.  Cross-event state: a checkpoint carries it.
        self._plans: Dict[int, Tuple[int, Plan]] = {}
        self.events_processed = 0
        self.searches_run = 0
        self.searches_truncated = 0
        # Hot-path accounting: plain integers (not metric objects) so
        # the inner candidate loop costs one integer add per decision;
        # publish_metrics() mirrors them into a registry on demand.
        self.forward_steps = 0
        self.candidates_scanned = 0
        self.empty_slice_conflicts = 0
        self.domain_conflicts = 0
        self.back_jumps = 0
        self.backtracks = 0
        self.matches_found = 0
        self.window_rejections = 0
        self.negation_vetoes = 0
        self.kleene_group_events = 0
        self.plans_computed = 0
        #: Per-search wall times (seconds); populated only while
        #: ``time_searches`` is on (the Monitor enables it), one entry
        #: per entry of ``searches_run``.
        self.search_timings: List[float] = []
        self.time_searches = False
        #: Span tracer; the no-op one unless installed (by the Monitor
        #: or directly).  Search spans reuse ``searches_run`` as the
        #: search ordinal, matching the search-trace ring's records.
        self.tracer: SpanTracer = NULL_TRACER
        self.search_trace: Optional[SearchTrace] = (
            SearchTrace(self.config.search_trace_size)
            if self.config.search_trace_size is not None
            else None
        )
        # the running search: its leaf order and level program, the
        # event each level holds (entries past the current level are
        # stale) and budget
        self._order: Tuple[int, ...] = ()
        self._program: Tuple[LevelStep, ...] = ()
        self._assigned: List[Event] = []
        self._steps_left: Optional[int] = None

    # ------------------------------------------------------------------
    # Online interface
    # ------------------------------------------------------------------

    def on_event(self, event: Event) -> List[MatchReport]:
        """Process the next event; returns any matches it completed."""
        if self._owns_front:
            mark = self.watermark
            if mark is not None and event.index <= mark[event.trace]:
                return []  # already reflected in the restored state
            self.front.admit(event)
        self.events_processed += 1

        triggered: List[Tuple[int, Bindings]] = []
        etype = event.etype
        for leaf, allow_prune in self._leaf_routes.get(etype):
            env = leaf.event_class.matches(event)
            if env is None:
                continue
            self.history.append(
                leaf.leaf_id,
                event,
                prune=self.config.prune_history and allow_prune,
            )
            if leaf.leaf_id in self._terminating:
                triggered.append((leaf.leaf_id, env))
        # potential negation witnesses, typed the same way
        for d, event_class in self._negation_routes.get(etype):
            if event_class.could_match(event):
                self.negation_history.append(d, event, prune=False)

        reports: List[MatchReport] = []
        for leaf_id, env in triggered:
            self.searches_run += 1
            if self.search_trace is not None:
                self.search_trace.record(
                    obs_trace.SEARCH_START,
                    self.searches_run,
                    0,
                    leaf_id,
                    event.trace,
                    detail=str(event.event_id),
                )
            if self.tracer.enabled:
                with self.tracer.span(
                    "matcher.search",
                    track="matcher",
                    args={"search": self.searches_run,
                          "leaf": leaf_id,
                          "trigger": repr(event.event_id)},
                ):
                    self._timed_search(reports, leaf_id, event, env)
            else:
                self._timed_search(reports, leaf_id, event, env)
        return reports

    def _timed_search(
        self,
        reports: List[MatchReport],
        leaf_id: int,
        event: Event,
        env: Bindings,
    ) -> None:
        if self.time_searches:
            started = time.perf_counter()
            reports.extend(self._search(leaf_id, event, env))
            self.search_timings.append(time.perf_counter() - started)
        else:
            reports.extend(self._search(leaf_id, event, env))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The hot-path accounting counters as a plain dict."""
        return {
            "events_processed": self.events_processed,
            "searches_run": self.searches_run,
            "searches_truncated": self.searches_truncated,
            "forward_steps": self.forward_steps,
            "candidates_scanned": self.candidates_scanned,
            "empty_slice_conflicts": self.empty_slice_conflicts,
            "domain_conflicts": self.domain_conflicts,
            "back_jumps": self.back_jumps,
            "backtracks": self.backtracks,
            "matches_found": self.matches_found,
            "window_rejections": self.window_rejections,
            "negation_vetoes": self.negation_vetoes,
            "kleene_group_events": self.kleene_group_events,
            "plans_computed": self.plans_computed,
        }

    def publish_metrics(
        self,
        registry: MetricsRegistry,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Mirror the plain-int hot-path counters (and size gauges)
        into ``registry``.  Idempotent — call it whenever a snapshot
        is about to be exported."""
        help_text = {
            "events_processed": "events fed to the matcher",
            "searches_run": "searches triggered by terminating events",
            "searches_truncated": "searches abandoned by the step budget",
            "forward_steps": "goForward level instantiations",
            "candidates_scanned": "candidate events examined",
            "empty_slice_conflicts": "satisfiable intervals with no stored candidate",
            "domain_conflicts": "restrictions that emptied a domain interval",
            "back_jumps": "goBackward conflict-directed jumps",
            "backtracks": "goBackward single-level steps",
            "matches_found": "complete matches reported",
            "window_rejections": "candidates rejected by WITHIN guards",
            "negation_vetoes": "complete assignments vetoed by a negation",
            "kleene_group_events": "events aggregated into Kleene groups",
            "plans_computed": "cost-based evaluation plans computed",
        }
        for name, value in self.counters().items():
            registry.counter(
                f"ocep_matcher_{name}_total", help_text[name], labels=labels
            ).set_total(value)
        registry.gauge(
            "ocep_subset_matches",
            "matches stored in the representative subset",
            labels=labels,
        ).set(len(self.subset))
        registry.gauge(
            "ocep_subset_covered_slots",
            "(leaf, trace) slots covered by the subset",
            labels=labels,
        ).set(len(self.subset.covered_slots))
        registry.gauge(
            "ocep_history_events",
            "events stored across all leaf histories",
            labels=labels,
        ).set(self.history.total_size())
        for leaf in self.history.histories:
            leaf_labels = dict(labels or {})
            leaf_labels["leaf"] = str(leaf.leaf_id)
            registry.gauge(
                "ocep_leaf_history_events",
                "events stored for one pattern leaf",
                labels=leaf_labels,
            ).set(leaf.size)
        if self.search_trace is not None:
            registry.gauge(
                "ocep_search_trace_records",
                "search-trace records currently buffered",
                labels=labels,
            ).set(len(self.search_trace))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-ready snapshot of the full cross-event state (see
        :mod:`repro.core.checkpoint`)."""
        from repro.core.checkpoint import matcher_checkpoint

        return matcher_checkpoint(self)

    def restore(self, state: dict) -> None:
        """Load a :meth:`checkpoint` into this (fresh) matcher."""
        from repro.core.checkpoint import restore_matcher

        restore_matcher(self, state)

    def pin(self) -> None:
        """Stop following the shared front (quarantine): the checkpoint
        is the state as it stands now."""
        if self.watermark is not None:
            self.unpin()
        self.pinned = self.checkpoint()

    def unpin(self) -> None:
        """The shared front has replayed past the watermark."""
        self.pinned = self.watermark = None
        self.front.resuming -= 1

    # ------------------------------------------------------------------
    # Backtracking search (Algorithms 1-3)
    # ------------------------------------------------------------------

    def current_plan(self, trigger_leaf: int) -> Plan:
        """The evaluation plan a search at ``trigger_leaf`` would use
        if planned right now (explainable via ``Plan.explain()``), its
        level program built over the leaf histories."""
        histories = self.history.histories
        stats = {
            history.leaf_id: LeafStats(
                history.size, len(history.traces_with_events())
            )
            for history in histories
        }
        return plan_order(self.pattern, trigger_leaf, stats, histories)

    def _plan(self, trigger_leaf: int) -> Plan:
        """The plan of one search: :meth:`current_plan` as of the last
        refresh (two leaves have one order: planned once)."""
        stamp = self.events_processed.bit_length()
        cached = self._plans.get(trigger_leaf)
        if cached is not None and (
            cached[0] == stamp or len(cached[1].order) < 3
        ):
            return cached[1]
        plan = self.current_plan(trigger_leaf)
        self._plans[trigger_leaf] = (stamp, plan)
        self.plans_computed += 1
        return plan

    def _search(
        self, trigger_leaf: int, trigger_event: Event, trigger_env: Bindings
    ) -> List[MatchReport]:
        # Fail fast: a representative subset only contains events that
        # are part of a complete match, and a complete match needs one
        # event per leaf — if some leaf has never matched anything, no
        # search can succeed (and no order is planned without
        # statistics).
        for history in self.history.histories:
            if history.size == 0:
                return []
        # Nor can one whose trigger's ``<>`` partner cannot have been
        # delivered yet (see ``_partnered``).
        if trigger_leaf in self._partnered and (
            trigger_event.kind is not _RECEIVE
            or trigger_event.partner is None
        ):
            return []
        plan = self._plan(trigger_leaf)
        program = plan.program
        k = len(program)
        levels = [_Level(step) for step in program]
        self._order, self._program = plan.order, program
        self._assigned = [trigger_event] * k
        levels[0].env = trigger_env
        levels[0].accepted_any = True

        reports: List[MatchReport] = []
        if k == 1:
            self._report(reports, trigger_leaf, trigger_event, levels)
            return reports

        budget = self.config.max_forward_steps
        self._steps_left = budget if budget is not None else None

        try:
            self._run_levels(levels, 1, k, trigger_leaf, trigger_event, reports)
        except _BudgetExhausted:
            self.searches_truncated += 1
            if self.search_trace is not None:
                self.search_trace.record(
                    obs_trace.TRUNCATED,
                    self.searches_run,
                    0,
                    trigger_leaf,
                    trigger_event.trace,
                    detail=f"budget={budget}",
                )
        return reports

    def _run_levels(
        self,
        levels: List["_Level"],
        i: int,
        k: int,
        trigger_leaf: int,
        trigger_event: Event,
        reports: List[MatchReport],
    ) -> None:
        found_any = False
        # One boolean load up front: the hot loop pays nothing when
        # tracing is off, and a span per goForward/goBackward call (not
        # per candidate scanned) when it is on.
        tracer = self.tracer if self.tracer.enabled else None
        while i >= 1:
            if tracer is not None:
                with tracer.span(
                    "matcher.goForward",
                    track="matcher",
                    args={"search": self.searches_run, "level": i,
                          "leaf": levels[i].leaf_id},
                ):
                    advanced = self._go_forward(levels, i, found_any)
            else:
                advanced = self._go_forward(levels, i, found_any)
            if advanced:
                if i == k - 1:
                    if self._accept_complete(levels):
                        self._report(reports, trigger_leaf, trigger_event, levels)
                        found_any = True
                        for level in levels[1:]:
                            level.match_since_assign = True
                        if self.config.sweep is SweepMode.FIRST:
                            break
                        if self.config.sweep is SweepMode.COVERAGE:
                            levels[i].advance_trace()
                    else:
                        # whole-assignment check failed: its cause spans
                        # levels, so disable back-jumping from here.
                        levels[i].filter_rejected = True
                else:
                    i += 1
            elif tracer is not None:
                with tracer.span(
                    "matcher.goBackward",
                    track="matcher",
                    args={"search": self.searches_run, "level": i},
                ):
                    i = self._go_backward(levels, i)
            else:
                i = self._go_backward(levels, i)

    def _report(
        self,
        reports: List[MatchReport],
        trigger_leaf: int,
        trigger_event: Event,
        levels: Sequence[_Level],
    ) -> None:
        assignment = dict(zip(self._order, self._assigned))
        groups: Tuple[Tuple[int, Tuple[Event, ...]], ...] = ()
        if self._group_programs:
            env = levels[-1].env or {}
            groups = tuple(
                (g, self._expand_group(g, assignment, env))
                for g in self._group_programs
            )
            for _, events in groups:
                self.kleene_group_events += len(events)
        new_slots = self.subset.update(assignment, groups=groups)
        if self.config.paranoid and not self.subset.check_bound():
            raise AssertionError(
                f"representative subset holds {len(self.subset)} matches, "
                f"exceeding the k*n bound "
                f"{self.subset.num_leaves * self.subset.num_traces} "
                "(paper, Section IV-B)"
            )
        self.matches_found += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "matcher.match",
                track="matcher",
                args={"search": self.searches_run,
                      "trigger": repr(trigger_event.event_id),
                      "new_slots": len(new_slots)},
            )
        if self.search_trace is not None:
            self.search_trace.record(
                obs_trace.MATCH,
                self.searches_run,
                len(levels) - 1,
                trigger_leaf,
                trigger_event.trace,
                detail=f"new_slots={len(new_slots)}",
            )
        env = levels[-1].env or {}
        reports.append(
            MatchReport(
                trigger_leaf=trigger_leaf,
                trigger_event=trigger_event,
                assignment=tuple(sorted(assignment.items())),
                bindings=tuple(sorted(env.items())),
                new_slots=new_slots,
                groups=groups,
            )
        )

    def _expand_group(
        self, g: int, assignment: Match, env: Bindings
    ) -> Tuple[Event, ...]:
        """Expand a Kleene anchor to its maximal group: every stored
        class event (Kleene histories are unpruned) a search evaluating
        leaf ``g`` last would accept under the final bindings — the
        Figure-4 domain of the other bound events on each swept trace,
        then the search's own candidate checks.  Members are admitted
        in (trace, index) scan order; the member-member window bound is
        checked against already-admitted members (it holds against all
        of them iff it holds against the oldest and the newest), which
        keeps the expansion deterministic."""
        program = self._group_programs[g]
        last = len(program) - 1
        step = program[last]
        assigned = [assignment[s.leaf_id] for s in program]
        anchor = assigned[last]
        pairs = step.constraints.items()
        bound = self.pattern.window_bound(g, g)
        wall_bound = self.pattern.window_bound(g, g, "wall")
        stamp = self._wall_clock
        oldest = newest = anchor.lamport
        if wall_bound is not None:
            wall_oldest = wall_newest = stamp(anchor)
        members: List[Event] = [anchor]
        span = lamport_range(step.windows, assigned)
        for trace in self._guard_traces(step.history, step.event_class, env):
            lo, hi, _, _, exact = restrict(
                self.index, trace, pairs, assigned, self.config.restrict_domains
            )
            if lo is None:
                continue
            events, left, right = step.history.window(trace, lo, hi, None, span)
            for event in events[left:right]:
                if step.windows and not self._within(
                    step.windows, assigned, event
                ):
                    continue
                if self._acceptable(
                    program, last, assigned, last + 1, event, env, exact
                ) is None:
                    continue
                at = event.lamport
                if bound is not None and (
                    at - oldest > bound or newest - at > bound
                ):
                    continue
                if wall_bound is not None:
                    wall_at = stamp(event)
                    if (
                        wall_at - wall_oldest > wall_bound
                        or wall_newest - wall_at > wall_bound
                    ):
                        continue
                    wall_oldest = min(wall_oldest, wall_at)
                    wall_newest = max(wall_newest, wall_at)
                oldest = min(oldest, at)
                newest = max(newest, at)
                members.append(event)
        members.sort(key=lambda e: (e.trace, e.index))
        return tuple(members)

    @staticmethod
    def _guard_traces(
        history: LeafHistory, event_class, env: Bindings
    ) -> Sequence[int]:
        """Traces a v2 guard has to visit for ``event_class`` under the
        final bindings: one when the process attribute is exact or
        bound (none when it names no trace), else every trace holding
        a class event — with the bound text, when the text attribute
        is a variable."""
        pinned = event_class.pinned_trace(env)
        if pinned is None:
            text = event_class.text
            return history.traces_with_events(
                env.get(text.name) if isinstance(text, AttrVar) else None
            )
        return (pinned,) if pinned >= 0 else ()

    # -- goForward ------------------------------------------------------

    def _go_forward(
        self, levels: List[_Level], i: int, found_any: bool
    ) -> bool:
        level = levels[i]
        step = level.step
        leaf_history = step.history
        coverage = self.config.sweep is SweepMode.COVERAGE

        pinned = required_text = swept_text = None
        if self.config.indexed_histories:
            env_prev = levels[i - 1].env
            if step.trace_pin is not None:
                pinned = step.event_class.pinned_trace(env_prev)
            if step.text_pin is not None:
                required_text = step.event_class.required_text(env_prev)
                # an exact text is carried by every stored event: only
                # a bound ``$var`` leaves traces without a candidate
                if step.pin_binders[1] is not None:
                    swept_text = required_text

        # A PARTNER constraint against an assigned receive (or unary)
        # event pins the candidate to one trace (Figure 4): every other
        # trace fails that restriction outright, independently of the
        # levels above it, so sweeping them one by one only manufactures
        # identical unbounded conflicts.  Jump the sweep straight to the
        # partner's trace and record a single representative conflict
        # per skipped region (same back-jump target, no narrower hull).
        partner_level = None
        partner_trace = -1
        if pinned is None:
            for j in step.partner_levels:
                assigned = self._assigned[j]
                if assigned.kind is not _SEND:
                    partner = assigned.partner
                    partner_level = j
                    partner_trace = -1 if partner is None else partner.trace
                    break

        bound = level.bound
        if bound is None and step.negations and self.config.restrict_domains:
            bound = level.bound = self._negation_bound(step, levels[i - 1].env)
        next_nonempty = leaf_history.next_nonempty
        num_traces = self.num_traces
        cover_check = (
            self.subset.is_covered if coverage and found_any else None
        )
        while True:
            if self._steps_left is not None:
                self._steps_left -= 1
                if self._steps_left < 0:
                    raise _BudgetExhausted()
            if level.candidates is None:
                if pinned is not None:
                    if pinned < 0 or level.trace > pinned:
                        return False
                    if level.trace < pinned:
                        level.trace = pinned
                elif partner_level is not None:
                    if partner_trace < 0 or level.trace > partner_trace:
                        if (
                            self.config.backjump
                            and next_nonempty(level.trace) is not None
                        ):
                            level.conflicts.append(Conflict(partner_level))
                        return False
                    if level.trace < partner_trace:
                        if self.config.backjump:
                            nxt = next_nonempty(level.trace)
                            if nxt is not None and nxt < partner_trace:
                                level.conflicts.append(Conflict(partner_level))
                        level.trace = partner_trace
                else:
                    # Jump the sweep over traces this leaf never
                    # matched on (with the bound text): each would just
                    # fail the on_trace check below, or yield no
                    # candidate, and advance.  The level that bound the
                    # text is blamed by the seeded conflict.
                    nxt = next_nonempty(level.trace, swept_text)
                    if nxt is None:
                        return False
                    level.trace = nxt
                if level.trace >= num_traces:
                    return False
                trace = level.trace
                if cover_check is not None and cover_check(level.leaf_id, trace):
                    level.advance_trace()
                    continue
                if not leaf_history.on_trace(trace):
                    level.advance_trace()
                    continue
                # Figure 4.  Each restriction costs budget too, so the
                # per-trigger bound stays uniform across pattern sizes
                # (a domain computation is O(pattern length)).
                if self._steps_left is not None:
                    self._steps_left -= i
                    if self._steps_left < 0:
                        raise _BudgetExhausted()
                lo, hi, lo_level, hi_level, level.exact = restrict(
                    self.index, trace, step.constraints.items(),
                    self._assigned, self.config.restrict_domains,
                )
                if lo is None:
                    self._record_domain_conflict(level, i, trace, lo_level)
                    level.advance_trace()
                    continue
                span = (
                    lamport_range(step.windows, self._assigned)
                    if step.windows else None
                )
                cut_lo, cut_hi = lo, hi
                if bound:
                    cut_lo, cut_hi = narrow(self.index, trace, *bound, lo, hi)
                level.candidates, level.floor, right = leaf_history.window(
                    trace, cut_lo, cut_hi, required_text, span
                )
                level.pos = right - 1  # newest first
                if (span is not None or bound) and clamp_cut(
                    level.candidates, level.floor, right, lo, hi
                ):
                    # WITHIN or a negation bound kept a stored candidate
                    # of the interval out: a rejection that depends on it
                    # (no back-jump from here), not a Figure-5 conflict
                    level.filter_rejected = True
                elif right <= level.floor:
                    # The interval is satisfiable but holds no stored
                    # candidate — the Figure 5 conflict proper.  Record
                    # a resolution for every binding contributor so the
                    # back-jump hull never excludes a real resolver.
                    self.empty_slice_conflicts += 1
                    if self.search_trace is not None:
                        self.search_trace.record(
                            obs_trace.EMPTY_SLICE,
                            self.searches_run,
                            i,
                            level.leaf_id,
                            trace,
                            detail=f"[{lo}, {hi}]",
                        )
                    if self.config.backjump:
                        self._record_slice_conflicts(
                            level, trace, lo, hi, lo_level, hi_level
                        )
                    level.advance_trace()
                    continue

            while level.pos >= level.floor:
                if self._steps_left is not None:
                    self._steps_left -= 1
                    if self._steps_left < 0:
                        raise _BudgetExhausted()
                self.candidates_scanned += 1
                candidate = level.candidates[level.pos]
                level.pos -= 1
                if level.extra_lo is not None and candidate.index < level.extra_lo:
                    continue
                if level.extra_hi is not None and candidate.index > level.extra_hi:
                    continue
                if step.windows and not self._within(
                    step.windows, self._assigned, candidate
                ):
                    self.window_rejections += 1
                    env = None
                else:
                    env = self._acceptable(
                        self._program, i, self._assigned, i, candidate,
                        levels[i - 1].env, level.exact,
                    )
                if env is None:
                    # the rejection depends on the candidate itself:
                    # no back-jump from this level
                    level.filter_rejected = True
                    if self.search_trace is not None:
                        self.search_trace.record(
                            obs_trace.CANDIDATE,
                            self.searches_run,
                            i,
                            level.leaf_id,
                            candidate.trace,
                            detail=f"rejected {candidate.event_id}",
                        )
                    continue
                self._assigned[i] = candidate
                level.env = env
                level.accepted_any = True
                level.match_since_assign = False
                self.forward_steps += 1
                if self.search_trace is not None:
                    self.search_trace.record(
                        obs_trace.FORWARD,
                        self.searches_run,
                        i,
                        level.leaf_id,
                        candidate.trace,
                        detail=f"accepted {candidate.event_id}",
                    )
                return True

            level.advance_trace()

    def _negation_bound(self, step: LevelStep, env: Bindings):
        """``(pairs, witnesses)`` for :func:`~repro.core.domain.narrow`,
        the nearest witness per trace of each negation ``step`` anchors
        last; ``()`` when there is none."""
        pairs, witnesses = [], []
        for d, event_class, j, floor in step.negations:
            history = self.negation_history.leaf(d)
            relation = Constraint.NOT_AFTER if floor else Constraint.NOT_BEFORE
            for trace in self._guard_traces(history, event_class, env):
                witness = history.nearest(
                    self._assigned[j], trace, self.index, floor, event_class, env
                )
                if witness is not None:
                    pairs.append((len(witnesses), relation))
                    witnesses.append(witness)
        return (pairs, witnesses) if witnesses else ()

    def _record_domain_conflict(
        self, level: _Level, i: int, trace: int, j: int
    ) -> None:
        """Level ``j``'s restriction emptied level ``i``'s domain on
        ``trace``."""
        step = level.step
        constraint = step.constraints[j]
        self.domain_conflicts += 1
        if self.search_trace is not None:
            self.search_trace.record(
                obs_trace.DOMAIN_CONFLICT,
                self.searches_run,
                i,
                level.leaf_id,
                trace,
                detail=f"{constraint.value} vs level {j}",
            )
        if self.config.backjump:
            # Figure-5 bounds resolve lazily: domain conflicts vastly
            # outnumber the back-jumps that read them.
            level.conflicts.append(Conflict(j, pending=(
                self.index, constraint, self._assigned[j], step.history, trace
            )))

    def _record_slice_conflicts(
        self,
        level: _Level,
        trace: int,
        interval_lo: int,
        interval_hi: Optional[int],
        lo_level: Optional[int],
        hi_level: Optional[int],
    ) -> None:
        """Figure 5 for an empty candidate slice: every stored event on
        ``trace`` lies outside ``[interval_lo, interval_hi]``, so a
        different choice at a binding contributor could admit one.  For
        the lower bound the nearest admissible candidate is the latest
        event below it; for the upper bound, the earliest event above
        it."""
        constraints, leaf_history = level.step.constraints, level.step.history
        if lo_level is not None and lo_level >= 1:
            events, first, _ = leaf_history.window(trace, interval_lo, None)
            if first > 0:
                level.conflicts.append(Conflict(lo_level, admit_bounds_lower(
                    self.index, constraints[lo_level],
                    self._assigned[lo_level], events[first - 1],
                )))

        if hi_level is not None and hi_level >= 1 and interval_hi is not None:
            events, first, end = leaf_history.window(trace, interval_hi + 1, None)
            if first < end:
                level.conflicts.append(Conflict(hi_level, admit_bounds_upper(
                    self.index, constraints[hi_level],
                    self._assigned[hi_level], events[first],
                )))

    # -- candidate acceptance --------------------------------------------

    def _within(self, windows, assigned: Sequence[Event], candidate: Event) -> bool:
        """Window guards: timestamp distance to every assigned event
        sharing a ``WITHIN`` with the candidate's leaf."""
        for j, bound, wall_bound in windows:
            if bound is not None:
                if abs(candidate.lamport - assigned[j].lamport) > bound:
                    return False
            if wall_bound is not None:
                stamp = self._wall_clock
                if abs(stamp(candidate) - stamp(assigned[j])) > wall_bound:
                    return False
        return True

    def _acceptable(
        self,
        program: Sequence[LevelStep],
        i: int,
        assigned: Sequence[Event],
        n: int,
        candidate: Event,
        env: Optional[Bindings],
        exact: bool,
    ) -> Optional[Bindings]:
        """What interval membership (and :meth:`_within`) does not
        decide of a candidate for ``program[i]``: distinctness from the
        first ``n`` assigned events, the class under ``env``, partner
        identity, ``~>`` immediacy and — where the domain was only a
        superset (not ``exact``) — the causal relations themselves.
        Returns the extended environment, or None."""
        # Distinctness by event id: within one computation (trace,
        # index) is the event's identity, so this equals full-field
        # equality without comparing clocks.
        ctrace, cindex = candidate.trace, candidate.index
        for j in range(n):
            other = assigned[j]
            if other.trace == ctrace and other.index == cindex:
                return None
        step = program[i]
        env = step.event_class.matches(candidate, env)
        if env is None:
            return None
        verify = self.config.paranoid or not exact
        for j, constraint in step.constraints.items():
            other = assigned[j]
            if constraint is _PARTNER:
                if not candidate.is_partner_of(other):
                    return None
            elif constraint is _LIMITED:
                # other ~> candidate: no event of other's class between
                if program[j].history.has_between(other, candidate, self.index):
                    return None
            elif constraint is _LIMITED_REV:
                # candidate ~> other
                if step.history.has_between(candidate, other, self.index):
                    return None
            if verify and not satisfies(constraint, other, candidate):
                if exact:
                    raise AssertionError(
                        "exact domain restriction admitted a causally "
                        f"invalid candidate {candidate.event_id} "
                        f"({constraint.value} vs {other.event_id})"
                    )
                return None
        return env

    def _accept_complete(self, levels: Sequence[_Level]) -> bool:
        """Whole-assignment checks: compound-precedence existentials,
        entanglement (equations (1) and (2)), and negation vetoes."""
        if (
            not self.pattern.exist_checks
            and not self.pattern.entangle_checks
            and not self._negations
        ):
            return True
        assignment = dict(zip(self._order, self._assigned))
        if self._negations:
            env = levels[-1].env or {}
            for d, spec in enumerate(self._negations):
                if self._negation_witness(
                    d,
                    spec,
                    assignment[spec.left_leaf],
                    assignment[spec.right_leaf],
                    env,
                ):
                    self.negation_vetoes += 1
                    return False
        for check in self.pattern.exist_checks:
            if not any(
                assignment[a].happens_before(assignment[b])
                for a in check.left_leaves
                for b in check.right_leaves
            ):
                return False
        for check in self.pattern.entangle_checks:
            forward = any(
                assignment[a].happens_before(assignment[b])
                for a in check.left_leaves
                for b in check.right_leaves
            )
            backward = any(
                assignment[b].happens_before(assignment[a])
                for a in check.left_leaves
                for b in check.right_leaves
            )
            if not (forward and backward):
                return False
        return True

    def _negation_witness(
        self, d: int, spec, left: Event, right: Event, env: Bindings
    ) -> bool:
        """True when some event matching the absent class (under the
        final bindings) lies causally strictly between the two anchors.

        Causal delivery order makes this check online-sound: any
        witness happens-before the right anchor, so it was delivered —
        and recorded in the negation history — before any search that
        binds that anchor; and no future event can ever fall causally
        between two already-delivered events.
        """
        history = self.negation_history.leaf(d)
        event_class = spec.event_class
        text = event_class.required_text(env)
        for trace in self._guard_traces(history, event_class, env):
            for event in history.between(left, right, trace, self.index, text):
                if event_class.matches(event, env) is not None:
                    return True
        return False

    # -- goBackward -------------------------------------------------------

    def _go_backward(self, levels: List[_Level], i: int) -> int:
        level = levels[i]
        can_jump = (
            self.config.backjump
            and not level.accepted_any
            and not level.filter_rejected
            and level.conflicts
        )
        if can_jump:
            target = max(c.level for c in level.conflicts)
            if target >= 1:
                lo, hi = bounds_hull(
                    c for c in level.conflicts if c.level == target
                )
                level.reset()
                for q in range(target + 1, i):
                    levels[q].reset()
                jump_level = levels[target]
                if lo is not None and (
                    jump_level.extra_lo is None or lo > jump_level.extra_lo
                ):
                    jump_level.extra_lo = lo
                if hi is not None and (
                    jump_level.extra_hi is None or hi < jump_level.extra_hi
                ):
                    jump_level.extra_hi = hi
                self.back_jumps += 1
                if self.search_trace is not None:
                    self.search_trace.record(
                        obs_trace.BACKJUMP,
                        self.searches_run,
                        i,
                        level.leaf_id,
                        detail=f"to level {target}, bounds [{lo}, {hi}]",
                    )
                return target

        level.reset()
        target = i - 1
        if (
            target >= 1
            and self.config.sweep is SweepMode.COVERAGE
            and levels[target].match_since_assign
        ):
            levels[target].advance_trace()
        self.backtracks += 1
        if self.search_trace is not None:
            self.search_trace.record(
                obs_trace.BACKTRACK,
                self.searches_run,
                i,
                level.leaf_id,
                detail=f"to level {target}",
            )
        return target
