"""Runtime event classes: matching events against class specifications.

An event class ``[process, type, text]`` matches an event when each
attribute matches: exact attributes compare for equality, wildcards
always match, and attribute variables (``$1``) match when consistent
with the current binding environment, extending it on first use
(Section III-A: attributes "can be specified for an exact match, left
empty as a wild-card or used as a variable to enforce equality
comparison in an operator").

The *process* attribute of an event is its trace name (e.g. ``"P3"``
or ``"sem0"``); exact process attributes also accept the bare trace
number as a string.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Optional, Sequence, Tuple

from repro.events.event import Event
from repro.patterns.ast import AttrSpec, AttrVar, ClassDef, Exact, Wildcard

#: An attribute binding environment: variable name -> bound value.
Bindings = Dict[str, str]


@dataclasses.dataclass(frozen=True)
class EventClass:
    """A compiled event class bound to a concrete trace-name table."""

    name: str
    process: AttrSpec
    etype: AttrSpec
    text: AttrSpec
    trace_names: Sequence[str]

    @classmethod
    def from_def(cls, definition: ClassDef, trace_names: Sequence[str]) -> "EventClass":
        return cls(
            name=definition.name,
            process=definition.process,
            etype=definition.etype,
            text=definition.text,
            trace_names=tuple(trace_names),
        )

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def event_attrs(self, event: Event) -> Dict[str, str]:
        """The three attribute values of an event, as strings."""
        return {
            "process": self._trace_name(event.trace),
            "type": event.etype,
            "text": event.text,
        }

    def _trace_name(self, trace: int) -> str:
        if 0 <= trace < len(self.trace_names):
            return self.trace_names[trace]
        return str(trace)

    @functools.cached_property
    def _exact_and_vars(self) -> Tuple[tuple, tuple]:
        """The (process, type, text) values required exactly (``None``
        where not exact), and ``(attribute position, variable name)``
        for the variable attributes in that same order."""
        exact = []
        variables = []
        for position, spec in enumerate((self.process, self.etype, self.text)):
            if not isinstance(spec, (Wildcard, Exact, AttrVar)):
                raise TypeError(f"unknown attribute spec {spec!r}")
            exact.append(spec.value if isinstance(spec, Exact) else None)
            if isinstance(spec, AttrVar):
                variables.append((position, spec.name))
        return tuple(exact), tuple(variables)

    def matches(self, event: Event, bindings: Optional[Bindings] = None) -> Optional[Bindings]:
        """Match an event against this class under a binding environment.

        Returns the (possibly extended) bindings on success, ``None``
        on mismatch.  The input environment is never mutated: it is
        copied only when a variable is newly bound, and returned as is
        when the class binds nothing new.
        """
        (process, etype, text), variables = self._exact_and_vars
        # exact attributes first: refuting them needs no environment
        if etype is not None and etype != event.etype:
            return None
        if text is not None and text != event.text:
            return None
        trace = event.trace
        if (
            process is not None
            and process != self._trace_name(trace)
            and process != str(trace)
        ):
            return None
        env = bindings
        for position, name in variables:
            if position == 0:
                value, alias = self._trace_name(trace), str(trace)
            else:
                value = event.etype if position == 1 else event.text
                alias = None
            bound = env.get(name) if env else None
            if bound is None:
                if env is bindings:
                    env = dict(bindings) if bindings else {}
                env[name] = value
            elif bound != value and bound != alias:
                return None
        return {} if env is None else env

    def could_match(self, event: Event) -> bool:
        """Match ignoring variables (used to size candidate histories)."""
        return self.matches(event, None) is not None

    # ------------------------------------------------------------------
    # Search hints
    # ------------------------------------------------------------------

    @functools.cached_property
    def _trace_ids(self) -> Dict[str, int]:
        """Name (and stringified number) -> trace id, first wins —
        mirrors the linear scan :meth:`pinned_trace` used to do, at
        dict-lookup cost per resolution."""
        ids: Dict[str, int] = {}
        for trace, name in enumerate(self.trace_names):
            ids.setdefault(name, trace)
            ids.setdefault(str(trace), trace)
        return ids

    def pinned_trace(self, bindings: Optional[Bindings]) -> Optional[int]:
        """The only trace this class can match on, when the process
        attribute is exact or already bound — lets the matcher skip the
        trace sweep entirely.  ``None`` when unresolved."""
        value: Optional[str] = None
        if isinstance(self.process, Exact):
            value = self.process.value
        elif isinstance(self.process, AttrVar) and bindings:
            value = bindings.get(self.process.name)
        if value is None:
            return None
        # -1 = resolved to a nonexistent trace: matches nowhere
        return self._trace_ids.get(value, -1)

    def etypes(self) -> Optional[frozenset]:
        """The event types this class names exactly, or ``None`` when
        the type attribute is a wildcard or variable (any type may
        match) — the routing key of per-event dispatch."""
        if isinstance(self.etype, Exact):
            return frozenset((self.etype.value,))
        return None

    def required_text(self, bindings: Optional[Bindings]) -> Optional[str]:
        """The exact text a candidate must carry, when determinable —
        enables indexed candidate lookup.  ``None`` when unresolved."""
        if isinstance(self.text, Exact):
            return self.text.value
        if isinstance(self.text, AttrVar) and bindings:
            return bindings.get(self.text.name)
        return None

    def __repr__(self) -> str:
        def show(spec: AttrSpec) -> str:
            if isinstance(spec, Wildcard):
                return "''"
            if isinstance(spec, Exact):
                return spec.value
            return f"${spec.name}"

        return (
            f"EventClass({self.name} := [{show(self.process)}, "
            f"{show(self.etype)}, {show(self.text)}])"
        )


@dataclasses.dataclass(frozen=True)
class UnionClass:
    """A disjunction of event classes (``A \\/ B``) occupying one
    pattern position.

    Alternatives are tried left to right; the first branch that matches
    wins.  Each branch is matched against a *copy* of the incoming
    binding environment, so attribute-variable bindings made by a
    failing branch never leak into the next branch (per-branch
    scoping) — only the winning branch's extensions are returned.

    The search hints are deliberately conservative: a hint is offered
    only when *every* alternative agrees on it; the introspectable
    ``process``/``etype``/``text`` attribute specs read as wildcards so
    generic code (e.g. the evaluation-order heuristic) never assumes a
    constraint that only one branch would enforce.
    """

    name: str
    alternatives: Tuple[EventClass, ...]

    def __post_init__(self) -> None:
        if len(self.alternatives) < 2:
            raise ValueError("a union class needs at least two alternatives")

    @classmethod
    def from_defs(
        cls,
        definitions: Sequence[ClassDef],
        trace_names: Sequence[str],
    ) -> "UnionClass":
        branches = tuple(
            EventClass.from_def(d, trace_names) for d in definitions
        )
        return cls(
            name=" \\/ ".join(b.name for b in branches),
            alternatives=branches,
        )

    # Generic attribute introspection sees an unconstrained class.
    @property
    def process(self) -> AttrSpec:
        return Wildcard()

    @property
    def etype(self) -> AttrSpec:
        return Wildcard()

    @property
    def text(self) -> AttrSpec:
        return Wildcard()

    @property
    def trace_names(self) -> Sequence[str]:
        return self.alternatives[0].trace_names

    def event_attrs(self, event: Event) -> Dict[str, str]:
        return self.alternatives[0].event_attrs(event)

    def matches(self, event: Event, bindings: Optional[Bindings] = None) -> Optional[Bindings]:
        """First-match-wins over the alternatives, each against the
        incoming environment (``EventClass.matches`` never mutates its
        input, which is what makes the branch scoping sound)."""
        for branch in self.alternatives:
            env = branch.matches(event, bindings)
            if env is not None:
                return env
        return None

    def could_match(self, event: Event) -> bool:
        return any(branch.could_match(event) for branch in self.alternatives)

    # ------------------------------------------------------------------
    # Search hints — only when every branch agrees
    # ------------------------------------------------------------------

    def pinned_trace(self, bindings: Optional[Bindings]) -> Optional[int]:
        pins = {branch.pinned_trace(bindings) for branch in self.alternatives}
        if len(pins) == 1:
            return pins.pop()
        return None

    def etypes(self) -> Optional[frozenset]:
        """Every branch's types; ``None`` when a branch leaves it open."""
        named = [branch.etypes() for branch in self.alternatives]
        return None if None in named else frozenset().union(*named)

    def required_text(self, bindings: Optional[Bindings]) -> Optional[str]:
        texts = {branch.required_text(bindings) for branch in self.alternatives}
        if len(texts) == 1:
            return texts.pop()
        return None

    def __repr__(self) -> str:
        return f"UnionClass({self.name})"
