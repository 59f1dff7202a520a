"""The representative subset of matches.

Paper, Section IV-B: reporting *all* matches of a pattern over
unbounded processes needs unbounded memory.  OCEP instead maintains a
representative subset: it "will report if any of the constituent
events in the pattern has occurred on any of the processes and is part
of a complete match".  A subset chosen this way has cardinality at
most ``k * n`` (``k`` pattern events, ``n`` traces) because each
stored match must cover at least one previously uncovered
``(pattern event, trace)`` slot.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set, Tuple

from repro.events.event import Event

#: A representative-subset slot: (leaf id, trace id).
Slot = Tuple[int, int]

#: A complete match: leaf id -> matched event.
Assignment = Dict[int, Event]


#: Kleene-group expansions riding a match: (leaf id, group events).
Groups = Tuple[Tuple[int, Tuple[Event, ...]], ...]


@dataclasses.dataclass(frozen=True)
class StoredMatch:
    """A match retained in the subset, with the slots it covered.

    ``groups`` carries the Kleene-group expansions of the match (empty
    for patterns without Kleene positions — and absent from snapshots
    taken before groups existed, which restore as empty)."""

    assignment: Tuple[Tuple[int, Event], ...]
    new_slots: Tuple[Slot, ...]
    groups: Groups = ()

    def as_dict(self) -> Assignment:
        return dict(self.assignment)


class RepresentativeSubset:
    """Bounded store of pattern matches covering every occupied slot.

    ``update`` implements the paper's ``updateSubset``: a match is
    added exactly when it covers a slot no stored match covers yet.
    """

    def __init__(self, num_leaves: int, num_traces: int):
        self.num_leaves = num_leaves
        self.num_traces = num_traces
        self._covered: Set[Slot] = set()
        self._matches: List[StoredMatch] = []

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(
        self, assignment: Assignment, groups: Groups = ()
    ) -> Tuple[Slot, ...]:
        """Consider a complete match; returns the newly covered slots
        (empty when the match was redundant and not stored).

        A Kleene group extends the coverage of its leaf: every member's
        trace counts as an occurrence of the pattern position there, so
        a match whose group spans a previously uncovered trace is
        retained even when its anchor trace was covered."""
        slots = {
            (leaf_id, event.trace) for leaf_id, event in assignment.items()
        }
        for leaf_id, events in groups:
            for event in events:
                slots.add((leaf_id, event.trace))
        new = slots - self._covered
        if not new:
            return ()
        new_slots = tuple(sorted(new))
        self._covered.update(new_slots)
        self._matches.append(
            StoredMatch(
                assignment=tuple(sorted(assignment.items())),
                new_slots=new_slots,
                groups=groups,
            )
        )
        return new_slots

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_covered(self, leaf_id: int, trace: int) -> bool:
        """True when a stored match already covers the slot."""
        return (leaf_id, trace) in self._covered

    @property
    def covered_slots(self) -> Set[Slot]:
        return set(self._covered)

    @property
    def matches(self) -> List[StoredMatch]:
        """The stored matches, in discovery order."""
        return list(self._matches)

    def __len__(self) -> int:
        return len(self._matches)

    def check_bound(self) -> bool:
        """The ``k * n`` cardinality invariant (paper, Section IV-B)."""
        return len(self._matches) <= self.num_leaves * self.num_traces

    def signature(self) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
        """Canonical, order-sensitive identity of the stored matches:
        one ``(leaf_id, trace, index)`` triple per assignment entry,
        followed by one triple per Kleene-group member (patterns
        without groups contribute none, keeping legacy signatures
        unchanged).  Two runs that discovered the same matches in the
        same order have equal signatures — the equality the chaos
        harness checks against its fault-free oracle."""
        return tuple(
            tuple(
                (leaf_id, event.trace, event.index)
                for leaf_id, event in match.assignment
            )
            + tuple(
                (leaf_id, event.trace, event.index)
                for leaf_id, events in match.groups
                for event in events
            )
            for match in self._matches
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy of covered slots and stored matches."""
        return {
            "covered": sorted([leaf, trace] for leaf, trace in self._covered),
            "matches": [
                {
                    "assignment": [
                        [leaf_id, event.to_record()]
                        for leaf_id, event in match.assignment
                    ],
                    "new_slots": [list(slot) for slot in match.new_slots],
                    "groups": [
                        [leaf_id, [event.to_record() for event in events]]
                        for leaf_id, events in match.groups
                    ],
                }
                for match in self._matches
            ],
        }

    def restore(self, state: dict) -> None:
        """Rebuild from a :meth:`snapshot` (the subset must be fresh)."""
        from repro.events.event import event_from_record

        if self._matches or self._covered:
            raise ValueError("can only restore into an empty subset")
        self._covered = {(int(l), int(t)) for l, t in state["covered"]}
        self._matches = [
            StoredMatch(
                assignment=tuple(
                    (int(leaf_id), event_from_record(record))
                    for leaf_id, record in entry["assignment"]
                ),
                new_slots=tuple(
                    (int(l), int(t)) for l, t in entry["new_slots"]
                ),
                # absent in pre-groups snapshots: restore as empty
                groups=tuple(
                    (
                        int(leaf_id),
                        tuple(event_from_record(r) for r in records),
                    )
                    for leaf_id, records in entry.get("groups", ())
                ),
            )
            for entry in state["matches"]
        ]
