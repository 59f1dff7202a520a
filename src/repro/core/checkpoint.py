"""Monitor checkpoint and recovery.

An online monitor is expected to survive restarts mid-stream (cf.
Dolev et al., *Efficient On-line Detection of Temporal Patterns*): a
crashed client resumes from its last snapshot plus a dumpfile replay of
the stream suffix, and must converge to the identical final state.

The matcher's entire cross-event state is exactly five structures —
the per-trace delivered counts (readable off the
:class:`~repro.core.gpls.CausalIndex` trace lengths), the GP/LS index
and communication epochs of the stream front it reads, the leaf
histories (with their pruning bookkeeping), the representative subset,
and the evaluation plan cached per trigger leaf (written as the
statistics it was computed from: the order is a function of them) —
everything else is recomputed per trigger.
Serializing those five therefore makes recovery *exact*: a restored
monitor fed the stream suffix takes the same search decisions as an
uninterrupted one, so the final representative subsets are equal, not
merely equivalent.  The crash cell of ``ocep check --crash`` checks
this end to end, including a JSON round-trip of the snapshot.

The checkpoint is a JSON-ready dict; :func:`save_checkpoint` /
:func:`load_checkpoint` handle file persistence.  Event payloads reuse
the POET dump record layout (:meth:`repro.events.event.Event.to_record`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.patterns.plan import LeafStats, plan_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.matcher import OCEPMatcher

CHECKPOINT_FORMAT = "ocep-checkpoint-v1"

PathLike = Union[str, Path]

#: The matcher's plain-int hot-path counters captured in a checkpoint.
_COUNTER_FIELDS = (
    "events_processed",
    "searches_run",
    "searches_truncated",
    "forward_steps",
    "candidates_scanned",
    "empty_slice_conflicts",
    "domain_conflicts",
    "back_jumps",
    "backtracks",
    "matches_found",
    "window_rejections",
    "negation_vetoes",
    "kleene_group_events",
    "plans_computed",
)


class CheckpointError(ValueError):
    """A checkpoint is malformed or does not fit the restoring monitor."""


def matcher_checkpoint(matcher: "OCEPMatcher") -> dict:
    """Snapshot a matcher's complete cross-event state (JSON-ready)."""
    if matcher.pinned is not None:
        return matcher.pinned
    return {
        "format": CHECKPOINT_FORMAT,
        "num_traces": matcher.num_traces,
        "num_leaves": matcher.pattern.num_leaves,
        "delivered": [
            matcher.index.trace_length(t) for t in range(matcher.num_traces)
        ],
        "counters": {name: getattr(matcher, name) for name in _COUNTER_FIELDS},
        "index": matcher.index.snapshot(),
        "history": matcher.history.snapshot(),
        "subset": matcher.subset.snapshot(),
        # per planned trigger leaf: its refresh stamp and the (size,
        # traces) row per leaf the plan was computed from
        "plans": [
            [leaf, stamp, [[row.size, row.traces] for row in plan.stats]]
            for leaf, (stamp, plan) in matcher._plans.items()
        ],
        # only present for patterns with negations — absent keys keep
        # pre-v2 checkpoints loadable
        **(
            {"negation_history": matcher.negation_history.snapshot()}
            if matcher.negation_history is not None
            else {}
        ),
    }


def restore_matcher(matcher: "OCEPMatcher", state: dict) -> None:
    """Load a checkpoint into a freshly constructed matcher.

    The matcher must have been built for the same pattern shape and
    trace count and must not have processed any events yet.
    """
    try:
        fmt = state["format"]
        num_traces = int(state["num_traces"])
        num_leaves = int(state["num_leaves"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unknown checkpoint format {fmt!r}")
    if num_traces != matcher.num_traces:
        raise CheckpointError(
            f"checkpoint is for {num_traces} traces, "
            f"matcher has {matcher.num_traces}"
        )
    if num_leaves != matcher.pattern.num_leaves:
        raise CheckpointError(
            f"checkpoint is for a {num_leaves}-leaf pattern, "
            f"matcher's pattern has {matcher.pattern.num_leaves}"
        )
    if matcher.events_processed:
        raise CheckpointError(
            "can only restore into a fresh matcher "
            f"(this one already processed {matcher.events_processed} events)"
        )
    try:
        lengths = [int(n) for n in state["index"]["lengths"]]
        epochs = [int(e) for e in state["history"]["comm_epoch"]]
        if len(lengths) != num_traces or len(epochs) != num_traces:
            raise CheckpointError(
                f"index/epoch rows are not {num_traces} traces wide"
            )
        if matcher._owns_front:
            matcher.index.restore(state["index"])
            matcher.front.comm_epoch[:] = epochs
        matcher.history.restore(state["history"])
        matcher.subset.restore(state["subset"])
        if matcher.negation_history is not None:
            negation_state = state.get("negation_history")
            if negation_state is not None:
                matcher.negation_history.restore(negation_state)
        # .get: a checkpoint older than the key restores unplanned
        for leaf, stamp, rows in state.get("plans", ()):
            stats = dict(enumerate(LeafStats(*map(int, row)) for row in rows))
            matcher._plans[int(leaf)] = (int(stamp), plan_order(
                matcher.pattern, int(leaf), stats, matcher.history.histories
            ))
        counters = state["counters"]
        for name in _COUNTER_FIELDS:
            # .get: counters added after a checkpoint was taken
            # restore as zero
            setattr(matcher, name, int(counters.get(name, 0)))
        matcher.watermark = lengths
        if not matcher._owns_front:
            # The shared index is rebuilt by replaying the stream, not
            # loaded: other readers of it may sit at other positions.
            matcher.pinned = state
            matcher.front.resuming += 1
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(f"corrupt checkpoint body: {exc!r}") from exc


def save_checkpoint(path: PathLike, state: dict) -> None:
    """Persist a checkpoint dict as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
        fh.write("\n")


def load_checkpoint(path: PathLike) -> dict:
    """Read a checkpoint previously written by :func:`save_checkpoint`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: unparseable checkpoint: {exc}") from exc
    if not isinstance(state, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    return state
