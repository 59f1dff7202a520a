"""The hold-back buffer's release rule, against a brute-force reference.

An event ``e`` on trace ``t`` is released once exactly ``V[t] - 1``
events of ``t`` and at least ``V[m]`` of every other trace ``m`` have
been; among ready events the earliest arrival goes first.  The buffer
evaluates that rule through shortcuts — the own index first, then for
an encoded clock the identity of its interned knowledge row with the
row last released on its trace, else one pass over the row.  Here
random computations (encoded and full-vector clocks), perturbed by
every delivery fault, are offered in slices of 1, 3 and 256: the
released sequence, ``stats()`` and ``missing_predecessors()`` must
equal a reference that applies the rule component by component, and
the per-event path.  The injector's sliced output must equal its
per-event output too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poet import RecordingClient
from repro.poet.holdback import HoldbackBuffer
from repro.resilience import FaultInjector, FaultPlan
from repro.testing import random_computation

PLANS = {
    "delay": lambda: FaultPlan.delay(0.3, max_delay=4),
    "reorder": lambda: FaultPlan.reorder(0.3),
    "duplicate": lambda: FaultPlan.duplicate(0.3, max_delay=3),
    "drop": lambda: FaultPlan.drop(0.3, max_faults=2),
}


def _slices(events, size):
    return [events[i:i + size] for i in range(0, len(events), size)]


def _perturb(plan, events, seed, size):
    sink = RecordingClient()
    injector = FaultInjector(plan, sink, seed=seed)
    for part in _slices(events, size):
        injector.on_batch(part)
    injector.flush()
    return sink.events


def _reference(arrivals, num_traces):
    """The counting rule, read component by component, with nothing
    cached: (released sequence, stats, missing predecessors)."""
    released = [0] * num_traces
    pending = []
    out = []
    duplicates = reordered = 0

    def ready(event):
        clock = list(event.clock)
        return all(
            released[m] == clock[m] - 1 if m == event.trace
            else clock[m] <= released[m]
            for m in range(num_traces)
        )

    def release(event):
        released[event.trace] += 1
        out.append(event)

    for event in arrivals:
        if event.index <= released[event.trace] or any(
            held.event_id == event.event_id for held in pending
        ):
            duplicates += 1
            continue
        if not ready(event):
            pending.append(event)
            reordered += 1
            continue
        release(event)
        while True:
            first = next((held for held in pending if ready(held)), None)
            if first is None:
                break
            pending.remove(first)
            release(first)

    held_ids = {(held.trace, held.index) for held in pending}
    missing = set()
    for held in pending:
        clock = list(held.clock)
        for m in range(num_traces):
            need = held.index - 1 if m == held.trace else clock[m]
            for index in range(released[m] + 1, need + 1):
                if (m, index) not in held_ids:
                    missing.add((m, index))
    stats = {
        "offers": len(arrivals),
        "pending": len(pending),
        "released": len(out),
        "reordered": reordered,
        "duplicates": duplicates,
        "shed": 0,
        "stalls": 0,
        "stalled": 0,
    }
    return out, stats, sorted(missing)


def _hold_back(arrivals, num_traces, size):
    sink = RecordingClient()
    buf = HoldbackBuffer(num_traces, sink)
    if size is None:
        for event in arrivals:
            buf.on_event(event)
    else:
        for part in _slices(arrivals, size):
            buf.on_batch(part)
    leftover = buf.flush()
    missing = [(eid.trace, eid.index) for eid in buf.missing_predecessors()]
    return sink.events, buf.stats(), missing, leftover


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_traces=st.integers(min_value=1, max_value=4),
    steps=st.integers(min_value=1, max_value=40),
    backend=st.sampled_from(("encoded", "fidge")),
    plan=st.sampled_from(sorted(PLANS)),
    fault_seed=st.integers(min_value=0, max_value=50),
    size=st.sampled_from((1, 3, 256)),
)
def test_release_equals_the_counting_rule_and_the_per_event_path(
    seed, num_traces, steps, backend, plan, fault_seed, size
):
    events = random_computation(
        seed, num_traces=num_traces, steps=steps, clock_backend=backend
    ).events
    arrivals = _perturb(PLANS[plan](), events, fault_seed, 1)
    assert _perturb(PLANS[plan](), events, fault_seed, size) == arrivals

    expected, stats, missing = _reference(arrivals, num_traces)
    sliced = _hold_back(arrivals, num_traces, size)
    assert sliced[0] == expected
    assert sliced[1] == stats
    assert sliced[2] == missing
    assert sliced == _hold_back(arrivals, num_traces, None)
    if plan != "drop":
        assert expected == events  # the exact original order is restored
