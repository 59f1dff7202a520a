"""Each event is typed once per deployment, not once per shard.

The dispatcher admits an event into the shared front (one
``CausalIndex.observe``), probes the route table once and calls
``matcher.on_event`` only on the shards whose pattern names the event's
type.  Counted deterministically, not timed: a dispatcher that goes
back to offering every event to every shard multiplies both counts by
the number of shards.  The admission itself stays flat in the trace
count: the index holds at most one entry per receive until a search
reads a column.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.gpls import CausalIndex
from repro.engine import Pipeline, ShardedDispatcher
from repro.events.event import EventKind
from repro.workloads import build_ordering_bug, ordering_bug_pattern

PATTERN_DIR = Path(__file__).resolve().parents[2] / "benchmarks/e2e/patterns"


def multi_tenant_patterns():
    patterns = {"ordering": ordering_bug_pattern()}
    for path in sorted(PATTERN_DIR.glob("*.pat")):
        patterns[path.stem] = path.read_text()
    return patterns


def record(size, traces=12, seed=7):
    pipeline = Pipeline.for_workload(build_ordering_bug(
        num_traces=traces, seed=seed, synchs_per_follower=size,
        bug_probability=0.05,
    ))
    recorder = pipeline.record()
    pipeline.run()
    return recorder.events, list(pipeline.trace_names)


def absent_type_patterns(count):
    """Patterns naming event types no stream of this workload carries."""
    return {
        f"absent{i}": (
            f"Q := ['', Absent_{i}a, '']; R := ['', Absent_{i}b, ''];"
            "pattern := Q -> R;"
        )
        for i in range(count)
    }


def counted_run(monkeypatch, patterns, events, names, slice_size=256):
    """``(matcher.on_event calls, CausalIndex.observe calls, dispatcher)``
    of one pass over ``events``."""
    dispatcher = ShardedDispatcher(names)
    calls = {"matcher": 0, "observe": 0}
    for name, source in patterns.items():
        matcher = dispatcher.watch(name, source, record_timings=False).matcher
        plain = matcher.on_event

        def counting(event, _plain=plain):
            calls["matcher"] += 1
            return _plain(event)

        # an instance attribute, like the benchmark's layer wrappers:
        # the monitor must look the seam up at call time
        matcher.on_event = counting
    plain_observe = CausalIndex.observe

    def counting_observe(self, event):
        calls["observe"] += 1
        return plain_observe(self, event)

    with monkeypatch.context() as patch:
        patch.setattr(CausalIndex, "observe", counting_observe)
        if slice_size == 1:
            for event in events:
                dispatcher.on_event(event)
        for start in range(0, len(events) if slice_size > 1 else 0, slice_size):
            dispatcher.on_batch(events[start:start + slice_size])
    assert not dispatcher.quarantined
    return calls["matcher"], calls["observe"], dispatcher


def test_calls_stay_flat_when_shards_naming_absent_types_are_added(monkeypatch):
    events, names = record(size=20)
    patterns = multi_tenant_patterns()
    base_calls, base_observes, base = counted_run(
        monkeypatch, patterns, events, names
    )
    more = dict(patterns, **absent_type_patterns(8))
    more_calls, more_observes, wide = counted_run(
        monkeypatch, more, events, names
    )
    assert base_observes == more_observes == len(events)
    assert more_calls == base_calls < len(events) * len(patterns)
    for name, monitor in wide:
        # stream position, routed or not
        assert monitor.matcher.events_processed == len(events)
        if name.startswith("absent"):
            assert monitor.timings == []
    for name in patterns:
        assert wide[name].reports == base[name].reports
        assert wide[name].matcher.counters() == base[name].matcher.counters()


def test_per_event_delivery_routes_the_same_way(monkeypatch):
    events, names = record(size=8)
    patterns = dict(multi_tenant_patterns(), **absent_type_patterns(2))
    batch_calls, batch_observes, _ = counted_run(
        monkeypatch, patterns, events, names
    )
    event_calls, event_observes, _ = counted_run(
        monkeypatch, patterns, events, names, slice_size=1
    )
    assert (event_calls, event_observes) == (batch_calls, batch_observes)


@pytest.mark.parametrize("traces", [48, 96])
def test_index_holds_one_entry_per_receive_at_most(traces):
    """A receive records its knowledge row, not the columns it raises:
    with no least-successor read, the index stays flat in the width."""
    events, _ = record(size=4, traces=traces)
    index = CausalIndex(traces)
    for event in events:
        index.observe(event)
    receives = sum(event.kind is EventKind.RECEIVE for event in events)
    assert receives > 0
    assert index.index_size() <= receives


def test_multi_tenant_benchmark_counts(monkeypatch):
    """The counts ISSUE 16 named beforehand for ``multi_tenant`` seed 7:
    116,736 = 14,592 x 8 before the shared front."""
    events, names = record(size=120)
    calls, observes, _ = counted_run(
        monkeypatch, multi_tenant_patterns(), events, names
    )
    assert len(events) == 14_592
    assert observes == 14_592
    assert calls == 29_112
