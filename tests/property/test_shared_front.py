"""One stream front: a dispatcher of N shards == N standalone monitors.

The dispatcher validates, indexes and types each event once and hands
it only to the shards whose pattern names its type; a standalone
``Monitor`` keeps a private front and is handed everything.  Both must
produce the same reports, representative subset, ``counters()`` (with
``events_processed`` meaning stream position) and checkpoint document,
per shard, on the batch and on the per-event path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Monitor
from repro.engine import CASES, Pipeline, ShardedDispatcher
from repro.testing import random_computation

from tests.integration.test_routing_scaling import multi_tenant_patterns, record

CLASSES = "X := ['', A, '']; Y := ['', B, '']; Z := ['', C, ''];"

#: Every way a pattern can name (or not name) an event type.
SOURCES = {
    "exact": CLASSES + "pattern := X -> Y;",
    "concurrent": CLASSES + "pattern := X || Z;",
    "wildcard_etype": "W := [P0, '', '']; Y := ['', B, '']; pattern := W -> Y;",
    "variable_etype": "V := ['', $k, '']; U := ['', $k, t]; pattern := V -> U;",
    "union": CLASSES + "pattern := X \\/ Y -> Z;",
    "negation": CLASSES + "pattern := X -> !Z -> Y;",
    "kleene": CLASSES + "pattern := X -> Y+;",
    "partner": "S := ['', Send, '']; R := ['', Receive, '']; pattern := S <> R;",
    "absent_types": "Q := ['', Q1, '']; R := ['', Q2, '']; pattern := Q -> R;",
}


def assert_shards_equal_standalone(sources, names, events, slice_size):
    """Feed ``events`` to one dispatcher watching ``sources`` (in slices
    of ``slice_size``; 0 = per event) and to one standalone monitor per
    source, and compare shard by shard."""
    dispatcher = ShardedDispatcher(names)
    for name, source in sources.items():
        dispatcher.watch(name, source)
    if slice_size:
        for start in range(0, len(events), slice_size):
            dispatcher.on_batch(events[start:start + slice_size])
    else:
        for event in events:
            dispatcher.on_event(event)
    assert not dispatcher.quarantined
    for name, source in sources.items():
        alone = Monitor.from_source(source, names)
        alone.on_batch(events)
        shard = dispatcher[name]
        assert shard.reports == alone.reports, name
        assert shard.subset.signature() == alone.subset.signature(), name
        assert shard.matcher.counters() == alone.matcher.counters(), name
        assert shard.stats() == alone.stats(), name
        assert shard.checkpoint() == alone.checkpoint(), name
        assert len(shard.terminating_timings) == shard.matcher.searches_run
        assert len(shard.timings) <= len(alone.timings) == len(events)


@st.composite
def schedule_and_patterns(draw):
    num_traces = draw(st.integers(min_value=2, max_value=4))
    steps = draw(st.integers(min_value=10, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    backend = draw(st.sampled_from(("fidge", "encoded")))
    chosen = draw(
        st.lists(st.sampled_from(sorted(SOURCES)), min_size=1, unique=True)
    )
    slice_size = draw(st.sampled_from((0, 1, 3, 16, 256)))
    weaver = random_computation(
        seed, num_traces, steps, texts=("", "t"), clock_backend=backend
    )
    sources = {name: SOURCES[name] for name in chosen}
    return num_traces, weaver.events, sources, slice_size


class TestDispatcherEqualsStandaloneMonitors:
    @given(schedule_and_patterns())
    @settings(max_examples=120, deadline=None)
    def test_random_schedules_and_pattern_sets(self, data):
        num_traces, events, sources, slice_size = data
        names = [f"P{i}" for i in range(num_traces)]
        assert_shards_equal_standalone(sources, names, events, slice_size)

    @pytest.mark.parametrize("slice_size", [0, 64])
    def test_every_kind_of_pattern_at_once(self, slice_size):
        events = random_computation(11, 4, 400, texts=("", "t")).events
        names = [f"P{i}" for i in range(4)]
        assert_shards_equal_standalone(SOURCES, names, events, slice_size)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case_streams_with_every_case_pattern(self, case, seed):
        pipeline = Pipeline.for_case(case, traces=4, seed=seed)
        recorder = pipeline.record()
        pipeline.run(max_events=400)
        names = list(pipeline.trace_names)
        sources = {
            name: study.pattern(len(names)) for name, study in CASES.items()
        }
        assert_shards_equal_standalone(
            sources, names, recorder.events, 64 if seed % 2 else 0
        )

    @pytest.mark.parametrize("slice_size", [0, 256])
    def test_the_eight_multi_tenant_patterns(self, slice_size):
        sources = multi_tenant_patterns()
        assert len(sources) == 8
        events, names = record(size=12, traces=6)
        assert_shards_equal_standalone(sources, names, events, slice_size)
