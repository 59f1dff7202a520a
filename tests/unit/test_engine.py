"""Unit tests for the staged pipeline engine.

Covers the case registry, the pipeline's lifecycle guard rails, the
sharded dispatcher's checkpoint document, batch/per-event delivery
identity, and the MonitorStats freshness contract (size gauges
refreshed on every delivery path and on restore; ``matches_reported``
converging after recovery).
"""

import json

import pytest

from repro.core.checkpoint import CheckpointError
from repro.core.config import MatcherConfig
from repro.core.monitor import Monitor
from repro.engine import (
    CASE_STUDY_NAMES,
    CASES,
    CHECKPOINT_FORMAT,
    Pipeline,
    ShardedDispatcher,
    build_case,
    case_patterns,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import FaultPlan
from repro.testing import Weaver

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"
BA = "B := ['', B, '']; A := ['', A, '']; pattern := B -> A;"


def _ab_stream():
    """A small three-trace stream with several A -> B matches."""
    w = Weaver(3)
    w.local(0, "A")
    w.local(1, "A")
    w.message(0, 2)
    w.local(2, "B")
    w.message(1, 2)
    w.local(2, "B")
    w.local(0, "A")
    w.message(0, 1)
    w.local(1, "B")
    return w.events


TRACES = ["P0", "P1", "P2"]


@pytest.fixture(scope="module")
def race_midpoint():
    """A 600-event race recording and a four-shard checkpoint of its
    first half, round-tripped through JSON as a crash would."""
    source = Pipeline.for_case("race", traces=4, seed=2)
    recorder = source.record()
    source.run(max_events=600)
    events, names = list(recorder.events), list(source.trace_names)
    prefix = Pipeline.replay(events[: len(events) // 2], names)
    for name, pattern in case_patterns(4).items():
        prefix.watch(name, pattern)
    state = json.loads(json.dumps(prefix.run().checkpoint()))
    assert len(state["shards"]) == 4
    return events, names, state


class TestCaseRegistry:
    def test_case_study_names_are_registered(self):
        for name in CASE_STUDY_NAMES:
            assert name in CASES

    def test_build_case_returns_workload_and_pattern(self):
        workload, pattern = build_case("race", traces=3, seed=1)
        assert hasattr(workload, "kernel")
        assert hasattr(workload, "server")
        assert hasattr(workload, "run")
        assert "pattern :=" in pattern

    def test_case_patterns_covers_the_four_studies(self):
        patterns = case_patterns(4)
        assert set(patterns) == set(CASE_STUDY_NAMES)

    def test_unknown_case_raises(self):
        with pytest.raises(KeyError, match="unknown case"):
            Pipeline.for_case("not-a-case")


class TestPipelineLifecycle:
    def test_runs_exactly_once(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES)
        pipeline.watch("ab", AB)
        pipeline.run()
        with pytest.raises(RuntimeError, match="runs once"):
            pipeline.run()

    def test_watch_after_run_raises(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES)
        pipeline.watch("ab", AB)
        pipeline.run()
        with pytest.raises(RuntimeError, match="missed the whole stream"):
            pipeline.watch("late", AB)

    @pytest.mark.parametrize("method, args", [
        ("watch", ("late", BA)),
        ("with_faults", (FaultPlan.drop(0.5),)),
        ("with_holdback", ()),
        ("with_overload_control", ()),
        ("with_server", ()),
        ("record", ()),
        ("restore", ({"format": CHECKPOINT_FORMAT, "shards": {}},)),
    ])
    @pytest.mark.parametrize("drive", ["feed", "run"])
    def test_configuring_a_driven_pipeline_raises(self, method, args, drive):
        """A stage added after delivery began would never be inserted
        (or would miss the prefix): every configuration method refuses,
        naming itself, instead of being silently ignored."""
        events = _ab_stream()
        pipeline = Pipeline.replay(events, TRACES)
        pipeline.watch("ab", AB)
        if drive == "feed":
            pipeline.feed(events[:4])
        else:
            pipeline.run()
        with pytest.raises(RuntimeError, match=rf"cannot {method}\(\)"):
            getattr(pipeline, method)(*args)
        if drive == "feed":
            result = pipeline.finish()
            assert result.injector is None and result.holdback is None
            assert result.shedder is None and result.obs_server is None

    def test_feed_on_a_live_pipeline_raises(self):
        pipeline = Pipeline.for_case("race", traces=3, seed=0)
        with pytest.raises(RuntimeError, match="live pipeline"):
            pipeline.feed(_ab_stream())

    def test_restore_without_shards_raises(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES)
        with pytest.raises(RuntimeError, match="watched first"):
            pipeline.restore({"format": CHECKPOINT_FORMAT, "shards": {}})

    def test_invalid_batch_size_raises(self):
        pipeline = Pipeline.replay(_ab_stream(), TRACES)
        pipeline.watch("ab", AB)
        with pytest.raises(ValueError, match="batch_size"):
            pipeline.run(batch_size=0)

    def test_duplicate_fault_and_holdback_stages_raise(self):
        from repro.resilience.faults import FaultPlan

        pipeline = Pipeline.replay(_ab_stream(), TRACES)
        pipeline.with_faults(FaultPlan(kind="none"))
        with pytest.raises(RuntimeError, match="fault stage"):
            pipeline.with_faults(FaultPlan(kind="none"))
        pipeline.with_holdback()
        with pytest.raises(RuntimeError, match="hold-back stage"):
            pipeline.with_holdback()


class TestBatchDeliveryIdentity:
    def _replay(self, batch_size):
        pipeline = Pipeline.replay(_ab_stream(), TRACES)
        monitor = pipeline.watch("ab", AB)
        pipeline.run(batch_size=batch_size)
        return pipeline, monitor

    def test_batched_equals_per_event(self):
        _, per_event = self._replay(batch_size=1)
        _, batched = self._replay(batch_size=4)
        assert per_event.reports, "the stream must contain matches"
        assert batched.reports == per_event.reports
        assert batched.subset.signature() == per_event.subset.signature()
        assert batched.stats() == per_event.stats()

    def test_batched_path_is_actually_taken(self):
        """``batch_size`` is the slice size all the way to the
        dispatcher, which counts every slice it is handed: a slice of
        one too, which runs the same per-event body as a longer one."""
        total = len(_ab_stream())
        pipeline, _ = self._replay(batch_size=4)
        assert pipeline.dispatcher.batches_seen == total // 4
        per_event_pipeline, _ = self._replay(batch_size=1)
        assert per_event_pipeline.dispatcher.batches_seen == total

    def _faulty_replay(self, batch_size, registry=None):
        pipeline = Pipeline.replay(_ab_stream(), TRACES, registry=registry)
        pipeline.with_faults(FaultPlan.delay(0.5, max_delay=3), seed=1)
        pipeline.with_holdback()
        monitor = pipeline.watch("ab", AB)
        result = pipeline.run(batch_size=batch_size)
        return pipeline, monitor, result

    def test_batched_equals_per_event_through_faults_and_holdback(self):
        """Slices survive the fault injector: it hands a slice's output
        to the hold-back buffer in one call, and the output is the
        per-event path's."""
        _, per_event, per_result = self._faulty_replay(1)
        _, batched, result = self._faulty_replay(4)
        assert result.holdback.reordered_total > 0, "faults must bite"
        assert result.leftover == per_result.leftover == []
        assert per_event.reports, "the stream must contain matches"
        assert batched.reports == per_event.reports
        assert batched.subset.signature() == per_event.subset.signature()
        assert batched.stats() == per_event.stats()
        assert result.holdback.stats() == per_result.holdback.stats()

    def test_the_holdback_is_handed_whole_slices(self):
        """What a slice of arrivals leaves the injector with reaches
        the hold-back buffer as one delivery: wider than one event, and
        never wider than the slice plus the event the injector held
        back from an earlier one."""
        registry = MetricsRegistry()
        self._faulty_replay(4, registry=registry)
        sizes = registry.get(
            "ocep_stage_batch_size_events", {"stage": "holdback"}
        )
        assert sizes.count > 0
        assert 1 < sizes.max <= 4 + 1

    def test_registry_does_not_change_the_delivery_path(self):
        """The stage links a registry interposes hand on what they are
        given: a hold-back release reaches the dispatcher as an event,
        with a registry or without one."""
        plain, plain_monitor, _ = self._faulty_replay(4)
        observed, observed_monitor, _ = self._faulty_replay(
            4, registry=MetricsRegistry()
        )
        assert plain.dispatcher.batches_seen == 0
        assert observed.dispatcher.batches_seen == 0
        assert plain_monitor.reports, "the stream must contain matches"
        assert observed_monitor.reports == plain_monitor.reports
        assert observed.dispatcher.signatures() == plain.dispatcher.signatures()

    def test_monitor_on_batch_equals_on_event_loop(self):
        events = _ab_stream()
        one = Monitor.from_source(AB, TRACES)
        for event in events:
            one.on_event(event)
        batched = Monitor.from_source(AB, TRACES)
        batched.on_batch(events[:4])
        batched.on_batch(events[4:])
        assert batched.reports == one.reports
        assert batched.stats() == one.stats()
        assert batched.timings and len(batched.timings) == len(one.timings)


class TestDispatcherCheckpoint:
    def _run_dispatcher(self, events):
        dispatcher = ShardedDispatcher(TRACES)
        dispatcher.watch("ab", AB)
        dispatcher.watch("ba", BA)
        dispatcher.on_batch(events)
        return dispatcher

    def test_checkpoint_document_shape(self):
        dispatcher = self._run_dispatcher(_ab_stream())
        state = dispatcher.checkpoint()
        assert state["format"] == CHECKPOINT_FORMAT
        assert set(state["shards"]) == {"ab", "ba"}
        json.dumps(state)  # must be JSON-ready

    def test_restore_round_trip(self):
        events = _ab_stream()
        first = self._run_dispatcher(events[:5])
        state = json.loads(json.dumps(first.checkpoint()))

        recovered = ShardedDispatcher(TRACES)
        recovered.watch("ab", AB)
        recovered.watch("ba", BA)
        recovered.restore(state)
        recovered.on_batch(events)  # full stream; prefix is skipped

        uninterrupted = self._run_dispatcher(events)
        assert recovered.signatures() == uninterrupted.signatures()
        assert recovered.stats() == uninterrupted.stats()

    def test_restore_rejects_wrong_format(self):
        dispatcher = ShardedDispatcher(TRACES)
        dispatcher.watch("ab", AB)
        with pytest.raises(ValueError, match="not a .*checkpoint"):
            dispatcher.restore({"format": "something-else", "shards": {}})

    def test_restore_rejects_unwatched_shards(self):
        first = self._run_dispatcher(_ab_stream())
        state = first.checkpoint()
        partial = ShardedDispatcher(TRACES)
        partial.watch("ab", AB)
        with pytest.raises(ValueError, match="not watched here"):
            partial.restore(state)

    @pytest.mark.parametrize(
        "document, field",
        [
            ([], "JSON object"),
            ({"format": "something-else"}, "format"),
            ({"format": CHECKPOINT_FORMAT, "shards": {}}, "trace_names"),
            ({"format": CHECKPOINT_FORMAT, "trace_names": ["P0"],
              "shards": {}}, "trace_names"),
            ({"format": CHECKPOINT_FORMAT, "trace_names": TRACES},
             "shards"),
            ({"format": CHECKPOINT_FORMAT, "trace_names": TRACES,
              "shards": None}, "shards"),
            ({"format": CHECKPOINT_FORMAT, "trace_names": TRACES,
              "shards": ["ab"]}, "shards"),
            ({"format": CHECKPOINT_FORMAT, "trace_names": TRACES,
              "shards": {"zz": {}}}, "shards"),
        ],
        ids=["list", "format", "no-trace-names", "other-trace-names",
             "no-shards", "null-shards", "list-shards", "unwatched-shard"],
    )
    def test_malformed_document_names_the_field(self, document, field):
        # A checkpoint file can hold anything that parses as JSON.
        pipeline = Pipeline.stream(TRACES)
        pipeline.watch("ab", AB)
        with pytest.raises(CheckpointError, match=field):
            pipeline.restore(document)

    def test_full_restore_refuses_foreign_shards(self, race_midpoint):
        # A deployment watching one of the four checkpointed shards.
        events, names, state = race_midpoint
        name, source = next(iter(case_patterns(4).items()))
        unit = Pipeline.replay(events, names)
        unit.watch(name, source)
        with pytest.raises(ValueError, match="not watched here"):
            unit.restore(state)

    def test_shard_missing_from_snapshot_stays_fresh(self, race_midpoint):
        # The snapshot covers three shards; the fourth is a new pattern
        # that recomputes from the stream start and still lands on the
        # uninterrupted run.
        events, names, state = race_midpoint
        patterns = case_patterns(4)
        trimmed = json.loads(json.dumps(state))
        del trimmed["shards"][sorted(trimmed["shards"])[0]]
        baseline, unit = (Pipeline.replay(events, names) for _ in range(2))
        for name, source in patterns.items():
            baseline.watch(name, source)
            unit.watch(name, source)
        unit.restore(trimmed)
        expected, result = baseline.run(), unit.run()
        assert result.signatures() == expected.signatures()
        assert result.stats() == expected.stats()


class TestSharedStreamFront:
    """One index, one epoch row, one route table per deployment."""

    def _dispatcher(self, *names):
        dispatcher = ShardedDispatcher(TRACES)
        for name in names:
            dispatcher.watch(name, {"ab": AB, "ba": BA}[name])
        return dispatcher

    def _standalone(self, source, events):
        monitor = Monitor.from_source(source, TRACES)
        monitor.on_batch(events)
        return monitor

    def test_shards_read_one_index_and_one_epoch_row(self):
        dispatcher = self._dispatcher("ab", "ba")
        front = dispatcher.front
        for _name, monitor in dispatcher:
            assert monitor.matcher.front is front
            assert monitor.matcher.index is front.index
            assert monitor.matcher.history._comm_epoch is front.comm_epoch
        dispatcher.on_batch(_ab_stream())
        assert sum(front.comm_epoch) == sum(
            e.kind.is_communication for e in _ab_stream()
        )

    def test_late_watch_joins_at_the_current_stream_position(self):
        """Regression: a pattern watched after events had flowed built
        a fresh index, rejected its first event ('observed event 3,
        expected 1') and was silently quarantined."""
        events = _ab_stream()
        dispatcher = self._dispatcher("ab")
        dispatcher.on_batch(events[:5])
        late = dispatcher.watch("late", AB)
        dispatcher.on_batch(events[5:])
        assert not dispatcher.quarantined
        assert late.matcher.events_processed == len(events) - 5
        # its histories hold the suffix only: A@P0 (7th event) -> B@P1
        assert [r.trigger_event for r in late.reports] == [events[-1]]
        assert all(a.index > 1 for r in late.reports
                   for _leaf, a in r.assignment)
        assert dispatcher["ab"].matcher.events_processed == len(events)

    def test_restored_shard_next_to_a_fresh_one(self):
        events = _ab_stream()
        first = self._dispatcher("ab")
        first.on_batch(events[:5])
        state = json.loads(json.dumps(first.checkpoint()))

        mixed = self._dispatcher("ab", "ba")
        mixed.restore(state)  # "ab" resumes at 5, "ba" starts fresh
        assert mixed["ab"].checkpoint() == state["shards"]["ab"]
        for start in range(0, len(events), 2):
            mixed.on_batch(events[start:start + 2])
        for name, source in (("ab", AB), ("ba", BA)):
            alone = self._standalone(source, events)
            assert mixed[name].matcher.counters() == alone.matcher.counters()
            assert mixed[name].subset.signature() == alone.subset.signature()
            assert mixed[name].checkpoint() == alone.checkpoint()
        assert mixed["ab"].matcher.events_processed == len(events)
        assert mixed.front.resuming == 0

    def test_shard_quarantined_mid_slice_keeps_exact_position(self):
        events = _ab_stream()
        dispatcher = self._dispatcher("ab", "ba")
        bad = dispatcher["ba"]
        victim = events[7]  # the second B: routed to both shards
        plain = bad.matcher.on_event

        def exploding(event):
            if event is victim:
                raise RuntimeError("boom")
            return plain(event)

        bad.matcher.on_event = exploding
        dispatcher.on_batch(events)  # one slice; must not raise
        assert dispatcher.is_quarantined("ba")
        assert bad.matcher.events_processed == 7  # everything before it
        assert bad.checkpoint()["delivered"] == [2, 2, 4]
        good = dispatcher["ab"]
        alone = self._standalone(AB, events)
        assert good.reports == alone.reports
        assert good.matcher.counters() == alone.matcher.counters()

    def test_malformed_stream_is_one_error_to_the_caller(self):
        events = _ab_stream()
        dispatcher = self._dispatcher("ab", "ba")
        dispatcher.on_batch(events[:4])
        with pytest.raises(ValueError, match="expected"):
            dispatcher.on_batch([events[7]])  # skips two events of P2
        assert not dispatcher.quarantined
        for _name, monitor in dispatcher:
            assert monitor.matcher.events_processed == 4
        dispatcher.on_batch(events[4:])  # the stream can continue
        assert dispatcher["ab"].reports == self._standalone(AB, events).reports

    def test_watch_rejects_a_different_complete_stream(self):
        dispatcher = self._dispatcher("ab")
        with pytest.raises(ValueError, match="complete_stream"):
            dispatcher.watch(
                "gapped", BA, config=MatcherConfig(complete_stream=False)
            )
        assert "gapped" not in dispatcher

    def test_interrupt_leaves_every_shard_at_the_same_position(self):
        events = _ab_stream()

        def interrupt(_report):
            raise KeyboardInterrupt

        dispatcher = ShardedDispatcher(TRACES)
        dispatcher.watch("ab", AB, on_match=interrupt)
        dispatcher.watch("ba", BA)
        with pytest.raises(KeyboardInterrupt):
            dispatcher.on_batch(events)
        seen = dispatcher.events_seen
        assert 0 < seen < len(events)
        assert events[seen - 1].etype == "B"  # the first match's trigger
        for _name, monitor in dispatcher:
            assert monitor.matcher.events_processed == seen
            assert sum(monitor.checkpoint()["delivered"]) == seen
        assert dispatcher["ba"].matcher.history.total_size() == 3

    def test_dropped_deployment_is_freed_by_reference_counting(self):
        """The route table holds shard names, not shards: a cycle through
        matcher -> front -> shard would keep a dropped deployment's
        histories alive until the cyclic collector runs."""
        import gc
        import weakref

        dispatcher = self._dispatcher("ab")
        dispatcher.on_batch(_ab_stream())
        alone = self._standalone(AB, _ab_stream())
        refs = [weakref.ref(dispatcher["ab"].matcher),
                weakref.ref(alone.matcher)]
        gc.disable()
        try:
            del dispatcher, alone
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


A_ONLY = "X := ['', A, '']; Y := ['', A, '']; pattern := X -> Y;"


def _alone_per_event(source, events):
    monitor = Monitor.from_source(source, TRACES)
    for event in events:
        monitor.on_event(event)
    return monitor


def _deliver_singly(dispatcher, events, hook):
    for event in events:
        if hook == "on_event":
            dispatcher.on_event(event)
        else:
            dispatcher.on_batch([event])


class TestSingleEventDelivery:
    """An event, or a slice of one, runs the dispatcher's single-event
    body: admit, route, hand, settle."""

    def test_every_shard_stands_at_the_stream_position(self):
        events = _ab_stream()
        pipeline = Pipeline.stream(TRACES)
        ab = pipeline.watch("ab", AB)
        a_only = pipeline.watch("a_only", A_ONLY)
        for position, event in enumerate(events, start=1):
            pipeline.feed([event])
            assert ab.matcher.events_processed == position
            assert a_only.matcher.events_processed == position
        pipeline.finish()
        # the narrower pattern was handed only the A events
        assert len(a_only.timings) == sum(e.etype == "A" for e in events)
        assert len(a_only.timings) < len(ab.timings) < len(events)
        for monitor, source in ((ab, AB), (a_only, A_ONLY)):
            alone = _alone_per_event(source, events)
            assert monitor.reports == alone.reports
            assert monitor.matcher.counters() == alone.matcher.counters()
            assert monitor.subset.signature() == alone.subset.signature()

    @pytest.mark.parametrize("hook", ["on_event", "on_batch"])
    def test_shard_raising_on_a_single_event_is_quarantined_there(self, hook):
        events = _ab_stream()
        dispatcher = ShardedDispatcher(TRACES)
        dispatcher.watch("ab", AB)
        bad = dispatcher.watch("ba", BA)
        victim = events[7]  # the second B: routed to both shards
        plain = bad.matcher.on_event

        def exploding(event):
            if event is victim:
                raise RuntimeError("boom")
            return plain(event)

        bad.matcher.on_event = exploding
        _deliver_singly(dispatcher, events, hook)  # must not raise
        assert dispatcher.is_quarantined("ba")
        assert bad.matcher.events_processed == 7  # everything before it
        assert bad.checkpoint()["delivered"] == [2, 2, 4]
        good = dispatcher["ab"]
        alone = _alone_per_event(AB, events)
        assert good.reports == alone.reports
        assert good.matcher.counters() == alone.matcher.counters()
        assert good.matcher.events_processed == len(events)

    @pytest.mark.parametrize("hook", ["on_event", "on_batch"])
    def test_restored_dispatcher_skips_exactly_its_watermark(self, hook):
        events = _ab_stream()
        first = ShardedDispatcher(TRACES)
        first.watch("ab", AB)
        first.on_batch(events[:5])
        state = json.loads(json.dumps(first.checkpoint()))

        resumed = ShardedDispatcher(TRACES)
        resumed.watch("ab", AB)
        resumed.watch("ba", BA)
        resumed.restore(state)  # "ab" resumes at 5, "ba" starts fresh
        _deliver_singly(resumed, events, hook)
        assert resumed.front.resuming == 0
        # "ab" was handed exactly the suffix, "ba" the whole stream
        routed = sum(e.etype in ("A", "B") for e in events[5:])
        assert len(resumed["ab"].timings) == routed
        for name, source in (("ab", AB), ("ba", BA)):
            alone = _alone_per_event(source, events)
            assert resumed[name].matcher.counters() == alone.matcher.counters()
            assert resumed[name].subset.signature() == alone.subset.signature()
            assert resumed[name].checkpoint() == alone.checkpoint()

    def test_batches_seen_counts_slices_of_one_not_events(self):
        events = _ab_stream()
        sliced = Pipeline.stream(TRACES)
        sliced.watch("ab", AB)
        for event in events:
            sliced.feed([event])
        assert sliced.dispatcher.batches_seen == len(events)

        dispatcher = ShardedDispatcher(TRACES)
        dispatcher.watch("ab", AB)
        _deliver_singly(dispatcher, events, "on_event")
        assert dispatcher.batches_seen == 0
        assert dispatcher.events_seen == len(events)

        # hold-back releases reach the dispatcher as events
        repaired = Pipeline.stream(TRACES)
        repaired.with_faults(FaultPlan.delay(0.5, max_delay=3), seed=1)
        repaired.with_holdback()
        repaired.watch("ab", AB)
        for event in events:
            repaired.feed([event])
        result = repaired.finish()
        assert result.holdback.reordered_total > 0, "faults must bite"
        assert repaired.dispatcher.batches_seen == 0
        assert repaired.dispatcher.events_seen == len(events)

    def test_a_live_kernel_hands_the_dispatcher_events(self):
        pipeline = Pipeline.for_case("race", traces=3, seed=0)
        monitor = pipeline.watch("race", pipeline.case_pattern)
        result = pipeline.run()
        assert result.num_events > 0
        assert monitor.matcher.events_processed == result.num_events
        assert pipeline.dispatcher.batches_seen == 0
        assert pipeline.dispatcher.events_seen == result.num_events


class TestMonitorStatsFreshness:
    """Regression: subset/history gauges must be fresh on every path."""

    def _gauges(self, registry):
        subset = registry.gauge(
            "ocep_subset_matches",
            "matches stored in the representative subset",
        )
        history = registry.gauge(
            "ocep_history_events",
            "events stored across all leaf histories",
        )
        return subset, history

    def test_gauges_fresh_after_batch_delivery(self):
        registry = MetricsRegistry()
        monitor = Monitor.from_source(AB, TRACES, registry=registry)
        monitor.on_batch(_ab_stream())
        subset, history = self._gauges(registry)
        stats = monitor.stats()
        assert stats.subset_size > 0
        assert subset.value == stats.subset_size
        assert history.value == stats.history_size

    def test_gauges_fresh_after_per_event_delivery(self):
        registry = MetricsRegistry()
        monitor = Monitor.from_source(AB, TRACES, registry=registry)
        for event in _ab_stream():
            monitor.on_event(event)
        subset, history = self._gauges(registry)
        stats = monitor.stats()
        assert subset.value == stats.subset_size
        assert history.value == stats.history_size

    def test_gauges_fresh_immediately_after_restore(self):
        events = _ab_stream()
        source = Monitor.from_source(AB, TRACES)
        for event in events:
            source.on_event(event)
        state = json.loads(json.dumps(source.checkpoint()))
        assert source.stats().subset_size > 0

        registry = MetricsRegistry()
        recovered = Monitor.from_source(AB, TRACES, registry=registry)
        recovered.restore(state)
        subset, history = self._gauges(registry)
        stats = recovered.stats()
        assert stats.subset_size == source.stats().subset_size
        assert subset.value == stats.subset_size
        assert history.value == stats.history_size

    def test_matches_reported_converges_after_restore(self):
        events = _ab_stream()
        uninterrupted = Monitor.from_source(AB, TRACES)
        for event in events:
            uninterrupted.on_event(event)
        assert uninterrupted.stats().matches_reported == len(
            uninterrupted.reports
        )

        prefix = Monitor.from_source(AB, TRACES)
        for event in events[:5]:
            prefix.on_event(event)
        recovered = Monitor.from_source(AB, TRACES)
        recovered.restore(json.loads(json.dumps(prefix.checkpoint())))
        for event in events:  # full stream; restored prefix is skipped
            recovered.on_event(event)
        assert (
            recovered.stats().matches_reported
            == uninterrupted.stats().matches_reported
        )
        assert recovered.stats() == uninterrupted.stats()

    def test_skip_delivered_applies_to_batches(self):
        events = _ab_stream()
        prefix = Monitor.from_source(AB, TRACES)
        for event in events[:5]:
            prefix.on_event(event)
        recovered = Monitor.from_source(AB, TRACES)
        recovered.restore(json.loads(json.dumps(prefix.checkpoint())))
        recovered.on_batch(events)

        uninterrupted = Monitor.from_source(AB, TRACES)
        for event in events:
            uninterrupted.on_event(event)
        assert recovered.stats() == uninterrupted.stats()
        assert (
            recovered.subset.signature() == uninterrupted.subset.signature()
        )


class TestShardLabels:
    def test_shard_metrics_labelled_by_pattern(self):
        registry = MetricsRegistry()
        pipeline = Pipeline.replay(_ab_stream(), TRACES, registry=registry)
        pipeline.watch("ab", AB)
        pipeline.run()
        counter = registry.counter(
            "ocep_monitor_events_total",
            "events delivered to the monitor",
            labels={"pattern": "ab"},
        )
        assert counter.value == len(_ab_stream())

    def test_routed_beside_offered_per_shard(self):
        """The sharing ratio: both series exist from watch() on, and
        routed counts only the events the shard was handed."""
        registry = MetricsRegistry()
        events = _ab_stream()
        dispatcher = ShardedDispatcher(TRACES, registry=registry)
        monitor = dispatcher.watch("ab", AB)

        def value(name):
            return {
                (m.name, m.labels): m.value
                for m in registry.metrics() if m.kind == "counter"
            }[(name, (("pattern", "ab"),))]

        assert value("ocep_dispatch_routed_events_total") == 0
        assert value("ocep_monitor_events_total") == 0
        dispatcher.on_batch(events[:6])
        for event in events[6:]:
            dispatcher.on_event(event)
        named = sum(e.etype in ("A", "B") for e in events)
        assert 0 < named < len(events)
        assert value("ocep_dispatch_routed_events_total") == named
        assert value("ocep_monitor_events_total") == len(events)
        assert len(monitor.timings) == named
        assert len(monitor.terminating_timings) == monitor.matcher.searches_run


def test_matcher_config_passthrough():
    events = _ab_stream()
    pipeline = Pipeline.replay(events, TRACES)
    monitor = pipeline.watch(
        "ab", AB, config=MatcherConfig(prune_history=False)
    )
    pipeline.run()
    assert monitor.matcher.config.prune_history is False
