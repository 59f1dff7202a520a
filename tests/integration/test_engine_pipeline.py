"""Integration: the staged pipeline engine end to end.

The headline equivalences of the engine PR:

* one sharded single pass over a recorded stream produces exactly the
  matches, subsets, and per-monitor counters of N independent
  single-pattern runs (per-event path);
* a pipeline can checkpoint, "crash", restore, and re-consume the full
  recorded stream, converging bit-identically to the uninterrupted run
  (seeds 0..9);
* the resilience stages compose: a delay plan repaired by the
  hold-back buffer inside the pipeline converges to the fault-free
  oracle.
"""

import json

import pytest

from repro.engine import Pipeline, case_patterns
from repro.resilience.faults import FaultPlan

TRACES = 4


def _record_case(name, seed, max_events):
    """One case study's recorded stream (the true collection order)."""
    pipeline = Pipeline.for_case(name, traces=TRACES, seed=seed)
    recorder = pipeline.record()
    pipeline.run(max_events=max_events)
    return recorder.events, list(pipeline.trace_names)


class TestShardedEquivalence:
    @pytest.mark.parametrize("case", ["race", "deadlock"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_pass_equals_independent_runs(self, case, seed):
        events, names = _record_case(case, seed, max_events=1500)
        patterns = case_patterns(TRACES)

        sharded = Pipeline.replay(events, names)
        for name, source in patterns.items():
            sharded.watch(name, source)
        sharded_result = sharded.run()  # batch-first delivery

        for name, source in patterns.items():
            independent = Pipeline.replay(events, names)
            monitor = independent.watch(name, source)
            independent.run(batch_size=1)  # the per-event path

            shard = sharded_result[name]
            assert shard.reports == monitor.reports
            assert (
                shard.subset.signature() == monitor.subset.signature()
            )
            assert shard.stats() == monitor.stats()

    def test_single_pass_sees_each_event_once(self):
        events, names = _record_case("race", 0, max_events=1000)
        sharded = Pipeline.replay(events, names)
        for name, source in case_patterns(TRACES).items():
            sharded.watch(name, source)
        result = sharded.run()
        assert result.num_events == len(events)
        assert sharded.dispatcher.events_seen == len(events)
        for _, monitor in sharded.dispatcher:
            assert monitor.stats().events_seen == len(events)


class TestPipelineCrashResume:
    @pytest.mark.parametrize("seed", range(10))
    def test_checkpoint_crash_resume_converges(self, seed):
        events, names = _record_case("race", seed, max_events=600)
        patterns = {
            name: source
            for name, source in case_patterns(TRACES).items()
            if name in ("race", "atomicity")
        }
        crash_at = len(events) // 2

        uninterrupted = Pipeline.replay(events, names)
        for name, source in patterns.items():
            uninterrupted.watch(name, source)
        baseline = uninterrupted.run()

        prefix = Pipeline.replay(events[:crash_at], names)
        for name, source in patterns.items():
            prefix.watch(name, source)
        crashed = prefix.run()
        # What survives a real crash is the serialized snapshot.
        state = json.loads(json.dumps(crashed.checkpoint()))

        recovered = Pipeline.replay(events, names)
        for name, source in patterns.items():
            recovered.watch(name, source)
        recovered.restore(state)
        resumed = recovered.run()

        assert resumed.signatures() == baseline.signatures()
        assert resumed.stats() == baseline.stats()
        for name in patterns:
            assert (
                resumed[name].matcher.events_processed
                == baseline[name].matcher.events_processed
            )


class TestResilienceStages:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delay_plan_repaired_to_oracle(self, seed):
        events, names = _record_case("race", 4, max_events=800)

        oracle = Pipeline.replay(events, names)
        oracle_monitor = oracle.watch("race", case_patterns(TRACES)["race"])
        oracle.run()

        faulty = Pipeline.replay(events, names)
        monitor = faulty.watch("race", case_patterns(TRACES)["race"])
        faulty.with_faults(FaultPlan.delay(), seed=seed)
        faulty.with_holdback(stall_watermark=32)
        result = faulty.run()

        assert result.leftover == []
        assert not result.stalled
        assert (
            monitor.subset.signature() == oracle_monitor.subset.signature()
        )

    def test_drop_plan_detected_as_stall(self):
        events, names = _record_case("race", 5, max_events=800)
        pipeline = Pipeline.replay(events, names)
        pipeline.watch("race", case_patterns(TRACES)["race"])
        pipeline.with_faults(FaultPlan.drop(), seed=1)
        pipeline.with_holdback(stall_watermark=32)
        result = pipeline.run()
        if result.injector.dropped_total:
            assert result.stalled or result.leftover
            dropped = {
                (did.trace, did.index)
                for did in result.injector.dropped_ids
            }
            missing = {
                (mid.trace, mid.index)
                for mid in result.holdback.missing_predecessors()
            }
            assert dropped <= missing


class TestGracefulShutdown:
    """SIGTERM/``KeyboardInterrupt`` stop the drive at a delivery
    boundary instead of unwinding, and the interrupted result's
    checkpoint recovers the run exactly."""

    def _interrupting_pipeline(self, events, names, after_matches):
        count = {"matches": 0}

        def interrupt(_report):
            count["matches"] += 1
            if count["matches"] >= after_matches:
                raise KeyboardInterrupt

        pipeline = Pipeline.replay(events, names)
        for name, source in case_patterns(TRACES).items():
            pipeline.watch(name, source, on_match=interrupt)
        return pipeline

    def test_interrupt_is_graceful_and_checkpointed(self):
        events, names = _record_case("race", 3, max_events=600)
        pipeline = self._interrupting_pipeline(events, names, 15)
        result = pipeline.run(batch_size=64)  # does NOT raise
        assert result.interrupted
        assert result.checkpoint()["format"].startswith("ocep-sharded")

    @pytest.mark.parametrize("seed", [0, 6])
    def test_interrupted_checkpoint_recovers_exactly(self, seed):
        events, names = _record_case("race", seed, max_events=600)

        uninterrupted = Pipeline.replay(events, names)
        for name, source in case_patterns(TRACES).items():
            uninterrupted.watch(name, source)
        baseline = uninterrupted.run()

        cut = self._interrupting_pipeline(events, names, 10).run(
            batch_size=64
        )
        assert cut.interrupted
        state = json.loads(json.dumps(cut.checkpoint()))

        recovered = Pipeline.replay(events, names)
        for name, source in case_patterns(TRACES).items():
            recovered.watch(name, source)
        recovered.restore(state)
        resumed = recovered.run()
        assert resumed.signatures() == baseline.signatures()
        assert resumed.stats() == baseline.stats()
        assert not resumed.interrupted
