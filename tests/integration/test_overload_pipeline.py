"""Integration tests for the overload-control pipeline stage.

The two contracts that matter end-to-end:

* **disabled means invisible** — a pipeline wired with overload
  control whose detector never engages produces bit-identical output
  (reports, subset signature, matcher counters) to a plain pipeline;
* **enabled means measured** — with a forced detector, the shedded
  monitor's state converges with a fresh gap-tolerant monitor fed
  exactly the kept events, and checkpoints carry the shedder state.
"""

import functools
import json

import pytest

from repro.engine.pipeline import Pipeline
from repro.resilience import (
    BAND_STRUCTURAL,
    OverloadDetector,
    OverloadState,
    forced_shedding_detector,
    replay_gapped_monitor,
    run_fault_matrix,
    run_overload_scenario,
    run_shedding_sweep,
)
from repro.testing import Weaver


class _BacklogLog(OverloadDetector):
    """A default detector that keeps every backlog sample."""

    def __init__(self):
        super().__init__()
        self.backlogs = []

    def observe_backlog(self, depth):
        self.backlogs.append(depth)
        super().observe_backlog(depth)


@functools.lru_cache(maxsize=None)
def _recorded(case="race", traces=4, seed=0, max_events=400):
    source = Pipeline.for_case(case, traces, seed)
    recorder = source.record()
    source.run(max_events=max_events)
    return (
        tuple(recorder.events),
        source.case_pattern,
        source.trace_names,
    )


class TestDisabledPathIdentity:
    def test_never_engaged_output_bit_identical(self):
        events, pattern, names = _recorded()

        plain = Pipeline.replay(list(events), names)
        plain_monitor = plain.watch("m", pattern, record_timings=False)
        plain.run()

        wired = Pipeline.replay(list(events), names)
        wired.with_overload_control()  # default detector: never engages
        wired_monitor = wired.watch("m", pattern, record_timings=False)
        result = wired.run()

        assert result.shedder is not None
        assert result.shedder.shed_total == 0
        assert result.shedder.offered_total == len(events)
        assert result.overload_detector.state is OverloadState.NORMAL
        assert wired_monitor.reports == plain_monitor.reports
        assert (
            wired_monitor.subset.signature()
            == plain_monitor.subset.signature()
        )
        assert wired_monitor.stats() == plain_monitor.stats()

    def test_stage_order_enforced(self):
        events, pattern, names = _recorded()
        pipeline = Pipeline.replay(list(events), names)
        pipeline.watch("m", pattern, record_timings=False)
        with pytest.raises(RuntimeError, match="before the first"):
            pipeline.with_overload_control()

    def test_double_configuration_rejected(self):
        events, pattern, names = _recorded()
        pipeline = Pipeline.replay(list(events), names)
        pipeline.with_overload_control()
        with pytest.raises(RuntimeError, match="already has"):
            pipeline.with_overload_control()


class TestForcedShedding:
    def test_kept_events_replay_converges(self):
        events, pattern, names = _recorded()
        pipeline = Pipeline.replay(list(events), names)
        pipeline.with_overload_control(
            detector=forced_shedding_detector(),
            shed_band=BAND_STRUCTURAL,
            record_kept=True,
        )
        monitor = pipeline.watch("m", pattern, record_timings=False)
        result = pipeline.run()
        shedder = result.shedder

        assert shedder.shed_total > 0
        assert len(shedder.kept_events) + shedder.shed_total == len(events)
        reference = replay_gapped_monitor(
            shedder.kept_events, pattern, names
        )
        assert reference.subset.signature() == monitor.subset.signature()
        assert reference.reports == monitor.reports

    def test_max_drop_rate_budget_honoured(self):
        events, pattern, names = _recorded()
        pipeline = Pipeline.replay(list(events), names)
        pipeline.with_overload_control(
            detector=forced_shedding_detector(),
            shed_band=BAND_STRUCTURAL,
            max_drop_rate=0.1,
        )
        pipeline.watch("m", pattern, record_timings=False)
        result = pipeline.run()
        assert 0.0 < result.shedder.drop_rate <= 0.1

    def test_holdback_backlog_probe_wired(self):
        events, pattern, names = _recorded()
        pipeline = Pipeline.replay(list(events), names)
        pipeline.with_overload_control()
        pipeline.watch("m", pattern, record_timings=False)
        pipeline.with_holdback(stall_watermark=32)
        result = pipeline.run()
        # The probe polls holdback.pending_count per offered event.
        assert result.overload_detector.backlog_ema is not None
        assert result.leftover == []

    def test_backlog_probe_reads_the_depth_after_each_slice(self):
        """The hold-back buffer hands a slice's releases on at its end,
        so the probe, polled once per offered event, reads the depth
        left after the whole slice's arrivals — not the depth at each
        release."""
        w = Weaver(3, clock_backend="encoded")
        a = w.local(0, "A")
        s, r = w.message(0, 1)  # s arrives one slice late
        b = w.local(2, "B")
        detector = _BacklogLog()
        pipeline = Pipeline.stream(["P0", "P1", "P2"])
        pipeline.with_overload_control(detector=detector)
        pipeline.watch("ab", "A := ['', A, '']; B := ['', B, ''];"
                             " pattern := A -> B;")
        pipeline.with_holdback()
        pipeline.feed([a, r, b])  # a and b released, r held
        assert detector.backlogs == [1, 1]
        pipeline.feed([s])  # s releases r: nothing is left held
        assert detector.backlogs == [1, 1, 0, 0]
        assert pipeline.finish().leftover == []


class TestShedderCheckpoint:
    def test_checkpoint_carries_overload_state(self):
        events, pattern, names = _recorded()
        half = len(events) // 2

        uninterrupted = Pipeline.replay(list(events), names)
        uninterrupted.with_overload_control(
            detector=forced_shedding_detector(), shed_band=BAND_STRUCTURAL,
        )
        oracle = uninterrupted.watch("m", pattern, record_timings=False)
        uninterrupted.run()

        first = Pipeline.replay(list(events[:half]), names)
        first.with_overload_control(
            detector=forced_shedding_detector(), shed_band=BAND_STRUCTURAL,
        )
        first.watch("m", pattern, record_timings=False)
        first_result = first.run()
        state = json.loads(json.dumps(first_result.checkpoint()))
        assert "overload" in state
        assert state["overload"]["shed"] == first_result.shedder.shed_total

        recovered = Pipeline.replay(list(events), names)
        recovered.with_overload_control(shed_band=BAND_STRUCTURAL)
        monitor = recovered.watch("m", pattern, record_timings=False)
        recovered.restore(state)
        result = recovered.run()

        # The restored detector resumes engaged (no fresh observations
        # arrive to disengage it) and the recovered subset converges to
        # the uninterrupted shedding run's.
        assert result.overload_detector.state is OverloadState.SHEDDING
        assert result.shedder.shed_total > 0
        assert monitor.subset.signature() == oracle.subset.signature()


class TestHarnesses:
    def test_shedding_sweep_small(self):
        report = run_shedding_sweep(
            cases=["race"], seeds=[0], rates=[0.2], traces=4,
            max_events=300,
        )
        assert len(report.cells) == 2
        utility, rand = report.cells
        assert utility.policy == "utility" and rand.policy == "random"
        assert utility.dropped == rand.dropped > 0
        assert utility.recall >= rand.recall
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["shed_band"] == "structural"
        assert {cell["policy"] for cell in payload["cells"]} == {
            "utility", "random",
        }

    def test_overload_scenario_engages_and_recovers(self):
        events, pattern, names = _recorded()
        runs = run_overload_scenario(
            list(events), pattern, names, seeds=[0, 1]
        )
        assert all(run.ok for run in runs), [run.detail for run in runs]
        assert all(run.shed > 0 for run in runs)
        assert all(
            run.final_latency_ema <= run.disengage_latency for run in runs
        )

    def test_fault_matrix_composes_with_shedding(self):
        events, pattern, names = _recorded()
        report = run_fault_matrix(
            list(events), pattern, names, seeds=[0], shedding=True,
        )
        kinds = {run.kind for run in report.runs}
        assert {"shed+none", "shed+reorder", "shed+delay",
                "shed+duplicate"} <= kinds
        assert report.ok, report.summary()
