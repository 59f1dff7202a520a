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
    Deployment,
    OverloadDetector,
    OverloadState,
    Recording,
    deployments,
    forced_shedding_detector,
    replay_gapped_monitor,
    run_cell,
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
        assert result.shedder.detector.state is OverloadState.NORMAL
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
        assert result.shedder.detector.backlog_ema is not None
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
        assert result.shedder.detector.state is OverloadState.SHEDDING
        assert result.shedder.shed_total > 0
        assert monitor.subset.signature() == oracle.subset.signature()

    def test_restore_without_an_overload_stage_refuses_shedder_state(self):
        """Restoring shedder state into a deployment with no shedder
        would resume a gapped history as a complete stream."""
        events, pattern, names = _recorded()
        first = Pipeline.replay(list(events[:300]), names)
        first.with_overload_control(
            detector=forced_shedding_detector(), shed_band=BAND_STRUCTURAL,
        )
        first.watch("m", pattern, record_timings=False)
        state = json.loads(json.dumps(first.run().checkpoint()))
        assert state["overload"]["shed"] > 0

        plain = Pipeline.replay(list(events), names)
        plain.watch("m", pattern, record_timings=False)
        with pytest.raises(ValueError, match="'overload'"):
            plain.restore(state)


class TestHarnesses:
    """Shedding cells of the one deployment checker."""

    def test_shedding_sweep_small(self):
        row = run_cell(Recording("race", 0, max_events=300),
                       Deployment(shed=0.2))
        assert row.ok, row.line()
        assert row.verdict == "recall"
        assert row.injected > 0
        assert row.recall >= row.random_recall
        payload = json.loads(json.dumps(row.to_dict()))
        assert payload["deployment"] == "shed0.2"

    def test_a_shedder_that_sheds_nothing_fails(self, monkeypatch):
        """Equal recalls of two empty drops prove nothing."""
        from repro.resilience.overload import LoadShedder

        monkeypatch.setattr(LoadShedder, "_within_budget", lambda self: False)
        row = run_cell(Recording("race", 0, max_events=300),
                       Deployment(shed=0.2))
        assert row.injected == 0
        assert row.recall == row.random_recall == 1.0
        assert not row.ok, row.line()
        assert "nothing shed" in row.detail

    def test_overload_scenario_engages_and_recovers(self):
        for seed in (0, 1):
            row = run_cell(Recording("race", seed, max_events=400),
                           Deployment(shed="burst"))
            assert row.ok, row.line()
            assert row.injected > 0

    def test_fault_matrix_composes_with_shedding(self):
        recording = Recording("race", 0, max_events=400)
        rows = [
            run_cell(recording, cell)
            for cell in deployments(["all"], shed=[0.2])
        ]
        names = {row.deployment for row in rows}
        assert {"shed0.2", "shed0.2+reorder", "shed0.2+delay",
                "shed0.2+duplicate"} <= names
        assert "shed0.2+drop" not in names
        assert all(row.ok for row in rows), [row.line() for row in rows]

    def test_a_holdback_that_reorders_what_it_releases_fails(
        self, monkeypatch
    ):
        """Repair must be invisible to the shedder: a hold-back buffer
        that hands on a different (still causal) linearization fails
        its shed cell, though recall and the kept-events replay hold."""
        from repro.poet.holdback import HoldbackBuffer

        recording = Recording("race", 0, max_events=400)
        assert run_cell(recording, Deployment(shed=0.2)).ok
        hand_off = HoldbackBuffer._hand_off
        swapped = []

        def reordering(self):
            outbox = self._outbox
            pair = next((i for i in range(len(outbox) - 1)
                         if outbox[i].concurrent_with(outbox[i + 1])), None)
            if pair is not None:
                outbox[pair], outbox[pair + 1] = outbox[pair + 1], outbox[pair]
                swapped.append(outbox[pair])
            hand_off(self)

        monkeypatch.setattr(HoldbackBuffer, "_hand_off", reordering)
        row = run_cell(recording, Deployment(fault="reorder", shed=0.2))
        assert swapped
        assert not row.ok, row.line()
        assert row.recall >= row.random_recall
        assert "fault-free run" in row.detail
        assert "replay diverged" not in row.detail
