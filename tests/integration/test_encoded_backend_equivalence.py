"""Matcher-output identity across clock representations.

The runtime stamps and stores encoded timestamps only; the claim that
keeps that honest is that they are *observably identical* to full
Fidge/Mattern clocks.  Here the claim is checked where it matters: each
case-study stream is recorded once (encoded, as the kernel stamps it),
expanded to full ``VectorClock`` stamps from ``event.clock.components``,
and both streams are fed to a bare ``Monitor`` — match reports,
representative-subset signatures and every hot-path counter must be
bit-identical on seeds 0..9.  The last tests pin where the transcoding
happens: ``Pipeline.replay`` / ``feed`` encode a full-vector recording
and pass an already-encoded one through untouched.
"""

import pytest

from repro.clocks import EncodedClock
from repro.core import Monitor
from repro.engine import CASE_STUDY_NAMES, CASES, Pipeline
from repro.testing import full_vectors

SEEDS = list(range(10))
MAX_EVENTS = 1200
TRACES = 6


def _record(case, seed):
    """One live run of ``case``: the recorded (encoded) stream, its
    trace names, and the live pipeline's signatures."""
    pipeline = Pipeline.for_case(case, traces=TRACES, seed=seed)
    recorder = pipeline.record()
    pipeline.watch(case, pipeline.case_pattern)
    result = pipeline.run(max_events=MAX_EVENTS)
    return recorder.events, pipeline.trace_names, result.signatures()


def _monitor_output(case, events, names):
    monitor = Monitor.from_source(
        CASES[case].pattern(TRACES), names, record_timings=False
    )
    for event in events:
        monitor.on_event(event)
    return (
        monitor.reports,
        monitor.subset.signature(),
        monitor.matcher.counters(),
    )


def _assert_representations_agree(case, seeds):
    for seed in seeds:
        events, names, _ = _record(case, seed)
        assert isinstance(events[0].clock, EncodedClock)
        encoded = _monitor_output(case, events, names)
        full = _monitor_output(case, full_vectors(events), names)
        assert encoded == full, seed


@pytest.mark.parametrize("case", CASE_STUDY_NAMES)
def test_live_match_output_is_bit_identical(case):
    _assert_representations_agree(case, SEEDS)


@pytest.mark.parametrize(
    "case", sorted(set(CASES) - set(CASE_STUDY_NAMES) - {"traffic"})
)
def test_v2_case_output_is_bit_identical(case):
    _assert_representations_agree(case, SEEDS)


def test_traffic_case_also_identical():
    _assert_representations_agree("traffic", SEEDS)


@pytest.mark.parametrize("case", CASE_STUDY_NAMES)
def test_replay_transcode_is_bit_identical(case):
    for seed in SEEDS[:4]:
        events, names, baseline = _record(case, seed)
        replayed = Pipeline.replay(full_vectors(events), names, verify=True)
        replayed.watch(case, CASES[case].pattern(TRACES))
        result = replayed.run()
        assert result.signatures()[case] == baseline[case], seed
        assert result.num_events == len(events)


def test_transcoding_is_read_off_the_input():
    """Full-vector input is encoded by ``replay`` and ``feed`` before it
    reaches the server; encoded input passes through untouched (same
    event objects, so the delivered clocks carry the input's frame)."""
    events, names, _ = _record("race", seed=0)
    frame = events[0].clock.frame

    def replay(stream):
        pipeline = Pipeline.replay(stream, names)
        recorder = pipeline.record()
        pipeline.run()
        return recorder.events

    def feed(stream):
        pipeline = Pipeline.stream(names)
        recorder = pipeline.record()
        for start in range(0, len(stream), 100):
            pipeline.feed(stream[start:start + 100])
        pipeline.finish()
        return recorder.events

    for drive in (replay, feed):
        delivered = drive(events)
        assert len(delivered) == len(events)
        assert all(a is b for a, b in zip(delivered, events))
        assert all(e.clock.frame is frame for e in delivered)

        delivered = drive(full_vectors(events))
        frames = {e.clock.frame for e in delivered}
        assert all(isinstance(e.clock, EncodedClock) for e in delivered)
        assert len(frames) == 1 and frame not in frames
        assert delivered == events
