"""Integration tests: kernel -> POET -> monitor, dump/replay, baselines."""

import pytest

from repro import (
    Kernel,
    MatcherConfig,
    Monitor,
    SweepMode,
    dump_events,
    instrument,
    load_events,
)
from repro.engine import Pipeline
from repro.poet import RecordingClient, is_linearization
from repro.poet.dumpfile import DumpFormatError

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"


def _producer_consumer(seed=0):
    """Producer emits A's and messages; consumer emits B's after."""
    kernel = Kernel(num_processes=2, seed=seed, buffer_capacity=4)
    server = instrument(kernel, verify=True)

    def producer(p):
        for i in range(10):
            yield p.emit("A", text=str(i))
            yield p.send(1, payload=i)

    def consumer(p):
        for _ in range(10):
            yield p.receive()
            yield p.emit("B")

    kernel.spawn(0, producer)
    kernel.spawn(1, consumer)
    return kernel, server


class TestLivePipeline:
    def test_online_monitoring_end_to_end(self):
        kernel, server = _producer_consumer()
        monitor = Monitor.from_source(AB, kernel.trace_names())
        server.connect(monitor)
        result = kernel.run()
        assert not result.deadlocked
        assert monitor.reports
        for report in monitor.reports:
            a, b = report.as_dict()[0], report.as_dict()[1]
            assert a.happens_before(b)
        assert monitor.subset.check_bound()

    def test_multiple_clients_see_identical_stream(self):
        kernel, server = _producer_consumer()
        rec1, rec2 = RecordingClient(), RecordingClient()
        server.connect(rec1)
        server.connect(rec2)
        kernel.run()
        assert rec1.events == rec2.events
        assert is_linearization(rec1.events, kernel.num_traces)


class TestDumpReplayEquivalence:
    def test_replayed_stream_gives_identical_matches(self, tmp_path):
        """The paper's methodology: collect once, dump, reload, re-run."""
        kernel, server = _producer_consumer(seed=5)
        recorder = RecordingClient()
        server.connect(recorder)
        live_monitor = Monitor.from_source(AB, kernel.trace_names())
        server.connect(live_monitor)
        kernel.run()

        path = tmp_path / "run.poet"
        dump_events(path, recorder.events, kernel.num_traces, kernel.trace_names())
        events, num_traces, names = load_events(path)

        replay_monitor = Monitor.from_source(AB, names)
        for event in events:
            replay_monitor.on_event(event)

        live = [r.assignment for r in live_monitor.reports]
        replayed = [r.assignment for r in replay_monitor.reports]
        assert [
            tuple((lid, e.event_id) for lid, e in a) for a in live
        ] == [tuple((lid, e.event_id) for lid, e in a) for a in replayed]

    def test_from_dump_streams_the_recording(self, tmp_path):
        """``from_dump`` hands the reader's stream to ``replay``: the
        run equals one over the recorded list, and ``max_events`` cuts
        the stream without reading past it."""
        kernel, server = _producer_consumer(seed=5)
        recorder = RecordingClient()
        server.connect(recorder)
        kernel.run()
        path = tmp_path / "run.poet"
        dump_events(path, recorder.events, kernel.num_traces,
                    kernel.trace_names())

        def signature(pipeline, **run):
            pipeline.watch("ab", AB)
            result = pipeline.run(**run)
            return result.num_events, result.signatures()

        assert signature(Pipeline.from_dump(path)) == signature(
            Pipeline.replay(recorder.events, kernel.trace_names())
        )
        read = []
        stream = (read.append(e) or e for e in recorder.events)
        cut = signature(Pipeline.replay(stream, kernel.trace_names()),
                        max_events=7, batch_size=3)
        assert cut == signature(
            Pipeline.replay(recorder.events[:7], kernel.trace_names())
        )
        assert read == recorder.events[:7]

    def test_corrupt_last_record_raises_from_run_at_its_line(self, tmp_path):
        """The dump is read as ``run`` feeds it: building the pipeline
        reads only the header, and the bad record raises at its own
        line after every record before it was delivered."""
        kernel, server = _producer_consumer(seed=5)
        recorder = RecordingClient()
        server.connect(recorder)
        kernel.run()
        path = tmp_path / "run.poet"
        dump_events(path, recorder.events, kernel.num_traces,
                    kernel.trace_names())
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # cut mid-record
        path.write_text("\n".join(lines) + "\n")

        pipeline = Pipeline.from_dump(path)
        pipeline.watch("ab", AB)
        with pytest.raises(DumpFormatError) as excinfo:
            pipeline.run(batch_size=1)
        assert excinfo.value.line == len(lines)
        assert pipeline.server.num_events == len(recorder.events) - 1

    def test_replay_is_deterministic_across_repetitions(self, tmp_path):
        kernel, server = _producer_consumer(seed=9)
        recorder = RecordingClient()
        server.connect(recorder)
        kernel.run()

        def run_once():
            monitor = Monitor.from_source(AB, kernel.trace_names())
            for event in recorder.events:
                monitor.on_event(event)
            return [
                tuple((lid, e.event_id) for lid, e in r.assignment)
                for r in monitor.reports
            ]

        assert run_once() == run_once() == run_once()


class TestConfigurationMatrix:
    """The same computation must yield the same detections under every
    optimisation configuration — the optimisations change cost, not
    answers."""

    @pytest.mark.parametrize("restrict", [True, False])
    @pytest.mark.parametrize("backjump", [True, False])
    @pytest.mark.parametrize("prune", [True, False])
    def test_detection_invariant_under_config(self, restrict, backjump, prune):
        kernel, server = _producer_consumer(seed=11)
        config = MatcherConfig(
            sweep=SweepMode.FIRST,
            restrict_domains=restrict,
            backjump=backjump,
            prune_history=prune,
            paranoid=True,
        )
        monitor = Monitor.from_source(AB, kernel.trace_names(), config=config)
        server.connect(monitor)
        kernel.run()
        # every B completes at least one match: 10 triggers, 10 reports
        assert len(monitor.reports) == 10
