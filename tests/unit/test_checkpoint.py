"""Unit tests for monitor checkpoint/recovery."""

import functools
import json

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.monitor import Monitor
from repro.engine.cases import CASES
from repro.engine.pipeline import Pipeline
from repro.testing import random_computation

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"
ABC = (
    "A := ['', A, '']; B := ['', B, '']; C := ['', C, ''];"
    " pattern := A -> (B -> C);"
)


def _events(seed=0, steps=80, num_traces=3):
    return random_computation(
        seed, num_traces=num_traces, steps=steps
    ).events


def _monitor(source=AB, num_traces=3):
    return Monitor.from_source(
        source, [f"P{i}" for i in range(num_traces)], record_timings=False
    )


def _run(events):
    monitor = _monitor()
    for e in events:
        monitor.on_event(e)
    return monitor


@functools.lru_cache(maxsize=None)
def _uninterrupted(name, seed):
    """``(source, trace names, events, finished monitor)`` of ``A -> B``
    on a random computation (``"ab"``) or of a ``CASES`` entry."""
    if name == "ab":
        source, names, events = AB, ["P0", "P1", "P2"], _events(seed=seed)
    else:
        pipeline = Pipeline.for_case(name, 4, seed)
        recorder = pipeline.record()
        pipeline.run(max_events=500)
        source, names = pipeline.case_pattern, pipeline.trace_names
        events = recorder.events
    return source, names, events, _fed(source, names, events)


def _fed(source, names, events):
    monitor = Monitor.from_source(source, names, record_timings=False)
    for e in events:
        monitor.on_event(e)
    return monitor


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cut_fraction", [0.25, 0.5, 0.9])
    def test_restore_and_replay_converges(self, seed, cut_fraction):
        """Recovery is exact for every pattern: the restored run ends
        with the uninterrupted run's subset, reports and counters —
        ``plans_computed`` included, the cached plans being state."""
        for name in ["ab", *CASES]:
            source, names, events, oracle = _uninterrupted(name, seed)
            cut = max(1, int(len(events) * cut_fraction))
            first = _fed(source, names, events[:cut])
            state = json.loads(json.dumps(first.checkpoint()))

            recovered = _fed(source, names, ())
            recovered.restore(state)
            assert recovered.replay_suffix(events) == len(events) - cut, name
            assert recovered.subset.signature() == oracle.subset.signature(), name
            assert first.reports + recovered.reports == oracle.reports, name
            assert recovered.matcher.counters() == oracle.matcher.counters(), name

    def test_checkpoint_without_plans_restores_unplanned(self):
        """A document older than the ``"plans"`` key still loads; its
        monitor plans afresh on its next search."""
        source, names, events, oracle = _uninterrupted("ab", 0)
        first = _fed(source, names, events[: len(events) // 2])
        state = first.checkpoint()
        assert [leaf for leaf, _, _ in state.pop("plans")] == [1]
        recovered = _fed(source, names, ())
        recovered.restore(state)
        assert recovered.matcher._plans == {}
        recovered.replay_suffix(events)
        assert first.reports + recovered.reports == oracle.reports
        counters = recovered.matcher.counters()
        assert counters.pop("plans_computed") == oracle.matcher.plans_computed + 1
        assert counters.items() <= oracle.matcher.counters().items()

    def test_sharded_restore_on_a_shared_front_converges(self):
        """Two shards on one stream front, restored through
        ``Pipeline.restore``: each resumes with the plans it ran."""
        source, names, events, _ = _uninterrupted("hotpath", 1)
        patterns = {"hotpath": source, "chain": (
            "P := ['', Pickup, '']; M := ['', Move, '']; D := ['', Drop, ''];"
            " M $m; pattern := (P -> $m) /\\ ($m -> D);"
        )}

        def deployment(stream):
            pipeline = Pipeline.replay(stream, names)
            for name, pattern in patterns.items():
                pipeline.watch(name, pattern)
            return pipeline

        baseline = deployment(events).run()
        prefix = deployment(events[: len(events) * 3 // 4]).run()
        state = json.loads(json.dumps(prefix.checkpoint()))
        assert all(shard["plans"] for shard in state["shards"].values())
        resumed = deployment(events).restore(state).run()
        for name in patterns:
            assert resumed[name].subset.signature() == (
                baseline[name].subset.signature()
            )
            assert prefix.reports(name) + resumed.reports(name) == (
                baseline.reports(name)
            )
            assert resumed[name].matcher.counters() == (
                baseline[name].matcher.counters()
            )
            assert baseline[name].matcher.plans_computed > 1

    def test_checkpoint_is_json_ready(self):
        events = _events()
        monitor = _run(events)
        state = monitor.checkpoint()
        assert state["format"] == CHECKPOINT_FORMAT
        json.dumps(state)  # must not raise

    def test_delivered_counts_match_stream(self):
        events = _events()
        monitor = _run(events)
        counts = monitor.delivered_counts()
        for trace in range(3):
            assert counts[trace] == sum(
                1 for e in events if e.trace == trace
            )
        assert monitor.checkpoint()["delivered"] == counts

    def test_replay_suffix_skips_delivered_prefix(self):
        events = _events()
        monitor = _run(events)
        # Replaying the whole stream over a caught-up monitor is a no-op.
        assert monitor.replay_suffix(events) == 0

    def test_restore_preserves_multileaf_state(self):
        events = _events(seed=2, steps=120)
        oracle = Monitor.from_source(
            ABC, ["P0", "P1", "P2"], record_timings=False
        )
        for e in events:
            oracle.on_event(e)
        cut = len(events) // 2
        first = Monitor.from_source(
            ABC, ["P0", "P1", "P2"], record_timings=False
        )
        for e in events[:cut]:
            first.on_event(e)
        recovered = Monitor.from_source(
            ABC, ["P0", "P1", "P2"], record_timings=False
        )
        recovered.restore(json.loads(json.dumps(first.checkpoint())))
        recovered.replay_suffix(events)
        assert recovered.subset.signature() == oracle.subset.signature()


class TestValidation:
    def test_unknown_format_rejected(self):
        state = _run(_events()).checkpoint()
        state["format"] = "ocep-checkpoint-v999"
        with pytest.raises(CheckpointError, match="format"):
            _monitor().restore(state)

    def test_trace_count_mismatch_rejected(self):
        state = _run(_events()).checkpoint()
        with pytest.raises(CheckpointError, match="traces"):
            _monitor(num_traces=4).restore(state)

    def test_leaf_count_mismatch_rejected(self):
        state = _run(_events()).checkpoint()
        with pytest.raises(CheckpointError, match="leaf"):
            _monitor(source=ABC).restore(state)

    def test_non_fresh_monitor_rejected(self):
        events = _events()
        state = _run(events).checkpoint()
        dirty = _run(events[:5])
        with pytest.raises(CheckpointError, match="fresh"):
            dirty.restore(state)

    def test_corrupt_body_rejected(self):
        state = _run(_events()).checkpoint()
        state["index"]["lengths"] = "garbage"
        with pytest.raises(CheckpointError):
            _monitor().restore(state)

    def test_last_append_naming_no_leaf_rejected(self):
        state = _run(_events()).checkpoint()
        state["history"]["last_append"] = [99, None, None]
        with pytest.raises(CheckpointError, match="last_append"):
            _monitor().restore(state)

    def test_plan_of_no_leaf_rejected(self):
        state = _run(_events()).checkpoint()
        state["plans"] = [[99, 1, [[1, 1], [1, 1]]]]
        with pytest.raises(CheckpointError, match="corrupt"):
            _monitor().restore(state)

    def test_missing_header_rejected(self):
        with pytest.raises(CheckpointError, match="header"):
            _monitor().restore({"index": {}})

    def test_index_of_the_wrong_shape_rejected(self):
        """A 6-trace document whose index holds one column must not load:
        the suffix replay would fail inside ``restrict``."""
        source, names, state = _ordering_prefix()
        state["index"]["values"] = [[[]]]
        with pytest.raises(CheckpointError, match="6 x 6"):
            _fed(source, names, ()).restore(state)

    @pytest.mark.parametrize("corrupt", [
        "unequal_lengths", "non_increasing", "position_past_trace",
    ])
    def test_malformed_index_column_rejected(self, corrupt):
        source, names, state = _ordering_prefix()
        index = state["index"]
        trace, m = next(
            (t, m)
            for t, row in enumerate(index["values"])
            for m, col in enumerate(row)
            if len(col) >= 2
        )
        values, positions = index["values"][trace][m], index["positions"][trace][m]
        if corrupt == "unequal_lengths":
            positions.pop()
        elif corrupt == "non_increasing":
            values.reverse()
        else:
            positions[-1] = index["lengths"][trace] + 1
        with pytest.raises(CheckpointError, match=f"column \\({trace}, {m}\\)"):
            _fed(source, names, ()).restore(state)


@functools.lru_cache(maxsize=None)
def _ordering_document():
    pipeline = Pipeline.for_case("ordering", 6, 0)
    recorder = pipeline.record()
    pipeline.run(max_events=500)
    source, names = pipeline.case_pattern, pipeline.trace_names
    events = recorder.events
    first = _fed(source, names, events[: len(events) // 2])
    return source, names, json.dumps(first.checkpoint())


def _ordering_prefix():
    """``(source, names, checkpoint)`` of the 6-trace ordering case,
    the checkpoint taken half-way through the stream (a fresh copy)."""
    source, names, document = _ordering_document()
    return source, names, json.loads(document)


class TestPersistence:
    def test_save_and_load(self, tmp_path):
        state = _run(_events()).checkpoint()
        path = tmp_path / "monitor.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded == json.loads(json.dumps(state))
        recovered = _monitor()
        recovered.restore(loaded)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not json\n")
        with pytest.raises(CheckpointError, match="unparseable"):
            load_checkpoint(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.ckpt"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(CheckpointError, match="object"):
            load_checkpoint(path)
