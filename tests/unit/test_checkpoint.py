"""Unit tests for monitor checkpoint/recovery."""

import json

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.monitor import Monitor
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


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cut_fraction", [0.25, 0.5, 0.9])
    def test_restore_and_replay_converges(self, seed, cut_fraction):
        events = _events(seed=seed)
        oracle = _run(events)

        cut = max(1, int(len(events) * cut_fraction))
        first = _monitor()
        for e in events[:cut]:
            first.on_event(e)
        state = json.loads(json.dumps(first.checkpoint()))

        recovered = _monitor()
        recovered.restore(state)
        replayed = recovered.replay_suffix(events)
        assert replayed == len(events) - cut
        assert recovered.subset.signature() == oracle.subset.signature()
        assert recovered.matcher.counters() == oracle.matcher.counters()

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

    def test_missing_header_rejected(self):
        with pytest.raises(CheckpointError, match="header"):
            _monitor().restore({"index": {}})


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
