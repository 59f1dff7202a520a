"""Unit tests for leaf histories (with pruning) and the representative subset."""

from repro.core import HistorySet, RepresentativeSubset
from repro.core.gpls import CausalIndex
from repro.core.history import LeafHistory
from repro.testing import Weaver


def _index_of(weaver: Weaver) -> CausalIndex:
    index = CausalIndex(weaver.num_traces)
    for event in weaver.events:
        index.observe(event)
    return index


class TestLeafHistory:
    def test_slice_by_position(self):
        w = Weaver(1)
        events = [w.local(0) for _ in range(5)]
        history = LeafHistory(0, 1)
        for i, e in enumerate(events):
            history.append(e, epoch=i, may_prune=False)
        assert list(history.slice(0, 2, 4)) == events[1:4]
        assert list(history.slice(0, 1, None)) == events
        assert list(history.slice(0, 6, None)) == []

    def test_earliest_latest(self):
        w = Weaver(2)
        a = w.local(0)
        b = w.local(0)
        history = LeafHistory(0, 2)
        history.append(a, epoch=0, may_prune=False)
        history.append(b, epoch=0, may_prune=False)
        assert history.earliest_on(0) is a
        assert history.latest_on(0) is b
        assert history.earliest_on(1) is None

    def test_same_epoch_prune_replaces_latest(self):
        w = Weaver(1)
        a = w.local(0)
        b = w.local(0)
        history = LeafHistory(0, 1)
        history.append(a, epoch=7, may_prune=False)
        history.append(b, epoch=7, may_prune=True)
        assert list(history.on_trace(0)) == [b]
        assert history.size == 1

    def test_epoch_change_prevents_prune(self):
        w = Weaver(1)
        a = w.local(0)
        b = w.local(0)
        history = LeafHistory(0, 1)
        history.append(a, epoch=7, may_prune=False)
        history.append(b, epoch=8, may_prune=True)
        assert list(history.on_trace(0)) == [a, b]

    def test_has_between_detects_intermediary(self):
        w = Weaver(1)
        a = w.local(0)
        x = w.local(0)
        b = w.local(0)
        history = LeafHistory(0, 1)
        for e in (a, x, b):
            history.append(e, epoch=0, may_prune=False)
        index = _index_of(w)
        assert history.has_between(a, b, index)
        assert not history.has_between(x, b, index)

    def test_has_between_cross_trace(self):
        w = Weaver(2)
        a = w.local(0, "A")
        s1 = w.send(0)
        x = w.recv(1, s1, etype="A")
        s2 = w.send(1)
        b = w.recv(0, s2, etype="B")
        history = LeafHistory(0, 2)
        history.append(a, epoch=0, may_prune=False)
        history.append(x, epoch=0, may_prune=False)
        assert history.has_between(a, b, _index_of(w))

    def test_has_between_asks_the_kernel_only_where_a_witness_can_be(
        self, monkeypatch
    ):
        """Kernel calls per ``~>`` check do not grow with the number of
        causally unrelated traces holding class events."""
        import repro.core.history as history_module

        swept = []
        plain = history_module.restrict

        def counting_restrict(index, trace, *args):
            swept.append(trace)
            return plain(index, trace, *args)

        monkeypatch.setattr(history_module, "restrict", counting_restrict)
        for unrelated in (1, 8):
            w = Weaver(unrelated + 1)
            history = LeafHistory(0, unrelated + 1)
            for trace in range(unrelated):
                history.append(w.local(trace), epoch=0, may_prune=False)
            a, x, b = (w.local(unrelated) for _ in range(3))
            history.append(a, epoch=0, may_prune=False)
            history.append(x, epoch=0, may_prune=False)
            index = _index_of(w)
            del swept[:]
            assert history.has_between(a, b, index)
            assert not history.has_between(x, b, index)
            # b's clock reaches its own trace only: one call per check
            assert swept == [unrelated, unrelated]

    def test_traces_with_events(self):
        w = Weaver(3)
        history = LeafHistory(0, 3)
        history.append(w.local(2), epoch=0, may_prune=False)
        assert list(history.traces_with_events()) == [2]


class TestHistorySet:
    def test_prune_requires_same_leaf_last_append(self):
        w = Weaver(1)
        hs = HistorySet(num_leaves=2, num_traces=1)
        a = w.local(0)
        b = w.local(0)
        c = w.local(0)
        hs.append(0, a, prune=True)
        hs.append(1, b, prune=True)  # other leaf appended in between
        hs.append(0, c, prune=True)
        assert list(hs.leaf(0).on_trace(0)) == [a, c]

    def test_comm_epoch_blocks_prune(self):
        w = Weaver(2)
        epochs = [0, 0]  # the stream front's row; the set only reads it
        hs = HistorySet(num_leaves=1, num_traces=2, comm_epoch=epochs)
        a = w.local(0)
        hs.append(0, a, prune=True)
        epochs[0] += 1  # a send/receive occurred on trace 0
        b = w.local(0)
        hs.append(0, b, prune=True)
        assert list(hs.leaf(0).on_trace(0)) == [a, b]

    def test_snapshot_clears_last_append_across_a_comm_event(self):
        w = Weaver(1)
        epochs = [0]
        hs = HistorySet(num_leaves=1, num_traces=1, comm_epoch=epochs)
        hs.append(0, w.local(0), prune=True)
        assert hs.snapshot()["last_append"] == [0]
        epochs[0] += 1
        assert hs.snapshot()["last_append"] == [None]

    def test_consecutive_same_leaf_same_epoch_prunes(self):
        w = Weaver(1)
        hs = HistorySet(num_leaves=1, num_traces=1)
        a = w.local(0)
        b = w.local(0)
        hs.append(0, a, prune=True)
        hs.append(0, b, prune=True)
        assert list(hs.leaf(0).on_trace(0)) == [b]
        assert hs.total_size() == 1

    def test_prune_flag_off_keeps_everything(self):
        w = Weaver(1)
        hs = HistorySet(num_leaves=1, num_traces=1)
        for _ in range(5):
            hs.append(0, w.local(0), prune=False)
        assert hs.total_size() == 5


class TestRepresentativeSubset:
    def _match(self, weaver, *traces):
        return {i: weaver.local(t) for i, t in enumerate(traces)}

    def test_first_match_always_stored(self):
        w = Weaver(2)
        subset = RepresentativeSubset(num_leaves=2, num_traces=2)
        new = subset.update(self._match(w, 0, 1))
        assert new == ((0, 0), (1, 1))
        assert len(subset) == 1

    def test_redundant_match_not_stored(self):
        w = Weaver(2)
        subset = RepresentativeSubset(2, 2)
        subset.update(self._match(w, 0, 1))
        assert subset.update(self._match(w, 0, 1)) == ()
        assert len(subset) == 1

    def test_partially_new_match_stored(self):
        w = Weaver(2)
        subset = RepresentativeSubset(2, 2)
        subset.update(self._match(w, 0, 1))
        new = subset.update(self._match(w, 1, 1))
        assert new == ((0, 1),)
        assert len(subset) == 2

    def test_kn_bound_holds_under_stress(self):
        import random

        rng = random.Random(0)
        w = Weaver(4)
        subset = RepresentativeSubset(num_leaves=3, num_traces=4)
        for _ in range(500):
            match = {
                i: w.local(rng.randrange(4)) for i in range(3)
            }
            subset.update(match)
        assert subset.check_bound()
        assert len(subset) <= 3 * 4

    def test_coverage_queries(self):
        w = Weaver(2)
        subset = RepresentativeSubset(2, 2)
        subset.update(self._match(w, 0, 1))
        assert subset.is_covered(0, 0)
        assert subset.is_covered(1, 1)
        assert not subset.is_covered(0, 1)
        assert subset.covered_slots == {(0, 0), (1, 1)}

    def test_stored_match_round_trip(self):
        w = Weaver(2)
        subset = RepresentativeSubset(2, 2)
        match = self._match(w, 0, 1)
        subset.update(match)
        stored = subset.matches[0]
        assert stored.as_dict() == match


def _text_window(history, trace, lo, hi, text):
    events, left, right = history.window(trace, lo, hi, text)
    return list(events[left:right])


class TestTextIndex:
    def test_slice_by_text(self):
        """The text index read through ``window(trace, lo, hi, text)``."""
        from repro.testing import Weaver

        w = Weaver(1)
        a1 = w.local(0, "A", "x")
        a2 = w.local(0, "A", "y")
        a3 = w.local(0, "A", "x")
        history = LeafHistory(0, 1)
        for i, e in enumerate((a1, a2, a3)):
            history.append(e, epoch=i, may_prune=False)
        assert _text_window(history, 0, 1, None, "x") == [a1, a3]
        assert _text_window(history, 0, 2, None, "x") == [a3]
        assert _text_window(history, 0, 1, None, "z") == []

    def test_prune_replacement_updates_index(self):
        from repro.testing import Weaver

        w = Weaver(1)
        a1 = w.local(0, "A", "x")
        a2 = w.local(0, "A", "y")  # same epoch: replaces a1
        history = LeafHistory(0, 1)
        history.append(a1, epoch=5, may_prune=False)
        history.append(a2, epoch=5, may_prune=True)
        assert _text_window(history, 0, 1, None, "x") == []
        assert _text_window(history, 0, 1, None, "y") == [a2]


class TestSearchHints:
    def _cls(self, process, etype, text):
        from repro.patterns.ast import ClassDef
        from repro.patterns.classes import EventClass

        return EventClass.from_def(
            ClassDef(name="C", process=process, etype=etype, text=text),
            trace_names=("P0", "P1"),
        )

    def test_pinned_trace_from_exact(self):
        from repro.patterns.ast import Exact, Wildcard

        cls = self._cls(Exact("P1"), Wildcard(), Wildcard())
        assert cls.pinned_trace(None) == 1
        cls_num = self._cls(Exact("0"), Wildcard(), Wildcard())
        assert cls_num.pinned_trace(None) == 0

    def test_pinned_trace_from_bound_variable(self):
        from repro.patterns.ast import AttrVar, Wildcard

        cls = self._cls(AttrVar("p"), Wildcard(), Wildcard())
        assert cls.pinned_trace(None) is None
        assert cls.pinned_trace({}) is None
        assert cls.pinned_trace({"p": "P1"}) == 1

    def test_pinned_trace_nonexistent_name(self):
        from repro.patterns.ast import Exact, Wildcard

        cls = self._cls(Exact("P9"), Wildcard(), Wildcard())
        assert cls.pinned_trace(None) == -1

    def test_required_text(self):
        from repro.patterns.ast import AttrVar, Exact, Wildcard

        exact = self._cls(Wildcard(), Wildcard(), Exact("r1"))
        assert exact.required_text(None) == "r1"
        var = self._cls(Wildcard(), Wildcard(), AttrVar("t"))
        assert var.required_text({"t": "r2"}) == "r2"
        assert var.required_text({}) is None
        wild = self._cls(Wildcard(), Wildcard(), Wildcard())
        assert wild.required_text({"t": "r2"}) is None
