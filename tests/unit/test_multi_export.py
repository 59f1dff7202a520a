"""Unit tests for dispatcher fan-out, DOT export, and random_computation."""

import pytest

from repro import Kernel, instrument
from repro.analysis import causality_edges, to_dot
from repro.engine import ShardedDispatcher
from repro.events import EventId
from repro.testing import Weaver, random_computation

AB = "A := ['', A, '']; B := ['', B, '']; pattern := A -> B;"
CONC = "A := ['', A, '']; B := ['', B, '']; pattern := A || B;"


def _stream():
    w = Weaver(2)
    a = w.local(0, "A")
    s, r = w.message(0, 1)
    b = w.local(1, "B")
    return w


class TestDispatcherFanOut:
    def test_patterns_run_independently(self):
        w = _stream()
        multi = ShardedDispatcher(["P0", "P1"])
        multi.watch("order", AB)
        multi.watch("conc", CONC)
        for event in w.events:
            multi.on_event(event)
        assert len(multi["order"].reports) == 1
        assert len(multi["conc"].reports) == 0  # a -> b, never concurrent
        assert multi.total_reports() == 1
        assert multi.events_seen == len(w.events)

    def test_named_callback(self):
        w = _stream()
        seen = []
        multi = ShardedDispatcher(["P0", "P1"])
        for name, source in (("order", AB), ("conc", CONC)):
            multi.watch(name, source,
                        on_match=lambda r, n=name: seen.append(n))
        for event in w.events:
            multi.on_event(event)
        assert seen == ["order"]

    def test_duplicate_name_rejected(self):
        multi = ShardedDispatcher(["P0"])
        multi.watch("x", AB)
        with pytest.raises(ValueError):
            multi.watch("x", CONC)

    def test_container_protocol(self):
        multi = ShardedDispatcher(["P0"])
        multi.watch("x", AB)
        assert "x" in multi
        assert "y" not in multi
        assert len(multi) == 1
        assert dict(iter(multi))["x"] is multi["x"]

    def test_stats_keyed_by_name(self):
        w = _stream()
        multi = ShardedDispatcher(["P0", "P1"])
        multi.watch("order", AB)
        for event in w.events:
            multi.on_event(event)
        stats = multi.stats()
        assert stats["order"].matches_reported == 1

    def test_live_pipeline(self):
        kernel = Kernel(num_processes=2, seed=9)
        server = instrument(kernel)
        multi = ShardedDispatcher(kernel.trace_names())
        multi.watch("order", AB)
        server.connect(multi)

        def p0(p):
            yield p.emit("A")
            yield p.send(1)

        def p1(p):
            yield p.receive()
            yield p.emit("B")

        kernel.spawn(0, p0)
        kernel.spawn(1, p1)
        kernel.run()
        assert len(multi["order"].reports) == 1


class TestCausalityEdges:
    def test_program_order_and_message_edges(self):
        w = _stream()
        edges = causality_edges(w.events)
        # P0: A -> Send; P1: Receive -> B; message: Send -> Receive
        assert (EventId(0, 1), EventId(0, 2)) in edges
        assert (EventId(1, 1), EventId(1, 2)) in edges
        assert (EventId(0, 2), EventId(1, 1)) in edges
        assert len(edges) == 3

    def test_edges_cover_happens_before(self):
        """Transitive closure of the covering edges equals the full
        happens-before relation."""
        w = random_computation(5, num_traces=3, steps=25)
        edges = causality_edges(w.events)
        adjacency = {}
        for src, dst in edges:
            adjacency.setdefault(src, set()).add(dst)

        def reachable(start):
            seen, stack = set(), [start]
            while stack:
                node = stack.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        for a in w.events:
            closure = reachable(a.event_id)
            for b in w.events:
                if a == b:
                    continue
                assert (b.event_id in closure) == a.happens_before(b)


class TestDotExport:
    def test_structure(self):
        w = _stream()
        dot = to_dot(w.events, 2, trace_names=["left", "right"])
        assert dot.startswith("digraph computation {")
        assert dot.rstrip().endswith("}")
        assert 'label="left"' in dot and 'label="right"' in dot
        assert "e0_2 -> e1_1" in dot  # the message edge
        assert "style=dashed" in dot

    def test_highlighting(self):
        w = Weaver(1)
        a = w.local(0, "A")
        dot = to_dot(w.events, 1, highlight=[a])
        assert "fillcolor" in dot

    def test_name_mismatch_rejected(self):
        w = _stream()
        with pytest.raises(ValueError):
            to_dot(w.events, 2, trace_names=["only-one"])


class TestRandomComputation:
    def test_deterministic(self):
        a = random_computation(7, num_traces=3, steps=30)
        b = random_computation(7, num_traces=3, steps=30)
        assert [(e.trace, e.index, e.etype) for e in a.events] == [
            (e.trace, e.index, e.etype) for e in b.events
        ]

    def test_respects_types_and_texts(self):
        w = random_computation(1, etypes=("X",), texts=("t",), steps=30)
        locals_ = [e for e in w.events if e.etype == "X"]
        assert locals_
        assert all(e.text == "t" for e in locals_)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            random_computation(0, local_probability=0.9, send_probability=0.5)

    def test_stream_is_linearization(self):
        from repro.poet import is_linearization

        for seed in range(5):
            w = random_computation(seed, num_traces=4, steps=40)
            assert is_linearization(w.events, 4)
