"""Unit tests for greatest-predecessor / least-successor queries."""

import pytest

from repro.core import CausalIndex
from repro.testing import Weaver


def brute_gp(events, event, trace):
    """Reference GP: latest event on ``trace`` happening before ``event``."""
    best = 0
    for other in events:
        if other.trace == trace and other.happens_before(event):
            best = max(best, other.index)
    return best


def brute_ls(events, event, trace):
    """Reference LS: earliest event on ``trace`` happening after ``event``."""
    best = None
    for other in events:
        if other.trace == trace and event.happens_before(other):
            best = other.index if best is None else min(best, other.index)
    return best


def indexed(weaver):
    index = CausalIndex(weaver.num_traces)
    for event in weaver.events:
        index.observe(event)
    return index


class TestBasicQueries:
    def test_own_trace_gp_and_ls(self):
        w = Weaver(1)
        first = w.local(0)
        second = w.local(0)
        third = w.local(0)
        index = indexed(w)
        assert index.gp(second, 0) == 1
        assert index.ls(second, 0) == 3
        assert index.gp(first, 0) == 0
        assert index.ls(third, 0) is None

    def test_remote_gp_through_message(self):
        w = Weaver(2)
        a = w.local(0)
        send, recv = w.message(0, 1)
        b = w.local(1)
        index = indexed(w)
        # GP of b on trace 0 is the send (the latest event before b)
        assert index.gp(b, 0) == send.index
        # GP of a on trace 1: nothing on trace 1 precedes a
        assert index.gp(a, 1) == 0

    def test_remote_ls_through_message(self):
        w = Weaver(2)
        a = w.local(0)
        send, recv = w.message(0, 1)
        b = w.local(1)
        index = indexed(w)
        # LS of a on trace 1 is the receive
        assert index.ls(a, 1) == recv.index
        # LS of b on trace 0: nothing on trace 0 follows b yet
        assert index.ls(b, 0) is None

    def test_ls_sharpens_as_events_arrive(self):
        w = Weaver(2)
        a = w.local(0)
        index = CausalIndex(2)
        index.observe(a)
        assert index.ls(a, 1) is None
        send, recv = w.message(0, 1)
        index.observe(send)
        index.observe(recv)
        assert index.ls(a, 1) == recv.index

    def test_observe_enforces_order(self):
        w = Weaver(1)
        w.local(0)
        second = w.local(0)
        index = CausalIndex(1)
        with pytest.raises(ValueError):
            index.observe(second)


class TestAgainstBruteForce:
    def test_random_computations(self):
        import random

        for seed in range(10):
            rng = random.Random(seed)
            w = Weaver(4)
            pending = []
            for _ in range(60):
                action = rng.random()
                trace = rng.randrange(4)
                if action < 0.4:
                    w.local(trace)
                elif action < 0.7 or not pending:
                    pending.append(w.send(trace))
                else:
                    send = pending.pop(rng.randrange(len(pending)))
                    dst = rng.choice([t for t in range(4) if t != send.trace])
                    w.recv(dst, send)
            index = indexed(w)
            for event in w.events:
                for trace in range(4):
                    assert index.gp(event, trace) == brute_gp(
                        w.events, event, trace
                    ), (seed, event)
                    assert index.ls(event, trace) == brute_ls(
                        w.events, event, trace
                    ), (seed, event)

    def test_index_size_tracks_communication_only(self):
        w = Weaver(2)
        for _ in range(50):
            w.local(0)
        index = indexed(w)
        assert index.index_size() == 0
        s, r = w.message(0, 1)
        index2 = CausalIndex(2)
        for e in w.events:
            index2.observe(e)
        assert index2.index_size() == 1  # one change point at the receive
        assert index2.ls(s, 1) == r.index
        assert index2.index_size() == 2  # ... and the column it folded into
