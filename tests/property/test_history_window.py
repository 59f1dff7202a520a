"""``LeafHistory.window``: the no-copy candidate window.

The search reads its candidate domains as index windows over the live
per-trace and per-text lists of a leaf history.  Two properties make
that sound: the window's ``events`` *is* the stored list (nothing is
copied, so a search costs what it inspects, not what is stored), and
``events[left:right]`` is exactly what a brute-force filter on
position and text selects — for every bound shape the search produces
(empty, unbounded above, inverted) and after in-place prunes replaced
the newest entry of a trace.  The sweep's skip-ahead
``next_nonempty(trace, text)`` equals a brute-force scan of the stored
lists, also after a prune emptied a text bucket and after a restore.
Given a Lamport range (the ``WITHIN`` clamp) the window is that filter
with the range added — equal Lamport times included — except on a
trace whose stored Lamport times were seen to decrease, which comes
back unclamped for the per-candidate check.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import LeafHistory, clamp_cut
from repro.testing import Weaver

TEXTS = ("", "x", "y")


@st.composite
def appended_history(draw, lamport_steps=None):
    """A history fed a random append/prune sequence over several
    traces, with the events it must now hold per trace.  With
    ``lamport_steps`` (a strategy of increments) the events are
    restamped with Lamport times that repeat and, on a negative
    increment, regress; the third item says per trace whether the
    history was handed a regression."""
    num_traces = draw(st.integers(min_value=1, max_value=3))
    clocks = [0] * num_traces
    regressed = [False] * num_traces
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_traces - 1),
                st.sampled_from(TEXTS),
                st.booleans(),  # stored at all (else the position is skipped)
                st.booleans(),  # same epoch as the previous append: a prune
            ),
            max_size=30,
        )
    )
    weaver = Weaver(num_traces)
    history = LeafHistory(0, num_traces)
    stored = [[] for _ in range(num_traces)]
    epochs = [0] * num_traces
    for trace, text, keep, prune in steps:
        event = weaver.local(trace, "A", text)
        if lamport_steps is not None:
            clocks[trace] = max(0, clocks[trace] + draw(lamport_steps))
            event = dataclasses.replace(event, lamport=clocks[trace])
        if not keep:
            continue
        if stored[trace] and event.lamport < stored[trace][-1].lamport:
            regressed[trace] = True
        if prune and stored[trace]:
            stored[trace][-1] = event
        else:
            epochs[trace] += 1
            stored[trace].append(event)
        history.append(event, epoch=epochs[trace], may_prune=prune)
    return history, stored, regressed


@given(appended_history(), st.data())
@settings(max_examples=150, deadline=None)
def test_window_is_the_live_list_and_equals_a_brute_force_filter(built, data):
    history, stored, _ = built
    trace = data.draw(st.integers(min_value=0, max_value=len(stored) - 1))
    top = len(stored[trace]) * 2 + 3
    lo = data.draw(st.integers(min_value=1, max_value=top))
    hi = data.draw(st.none() | st.integers(min_value=0, max_value=top))
    text = data.draw(st.none() | st.sampled_from(TEXTS + ("absent",)))

    events, left, right = history.window(trace, lo, hi, text)

    want = [
        e for e in stored[trace]
        if e.index >= lo
        and (hi is None or e.index <= hi)
        and (text is None or e.text == text)
    ]
    assert list(events[left:right]) == want
    assert 0 <= left <= right <= len(events)
    if text is None:
        assert events is history.on_trace(trace)
        assert list(events) == stored[trace]
    else:
        bucket = [e for e in stored[trace] if e.text == text]
        assert list(events) == bucket
        if bucket:  # the no-copy contract, for the text index too
            assert events is history.window(trace, 1, None, text)[0]
    # the copying view is the same window, copied
    if text is None:
        assert list(history.slice(trace, lo, hi)) == want


def _first_holding(traces, start, text):
    """Brute force: the first trace at or after ``start`` whose events
    include one carrying ``text`` (any event when ``text`` is None)."""
    return next((
        trace for trace in range(start, len(traces))
        if any(text is None or e.text == text for e in traces[trace])
    ), None)


@given(appended_history(), st.data())
@settings(max_examples=200, deadline=None)
def test_next_nonempty_by_text_equals_a_brute_force_scan(built, data):
    """The sweep's skip-ahead with a bound text: after prunes that
    emptied a text bucket, and on a copy restored from a snapshot."""
    history, stored, _ = built
    num_traces = len(stored)
    restored = LeafHistory(0, num_traces)
    restored.restore(history.snapshot())
    start = data.draw(st.integers(min_value=0, max_value=num_traces))
    text = data.draw(st.none() | st.sampled_from(TEXTS + ("absent",)))
    want = _first_holding(stored, start, text)
    for h in (history, restored):
        on_trace = [h.on_trace(t) for t in range(num_traces)]
        assert _first_holding(on_trace, start, text) == want
        assert h.next_nonempty(start, text) == want
        assert list(h.traces_with_events(text)) == [
            t for t in range(num_traces) if _first_holding(stored, t, text) == t
        ]


def test_a_prune_that_empties_a_text_bucket_moves_the_skip_ahead():
    w = Weaver(2)
    history = LeafHistory(0, 2)
    history.append(w.local(0, "A", "x"), epoch=1, may_prune=False)
    history.append(w.local(1, "A", "x"), epoch=1, may_prune=False)
    assert history.next_nonempty(0, "x") == 0
    history.append(w.local(0, "A", "y"), epoch=1, may_prune=True)
    assert history.next_nonempty(0, "x") == 1  # trace 0 holds no x now
    assert history.next_nonempty(0, "y") == 0
    assert history.next_nonempty(1, "y") is None
    assert history.next_nonempty(0) == 0
    assert history.traces_with_events("x") == [1]


def test_window_sees_an_in_place_prune_of_the_newest_entry():
    w = Weaver(1)
    a = w.local(0, "A", "x")
    b = w.local(0, "A", "y")
    c = w.local(0, "A", "x")
    history = LeafHistory(0, 1)
    history.append(a, epoch=1, may_prune=False)
    history.append(b, epoch=2, may_prune=False)
    live, left, right = history.window(0, 1, None)
    assert (left, right) == (0, 2) and live is history.on_trace(0)
    history.append(c, epoch=2, may_prune=True)  # replaces b in place
    events, left, right = history.window(0, 1, None)
    assert events is live and list(events[left:right]) == [a, c]
    assert history.window(0, 2, 2)[1:] == (1, 1)  # b's position is gone
    events, left, right = history.window(0, 1, None, "x")
    assert list(events[left:right]) == [a, c]
    assert history.window(0, 1, None, "y") == ((), 0, 0)
    _, left, right = history.window(0, 3, 1)  # lo > hi: empty, in range
    assert left == right <= 2


@given(
    appended_history(st.sampled_from((0, 0, 1, 1, 2, 5, -3))), st.data()
)
@settings(max_examples=300, deadline=None)
def test_lamport_clamp_equals_a_brute_force_filter(built, data):
    history, stored, regressed = built
    trace = data.draw(st.integers(min_value=0, max_value=len(stored) - 1))
    top = len(stored[trace]) * 2 + 3
    lo = data.draw(st.integers(min_value=1, max_value=top))
    hi = data.draw(st.none() | st.integers(min_value=lo, max_value=top))
    text = data.draw(st.none() | st.sampled_from(TEXTS))
    first = data.draw(st.integers(min_value=-4, max_value=40))
    last = data.draw(st.integers(min_value=first - 2, max_value=44))

    events, left, right = history.window(trace, lo, hi, text, (first, last))

    in_interval = [
        e for e in stored[trace]
        if e.index >= lo
        and (hi is None or e.index <= hi)
        and (text is None or e.text == text)
    ]
    want = [e for e in in_interval if first <= e.lamport <= last]
    got = list(events[left:right])
    if regressed[trace]:
        # not clamped: the per-candidate check still decides alone
        assert got == in_interval
        assert not clamp_cut(events, left, right, lo, hi)
    else:
        assert got == want
        assert clamp_cut(events, left, right, lo, hi) == (want != in_interval)
    assert [e for e in got if first <= e.lamport <= last] == want
    assert events is history.window(trace, lo, hi, text)[0]  # still no copy


def test_a_restored_history_rederives_which_traces_may_be_clamped():
    w = Weaver(2)
    stamps = {0: (3, 3, 7), 1: (5, 2, 9)}  # trace 1 regresses
    history = LeafHistory(0, 2)
    for trace, lamports in stamps.items():
        for lamport in lamports:
            event = dataclasses.replace(w.local(trace, "A"), lamport=lamport)
            history.append(event, epoch=lamport, may_prune=False)
    restored = LeafHistory(0, 2)
    restored.restore(history.snapshot())
    for h in (history, restored):
        assert [e.lamport for e in h.slice(0, 1, None)] == [3, 3, 7]
        _, left, right = h.window(0, 1, None, None, (3, 3))
        assert (left, right) == (0, 2)  # both events stamped 3
        _, left, right = h.window(1, 1, None, None, (3, 4))
        assert (left, right) == (0, 3)  # unclamped
