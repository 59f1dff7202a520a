"""``LeafHistory.window``: the no-copy candidate window.

The search reads its candidate domains as index windows over the live
per-trace and per-text lists of a leaf history.  Two properties make
that sound: the window's ``events`` *is* the stored list (nothing is
copied, so a search costs what it inspects, not what is stored), and
``events[left:right]`` is exactly what a brute-force filter on
position and text selects — for every bound shape the search produces
(empty, unbounded above, inverted) and after in-place prunes replaced
the newest entry of a trace.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import LeafHistory
from repro.testing import Weaver

TEXTS = ("", "x", "y")


@st.composite
def appended_history(draw):
    """A history fed a random append/prune sequence over several
    traces, with the events it must now hold per trace."""
    num_traces = draw(st.integers(min_value=1, max_value=3))
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
        if not keep:
            continue
        if prune and stored[trace]:
            stored[trace][-1] = event
        else:
            epochs[trace] += 1
            stored[trace].append(event)
        history.append(event, epoch=epochs[trace], may_prune=prune)
    return history, stored


@given(appended_history(), st.data())
@settings(max_examples=150, deadline=None)
def test_window_is_the_live_list_and_equals_a_brute_force_filter(built, data):
    history, stored = built
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
    # the copying views are the same window, copied
    if text is None:
        assert list(history.slice(trace, lo, hi)) == want
    else:
        assert list(history.slice_by_text(trace, lo, hi, text)) == want


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
