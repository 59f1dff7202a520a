"""A search pays for the domain it inspects, not for the stored history.

Candidate domains are index windows over the live history lists, so the
memory one ``_search`` allocates (levels, conflicts, reports) must not
grow with the stream.  Counted deterministically with ``tracemalloc``
(peak bytes above the level at search entry), not timed: a search that
goes back to copying history suffixes into candidate lists doubles its
peak when the stream doubles.

Nor must the candidates a search scans: the domain carries what the
pattern implies, the ``WITHIN`` bound and the negation bound, so a
courier's ``Drop`` meets its own job's ``Pickup`` and a worker's
``Commit`` its own unvalidated ``Request``, not every older one.
Counted off the matcher's own counters.

Nor must the work a search does before its first candidate: a plan's
levels are built once per plan, not once per search, and what the
bound events fix for a level (its pinned trace) is resolved once per
activation, not once per ``goForward`` call.  Counted by wrapping the
level constructor and ``EventClass.pinned_trace``.
"""

from __future__ import annotations

import tracemalloc

from repro.core import Monitor
from repro.core import matcher as matcher_module
from repro.engine import Pipeline
from repro.patterns.classes import EventClass
from repro.workloads import (
    absence_pattern,
    build_absence,
    build_hotpath,
    build_message_race,
    hotpath_pattern,
    message_race_pattern,
)


def peak_search_bytes(size):
    """Largest allocation peak of any one search over a message-race
    stream of ``size`` messages per sender, and the stream's length."""
    pipeline = Pipeline.for_workload(
        build_message_race(num_traces=6, seed=3, messages_per_sender=size)
    )
    recorder = pipeline.record()
    pipeline.run()
    monitor = Monitor.from_source(
        message_race_pattern(), list(pipeline.trace_names), record_timings=False
    )
    matcher = monitor.matcher
    plain_search = matcher._search
    peaks = []

    def measured_search(*args):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        try:
            return plain_search(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

    matcher._search = measured_search
    tracemalloc.start()
    try:
        for event in recorder.events:
            monitor.on_event(event)
    finally:
        tracemalloc.stop()
    assert matcher.matches_found > 0
    return max(peaks), len(recorder.events)


def test_search_allocation_stays_flat_when_stream_doubles():
    small, small_events = peak_search_bytes(80)
    large, large_events = peak_search_bytes(160)
    assert large_events >= 1.9 * small_events
    # suffix-copying candidate lists read 2x here; windows read ~1x
    assert large <= 1.25 * small, (small, large)


def candidates_per_search(workload, name, source):
    """``candidates_scanned / searches_run`` of ``source`` over
    ``workload``, and the searches run."""
    pipeline = Pipeline.for_workload(workload)
    monitor = pipeline.watch(name, source, record_timings=False)
    pipeline.run()
    matcher = monitor.matcher
    assert matcher.matches_found > 0
    assert matcher.window_rejections == 0  # sim windows never reach a scan
    return matcher.candidates_scanned / matcher.searches_run, matcher.searches_run


def test_candidates_per_search_stay_flat_when_stream_doubles():
    """The courier workload at the generator's default 8 % express mix
    (most searches fail)."""
    small, small_searches = candidates_per_search(
        build_hotpath(num_couriers=11, seed=7, jobs_per_courier=34),
        "hotpath", hotpath_pattern(),
    )
    large, large_searches = candidates_per_search(
        build_hotpath(num_couriers=11, seed=7, jobs_per_courier=68),
        "hotpath", hotpath_pattern(),
    )
    assert large_searches == 2 * small_searches
    # without the implied P -> D and the Lamport clamp a Drop sweeps
    # every stored Pickup: 190 -> 371 per search; with both, ~0.15
    assert large <= 1.25 * small and large < 1, (small, large)


def test_absence_candidates_per_search_stay_flat_when_stream_doubles():
    """Every ``Commit`` searches; 4 % of them commit unvalidated."""
    small, small_searches = candidates_per_search(
        build_absence(num_workers=11, seed=7, jobs_per_worker=57),
        "absence", absence_pattern(),
    )
    large, large_searches = candidates_per_search(
        build_absence(num_workers=11, seed=7, jobs_per_worker=114),
        "absence", absence_pattern(),
    )
    assert large_searches == 2 * small_searches
    # vetoed one complete assignment at a time, a Commit scans every
    # older Request of its worker: ~25 -> ~50 per search; floored by
    # the newest Validate before it, ~0.04
    assert large <= 1.25 * small and large < 1, (small, large)


def search_setup_calls(monkeypatch, size):
    """``(level constructions, pinned_trace calls, activations of
    trace-pinned levels, matcher)`` of one pass of the message-race
    pattern over a stream of ``size`` messages per sender."""
    pipeline = Pipeline.for_workload(
        build_message_race(num_traces=6, seed=3, messages_per_sender=size)
    )
    recorder = pipeline.record()
    pipeline.run()
    monitor = Monitor.from_source(
        message_race_pattern(), list(pipeline.trace_names), record_timings=False
    )
    matcher = monitor.matcher
    calls = {"levels": 0, "pinned": 0, "entered": 0}
    plain_level = matcher_module._Level.__init__
    plain_pinned = EventClass.pinned_trace
    plain_enter = matcher._enter

    def counting_level(self, *args):
        calls["levels"] += 1
        plain_level(self, *args)

    def counting_pinned(self, bindings):
        calls["pinned"] += 1
        return plain_pinned(self, bindings)

    def counting_enter(level, *args):
        calls["entered"] += level.pins_trace
        plain_enter(level, *args)

    matcher._enter = counting_enter
    with monkeypatch.context() as patch:
        patch.setattr(matcher_module._Level, "__init__", counting_level)
        patch.setattr(EventClass, "pinned_trace", counting_pinned)
        for event in recorder.events:
            monitor.on_event(event)
    assert matcher.matches_found > 0
    return calls["levels"], calls["pinned"], calls["entered"], matcher


def test_search_setup_stays_flat_when_stream_doubles(monkeypatch):
    runs = [search_setup_calls(monkeypatch, size) for size in (80, 160)]
    (_, small_pinned, _, small), (_, large_pinned, _, large) = runs
    assert large.searches_run >= 1.9 * small.searches_run
    for levels, pinned, entered, matcher in runs:
        # one level list per plan computed, not one per search
        assert levels <= matcher.plans_computed * matcher.pattern.num_leaves
        # the pinned trace resolved once per activation of a pinned
        # level, not once per goForward call on it
        assert 0 < pinned == entered, (pinned, entered)
    small_rate = small_pinned / small.searches_run
    large_rate = large_pinned / large.searches_run
    assert large_rate <= 1.1 * small_rate, (small_rate, large_rate)
