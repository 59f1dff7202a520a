"""The v2 guards look at in-interval events only.

The negation bound (its witness lookup, and the veto that arbitrates
what the bound did not decide) and the Kleene group expansion are
served from the Figure-4 causal interval of the events they are asked
about, so the number of stored events one search / one report inspects
must not grow with the stream.  Counted deterministically (calls to the
guarded class's ``matches`` made from inside a guard), not timed: a
guard that goes back to walking whole histories doubles the count when
the stream doubles.
"""

from __future__ import annotations

import pytest

from repro.core import Monitor
from repro.engine import Pipeline
from repro.patterns.classes import EventClass
from repro.workloads import (
    absence_pattern,
    build_absence,
    build_hotpath,
    hotpath_pattern,
)


def record(workload):
    pipeline = Pipeline.for_workload(workload)
    recorder = pipeline.record()
    pipeline.run()
    return recorder.events, list(pipeline.trace_names)


def inspected_per_unit(monkeypatch, workload, source, guards, unit_counter):
    """Events the ``guards`` inspected, per unit of ``unit_counter``."""
    events, names = record(workload)
    monitor = Monitor.from_source(source, names, record_timings=False)
    matcher = monitor.matcher
    state = {"inside": False, "inspected": 0}
    plain_matches = EventClass.matches

    def counting_matches(self, event, bindings=None):
        if state["inside"]:
            state["inspected"] += 1
        return plain_matches(self, event, bindings)

    def flagged(plain_guard):
        def flagged_guard(*args):
            state["inside"] = True
            try:
                return plain_guard(*args)
            finally:
                state["inside"] = False

        return flagged_guard

    with monkeypatch.context() as patch:
        patch.setattr(EventClass, "matches", counting_matches)
        for guard in guards:
            patch.setattr(matcher, guard, flagged(getattr(matcher, guard)))
        for event in events:
            monitor.on_event(event)
    units = matcher.counters()[unit_counter]
    assert units > 0 and state["inspected"] > 0
    return state["inspected"] / units, len(events)


CASES = {
    "negation_veto": (
        lambda size: build_absence(num_workers=6, seed=3, jobs_per_worker=size),
        absence_pattern(),
        ("_negation_bound", "_negation_witness"),
        "searches_run",
        20,
    ),
    "kleene_expansion": (
        lambda size: build_hotpath(
            num_couriers=5, seed=3, jobs_per_courier=size,
            express_probability=1.0,
        ),
        hotpath_pattern(),
        ("_expand_group",),
        "matches_found",
        10,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_inspected_events_stay_flat_when_stream_doubles(monkeypatch, name):
    build, source, guards, unit_counter, size = CASES[name]
    small, small_events = inspected_per_unit(
        monkeypatch, build(size), source, guards, unit_counter
    )
    large, large_events = inspected_per_unit(
        monkeypatch, build(2 * size), source, guards, unit_counter
    )
    assert large_events >= 1.9 * small_events
    # a full-history guard reads 2x here; in-interval work reads ~1x
    assert large <= 1.25 * small, (small, large)
