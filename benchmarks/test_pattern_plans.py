"""Cost-based constraint planner vs the static heuristic order.

The planner's claim (the PR-10 tentpole): ordering the constraint
search by *live* leaf-history sizes — instead of the static
most-selective-class-first heuristic — makes operator-heavy patterns
cheaper per event, and never makes any pattern slower (legacy patterns
bypass the planner entirely via the ``has_v2_features`` guard).

Methodology
-----------

* Each case's stream is generated once and replayed through fresh
  watched pipelines with the planner enabled and disabled.
  Min-of-repetition wall time / events is the per-event cost.
* ``hotpath`` is the head-to-head case: its ``Move`` class carries two
  exact attributes, so the static heuristic instantiates the enormous
  hop history right after the trigger, while the planner sees the live
  sizes and binds the rare ``Pickup`` first.  The planner must be
  ``OCEP_PLAN_MIN_SPEEDUP`` (default 1.2x) faster there.
* ``absence`` (two anchor leaves + a negation) and the legacy ``race``
  control have nothing to reorder — the planner must stay within
  ``OCEP_PLAN_TOLERANCE`` (default 10%) of the legacy cost on every
  case.
* Both configurations must produce identical subset signatures and
  match reports (the oracle suite proves semantics; this pins them at
  benchmark scale too).

Results land in ``BENCH_pattern_plans.json``; the ``*_us`` indicators
feed the ``ocep perf trend`` trajectory.
"""

import math
import os
import time

from common import REPETITIONS, emit_json, emit_text, scaled
from repro.core.config import MatcherConfig
from repro.engine import Pipeline
from repro.workloads import (
    absence_pattern,
    build_absence,
    build_hotpath,
    build_message_race,
    hotpath_pattern,
    message_race_pattern,
)

#: Per-case event budget (the issue's full-scale target is 10^5).
EVENTS = min(scaled(20000), 100_000)

#: Required speedup on the head-to-head (operator-bearing) case.
MIN_SPEEDUP = float(os.environ.get("OCEP_PLAN_MIN_SPEEDUP", "1.2"))

#: Allowed planner slowdown on cases with nothing to reorder.
TOLERANCE = float(os.environ.get("OCEP_PLAN_TOLERANCE", "0.10"))

#: Re-measurements of a failing case before declaring a breach real.
MAX_ATTEMPTS = 4

#: Event cap for the absence case: every Commit matches every earlier
#: same-worker Request, so its search cost grows quadratically in the
#: stream length under BOTH plan orders.
ABSENCE_CAP = 4000


def _units(per_unit: float, producers: int) -> int:
    """Workload units per producer to overshoot the event budget ~5%."""
    return max(2, math.ceil(EVENTS * 1.05 / (producers * per_unit)))


def _cases():
    # per_unit: calibrated events per job/message (send + recv + the
    # producer's emits) — only needs to overshoot the recording cap
    return {
        "hotpath": dict(
            pattern=hotpath_pattern(),
            build=lambda: build_hotpath(
                num_couriers=8,
                seed=0,
                jobs_per_courier=_units(46.0, 8),
            ),
            head_to_head=True,
            cap=None,
        ),
        "absence": dict(
            pattern=absence_pattern(),
            build=lambda: build_absence(
                num_workers=8,
                seed=0,
                jobs_per_worker=_units(5.0, 8),
            ),
            head_to_head=False,
            cap=ABSENCE_CAP,
        ),
        "race": dict(
            pattern=message_race_pattern(),
            build=lambda: build_message_race(
                num_traces=16,
                seed=0,
                messages_per_sender=_units(4.0, 15),
            ),
            head_to_head=False,
            cap=None,
        ),
    }


def _record(build, cap=None):
    pipeline = Pipeline.for_workload(build())
    recorder = pipeline.record()
    budget = EVENTS if cap is None else min(EVENTS, cap)
    pipeline.run(max_events=budget)
    return recorder.events, list(pipeline.trace_names)


def _replay_us(events, names, case, pattern, planner):
    """Min-of-repetitions watched replay: per-event cost + outputs."""
    best = float("inf")
    monitor = None
    for _ in range(REPETITIONS):
        pipeline = Pipeline.replay(events, names)
        monitor = pipeline.watch(
            case,
            pattern,
            record_timings=False,
            config=MatcherConfig(planner=planner),
        )
        started = time.perf_counter()
        pipeline.run()
        best = min(best, time.perf_counter() - started)
    return {
        "us_per_event": best / len(events) * 1e6,
        "signature": monitor.subset.signature(),
        "reports": monitor.reports,
        "matches": len(monitor.reports),
        "plans_computed": monitor.matcher.plans_computed,
    }


def _measure_case(name, spec):
    events, names = _record(spec["build"], spec["cap"])
    runs = {
        label: _replay_us(events, names, name, spec["pattern"], planner)
        for label, planner in (("planner", True), ("legacy", False))
    }
    assert runs["planner"]["signature"] == runs["legacy"]["signature"], (
        f"{name}: representative subsets differ between plan orders"
    )
    assert runs["planner"]["reports"] == runs["legacy"]["reports"], (
        f"{name}: match reports differ between plan orders"
    )
    result = {
        "events": len(events),
        "traces": len(names),
        "matches": runs["planner"]["matches"],
        "plans_computed": runs["planner"]["plans_computed"],
        "planner_us_per_event": runs["planner"]["us_per_event"],
        "legacy_us_per_event": runs["legacy"]["us_per_event"],
        "speedup": (
            runs["legacy"]["us_per_event"] / runs["planner"]["us_per_event"]
        ),
        "head_to_head": spec["head_to_head"],
    }
    return result, events, names


def test_cost_based_plans_beat_the_static_heuristic():
    cases = {}
    streams = {}
    for name, spec in _cases().items():
        result, events, names = _measure_case(name, spec)
        cases[name] = result
        streams[name] = (events, names)

    # The pass/fail numbers are ratios of wall times on a shared
    # runner; re-measure a failing case before declaring a breach.
    def breached(c):
        if c["head_to_head"] and c["speedup"] < MIN_SPEEDUP:
            return True
        return c["speedup"] < 1.0 / (1.0 + TOLERANCE)

    for attempt in range(2, MAX_ATTEMPTS + 1):
        failing = [n for n, c in cases.items() if breached(c)]
        if not failing:
            break
        for name in failing:
            events, names = streams[name]
            spec = _cases()[name]
            for label, planner in (("planner", True), ("legacy", False)):
                run = _replay_us(events, names, name, spec["pattern"], planner)
                cases[name][f"{label}_us_per_event"] = run["us_per_event"]
            cases[name]["speedup"] = (
                cases[name]["legacy_us_per_event"]
                / cases[name]["planner_us_per_event"]
            )
            cases[name]["attempts"] = attempt

    payload = {
        "events_budget": EVENTS,
        "min_speedup_required": MIN_SPEEDUP,
        "tolerance": TOLERANCE,
        "cases": cases,
    }
    # top-level *_us keys feed the perf-trend indicator sweep
    for name, c in cases.items():
        payload[f"{name}_planner_us"] = c["planner_us_per_event"]
        payload[f"{name}_legacy_us"] = c["legacy_us_per_event"]
    emit_json("pattern_plans", payload)

    lines = [
        "Cost-based constraint planner vs static heuristic order "
        f"({EVENTS} event budget per case, min of {REPETITIONS} replays):",
        "",
        f"  {'case':10s} {'events':>7s} {'matches':>7s} "
        f"{'legacy':>9s} {'planner':>9s} {'speedup':>8s}",
    ]
    for name, c in cases.items():
        marker = "  <- head-to-head" if c["head_to_head"] else ""
        lines.append(
            f"  {name:10s} {c['events']:7d} {c['matches']:7d} "
            f"{c['legacy_us_per_event']:8.2f}u "
            f"{c['planner_us_per_event']:8.2f}u "
            f"{c['speedup']:7.2f}x{marker}"
        )
    lines += [
        "",
        "  identical subset signatures and match reports under both "
        "orders; legacy patterns (race) bypass the planner via the "
        "has_v2_features guard, so their ratio is pure noise.",
    ]
    emit_text("pattern_plans", "\n".join(lines))

    for name, c in cases.items():
        assert c["speedup"] >= 1.0 / (1.0 + TOLERANCE), (
            f"{name}: cost-based order is slower than the legacy "
            f"heuristic ({c['speedup']:.2f}x, tolerance {TOLERANCE:.0%}) "
            f"after {MAX_ATTEMPTS} attempts"
        )
    head = [c for c in cases.values() if c["head_to_head"]]
    assert any(c["speedup"] >= MIN_SPEEDUP for c in head), (
        "no operator-bearing case cleared the required "
        f"{MIN_SPEEDUP:.1f}x planner speedup: "
        + ", ".join(
            f"{n} {c['speedup']:.2f}x"
            for n, c in cases.items()
            if c["head_to_head"]
        )
    )
