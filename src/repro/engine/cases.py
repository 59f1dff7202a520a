"""The case-study registry: one place naming the paper's workloads.

Section V-C's four case studies (plus the traffic-light extra) each
pair a simulated buggy application with the detection pattern that
catches it.  The CLI, the :class:`~repro.engine.pipeline.Pipeline`
constructors, the benchmarks, and the CI smoke jobs all resolve case
names through this registry instead of keeping private copies of the
builder lambdas.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Tuple

from repro.workloads import (
    absence_pattern,
    atomicity_pattern,
    build_absence,
    build_atomicity,
    build_hotpath,
    build_message_race,
    build_ordering_bug,
    build_random_walk,
    build_traffic_light,
    deadlock_pattern,
    hotpath_pattern,
    message_race_pattern,
    ordering_bug_pattern,
    traffic_light_pattern,
)


@dataclasses.dataclass(frozen=True)
class CaseStudy:
    """One named workload + its detection pattern.

    ``build(traces, seed)`` returns a workload result object exposing
    ``kernel``, ``server`` and ``run(max_events)`` (every builder in
    :mod:`repro.workloads` does);
    ``pattern(num_traces)`` returns the pattern source compiled
    against the workload's *actual* trace count.
    """

    name: str
    build: Callable[[int, int], object]
    pattern: Callable[[int], str]


#: Every runnable case, keyed by name.
CASES: Dict[str, CaseStudy] = {
    "deadlock": CaseStudy(
        name="deadlock",
        build=lambda traces, seed: build_random_walk(
            num_traces=traces, seed=seed, skip_probability=0.08,
        ),
        pattern=deadlock_pattern,
    ),
    "race": CaseStudy(
        name="race",
        build=lambda traces, seed: build_message_race(
            num_traces=traces, seed=seed, messages_per_sender=20,
        ),
        pattern=lambda traces: message_race_pattern(),
    ),
    "atomicity": CaseStudy(
        name="atomicity",
        build=lambda traces, seed: build_atomicity(
            num_processes=traces, seed=seed, iterations=40,
            bypass_probability=0.02,
        ),
        pattern=lambda traces: atomicity_pattern(),
    ),
    "ordering": CaseStudy(
        name="ordering",
        build=lambda traces, seed: build_ordering_bug(
            num_traces=traces, seed=seed, synchs_per_follower=6,
            bug_probability=0.05,
        ),
        pattern=lambda traces: ordering_bug_pattern(),
    ),
    "traffic": CaseStudy(
        name="traffic",
        build=lambda traces, seed: build_traffic_light(
            num_lights=max(2, traces - 1), seed=seed, cycles=40,
            fault_probability=0.05,
        ),
        pattern=lambda traces: traffic_light_pattern(),
    ),
    "hotpath": CaseStudy(
        name="hotpath",
        build=lambda traces, seed: build_hotpath(
            num_couriers=max(1, traces - 1), seed=seed,
            jobs_per_courier=12,
        ),
        pattern=lambda traces: hotpath_pattern(),
    ),
    "absence": CaseStudy(
        name="absence",
        build=lambda traces, seed: build_absence(
            num_workers=max(1, traces - 1), seed=seed,
            jobs_per_worker=25,
        ),
        pattern=lambda traces: absence_pattern(),
    ),
}

#: The paper's four case studies (Section V-C) — the standard shard
#: set for multi-pattern single-pass runs.
CASE_STUDY_NAMES: Tuple[str, ...] = ("deadlock", "race", "atomicity", "ordering")


def build_case(name: str, traces: int, seed: int) -> Tuple[object, str]:
    """Build one case's workload and its pattern source.

    The pattern is compiled for ``traces`` — matching the historical
    CLI behaviour where the workload's trace count equals the requested
    one for every case whose pattern is trace-parameterized.
    """
    case = CASES[name]
    return case.build(traces, seed), case.pattern(traces)


def case_patterns(num_traces: int) -> Dict[str, str]:
    """The four case-study pattern sources, sized for ``num_traces``
    (the shard set of a multi-pattern single pass)."""
    return {
        name: CASES[name].pattern(num_traces) for name in CASE_STUDY_NAMES
    }
