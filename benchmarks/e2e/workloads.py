"""The six benchmark workloads: generator call, pinned size, patterns.

Sizes are pinned here (not derived at run time) because three of the
patterns are super-linear in stream length: events/s is only
comparable between two commits at one input size.  Each size makes one
batch pass take about a second on the reference host, so that the
driver's full set of runs fits its time budget.  ``--scale K``
multiplies the size column; a scaled run is labelled and is never
compared with a pinned-size baseline.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.engine import Pipeline
from repro.events.event import Event
from repro.resilience.faults import FaultPlan
from repro.workloads import (
    absence_pattern,
    build_absence,
    build_hotpath,
    build_message_race,
    build_ordering_bug,
    hotpath_pattern,
    message_race_pattern,
    ordering_bug_pattern,
)

PATTERN_DIR = Path(__file__).parent / "patterns"

#: The fault plan of ``faulty_holdback``: out-of-order arrival the
#: hold-back stage can always repair, so output must equal fault-free.
FAULT_PLAN = FaultPlan.delay(0.1, max_delay=8)


def multi_tenant_patterns() -> Dict[str, str]:
    """The shipped ``ordering`` case pattern plus the seven committed
    ``$r``-keyed pair/chain patterns, in a fixed order."""
    patterns = {"ordering": ordering_bug_pattern()}
    for path in sorted(PATTERN_DIR.glob("*.pat")):
        patterns[path.stem] = path.read_text()
    return patterns


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input: ``build(seed, size)`` returns an un-run
    workload object of :mod:`repro.workloads`; ``size`` is the pinned
    value of the generator's per-process repetition argument."""

    name: str
    why: str
    build: Callable[[int, int], object]
    size: int
    patterns: Callable[[], Dict[str, str]]
    faulty: bool = False
    #: Events the exponential oracle enumerates for the prefix check.
    oracle_prefix: int = 400

    def scaled_size(self, scale: float) -> int:
        return max(1, round(self.size * scale))

    def record(self, seed: int, scale: float) -> Tuple[List[Event], List[str]]:
        """Run the simulation kernel once and return the collected
        linearization with its trace names."""
        pipeline = Pipeline.for_workload(
            self.build(seed, self.scaled_size(scale))
        )
        recorder = pipeline.record()
        pipeline.run()
        return recorder.events, list(pipeline.trace_names)

    def pipeline(
        self,
        trace_names: List[str],
        patterns: Dict[str, str],
        seed: int,
        faults: bool = True,
        registry=None,
    ) -> Pipeline:
        """A fresh stream pipeline on the repo's defaults, every
        pattern watched; the faulty workload gets its two stages
        unless ``faults`` is off (the fault-free reference pass)."""
        pipeline = Pipeline.stream(trace_names, registry=registry)
        if self.faulty and faults:
            pipeline.with_faults(FAULT_PLAN, seed=seed).with_holdback()
        for name, source in patterns.items():
            pipeline.watch(name, source)
        return pipeline


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="race_dense",
            why="search-bound and match-dense (one report per two events): "
                "search, back-jumping and subset maintenance show here",
            build=lambda seed, size: build_message_race(
                num_traces=12, seed=seed, messages_per_sender=size
            ),
            size=420,
            patterns=lambda: {"race": message_race_pattern()},
            oracle_prefix=300,  # 1000 matches already; 400 costs 1.5 s
        ),
        Workload(
            name="multi_tenant",
            why="eight cheap live shards on one stream: per-shard "
                "classification, monitor bookkeeping and fan-out dominate",
            build=lambda seed, size: build_ordering_bug(
                num_traces=12, seed=seed, synchs_per_follower=size,
                bug_probability=0.05,
            ),
            size=120,
            patterns=multi_tenant_patterns,
        ),
        Workload(
            name="wide_ingest",
            why="192-wide clocks make POET collect+store the largest layer "
                "and RSS the largest of the six",
            # One request in ten hits the bug: at the generator's 1 % every
            # search fails at its first step, latencies all sit within
            # 45-55 us, and p95 is whatever noise survives the minimum
            # (24 % spread between seeds on identical code).
            build=lambda seed, size: build_ordering_bug(
                num_traces=192, seed=seed, synchs_per_follower=size,
                bug_probability=0.1,
            ),
            size=19,
            patterns=lambda: {"ordering": ordering_bug_pattern()},
        ),
        Workload(
            name="hotpath_kleene",
            why="Kleene + WITHIN + planner with a heavy latency tail: the "
                "only place window matrices, group expansion and plans work",
            # Every job express: a report (and a group expansion over the
            # never-pruned Kleene history) per Drop.  At the generator's
            # default 8 % the ~35 express jobs carry 80 % of the wall and
            # their count and positions vary with the seed: events/s then
            # spreads 11 % and p95 31 % between seeds on identical code.
            build=lambda seed, size: build_hotpath(
                num_couriers=11, seed=seed, jobs_per_courier=size,
                express_probability=1.0,
            ),
            size=34,
            patterns=lambda: {"hotpath": hotpath_pattern()},
        ),
        Workload(
            name="absence_negation",
            why="every search ends in the negation veto, growing with the "
                "stream: the worst scaling in the repo, invisible elsewhere",
            build=lambda seed, size: build_absence(
                num_workers=11, seed=seed, jobs_per_worker=size
            ),
            size=51,
            patterns=lambda: {"absence": absence_pattern()},
        ),
        Workload(
            name="faulty_holdback",
            why="delayed out-of-order arrival repaired by the hold-back "
                "stage, per-event hand-off downstream even in batch passes",
            build=lambda seed, size: build_ordering_bug(
                num_traces=12, seed=seed, synchs_per_follower=size
            ),
            size=555,
            patterns=lambda: {"ordering": ordering_bug_pattern()},
            faulty=True,
        ),
    )
}
