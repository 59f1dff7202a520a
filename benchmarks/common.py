"""Shared infrastructure for the figure/table benchmarks.

Every benchmark follows the paper's methodology (Section V-B): generate
a workload's event stream once (cached per session), replay it through
fresh monitors, and report per-terminating-event wall times as boxplot
statistics.  Rendered figures and tables are printed and written under
``benchmarks/results/`` so EXPERIMENTS.md can cite them.

Scale: defaults are laptop-sized; set ``OCEP_FULL_SCALE=1`` for the
paper's one-million-event budgets, or ``OCEP_EVENTS=<n>`` to pick one
explicitly.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    BoxplotStats,
    compute_boxplot,
    quartile_table,
    render_boxplots,
)
from repro.analysis.runner import scaled
from repro.core.config import MatcherConfig
from repro.core.monitor import Monitor
from repro.engine import Pipeline
from repro.events.event import Event

RESULTS_DIR = Path(__file__).parent / "results"

#: Replay repetitions per measurement (paper: five).
REPETITIONS = int(os.environ.get("OCEP_REPETITIONS", "3"))

_STREAM_CACHE: Dict[tuple, Tuple[List[Event], List[str], object]] = {}


def record_stream(key: tuple, build: Callable[[], object], max_events: Optional[int]):
    """Run a workload once and cache its recorded stream.

    ``build`` returns a workload result object (kernel/server/run).
    Returns ``(events, trace_names, workload, outcome)``.
    """
    cache_key = key + (max_events,)
    if cache_key in _STREAM_CACHE:
        return _STREAM_CACHE[cache_key]
    workload = build()
    pipeline = Pipeline.for_workload(workload)
    recorder = pipeline.record()
    result = pipeline.run(max_events=max_events)
    value = (
        recorder.events,
        list(pipeline.trace_names),
        workload,
        result.outcome,
    )
    _STREAM_CACHE[cache_key] = value
    return value


def replay(
    events: Sequence[Event],
    pattern: str,
    names: Sequence[str],
    config: Optional[MatcherConfig] = None,
    batch_size: Optional[int] = None,
) -> Monitor:
    """One full replay through a fresh single-shard pipeline."""
    pipeline = Pipeline.replay(events, names)
    monitor = pipeline.watch("bench", pattern, config=config)
    pipeline.run(batch_size=batch_size)
    return monitor


def timing_stats(monitor: Monitor) -> BoxplotStats:
    """Per-terminating-event quartiles in microseconds."""
    samples = [t * 1e6 for t in monitor.terminating_timings]
    return compute_boxplot(samples)


def emit_report(
    name: str,
    title: str,
    groups: Dict[str, BoxplotStats],
    notes: str = "",
) -> str:
    """Render, print, and persist one figure's boxplots + table."""
    body = [
        render_boxplots(groups, title=title),
        "",
        quartile_table(groups),
    ]
    if notes:
        body += ["", notes]
    return emit_text(name, "\n".join(body))


def emit_text(name: str, text: str) -> str:
    """Persist and print a free-form report."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}", file=sys.stderr)
    return text


__all__ = [
    "REPETITIONS",
    "RESULTS_DIR",
    "record_stream",
    "replay",
    "timing_stats",
    "emit_report",
    "emit_text",
    "scaled",
]
