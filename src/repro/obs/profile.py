"""Thread-sampling wall-clock profiler with collapsed-stack output.

Per-stage latency histograms say which *stage* is slow; a profile says
which *code* inside it.  :class:`SamplingProfiler` samples the target
thread's Python stack via ``sys._current_frames()`` from a daemon
thread at a fixed interval — no tracing hooks, no interpreter
slowdown on the profiled path beyond the GIL handoffs the sampler
itself costs — and aggregates:

* **collapsed stacks** (``root;child;leaf count`` lines), the input
  format of Brendan Gregg's ``flamegraph.pl`` and of speedscope's
  collapsed importer, written by ``ocep case --profile``;
* **per-stage self time**: each sample is attributed to the pipeline
  stage owning its innermost ``repro``-module frame (see
  :data:`STAGE_MODULES`), yielding the exclusive-time split the
  inclusive ``ocep_stage_latency_seconds`` histograms cannot show.

Sampling is statistical: counts are proportional to wall time spent,
with resolution ``interval`` (5 ms default — ~200 samples per busy
second, negligible sampler load).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter as _TallyCounter
from typing import Dict, List, Optional, Tuple

#: Longest-prefix map from module path to owning pipeline stage; the
#: innermost frame that matches attributes the sample.  Order does not
#: matter (longest prefix wins).
STAGE_MODULES: Dict[str, str] = {
    "repro.simulation": "source",
    "repro.workloads": "source",
    "repro.poet.holdback": "holdback",
    "repro.poet": "poet",
    "repro.resilience.faults": "faults",
    "repro.resilience.overload": "shedder",
    "repro.engine.dispatch": "dispatcher",
    "repro.core.front": "dispatcher",
    "repro.core": "monitors",
    "repro.clocks": "monitors",
    "repro.events": "monitors",
    "repro.obs": "observability",
}

#: Stage assigned to samples whose stack holds no mapped frame.
OTHER_STAGE = "other"


def stage_of_stack(module_names: List[str]) -> str:
    """Attribute one sampled stack (outermost first) to a stage by its
    innermost mapped frame."""
    for module in reversed(module_names):
        best = ""
        for prefix in STAGE_MODULES:
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > len(best):
                    best = prefix
        if best:
            return STAGE_MODULES[best]
    return OTHER_STAGE


class SamplingProfiler:
    """Samples one thread's stack on a wall-clock schedule.

    Parameters
    ----------
    interval:
        Seconds between samples.
    target_thread_id:
        ``threading.get_ident()`` of the thread to sample; defaults to
        the thread that calls :meth:`start`.
    max_depth:
        Frames retained per sample (innermost kept).

    Use as a context manager around the code to profile::

        with SamplingProfiler(interval=0.002) as profiler:
            pipeline.run()
        print(profiler.report())
    """

    def __init__(
        self,
        interval: float = 0.005,
        target_thread_id: Optional[int] = None,
        max_depth: int = 64,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.interval = interval
        self.max_depth = max_depth
        self._target = target_thread_id
        self._stacks: _TallyCounter = _TallyCounter()
        self._stage_samples: _TallyCounter = _TallyCounter()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples_taken = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self._target is None:
            self._target = threading.get_ident()
        self._stop.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="ocep-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.stopped_at = time.perf_counter()

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            if frame is None:
                continue
            modules: List[str] = []
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                module = frame.f_globals.get("__name__", "?")
                stack.append(f"{module}:{frame.f_code.co_name}")
                modules.append(module)
                frame = frame.f_back
                depth += 1
            # Innermost-first while walking; collapsed format wants
            # outermost (root) first.
            stack.reverse()
            modules.reverse()
            self._stacks[tuple(stack)] += 1
            self._stage_samples[stage_of_stack(modules)] += 1
            self.samples_taken += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def total_samples(self) -> int:
        return sum(self._stacks.values())

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``frame;frame;... count``), most
        frequent first — feed to ``flamegraph.pl`` or speedscope."""
        return [
            ";".join(stack) + f" {count}"
            for stack, count in self._stacks.most_common()
        ]

    def stage_self_time(self) -> Dict[str, float]:
        """Fraction of samples attributed to each stage (exclusive
        time, innermost-mapped-frame rule); empty when no samples."""
        total = self.total_samples
        if total == 0:
            return {}
        return {
            stage: count / total
            for stage, count in sorted(
                self._stage_samples.items(), key=lambda kv: -kv[1]
            )
        }

    def hottest(self, limit: int = 10) -> List[Tuple[str, int]]:
        """The ``limit`` most-sampled leaf frames and their counts."""
        leaves: _TallyCounter = _TallyCounter()
        for stack, count in self._stacks.items():
            leaves[stack[-1]] += count
        return leaves.most_common(limit)

    def report(self, limit: int = 10) -> str:
        """Human-readable summary: stage split plus hottest frames."""
        total = self.total_samples
        lines = [f"{total} samples @ {self.interval * 1e3:.1f} ms"]
        if total == 0:
            lines.append("  (no samples — profiled section too short; "
                         "lower --interval)")
            return "\n".join(lines)
        lines.append("stage self time:")
        for stage, fraction in self.stage_self_time().items():
            lines.append(f"  {stage:<14} {fraction * 100:5.1f}%")
        lines.append(f"hottest frames (top {limit}):")
        for frame, count in self.hottest(limit):
            lines.append(f"  {count:>6}  {frame}")
        return "\n".join(lines)


__all__ = [
    "OTHER_STAGE",
    "STAGE_MODULES",
    "SamplingProfiler",
    "stage_of_stack",
]
