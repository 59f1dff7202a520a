"""Causal span tracing with Chrome trace-event (Perfetto) export.

The metrics layer answers *how much* (counters, histograms) and the
search-trace ring answers *which decisions*; neither can show **where
inside one trigger the time went** or lay the happens-before partial
order out on a timeline.  This module records a run as hierarchical
spans and point events in **two clock domains** and exports them in
the Chrome trace-event JSON format, loadable in Perfetto or
``chrome://tracing``:

* **Simulated time** (pid :data:`SIM_PID`) — one track per trace of
  the monitored computation.  The simulation kernel emits every
  instrumented event as a short slice at its ``kernel.now``, and each
  message (including semaphore grant/release causality) as a
  **flow event** from the send slice to the receive slice.  The flow
  arrows *are* the happens-before edges: the Perfetto view of this
  process group is the partial order itself.

* **Wall-clock time** (pid :data:`MONITOR_PID`) — one track per
  pipeline stage (POET server delivery, hold-back repair, matcher
  search).  The matcher opens a ``matcher.search`` span per triggered
  search (the same 1-based search ordinal as the search-trace ring)
  with nested ``matcher.goForward`` / ``matcher.goBackward`` child
  spans, so one slow trigger can be read level by level.

Wall-clock spans additionally stamp the simulated time at which they
opened (``args.sim_time``) when a ``sim_clock`` is bound, tying the
two domains together.

Everything is **off-by-default-cheap**: components hold
:data:`NULL_TRACER` (a :class:`NullTracer`) unless a real tracer is
installed, and every instrumentation site is guarded by a single
``tracer.enabled`` attribute load, mirroring the
:data:`~repro.obs.metrics.NULL_REGISTRY` bargain.

Exports are plain lists of trace-event dicts;
:func:`validate_trace_events` checks the subset of the schema this
module emits (well-formed phases, balanced/nested ``B``/``E`` pairs
per track, flow starts preceding flow finishes) and is reused by the
test suite and the CI smoke step.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: Chrome trace-event process id for the simulated-time clock domain.
SIM_PID = 1

#: Chrome trace-event process id for the wall-clock domain.
MONITOR_PID = 2

#: Exported microseconds per simulated time unit.
SIM_TIME_SCALE = 1e6

#: Slice width (exported microseconds) of one simulated point event —
#: wide enough for Perfetto to render and bind flows to, and narrower
#: than the minimum spacing enforced by the per-track timestamp bump.
SIM_EVENT_DUR = 0.8


class _Span:
    """Context manager pairing one ``begin`` with its ``end``."""

    __slots__ = ("_tracer", "_name", "_track", "_args")

    def __init__(self, tracer: "SpanTracer", name: str, track: str, args):
        self._tracer = tracer
        self._name = name
        self._track = track
        self._args = args

    def __enter__(self) -> "_Span":
        self._tracer.begin(self._name, self._track, self._args)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer.end(self._track)
        return False


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class SpanTracer:
    """Records spans, instants, and flows; exports Chrome trace events.

    Parameters
    ----------
    sim_clock:
        Optional zero-argument callable returning the current simulated
        time (e.g. ``lambda: kernel.now``).  When bound, every
        wall-clock span's ``args`` carry the simulated time at which it
        opened, correlating the two clock domains.
    """

    enabled = True

    def __init__(self, sim_clock: Optional[Callable[[], float]] = None):
        self._events: List[dict] = []
        # Guards the event buffer only: the pipeline thread is the sole
        # writer, but the scrape server's /spans endpoint reads the
        # buffer from its own thread mid-run, and a list being appended
        # to must not be copied unlocked.
        self._events_lock = threading.Lock()
        self._span_seq = itertools.count(1)
        self._flow_seq = itertools.count(1)
        self._flow_ids: Dict[Any, int] = {}
        self._stack: List[int] = []
        self._track_tids: Dict[str, int] = {}
        self._sim_tracks: Dict[int, str] = {}
        self._last_sim_ts: Dict[int, float] = {}
        self._named_pids: set = set()
        self._epoch = time.perf_counter()
        self._sim_clock = sim_clock
        # Plain-int tallies so invariant tests can cross-check counts
        # without re-scanning the event list.
        self.spans_opened = 0
        self.sim_events = 0
        self.flows_started = 0
        self.flows_finished = 0
        self.instants = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def bind_sim_clock(self, sim_clock: Optional[Callable[[], float]]) -> None:
        """Bind (or clear) the simulated-time clock source."""
        self._sim_clock = sim_clock

    def _append(self, event: dict) -> None:
        with self._events_lock:
            self._events.append(event)

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open wall-clock span (log correlation)."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Track registration (lazy metadata events)
    # ------------------------------------------------------------------

    def _ensure_pid(self, pid: int, name: str) -> None:
        if pid not in self._named_pids:
            self._named_pids.add(pid)
            self._append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": name},
                }
            )

    def sim_track(self, trace: int, name: str) -> None:
        """Register (and label) the simulated-time track of ``trace``."""
        self._ensure_pid(SIM_PID, "simulation")
        if trace not in self._sim_tracks:
            self._sim_tracks[trace] = name
            self._append(
                {
                    "ph": "M",
                    "pid": SIM_PID,
                    "tid": trace,
                    "name": "thread_name",
                    "args": {"name": name},
                }
            )

    def _wall_tid(self, track: str) -> int:
        tid = self._track_tids.get(track)
        if tid is None:
            self._ensure_pid(MONITOR_PID, "monitor")
            tid = len(self._track_tids) + 1
            self._track_tids[track] = tid
            self._append(
                {
                    "ph": "M",
                    "pid": MONITOR_PID,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tid

    def _wall_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    # ------------------------------------------------------------------
    # Simulated-time domain
    # ------------------------------------------------------------------

    def sim_event(
        self,
        trace: int,
        name: str,
        sim_time: float,
        args: Optional[Mapping[str, Any]] = None,
    ) -> float:
        """Record one simulated point event as a short slice; returns
        the exported timestamp (microseconds), which flow events of the
        same point must reuse to bind to the slice.

        Several kernel events can share one simulated instant (e.g. a
        semaphore's ``Released`` and the next ``Grant``); colliding
        timestamps are bumped apart by 1 exported microsecond per
        track so slices never overlap (``args.sim_time`` keeps the
        exact value).
        """
        ts = sim_time * SIM_TIME_SCALE
        last = self._last_sim_ts.get(trace)
        if last is not None and ts < last + 1.0:
            ts = last + 1.0
        self._last_sim_ts[trace] = ts
        payload = {"sim_time": sim_time}
        if args:
            payload.update(args)
        self._append(
            {
                "ph": "X",
                "name": name,
                "cat": "sim",
                "pid": SIM_PID,
                "tid": trace,
                "ts": ts,
                "dur": SIM_EVENT_DUR,
                "args": payload,
            }
        )
        self.sim_events += 1
        return ts

    def flow_id(self, key: Any) -> int:
        """Stable flow id for an application key (e.g. a send's
        :class:`~repro.events.event.EventId`)."""
        fid = self._flow_ids.get(key)
        if fid is None:
            fid = next(self._flow_seq)
            self._flow_ids[key] = fid
        return fid

    def flow_start(
        self,
        key: Any,
        trace: int,
        sim_time: float,
        ts: Optional[float] = None,
        name: str = "message",
    ) -> None:
        """Open a flow (happens-before edge) at a simulated event."""
        self._append(
            {
                "ph": "s",
                "id": self.flow_id(key),
                "name": name,
                "cat": "flow",
                "pid": SIM_PID,
                "tid": trace,
                "ts": ts if ts is not None else sim_time * SIM_TIME_SCALE,
                "args": {"sim_time": sim_time},
            }
        )
        self.flows_started += 1

    def flow_finish(
        self,
        key: Any,
        trace: int,
        sim_time: float,
        ts: Optional[float] = None,
        name: str = "message",
    ) -> None:
        """Close a flow at the causally succeeding simulated event."""
        self._append(
            {
                "ph": "f",
                "bp": "e",
                "id": self.flow_id(key),
                "name": name,
                "cat": "flow",
                "pid": SIM_PID,
                "tid": trace,
                "ts": ts if ts is not None else sim_time * SIM_TIME_SCALE,
                "args": {"sim_time": sim_time},
            }
        )
        self.flows_finished += 1

    # ------------------------------------------------------------------
    # Wall-clock domain
    # ------------------------------------------------------------------

    def begin(
        self,
        name: str,
        track: str = "monitor",
        args: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Open a wall-clock span on ``track``; returns its span id.

        Spans on one track must close in LIFO order — use
        :meth:`span` for guaranteed pairing.
        """
        span_id = next(self._span_seq)
        payload: Dict[str, Any] = {"span": span_id}
        if self._sim_clock is not None:
            payload["sim_time"] = self._sim_clock()
        if args:
            payload.update(args)
        self._append(
            {
                "ph": "B",
                "name": name,
                "cat": "ocep",
                "pid": MONITOR_PID,
                "tid": self._wall_tid(track),
                "ts": self._wall_us(),
                "args": payload,
            }
        )
        self._stack.append(span_id)
        self.spans_opened += 1
        return span_id

    def end(self, track: str = "monitor") -> None:
        """Close the innermost open span on ``track``."""
        if not self._stack:
            raise RuntimeError("SpanTracer.end() with no open span")
        self._stack.pop()
        self._append(
            {
                "ph": "E",
                "pid": MONITOR_PID,
                "tid": self._wall_tid(track),
                "ts": self._wall_us(),
            }
        )

    def span(
        self,
        name: str,
        track: str = "monitor",
        args: Optional[Mapping[str, Any]] = None,
    ) -> _Span:
        """Context manager opening a span on enter, closing on exit."""
        return _Span(self, name, track, args)

    def instant(
        self,
        name: str,
        track: str = "monitor",
        args: Optional[Mapping[str, Any]] = None,
        sim_time: Optional[float] = None,
        trace: Optional[int] = None,
    ) -> None:
        """Record a point annotation — wall-clock on ``track`` by
        default, or on a simulated-time track when ``sim_time`` (and
        ``trace``) are given."""
        if sim_time is not None:
            pid, tid, ts = SIM_PID, int(trace or 0), sim_time * SIM_TIME_SCALE
        else:
            pid, tid, ts = MONITOR_PID, self._wall_tid(track), self._wall_us()
        event = {
            "ph": "i",
            "s": "t",
            "name": name,
            "cat": "ocep",
            "pid": pid,
            "tid": tid,
            "ts": ts,
        }
        if args:
            event["args"] = dict(args)
        self._append(event)
        self.instants += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def events(self) -> List[dict]:
        """The recorded trace events (a copy), in recording order."""
        with self._events_lock:
            return list(self._events)

    def events_tail(self, limit: int = 256) -> List[dict]:
        """The most recent ``limit`` trace events (a copy) — the span
        ring served by the scrape server's ``/spans`` endpoint.  Safe
        to call from another thread while the pipeline records."""
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        with self._events_lock:
            if limit == 0:
                return []
            return list(self._events[-limit:])

    def chrome_trace(self) -> dict:
        """The full Chrome trace-event document (JSON object form)."""
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs.spans"},
        }

    def __len__(self) -> int:
        with self._events_lock:
            return len(self._events)

    def __repr__(self) -> str:
        return (
            f"SpanTracer({len(self)} events, "
            f"{self.spans_opened} spans, {self.flows_started} flows)"
        )


class NullTracer(SpanTracer):
    """The disabled path: every method is a no-op, nothing is stored.

    Class-compatible with :class:`SpanTracer`, so components hold a
    tracer unconditionally and guard instrumentation sites with a
    single ``tracer.enabled`` load.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def bind_sim_clock(self, sim_clock) -> None:
        pass

    @property
    def current_span_id(self) -> Optional[int]:
        return None

    def sim_track(self, trace, name) -> None:
        pass

    def sim_event(self, trace, name, sim_time, args=None) -> float:
        return 0.0

    def flow_start(self, key, trace, sim_time, ts=None, name="message") -> None:
        pass

    def flow_finish(self, key, trace, sim_time, ts=None, name="message") -> None:
        pass

    def begin(self, name, track="monitor", args=None) -> int:
        return 0

    def end(self, track="monitor") -> None:
        pass

    def span(self, name, track="monitor", args=None) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name, track="monitor", args=None, sim_time=None, trace=None) -> None:
        pass

    def events(self) -> List[dict]:
        return []

    def events_tail(self, limit: int = 256) -> List[dict]:
        return []

    def chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}


#: Module-level shared no-op tracer; the default everywhere.
NULL_TRACER = NullTracer()


def to_chrome_json(tracer: SpanTracer, indent: Optional[int] = None) -> str:
    """Serialise a tracer's recording as Chrome trace-event JSON."""
    return json.dumps(tracer.chrome_trace(), indent=indent, allow_nan=False)


# ----------------------------------------------------------------------
# Validation (shared by tests and the CI smoke step)
# ----------------------------------------------------------------------

#: Phases this module emits.
_KNOWN_PHASES = ("M", "X", "B", "E", "i", "s", "f")


def validate_trace_events(events: List[dict]) -> dict:
    """Check a trace-event list against the schema subset this module
    emits; returns summary statistics or raises :class:`ValueError`.

    Checked invariants:

    * every entry is a dict with a known ``ph`` and the fields that
      phase requires (``ts``/``pid``/``tid`` on timed events, ``dur``
      on complete events, ``id`` on flow events);
    * ``B``/``E`` pairs balance and nest per ``(pid, tid)`` track, and
      an ``E`` never precedes its ``B`` in wall time;
    * complete (``X``) slices on one track never partially overlap;
    * every flow finish has a flow start with the same ``id``, and the
      start's simulated time never exceeds the finish's.
    """
    stacks: Dict[Tuple[int, int], List[dict]] = {}
    slice_end: Dict[Tuple[int, int], float] = {}
    flow_starts: Dict[Any, dict] = {}
    counts = {"events": 0, "spans": 0, "sim_events": 0, "flows": 0,
              "instants": 0, "metadata": 0}

    def _fail(index: int, message: str) -> None:
        raise ValueError(f"trace event {index}: {message}")

    def _require(index: int, event: dict, *fields: str) -> None:
        for field in fields:
            if field not in event:
                _fail(index, f"phase {event.get('ph')!r} missing {field!r}")

    for index, event in enumerate(events):
        if not isinstance(event, dict):
            _fail(index, "not an object")
        counts["events"] += 1
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            _fail(index, f"unknown phase {ph!r}")
        if ph == "M":
            _require(index, event, "name", "pid", "args")
            counts["metadata"] += 1
            continue
        _require(index, event, "ts", "pid", "tid")
        if not isinstance(event["ts"], (int, float)):
            _fail(index, f"non-numeric ts {event['ts']!r}")
        key = (event["pid"], event["tid"])
        if ph == "X":
            _require(index, event, "name", "dur")
            if event["dur"] < 0:
                _fail(index, f"negative dur {event['dur']!r}")
            start, end = event["ts"], event["ts"] + event["dur"]
            previous_end = slice_end.get(key)
            if previous_end is not None and start < previous_end:
                _fail(
                    index,
                    f"slice {event.get('name')!r} at ts={start} overlaps "
                    f"the previous slice on track {key} (ends {previous_end})",
                )
            slice_end[key] = end
            counts["sim_events"] += 1
        elif ph == "B":
            _require(index, event, "name")
            stacks.setdefault(key, []).append(event)
            counts["spans"] += 1
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                _fail(index, f"E with no open B on track {key}")
            begin = stack.pop()
            if event["ts"] < begin["ts"]:
                _fail(
                    index,
                    f"span {begin.get('name')!r} ends at ts={event['ts']} "
                    f"before it began (ts={begin['ts']})",
                )
        elif ph == "i":
            _require(index, event, "name")
            counts["instants"] += 1
        elif ph == "s":
            _require(index, event, "id", "name")
            if event["id"] in flow_starts:
                _fail(index, f"duplicate flow start id {event['id']!r}")
            flow_starts[event["id"]] = event
            counts["flows"] += 1
        elif ph == "f":
            _require(index, event, "id", "name")
            start = flow_starts.get(event["id"])
            if start is None:
                _fail(index, f"flow finish id {event['id']!r} has no start")
            start_time = start.get("args", {}).get("sim_time", start["ts"])
            finish_time = event.get("args", {}).get("sim_time", event["ts"])
            if start_time > finish_time:
                _fail(
                    index,
                    f"flow {event['id']!r} finishes at sim_time="
                    f"{finish_time} before its start ({start_time})",
                )

    unbalanced = {key: stack for key, stack in stacks.items() if stack}
    if unbalanced:
        detail = ", ".join(
            f"{key}: {[e.get('name') for e in stack]}"
            for key, stack in unbalanced.items()
        )
        raise ValueError(f"unclosed spans per track: {detail}")
    return counts


def validate_chrome_trace(document: dict) -> dict:
    """Validate a full Chrome trace-event document (the JSON object
    form with a ``traceEvents`` array)."""
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace document (no traceEvents)")
    if not isinstance(document["traceEvents"], list):
        raise ValueError("traceEvents is not an array")
    return validate_trace_events(document["traceEvents"])
