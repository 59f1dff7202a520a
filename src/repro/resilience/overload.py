"""Overload control: adaptive backpressure and pattern-aware shedding.

An online monitor that falls behind its stream has two bad options:
stall (unbounded latency) or drop blindly (unmeasured recall loss).
This module gives the pipeline a third one — *degrade gracefully*:

* :class:`OverloadDetector` — a hysteresis state machine over smoothed
  detection-latency and backlog observations.  It keeps an EMA (plus an
  exponentially weighted variance) of the
  ``ocep_detection_latency_sim_time_units`` samples and of the hold-back
  backlog depth, folds them into a scalar *pressure* (observation /
  engage threshold), and flips ``NORMAL -> SHEDDING -> CRITICAL`` one
  step at a time.  Separate engage and disengage (low-water) marks plus
  a minimum dwell between transitions prevent flapping: once engaged,
  the detector stays engaged until pressure falls *below* the low-water
  fraction of the engage mark, and never transitions twice within
  ``min_dwell`` observations.

* :class:`EventUtilityScorer` — scores each incoming event by how
  likely it is to complete (or enable) a match of the watched patterns,
  by consulting the compiled pattern tree and the matchers' *current*
  leaf histories: a leaf-class hit whose terminating search could
  complete right now (every other leaf history non-empty) is
  ``BAND_COMPLETING``; any leaf-class hit, or a communication event
  whose ``<>`` partner is already pinned in a PARTNER-constrained leaf
  history, is ``BAND_LEAF``; other communication events are
  ``BAND_STRUCTURAL`` (their clock merges feed the GP/LS index even
  when they match no leaf); everything else is ``BAND_CHAFF``.

* :class:`LoadShedder` — the pipeline stage between the hold-back
  buffer and the :class:`~repro.engine.dispatch.ShardedDispatcher`.
  In ``NORMAL`` state events pass through unscored and output is
  bit-identical to an unwired run; in ``SHEDDING`` it drops events with
  band <= ``shed_band`` and in ``CRITICAL`` band <= ``critical_band``,
  least-useful first, under an optional ``max_drop_rate`` budget.
  Fully instrumented (drop counters labelled by utility band and
  detector state, the shared ``poet_holdback_shed_total`` series with
  ``reason="overload"``, detector-state gauge, ``overload.state``
  spans) and checkpointable alongside ``ocep-sharded-checkpoint-v1``.

The quality of the whole arrangement is *measured, not assumed*:
:mod:`repro.resilience.check` diffs every shedding run against the
brute-force oracle on the unshedded stream.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.events.event import Event, EventId
from repro.obs.log import get_logger
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer
from repro.patterns.compile import Constraint
from repro.poet.client import POETClient

_log = get_logger("resilience.overload")

#: Utility bands, least useful first.  ``BAND_NAMES`` doubles as the
#: metric-label vocabulary.
BAND_CHAFF = 0
BAND_STRUCTURAL = 1
BAND_LEAF = 2
BAND_COMPLETING = 3
BAND_NAMES: Tuple[str, ...] = ("chaff", "structural", "leaf", "completing")

#: Shared shed-accounting metric (same name as the hold-back buffer's
#: overflow series; the ``reason`` label separates the two paths).
SHED_METRIC = "poet_holdback_shed_total"
SHED_HELP = "arrivals dropped by the shed policy"


class OverloadState(enum.IntEnum):
    """Detector states, ordered by severity."""

    NORMAL = 0
    SHEDDING = 1
    CRITICAL = 2


class OverloadDetector:
    """Hysteresis overload state machine over latency/backlog EMAs.

    Parameters
    ----------
    engage_latency:
        Detection-latency EMA (simulated time units) at which pressure
        reaches 1.0 and ``NORMAL -> SHEDDING`` engages.
    engage_backlog:
        Optional backlog-depth EMA with the same meaning; ``None``
        ignores backlog entirely.  Pressure is the max of the two
        component ratios.
    disengage_fraction:
        Low-water mark as a fraction of the engage mark: the detector
        only steps back toward ``NORMAL`` once pressure drops to or
        below this fraction (and leaves ``CRITICAL`` once pressure
        drops to or below ``critical_factor * disengage_fraction``).
    critical_factor:
        Pressure multiple at which ``SHEDDING -> CRITICAL`` engages.
    alpha:
        EMA smoothing factor (weight of the newest observation).
    min_dwell:
        Minimum observations between two state transitions (flap
        guard).  The very first transition is exempt so a cold
        detector can engage on a genuine burst immediately.
    registry / tracer:
        Optional instrumentation: an ``ocep_overload_state`` gauge, a
        transition counter labelled ``from``/``to``, and
        ``overload.state`` instants on the ``resilience.overload``
        track.

    The detector is a pure function of its observation sequence: two
    detectors fed the same values through :meth:`observe_latency` /
    :meth:`observe_backlog` in the same order are in identical states
    (the hypothesis suite asserts this).
    """

    def __init__(
        self,
        engage_latency: float = 64.0,
        engage_backlog: Optional[float] = None,
        disengage_fraction: float = 0.5,
        critical_factor: float = 4.0,
        alpha: float = 0.25,
        min_dwell: int = 16,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        if engage_latency <= 0.0:
            raise ValueError(f"engage_latency must be > 0, got {engage_latency}")
        if engage_backlog is not None and engage_backlog <= 0.0:
            raise ValueError(f"engage_backlog must be > 0, got {engage_backlog}")
        if not 0.0 < disengage_fraction < 1.0:
            raise ValueError(
                f"disengage_fraction must be in (0, 1), got {disengage_fraction}"
            )
        if critical_factor <= 1.0:
            raise ValueError(
                f"critical_factor must be > 1, got {critical_factor}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if min_dwell < 1:
            raise ValueError(f"min_dwell must be >= 1, got {min_dwell}")
        self.engage_latency = engage_latency
        self.engage_backlog = engage_backlog
        self.disengage_fraction = disengage_fraction
        self.critical_factor = critical_factor
        self.alpha = alpha
        self.min_dwell = min_dwell

        self.state = OverloadState.NORMAL
        self.observations = 0
        self.transitions_total = 0
        self._latency_ema: Optional[float] = None
        self._latency_var = 0.0
        self._backlog_ema: Optional[float] = None
        # Start "dwelled out" so the first engage is immediate; every
        # later transition is spaced by min_dwell observations.
        self._since_transition = min_dwell

        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._state_gauge = self.registry.gauge(
            "ocep_overload_state",
            "overload detector state (0=normal, 1=shedding, 2=critical)",
        )
        self._state_gauge.set(int(self.state))
        self._transition_counters: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def observe_latency(self, value: float) -> None:
        """Fold one detection-latency sample into the EMA and step."""
        if self._latency_ema is None:
            self._latency_ema = float(value)
            self._latency_var = 0.0
        else:
            delta = float(value) - self._latency_ema
            increment = self.alpha * delta
            self._latency_ema += increment
            self._latency_var = (1.0 - self.alpha) * (
                self._latency_var + delta * increment
            )
        self._step()

    def observe_backlog(self, depth: float) -> None:
        """Fold one backlog-depth sample into the EMA and step."""
        if self._backlog_ema is None:
            self._backlog_ema = float(depth)
        else:
            self._backlog_ema += self.alpha * (float(depth) - self._backlog_ema)
        self._step()

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    @property
    def latency_ema(self) -> Optional[float]:
        return self._latency_ema

    @property
    def latency_variance(self) -> float:
        return self._latency_var

    @property
    def latency_std(self) -> float:
        return self._latency_var ** 0.5

    @property
    def backlog_ema(self) -> Optional[float]:
        return self._backlog_ema

    @property
    def disengage_latency(self) -> float:
        """The latency low-water mark in absolute units."""
        return self.engage_latency * self.disengage_fraction

    @property
    def pressure(self) -> float:
        """Smoothed load relative to the engage thresholds (1.0 =
        engage mark reached on some component)."""
        pressure = 0.0
        if self._latency_ema is not None:
            pressure = self._latency_ema / self.engage_latency
        if self.engage_backlog is not None and self._backlog_ema is not None:
            pressure = max(pressure, self._backlog_ema / self.engage_backlog)
        return pressure

    def _desired(self) -> OverloadState:
        pressure = self.pressure
        low = self.disengage_fraction
        critical = self.critical_factor
        if self.state is OverloadState.CRITICAL:
            if pressure > critical * low:
                return OverloadState.CRITICAL
            if pressure > low:
                return OverloadState.SHEDDING
            return OverloadState.NORMAL
        if self.state is OverloadState.SHEDDING:
            if pressure >= critical:
                return OverloadState.CRITICAL
            if pressure > low:
                return OverloadState.SHEDDING
            return OverloadState.NORMAL
        if pressure >= critical:
            return OverloadState.CRITICAL
        if pressure >= 1.0:
            return OverloadState.SHEDDING
        return OverloadState.NORMAL

    def _step(self) -> None:
        self.observations += 1
        self._since_transition += 1
        desired = self._desired()
        if desired is self.state or self._since_transition <= self.min_dwell:
            return
        # One state per transition, so an overload ramp is visible as
        # NORMAL -> SHEDDING -> CRITICAL in the gauge and the spans.
        step = 1 if desired > self.state else -1
        self._transition(OverloadState(int(self.state) + step))

    def _transition(self, new_state: OverloadState) -> None:
        old_state = self.state
        self.state = new_state
        self._since_transition = 0
        self.transitions_total += 1
        self._state_gauge.set(int(new_state))
        key = (old_state.name.lower(), new_state.name.lower())
        counter = self._transition_counters.get(key)
        if counter is None:
            counter = self.registry.counter(
                "ocep_overload_transitions_total",
                "overload detector state transitions",
                labels={"from": key[0], "to": key[1]},
            )
            self._transition_counters[key] = counter
        counter.inc()
        _log.info(
            "overload state transition",
            extra={"from": key[0], "to": key[1],
                   "pressure": round(self.pressure, 4),
                   "observations": self.observations},
        )
        if self._tracer.enabled:
            self._tracer.instant(
                "overload.state",
                track="resilience.overload",
                args={"from": key[0], "to": key[1],
                      "pressure": round(self.pressure, 4),
                      "latency_ema": self._latency_ema,
                      "backlog_ema": self._backlog_ema},
            )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy of the detector's dynamic state."""
        return {
            "state": int(self.state),
            "latency_ema": self._latency_ema,
            "latency_var": self._latency_var,
            "backlog_ema": self._backlog_ema,
            "observations": self.observations,
            "since_transition": self._since_transition,
            "transitions": self.transitions_total,
        }

    def restore(self, state: dict) -> None:
        """Overwrite the dynamic state from a :meth:`snapshot`."""
        self.state = OverloadState(int(state["state"]))
        self._latency_ema = (
            None if state["latency_ema"] is None else float(state["latency_ema"])
        )
        self._latency_var = float(state["latency_var"])
        self._backlog_ema = (
            None if state["backlog_ema"] is None else float(state["backlog_ema"])
        )
        self.observations = int(state["observations"])
        self._since_transition = int(state["since_transition"])
        self.transitions_total = int(state["transitions"])
        self._state_gauge.set(int(self.state))

    def __repr__(self) -> str:
        return (
            f"OverloadDetector({self.state.name}, "
            f"pressure={self.pressure:.3f}, "
            f"observations={self.observations})"
        )


class EventUtilityScorer:
    """Scores events by likelihood of contributing to a pattern match.

    Consults the watched matchers' compiled patterns and *live* state
    (leaf histories, terminating leaves, ``<>`` partner pins), so the
    same event can score differently as partial matches accumulate.
    With multiple shards the score is the max over shards — an event
    is only chaff if *no* watched pattern wants it.

    Band rules per shard (highest wins):

    * ``BAND_COMPLETING`` — the event matches a *terminating* leaf's
      class and every other leaf history is already non-empty, so the
      triggered search could complete a match right now.
    * ``BAND_LEAF`` — the event matches some leaf class; or it is a
      communication event whose partner is already stored in a
      PARTNER-constrained leaf history (dropping it would orphan a
      pinned ``<>`` pair and starve its LS entries).
    * ``BAND_STRUCTURAL`` — any other communication event: its clock
      merge is what keeps the GP/LS domain index (and the pruning
      rule's comm epochs) informed.
    * ``BAND_CHAFF`` — everything else; invisible to the matcher.
    """

    def __init__(self, monitors: Sequence[object]):
        matchers = [
            monitor.matcher if hasattr(monitor, "matcher") else monitor
            for monitor in monitors
        ]
        if not matchers:
            raise ValueError("scorer needs at least one monitor/matcher")
        self._matchers = matchers
        self._fronts = list({id(m.front): m.front for m in matchers}.values())
        # Leaves participating in any PARTNER (<>) constraint, per
        # matcher — the "pinned trace" refinement only applies there.
        self._partner_leaves: List[Tuple[int, ...]] = []
        for matcher in matchers:
            matrix = matcher.pattern.constraint_matrix
            pinned = tuple(
                i for i, row in enumerate(matrix)
                if any(c is Constraint.PARTNER for c in row)
            )
            self._partner_leaves.append(pinned)

    def score(self, event: Event) -> int:
        """The event's utility band (max across watched shards)."""
        communication = event.kind.is_communication
        best = BAND_STRUCTURAL if communication else BAND_CHAFF
        # One probe per stream front: a type no bucket names matches no
        # leaf of any watched pattern, without touching a shard.
        named = any(front.routes.get(event.etype) for front in self._fronts)
        for position, matcher in enumerate(self._matchers):
            band = BAND_CHAFF
            if named:
                band = self._leaf_band(matcher, event)
                if band == BAND_COMPLETING:
                    return band
            if (
                band < BAND_LEAF
                and communication
                and self._partner_pinned(position, matcher, event)
            ):
                band = BAND_LEAF
            if band > best:
                best = band
        return best

    def _leaf_band(self, matcher, event: Event) -> int:
        band = BAND_CHAFF
        for leaf in matcher.pattern.leaves:
            if leaf.event_class.matches(event) is None:
                continue
            band = BAND_LEAF
            if leaf.leaf_id in matcher._terminating and self._others_nonempty(
                matcher, leaf.leaf_id
            ):
                return BAND_COMPLETING
        return band

    @staticmethod
    def _others_nonempty(matcher, leaf_id: int) -> bool:
        history = matcher.history
        for leaf in matcher.pattern.leaves:
            if leaf.leaf_id != leaf_id and history.leaf(leaf.leaf_id).size == 0:
                return False
        return True

    def _partner_pinned(self, position: int, matcher, event: Event) -> bool:
        partner = event.partner
        if partner is None:
            return False
        history = matcher.history
        for leaf_id in self._partner_leaves[position]:
            if history.leaf(leaf_id).slice(
                partner.trace, partner.index, partner.index
            ):
                return True
        return False


class LoadShedder(POETClient):
    """Pipeline stage dropping low-utility events under overload.

    Sits between the hold-back buffer (or the server) and the sharded
    dispatcher.  While the detector reports ``NORMAL`` the stage is a
    pass-through — no scoring, batches forwarded whole.  Once the
    detector engages, each event is scored and dropped when its band is
    at or below the state's threshold (``shed_band`` in SHEDDING,
    ``critical_band`` in CRITICAL), subject to the optional
    ``max_drop_rate`` budget.

    Parameters
    ----------
    sink:
        Downstream :class:`~repro.poet.client.POETClient` (normally the
        dispatcher).
    scorer / detector:
        The :class:`EventUtilityScorer` and :class:`OverloadDetector`.
    shed_band / critical_band:
        Highest band dropped in SHEDDING / CRITICAL state.
    max_drop_rate:
        Hard ceiling on ``shed_total / offered_total``; ``None`` is
        unbounded.
    latency_profile:
        Optional callable ``offered_count -> latency sample`` fed to
        the detector per offered event — a deterministic synthetic load
        signal for replays, where no kernel clock advances (live
        pipelines feed the detector from the
        :class:`~repro.obs.latency.DetectionLatencyTracker` instead).
    backlog_probe:
        Optional zero-argument callable polled per offered event for
        the backlog depth (wired to ``holdback.pending_count`` by
        ``Pipeline.with_overload_control``).
    record_kept:
        Keep the admitted events in :attr:`kept_events` (the recall
        harness replays them through a reference monitor).
    """

    def __init__(
        self,
        sink: POETClient,
        scorer: EventUtilityScorer,
        detector: OverloadDetector,
        shed_band: int = BAND_CHAFF,
        critical_band: int = BAND_STRUCTURAL,
        max_drop_rate: Optional[float] = None,
        latency_profile: Optional[Callable[[int], float]] = None,
        backlog_probe: Optional[Callable[[], float]] = None,
        record_kept: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        if not BAND_CHAFF <= shed_band < BAND_COMPLETING:
            raise ValueError(
                f"shed_band must be in [{BAND_CHAFF}, {BAND_COMPLETING - 1}], "
                f"got {shed_band}"
            )
        if not shed_band <= critical_band < BAND_COMPLETING:
            raise ValueError(
                f"critical_band must be in [{shed_band}, "
                f"{BAND_COMPLETING - 1}], got {critical_band}"
            )
        if max_drop_rate is not None and not 0.0 < max_drop_rate <= 1.0:
            raise ValueError(
                f"max_drop_rate must be in (0, 1], got {max_drop_rate}"
            )
        self._sink = sink
        self._scorer = scorer
        self.detector = detector
        self._shed_band = shed_band
        self._critical_band = critical_band
        self._max_drop_rate = max_drop_rate
        self._latency_profile = latency_profile
        self._backlog_probe = backlog_probe
        self.offered_total = 0
        self.shed_total = 0
        self.dropped_ids: List[EventId] = []
        self.kept_events: Optional[List[Event]] = [] if record_kept else None

        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._overload_shed_counter = self.registry.counter(
            SHED_METRIC, SHED_HELP, labels={"reason": "overload"}
        )
        self._band_counters: Dict[Tuple[int, OverloadState], object] = {}

    def set_backlog_probe(self, probe: Optional[Callable[[], float]]) -> None:
        """Late-bind the backlog probe (the hold-back buffer is built
        after the shedder during pipeline wiring)."""
        self._backlog_probe = probe

    @property
    def scorer(self) -> EventUtilityScorer:
        return self._scorer

    @property
    def drop_rate(self) -> float:
        if self.offered_total == 0:
            return 0.0
        return self.shed_total / self.offered_total

    # ------------------------------------------------------------------
    # POET client interface
    # ------------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """Offer one event; if admitted it goes downstream through the
        sink's ``on_event``."""
        if self._admit(event):
            self._sink.on_event(event)

    def on_batch(self, events: Sequence[Event]) -> None:
        if not events:
            return
        if (
            self._latency_profile is None
            and self._backlog_probe is None
            and self.detector.state is OverloadState.NORMAL
        ):
            # Pass-through fast path: no per-event work at all beyond
            # optional recording; the whole batch stays a batch.
            self.offered_total += len(events)
            if self.kept_events is not None:
                self.kept_events.extend(events)
            self._sink.on_batch(events)
            return
        # Scoring consults live matcher state, so admitted events are
        # forwarded one by one to keep the scorer synchronous with the
        # histories it reads (batch-size invariant by construction).
        sink_event = self._sink.on_event
        for event in events:
            if self._admit(event):
                sink_event(event)

    def _admit(self, event: Event) -> bool:
        self.offered_total += 1
        detector = self.detector
        if self._latency_profile is not None:
            detector.observe_latency(self._latency_profile(self.offered_total))
        if self._backlog_probe is not None:
            detector.observe_backlog(self._backlog_probe())
        state = detector.state
        if state is not OverloadState.NORMAL:
            band = self._scorer.score(event)
            limit = (
                self._critical_band
                if state is OverloadState.CRITICAL
                else self._shed_band
            )
            if band <= limit and self._within_budget():
                self.shed_total += 1
                self.dropped_ids.append(event.event_id)
                self._count_drop(band, state)
                if self._tracer.enabled:
                    self._tracer.instant(
                        "overload.shed",
                        track="resilience.overload",
                        args={"event": repr(event.event_id),
                              "band": BAND_NAMES[band],
                              "state": state.name.lower()},
                    )
                return False
        if self.kept_events is not None:
            self.kept_events.append(event)
        return True

    def _within_budget(self) -> bool:
        if self._max_drop_rate is None:
            return True
        return self.shed_total + 1 <= self._max_drop_rate * self.offered_total

    def _count_drop(self, band: int, state: OverloadState) -> None:
        self._overload_shed_counter.inc()
        key = (band, state)
        counter = self._band_counters.get(key)
        if counter is None:
            counter = self.registry.counter(
                "ocep_overload_shed_total",
                "events dropped by the load shedder",
                labels={"band": BAND_NAMES[band],
                        "state": state.name.lower()},
            )
            self._band_counters[key] = counter
        counter.inc()

    # ------------------------------------------------------------------
    # Checkpointing / introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready shedder accounting plus the detector's state
        (embedded under the ``overload`` key of the sharded pipeline
        checkpoint)."""
        return {
            "detector": self.detector.snapshot(),
            "offered": self.offered_total,
            "shed": self.shed_total,
        }

    def restore(self, state: dict) -> None:
        self.detector.restore(state["detector"])
        self.offered_total = int(state["offered"])
        self.shed_total = int(state["shed"])

    def stats(self) -> Dict[str, object]:
        """Plain-dict snapshot of the shedder's accounting."""
        return {
            "offered": self.offered_total,
            "shed": self.shed_total,
            "drop_rate": round(self.drop_rate, 6),
            "state": self.detector.state.name.lower(),
            "pressure": round(self.detector.pressure, 6),
            "transitions": self.detector.transitions_total,
        }

    def __repr__(self) -> str:
        return (
            f"LoadShedder({self.detector.state.name}, "
            f"shed {self.shed_total}/{self.offered_total})"
        )


__all__ = [
    "BAND_CHAFF",
    "BAND_STRUCTURAL",
    "BAND_LEAF",
    "BAND_COMPLETING",
    "BAND_NAMES",
    "OverloadState",
    "OverloadDetector",
    "EventUtilityScorer",
    "LoadShedder",
]
