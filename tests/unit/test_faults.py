"""Unit tests for the seeded fault injector and transmit faults."""

import pytest

from repro.events.event import EventKind
from repro.poet import POETClient, is_linearization
from repro.poet.holdback import HoldbackBuffer
from repro.resilience import FaultInjector, FaultPlan, TransmitFaults
from repro.testing import random_computation


def _events(seed=0, steps=60, num_traces=3):
    return random_computation(
        seed, num_traces=num_traces, steps=steps
    ).events


def _inject(plan, events, seed=0):
    out = []
    injector = FaultInjector(plan, out.append, seed=seed)
    for e in events:
        injector.feed(e)
    injector.flush()
    return injector, out


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultPlan(kind="gremlins")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(probability=1.5)

    def test_bad_max_delay_rejected(self):
        with pytest.raises(ValueError, match="max_delay"):
            FaultPlan(max_delay=0)

    def test_crash_point_deterministic_and_in_window(self):
        plan = FaultPlan.crash(crash_window=(0.25, 0.75))
        for seed in range(20):
            point = plan.crash_point(200, seed)
            assert point == plan.crash_point(200, seed)
            assert 50 <= point < 150


class TestDeterminism:
    @pytest.mark.parametrize(
        "plan",
        [FaultPlan.reorder(), FaultPlan.delay(), FaultPlan.duplicate(),
         FaultPlan.drop(probability=0.2)],
        ids=lambda p: p.kind,
    )
    def test_same_seed_same_perturbation(self, plan):
        events = _events()
        _, first = _inject(plan, events, seed=7)
        _, second = _inject(plan, events, seed=7)
        assert [e.event_id for e in first] == [e.event_id for e in second]

    def test_different_seeds_differ(self):
        events = _events()
        _, first = _inject(FaultPlan.reorder(probability=0.3), events, seed=0)
        _, second = _inject(FaultPlan.reorder(probability=0.3), events, seed=1)
        assert [e.event_id for e in first] != [e.event_id for e in second]


class _Batches(POETClient):
    """A downstream stage recording each slice handed off, and each
    event handed on alone."""

    def __init__(self):
        self.batches = []
        self.events = []

    def on_event(self, event):
        self.events.append(event)

    def on_batch(self, events):
        self.batches.append(list(events))


class TestSlices:
    @pytest.mark.parametrize(
        "plan",
        [FaultPlan.delay(0.3), FaultPlan.duplicate(0.3),
         FaultPlan.drop(0.3, max_faults=3)],
        ids=lambda p: p.kind,
    )
    def test_a_slice_is_one_hand_off_of_the_per_event_output(self, plan):
        events = _events(steps=80)
        _, per_event = _inject(plan, events, seed=3)
        sink = _Batches()
        injector = FaultInjector(plan, sink, seed=3)
        slices = [events[i:i + 8] for i in range(0, len(events), 8)]
        for part in slices:
            injector.on_batch(part)
        injector.flush()
        assert len(sink.batches) <= len(slices) + 1
        assert [e for batch in sink.batches for e in batch] == per_event
        assert injector.forwarded_total == len(per_event)

    @pytest.mark.parametrize(
        "plan", [FaultPlan.delay(0.3), FaultPlan.duplicate(0.3)],
        ids=lambda p: p.kind,
    )
    def test_an_event_is_handed_on_as_events(self, plan):
        """``on_event`` hands its deliveries on through the sink's
        ``on_event``; only the end-of-stream flush is a slice."""
        events = _events(steps=80)
        _, per_event = _inject(plan, events, seed=3)
        sink = _Batches()
        injector = FaultInjector(plan, sink, seed=3)
        for event in events:
            injector.on_event(event)
        assert sink.batches == []
        injector.flush()
        assert sink.events + [e for b in sink.batches for e in b] == per_event


class TestCausalSlack:
    """Reorder/delay must defer an event only past causal successors."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "plan", [FaultPlan.reorder(0.3), FaultPlan.delay(0.2)],
        ids=lambda p: p.kind,
    )
    def test_holdback_restores_exact_original_order(self, plan, seed):
        events = _events(seed=seed)
        injector, perturbed = _inject(plan, events, seed=seed)
        assert injector.forwarded_total == len(events)
        repaired = []
        buf = HoldbackBuffer(3, repaired.append)
        for e in perturbed:
            buf.on_event(e)
        assert buf.flush() == []
        assert repaired == events  # bit-identical restoration

    def test_reorder_actually_perturbs(self):
        events = _events()
        injector, perturbed = _inject(
            FaultPlan.reorder(probability=0.5), events
        )
        assert injector.delayed_total > 0
        assert perturbed != events


class TestDuplicateAndDrop:
    def test_duplicates_are_extra_deliveries(self):
        events = _events()
        injector, perturbed = _inject(
            FaultPlan.duplicate(probability=0.3), events
        )
        assert injector.duplicated_total > 0
        assert len(perturbed) == len(events) + injector.duplicated_total
        # The non-duplicate subsequence is the original stream.
        seen = set()
        originals = []
        for e in perturbed:
            if e.event_id not in seen:
                seen.add(e.event_id)
                originals.append(e)
        assert originals == events

    def test_drop_only_removes_send_events(self):
        events = _events(steps=120)
        plan = FaultPlan(kind="drop", probability=0.3, max_faults=None)
        injector, perturbed = _inject(plan, events)
        assert injector.dropped_total > 0
        delivered = {e.event_id for e in perturbed}
        for e in events:
            if e.event_id in delivered:
                continue
            assert e.kind is EventKind.SEND
        assert set(injector.dropped_ids) == {
            e.event_id for e in events if e.event_id not in delivered
        }

    def test_drop_respects_max_faults(self):
        events = _events(steps=120)
        injector, _ = _inject(FaultPlan.drop(probability=1.0), events)
        assert injector.dropped_total == 1  # max_faults=1 by default

    def test_none_plan_is_identity(self):
        events = _events()
        injector, perturbed = _inject(FaultPlan(kind="none"), events)
        assert perturbed == events
        assert injector.stats()["delayed"] == 0

    def test_stats_shape(self):
        events = _events()
        injector, _ = _inject(FaultPlan.duplicate(probability=0.3), events)
        stats = injector.stats()
        assert stats["kind"] == "duplicate"
        assert stats["forwarded"] == len(events) + stats["duplicated"]


class TestTransmitFaults:
    def test_extra_delay_bounded_and_deterministic(self):
        first = TransmitFaults(seed=3, probability=0.5, max_extra=2.0)
        second = TransmitFaults(seed=3, probability=0.5, max_extra=2.0)
        draws_a = [first(None) for _ in range(200)]
        draws_b = [second(None) for _ in range(200)]
        assert draws_a == draws_b
        assert all(0.0 <= d <= 2.0 for d in draws_a)
        assert first.faulted_total > 0
        assert any(d == 0.0 for d in draws_a)

    def test_validation(self):
        with pytest.raises(ValueError, match="probability"):
            TransmitFaults(probability=2.0)
        with pytest.raises(ValueError, match="max_extra"):
            TransmitFaults(max_extra=-1.0)


class TestKernelIntegration:
    def test_transmit_faults_still_yield_linearization(self):
        from repro.workloads import build_message_race

        workload = build_message_race(
            num_traces=3, seed=1, messages_per_sender=10
        )
        from repro.poet.client import RecordingClient

        recorder = RecordingClient()
        workload.server.connect(recorder)
        workload.kernel.set_transmit_fault(
            TransmitFaults(seed=5, probability=0.5, max_extra=4.0)
        )
        workload.run(max_events=5000)
        assert recorder.events
        assert is_linearization(recorder.events, 3)

    def test_negative_extra_delay_rejected(self):
        from repro.simulation.kernel import SimulationError
        from repro.workloads import build_message_race

        workload = build_message_race(
            num_traces=3, seed=1, messages_per_sender=2
        )
        workload.kernel.set_transmit_fault(lambda message: -1.0)
        with pytest.raises(SimulationError):
            workload.run(max_events=5000)


class TestInjectorObservability:
    def test_injection_counters_labelled_by_kind(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        events = _events(steps=120)
        out = []
        injector = FaultInjector(
            FaultPlan.duplicate(probability=0.5),
            out.append,
            seed=3,
            registry=registry,
        )
        for e in events:
            injector.feed(e)
        injector.flush()
        assert injector.duplicated_total > 0
        injected = registry.get(
            "fault_injected_total", labels={"kind": "duplicate"}
        )
        forwarded = registry.get(
            "fault_events_forwarded_total", labels={"kind": "duplicate"}
        )
        assert injected.value == injector.duplicated_total
        assert forwarded.value == injector.forwarded_total == len(out)

    def test_drop_and_delay_counters(self):
        from repro.obs.metrics import MetricsRegistry

        for plan, attr in (
            (FaultPlan.drop(probability=1.0, max_faults=2), "dropped_total"),
            (FaultPlan.delay(probability=0.5), "delayed_total"),
        ):
            registry = MetricsRegistry()
            injector, _ = _inject(plan, _events(steps=100), seed=1)
            # Re-run with the registry attached.
            out = []
            traced = FaultInjector(plan, out.append, seed=1, registry=registry)
            for e in _events(steps=100):
                traced.feed(e)
            traced.flush()
            counter = registry.get(
                "fault_injected_total", labels={"kind": plan.kind}
            )
            assert counter.value == getattr(traced, attr)
            assert counter.value == getattr(injector, attr) > 0

    def test_fault_instants_recorded_on_tracer(self):
        from repro.obs.spans import SpanTracer, validate_trace_events

        tracer = SpanTracer()
        out = []
        injector = FaultInjector(
            FaultPlan.reorder(probability=0.5), out.append, seed=2,
            tracer=tracer,
        )
        for e in _events(steps=100):
            injector.feed(e)
        injector.flush()
        assert injector.delayed_total > 0
        instants = [
            e for e in tracer.events()
            if e.get("ph") == "i" and e.get("name") == "fault.reorder"
        ]
        assert len(instants) == injector.delayed_total
        validate_trace_events(tracer.events())

    def test_no_registry_costs_nothing(self):
        injector, out = _inject(
            FaultPlan.reorder(probability=0.5), _events(steps=80), seed=2
        )
        # The default no-op registry/tracer leave accounting intact.
        assert injector.forwarded_total == len(out)
