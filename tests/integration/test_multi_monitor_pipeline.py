"""Integration: multi-pattern dispatch over live workloads, with tooling round trips."""

from repro.analysis import compute_metrics, render_diagram, to_dot
from repro.engine import ShardedDispatcher
from repro.poet import RecordingClient
from repro.workloads import (
    build_traffic_light,
    traffic_light_pattern,
)

HANDSHAKE = """
Grant := [P0, Send, ''];
Taken := ['', Receive, ''];
pattern := Grant <> Taken;
"""


class TestTrafficLightPipeline:
    def _run(self, fault_probability, seed=4):
        workload = build_traffic_light(
            num_lights=4,
            seed=seed,
            cycles=30,
            fault_probability=fault_probability,
            verify_delivery=True,
        )
        multi = ShardedDispatcher(workload.kernel.trace_names())
        multi.watch("conflict", traffic_light_pattern())
        multi.watch("handshake", HANDSHAKE)
        workload.server.connect(multi)
        recorder = RecordingClient()
        workload.server.connect(recorder)
        result = workload.run()
        assert not result.deadlocked
        return workload, multi, recorder

    def test_conflicts_iff_faults(self):
        faulty, multi_faulty, _ = self._run(fault_probability=0.2)
        assert faulty.faults
        assert multi_faulty["conflict"].reports

        clean, multi_clean, _ = self._run(fault_probability=0.0)
        assert not clean.faults
        assert not multi_clean["conflict"].reports
        # the routine pattern matches in both runs
        assert multi_clean["handshake"].reports

    def test_handshake_partners_are_real(self):
        _, multi, _ = self._run(fault_probability=0.1)
        for report in multi["handshake"].reports:
            grant, taken = report.as_dict().values()
            assert grant.is_partner_of(taken)

    def test_tooling_round_trips_on_the_stream(self):
        workload, multi, recorder = self._run(fault_probability=0.2)
        events = recorder.events

        metrics = compute_metrics(events, workload.num_traces)
        assert metrics.num_events == len(events)
        assert metrics.num_messages > 0
        assert 0.0 <= metrics.concurrency_ratio <= 1.0

        highlight = None
        if multi["conflict"].reports:
            highlight = list(multi["conflict"].reports[0].as_dict().values())
        diagram = render_diagram(
            events[:40],
            workload.num_traces,
            workload.kernel.trace_names(),
            highlight=[e for e in (highlight or []) if e in events[:40]],
        )
        assert "P0" in diagram

        dot = to_dot(events[:40], workload.num_traces,
                     workload.kernel.trace_names())
        assert dot.startswith("digraph")
        assert dot.count("->") > 0
