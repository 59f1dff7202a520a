"""Property-based tests for span-tracer invariants.

Over randomized computations (random process bodies, seeds, trace
counts) the tracer must always produce a structurally valid Chrome
trace: well-nested spans per track, every happens-before flow arrow
pointing forward in simulated time, and event counts that agree with
the pipeline's own accounting (the metrics registry and the matcher's
plain-int counters).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MatcherConfig
from repro.core.monitor import Monitor
from repro.events import EventKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SIM_PID, SpanTracer, validate_trace_events
from repro.poet import RecordingClient, instrument
from repro.simulation import Kernel
from repro.workloads import message_race_pattern


def run_traced_kernel(num_processes, seed, with_semaphore):
    kernel = Kernel(
        num_processes=num_processes,
        num_semaphores=1 if with_semaphore else 0,
        seed=seed,
        buffer_capacity=3,
    )
    tracer = SpanTracer()
    registry = MetricsRegistry()
    server = instrument(kernel, verify=True, registry=registry, tracer=tracer)
    monitor = Monitor.from_source(
        message_race_pattern(),
        kernel.trace_names(),
        config=MatcherConfig(search_trace_size=128),
        registry=registry,
        tracer=tracer,
    )
    server.connect(monitor)
    recorder = RecordingClient()
    server.connect(recorder)

    def body(p):
        rng = p.rng
        for _ in range(8):
            roll = rng.random()
            if roll < 0.3:
                yield p.emit("E")
            elif roll < 0.6:
                dst = rng.randrange(num_processes)
                if dst != p.pid:
                    yield p.send(dst, payload=(p.pid, rng.random()))
            elif with_semaphore and roll < 0.8:
                yield p.acquire(0)
                yield p.emit("CS")
                yield p.release(0)
            else:
                yield p.sleep(rng.random())

    for pid in range(num_processes):
        kernel.spawn(pid, body)
    kernel.run(max_events=400)
    return kernel, server, monitor, tracer, registry, recorder


class TestSpanInvariants:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_trace_is_structurally_valid(self, num_processes, seed, semaphore):
        _, _, _, tracer, _, _ = run_traced_kernel(num_processes, seed, semaphore)
        # validate_trace_events raises on ill-nested spans, overlapping
        # sim slices, unmatched flows, or unclosed spans.
        counts = validate_trace_events(tracer.events())
        assert counts["events"] == len(tracer.events())

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_flow_send_precedes_receive_in_sim_time(self, num_processes, seed):
        _, _, _, tracer, _, _ = run_traced_kernel(num_processes, seed, True)
        starts = {}
        for event in tracer.events():
            if event.get("ph") == "s":
                starts[event["id"]] = event["args"]["sim_time"]
            elif event.get("ph") == "f":
                sent = starts[event["id"]]  # must already exist
                assert sent <= event["args"]["sim_time"]

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_sim_slices_agree_with_kernel_accounting(self, num_processes, seed):
        _, server, _, tracer, _, recorder = run_traced_kernel(
            num_processes, seed, True
        )
        slices = [e for e in tracer.events() if e.get("ph") == "X"]
        assert len(slices) == server.num_events
        # One slice per instrumented event, on that event's own track.
        per_trace = {}
        for s in slices:
            assert s["pid"] == SIM_PID
            per_trace[s["tid"]] = per_trace.get(s["tid"], 0) + 1
        for trace, count in per_trace.items():
            assert count == sum(1 for e in recorder.events if e.trace == trace)

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_flows_match_message_sends(self, num_processes, seed):
        _, _, _, tracer, _, recorder = run_traced_kernel(
            num_processes, seed, False
        )
        sends = sum(1 for e in recorder.events if e.kind is EventKind.SEND)
        receives = sum(
            1 for e in recorder.events if e.kind is EventKind.RECEIVE
        )
        # Every send opens a flow; every receive (whose send was
        # instrumented) closes one.
        assert tracer.flows_started == sends
        assert tracer.flows_finished == receives
        assert tracer.flows_finished <= tracer.flows_started

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_span_counts_agree_with_registry_counters(
        self, num_processes, seed
    ):
        _, server, monitor, tracer, registry, _ = run_traced_kernel(
            num_processes, seed, True
        )
        events = tracer.events()
        deliver_spans = sum(
            1 for e in events
            if e.get("ph") == "B" and e.get("name") == "poet.deliver"
        )
        search_spans = sum(
            1 for e in events
            if e.get("ph") == "B" and e.get("name") == "matcher.search"
        )
        collected = registry.get("poet_events_collected_total")
        assert deliver_spans == collected.value == server.num_events
        assert search_spans == monitor.matcher.searches_run
        match_instants = sum(
            1 for e in events
            if e.get("ph") == "i" and e.get("name") == "matcher.match"
        )
        assert match_instants == monitor.matcher.matches_found
        begins = sum(1 for e in events if e.get("ph") == "B")
        ends = sum(1 for e in events if e.get("ph") == "E")
        assert begins == ends == tracer.spans_opened
