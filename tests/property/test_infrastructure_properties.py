"""Property-based tests for the substrate: GP/LS, subset bound,
dump/reload, simulation delivery."""

import bisect
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CausalIndex, RepresentativeSubset
from repro.events.event import EventKind
from repro.poet import dump_events, is_linearization, load_events
from repro.poet.dumpfile import DumpFormatError
from repro.simulation import Kernel
from repro.poet import RecordingClient, instrument
from repro.testing import CLOCK_BACKENDS, Weaver, random_computation


@st.composite
def computations(draw, max_traces=4, max_steps=35):
    num_traces = draw(st.integers(min_value=1, max_value=max_traces))
    steps = draw(st.integers(min_value=1, max_value=max_steps))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    weaver = Weaver(num_traces)
    pending = []
    for _ in range(steps):
        roll = rng.random()
        trace = rng.randrange(num_traces)
        if roll < 0.4 or num_traces == 1:
            weaver.local(trace)
        elif roll < 0.7:
            pending.append(weaver.send(trace))
        elif pending:
            send = pending.pop(rng.randrange(len(pending)))
            choices = [t for t in range(num_traces) if t != send.trace]
            weaver.recv(rng.choice(choices), send)
    return weaver


class TestGPLSProperties:
    @given(computations())
    @settings(max_examples=50, deadline=None)
    def test_gp_ls_match_definitions(self, weaver):
        index = CausalIndex(weaver.num_traces)
        for event in weaver.events:
            index.observe(event)
        events = weaver.events
        for event in events:
            for trace in range(weaver.num_traces):
                on_trace = [e for e in events if e.trace == trace]
                before = [e for e in on_trace if e.happens_before(event)]
                after = [e for e in on_trace if event.happens_before(e)]
                gp = index.gp(event, trace)
                ls = index.ls(event, trace)
                assert gp == (max(e.index for e in before) if before else 0)
                assert ls == (min(e.index for e in after) if after else None)

    @given(computations())
    @settings(max_examples=50, deadline=None)
    def test_gp_ls_bracket_concurrency(self, weaver):
        """Events strictly between GP and LS on a trace are exactly the
        ones concurrent with the query event (Section IV-C)."""
        index = CausalIndex(weaver.num_traces)
        for event in weaver.events:
            index.observe(event)
        for event in weaver.events:
            for trace in range(weaver.num_traces):
                if trace == event.trace:
                    continue
                gp = index.gp(event, trace)
                ls = index.ls(event, trace)
                hi = ls if ls is not None else index.trace_length(trace) + 1
                for other in weaver.events:
                    if other.trace != trace:
                        continue
                    inside = gp < other.index < hi
                    assert inside == other.concurrent_with(event)


def eager_columns(events, num_traces):
    """Reference index: every receive folds its clock into every column
    at once, as ``(values, positions)`` per ``[trace][column]``."""
    values = [[[] for _ in range(num_traces)] for _ in range(num_traces)]
    positions = [[[] for _ in range(num_traces)] for _ in range(num_traces)]
    for event in events:
        if event.kind is EventKind.RECEIVE:
            for m, v in enumerate(event.clock.components):
                col = values[event.trace][m]
                if m != event.trace and v > 0 and (not col or v > col[-1]):
                    col.append(v)
                    positions[event.trace][m].append(event.index)
    return values, positions


@st.composite
def delivered_streams(draw):
    """``(num_traces, delivered events, gapped)`` of a random
    computation under either clock backend, a seeded share shed."""
    num_traces = draw(st.integers(min_value=1, max_value=5))
    steps = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    backend = draw(st.sampled_from(CLOCK_BACKENDS))
    drop_rate = draw(st.sampled_from((0.0, 0.2)))
    weaver = random_computation(seed, num_traces, steps, clock_backend=backend)
    rng = random.Random(seed ^ 0x5BD1E995)
    delivered = [e for e in weaver.events if rng.random() >= drop_rate]
    return num_traces, delivered, drop_rate > 0


class TestLazyColumns:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_folds_equal_the_eager_index(self, data):
        """Columns folded on read, at any points of the stream and across
        a checkpoint round trip, answer as the eager reference."""
        num_traces, delivered, gapped = data.draw(delivered_streams())
        traces = st.integers(min_value=0, max_value=num_traces - 1)
        steps = st.integers(min_value=0, max_value=len(delivered))
        reads = data.draw(st.lists(st.tuples(steps, traces, traces), max_size=15))
        cut = data.draw(steps)
        index = CausalIndex(num_traces, allow_gaps=gapped)
        for step in range(len(delivered) + 1):
            if step == cut:
                document = json.loads(json.dumps(index.snapshot()))
                index = CausalIndex(num_traces, allow_gaps=gapped)
                index.restore(document)
            seen = delivered[:step]
            values, positions = eager_columns(seen, num_traces)
            for at, trace, m in reads:
                if at != step:
                    continue
                assert index.column(trace, m) == (
                    values[trace][m], positions[trace][m]
                )
                latest = [e for e in seen if e.trace == m]
                if latest and trace != m:
                    col = values[trace][m]
                    pos = bisect.bisect_left(col, latest[-1].index)
                    want = positions[trace][m][pos] if pos < len(col) else None
                    assert index.ls(latest[-1], trace) == want
            if step < len(delivered):
                index.observe(delivered[step])
        snapshot = index.snapshot()
        assert (snapshot["values"], snapshot["positions"]) == (values, positions)


class TestSubsetBound:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0, max_value=2**30), max_size=60),
    )
    def test_kn_bound_invariant(self, num_leaves, num_traces, seeds):
        weaver = Weaver(num_traces)
        subset = RepresentativeSubset(num_leaves, num_traces)
        for seed in seeds:
            rng = random.Random(seed)
            match = {
                leaf: weaver.local(rng.randrange(num_traces))
                for leaf in range(num_leaves)
            }
            new = subset.update(match)
            # stored <=> new slots covered
            assert bool(new) == (
                subset.matches[-1].as_dict() == match if subset.matches else False
            ) or not new
            assert subset.check_bound()
        # every stored match covered something new at insert time
        seen = set()
        for stored in subset.matches:
            assert set(stored.new_slots) - seen == set(stored.new_slots)
            seen.update(stored.new_slots)


class TestDumpRoundTrip:
    @given(computations())
    @settings(max_examples=30, deadline=None)
    def test_events_survive_round_trip(self, weaver):
        import tempfile
        import os

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dump.poet")
            names = [f"P{i}" for i in range(weaver.num_traces)]
            dump_events(path, weaver.events, weaver.num_traces, names)
            events, num_traces, loaded_names = load_events(path)
            events = list(events)
            assert num_traces == weaver.num_traces
            assert loaded_names == names
            assert events == weaver.events  # identity = (trace, index)
            for original, restored in zip(weaver.events, events):
                assert original.clock == restored.clock
                assert original.etype == restored.etype
                assert original.kind == restored.kind
                assert original.partner == restored.partner


def _sample_dump_lines():
    """A small valid dump, as its lines of bytes (header first)."""
    import os
    import tempfile

    w = Weaver(3)
    w.local(0, "A", text="a")
    send, _ = w.message(0, 1)
    w.local(1, "B")
    w.message(1, 2)
    w.recv(2, w.send(0))
    w.local(2, "C", text="c")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.poet")
        dump_events(path, w.events, 3, ["P0", "P1", "P2"])
        with open(path, "rb") as fh:
            return fh.read().splitlines()


_SAMPLE_DUMP = _sample_dump_lines()
_ODD_VALUES = [
    b'"1"', b"1.5", b"-1", b"0", b"true", b"null", b"Infinity", b"NaN",
    b"[]", b"{}", b'"send"', b"[1, 2]", b"[0, 0, 0, 0]", b"1e400",
    b"123456789012345678901234567890", b"[" * 3000 + b"]" * 3000,
]
_FIELDS = [b'"t"', b'"i"', b'"y"', b'"x"', b'"c"', b'"k"', b'"l"', b'"p"',
           b'"format"', b'"num_traces"', b'"trace_names"']


@st.composite
def mutated_dumps(draw):
    """The sample dump after one to three line-level mutations:
    truncate, delete, swap, retype a field, insert garbage bytes."""
    lines = list(_SAMPLE_DUMP)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not lines:
            break
        at = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        op = draw(st.sampled_from(
            ["truncate", "delete", "swap", "retype", "garbage"]
        ))
        line = lines[at]
        if op == "truncate":
            lines[at] = line[: draw(st.integers(0, len(line)))]
        elif op == "delete":
            del lines[at]
        elif op == "swap":
            other = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == "retype":
            field = draw(st.sampled_from(_FIELDS))
            start = line.find(field + b": ")
            if start >= 0:
                start += len(field) + 2
                depth, end = 0, start
                while end < len(line):  # the value: up to , or } at depth 0
                    ch = line[end:end + 1]
                    if ch in b"[{":
                        depth += 1
                    elif ch in b"]}":
                        if depth == 0:
                            break
                        depth -= 1
                    elif ch == b"," and depth == 0:
                        break
                    end += 1
                value = draw(st.sampled_from(_ODD_VALUES))
                lines[at] = line[:start] + value + line[end:]
        else:
            cut = draw(st.integers(0, len(line)))
            junk = draw(st.binary(min_size=1, max_size=8))
            lines[at] = line[:cut] + junk + line[cut:]
    return b"\n".join(lines) + b"\n"


class TestDumpReaderFuzz:
    """Whatever a damaged dump holds, reading it to the end either
    finishes or raises ``DumpFormatError``: no other type escapes."""

    @given(mutated_dumps())
    @settings(max_examples=150, deadline=None)
    def test_damaged_dump_reads_or_raises_dump_format_error(self, data):
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dump.poet")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                events, num_traces, _ = load_events(path)
                consumed = list(events)
            except DumpFormatError:
                return
        assert is_linearization(consumed, num_traces)


class TestSimulationDelivery:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_kernel_streams_are_linearizations(self, num_processes, seed):
        kernel = Kernel(
            num_processes=num_processes, seed=seed, buffer_capacity=2
        )
        server = instrument(kernel)
        recorder = RecordingClient()
        server.connect(recorder)

        def body(p):
            rng = p.rng
            for _ in range(6):
                if rng.random() < 0.5:
                    dst = rng.randrange(num_processes)
                    if dst != p.pid:
                        yield p.send(dst, text=f"to{dst}")
                else:
                    yield p.emit("E")

        for pid in range(num_processes):
            kernel.spawn(pid, body)
        kernel.run(max_events=300)
        assert is_linearization(recorder.events, kernel.num_traces)
