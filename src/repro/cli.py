"""Command-line interface.

Every subcommand runs the same staged engine
(:class:`repro.engine.Pipeline`); they differ only in source, watched
patterns, and reporting:

``ocep simulate <case>``
    Run one of the case-study workloads and dump its event stream to a
    POET dump file.

``ocep match <pattern-file> <dump-file>``
    Replay a dump through the online matcher and print every reported
    match plus the representative subset.

``ocep case <case>``
    Simulate a case study and monitor it live with its built-in
    pattern.  Every run carries a live metrics registry, the
    detection-latency tracker and the search trace; flags add views of
    that one run: ``--metrics``/``--describe`` (the registry as a
    table, JSON, Prometheus text or a metric reference), ``--trace-out``
    (a Chrome trace-event timeline for Perfetto), ``--serve-port``
    (the embedded scrape server, kept up ``--linger`` seconds after
    the run), ``--profile`` (collapsed stacks of the sampling profiler)
    and ``--explain`` (the evaluation plan of every trigger leaf).

``ocep bench <case>``
    Replay a case study several times and print the per-event quartile
    table (the Figure 10 methodology).

``ocep diagram <dump-file>``
    Render a dump as an ASCII process-time diagram (or GraphViz DOT
    with ``--dot``).

``ocep offline <pattern-file> <dump-file>``
    Post-mortem analysis: enumerate *every* match in a complete log
    (the offline comparison point to the online monitor).

``ocep check <case|all>``
    The one deployment checker: record each case's stream per seed and
    run every requested deployment cell — the undisturbed sharded pass,
    ``--faults`` plans behind the hold-back stage, a ``--crash`` cut and
    restore, ``--shed`` rates or the burst profile — against the same
    stream undisturbed, per event, one pattern at a time; shedding is
    judged against the brute-force oracle.  Exit status 1 when any cell
    fails, 2 for a combination no cell checks.

Installed as the ``ocep`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Optional

from repro.analysis import compute_boxplot, quartile_table
from repro.analysis.runner import replay_through_monitor
from repro.core.config import MatcherConfig
from repro.engine import CASE_STUDY_NAMES, CASES, Pipeline
from repro.obs import MetricsRegistry, to_json, to_prometheus
from repro.obs.latency import track_detection_latency
from repro.obs.profile import SamplingProfiler
from repro.obs.spans import SpanTracer, to_chrome_json, validate_trace_events
from repro.poet.dumpfile import dump_events, load_events
from repro.resilience.check import (
    DEFAULT_EVENTS,
    FAULTS,
    Recording,
    deployments,
    run_cell,
    summary,
)


def _print_report(report, names) -> None:
    chain = sorted(report.as_dict().values(), key=lambda e: e.lamport)
    rendered = "  ".join(
        f"{e.etype}@{names[e.trace]}#{e.index}" for e in chain
    )
    bindings = dict(report.bindings)
    suffix = f"  bindings={bindings}" if bindings else ""
    print(f"match: {rendered}{suffix}")


def cmd_simulate(args: argparse.Namespace) -> int:
    pipeline = Pipeline.for_case(args.case, args.traces, args.seed)
    recorder = pipeline.record()
    result = pipeline.run(max_events=args.max_events)
    names = pipeline.trace_names
    count = dump_events(args.output, recorder.events, len(names), names)
    print(
        f"simulated {result.num_events} events "
        f"(deadlocked={result.deadlocked}); wrote {count} to {args.output}"
    )
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    with open(args.pattern, "r", encoding="utf-8") as fh:
        pattern_source = fh.read()
    pipeline = Pipeline.from_dump(args.dump)
    names = pipeline.trace_names
    monitor = pipeline.watch("pattern", pattern_source)
    pipeline.run()
    for report in monitor.reports:
        _print_report(report, names)
    stats = monitor.stats()
    print(
        f"\n{stats.events_seen} events, {stats.matches_reported} matches, "
        f"subset {stats.subset_size} "
        f"(bound {monitor.pattern.num_leaves * pipeline.num_traces}), "
        f"history {stats.history_size}"
    )
    return 0


def _write_trace(tracer: SpanTracer, path: str, emit=print) -> dict:
    """Validate and write a tracer's recording as Chrome trace JSON."""
    counts = validate_trace_events(tracer.events())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_chrome_json(tracer))
        fh.write("\n")
    emit(
        f"wrote {counts['events']} trace events to {path} "
        f"({counts['spans']} spans, {counts['flows']} flows, "
        f"{counts['sim_events']} sim slices, {counts['instants']} instants)"
    )
    return counts


def cmd_case(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    # Span tracing slows the run by a quarter to double: on request only.
    tracer = SpanTracer() if args.trace_out else None
    pipeline = Pipeline.for_case(
        args.case, args.traces, args.seed, registry=registry, tracer=tracer,
    )
    if args.serve_port is not None:
        pipeline.with_server(port=args.serve_port, host=args.host)
    names = pipeline.trace_names
    wants_document = bool(args.metrics or args.describe or args.metrics_out)
    # A metrics document written to stdout is the run's only output.
    silent = wants_document and not args.metrics_out
    emit = (lambda *_: None) if silent else print
    latency = track_detection_latency(pipeline.kernel, registry)

    def on_match(report) -> None:
        latency.observe_report(report)
        if not (args.quiet or silent):
            _print_report(report, names)

    monitor = pipeline.watch(
        args.case,
        pipeline.case_pattern,
        config=MatcherConfig(search_trace_size=args.trace_size),
        on_match=on_match,
    )
    profiler = SamplingProfiler() if args.profile else None
    with profiler or contextlib.nullcontext():
        result = pipeline.run(max_events=args.max_events)
    monitor.publish_metrics()
    stats = monitor.stats()
    emit(
        f"\ncase={args.case} traces={args.traces}: {result.num_events} events"
        f"{' (deadlocked)' if result.deadlocked else ''}, "
        f"{stats.matches_reported} matches, subset {stats.subset_size}"
    )
    emit(
        f"detection latency: {latency.latencies_observed} observations "
        f"from {latency.reports_observed} reports"
    )
    if args.explain:
        # The order the planner derives from the live leaf histories and
        # the level program a search from each trigger leaf would execute.
        matcher = monitor.matcher
        for history in matcher.history.histories:
            leaf = matcher.pattern.leaves[history.leaf_id]
            emit(f"  leaf {history.leaf_id} [{leaf.label}]: "
                 f"history {history.size}")
        for trigger_leaf in matcher.pattern.terminating_leaves():
            emit()
            emit(matcher.current_plan(trigger_leaf).explain())
    if profiler is not None:
        emit(profiler.report())
        lines = profiler.collapsed()
        with open(args.profile, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        emit(f"wrote {len(lines)} collapsed stacks to {args.profile} "
             "(flamegraph.pl / speedscope input)")
    if tracer is not None:
        _write_trace(tracer, args.trace_out, emit)

    records = []
    if args.show_trace:
        records = monitor.search_trace.records()[-args.show_trace:]
    embedded = args.metrics == "json" and not args.describe
    if wants_document:
        text = _metrics_document(args, registry, monitor.search_trace, records)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote metrics to {args.metrics_out}")
        else:
            print(text)
    if records and not (embedded or args.describe):
        print(f"\nsearch trace (last {len(records)} of "
              f"{monitor.search_trace.recorded_total} recorded):",
              file=sys.stderr)
        for record in records:
            where = f"@{names[record.trace]}" if record.trace is not None else ""
            print(
                f"  search {record.search} level {record.level} "
                f"leaf {record.leaf_id}{where}: {record.kind} {record.detail}",
                file=sys.stderr,
            )
    if result.obs_server is not None:
        _linger(result.obs_server, args.linger, emit)
    return 0


def _metrics_document(args, registry, search_trace, records) -> str:
    """The ``--metrics`` / ``--describe`` document of a case run."""
    if args.describe:
        return _describe_metrics(registry)
    if args.metrics == "json":
        # Structured output stays structured: the search-trace tail is
        # embedded in the document, not printed to stderr.
        document = json.loads(to_json(registry))
        if records:
            document["search_trace"] = {
                "recorded_total": search_trace.recorded_total,
                "capacity": search_trace.capacity,
                "records": [record.as_dict() for record in records],
            }
        return json.dumps(document, indent=2, sort_keys=True)
    if args.metrics == "prometheus":
        return to_prometheus(registry)
    return _metrics_table(registry)


def _linger(server, seconds: float, emit) -> None:
    """Keep the scrape server up ``seconds`` after the run (``inf`` =
    until Ctrl-C), then stop it."""
    if seconds > 0:
        emit(f"serving {server.url}  (/metrics /snapshot /healthz /readyz "
             "/spans); Ctrl-C to stop")
        deadline = time.monotonic() + seconds
        remaining = seconds
        try:
            while remaining > 0:
                time.sleep(min(remaining, 3600.0))
                remaining = deadline - time.monotonic()
        except KeyboardInterrupt:
            pass
    emit(f"served {server.requests_served} requests on {server.url}")
    server.stop()


def cmd_bench(args: argparse.Namespace) -> int:
    pipeline = Pipeline.for_case(args.case, args.traces, args.seed)
    recorder = pipeline.record()
    result = pipeline.run(max_events=args.max_events)
    timings, monitor = replay_through_monitor(
        recorder.events,
        pipeline.case_pattern,
        pipeline.trace_names,
        repetitions=args.repetitions,
    )
    stats = compute_boxplot([t * 1e6 for t in timings])
    print(f"case={args.case} traces={args.traces} events={result.num_events} "
          f"repetitions={args.repetitions}")
    print(quartile_table({args.case: stats}))
    return 0


def _metrics_table(registry: MetricsRegistry) -> str:
    """Plain-text rendering of a registry snapshot."""
    lines = []
    for metric in registry.metrics():
        labels = ""
        if metric.labels:
            labels = "{" + ",".join(f"{k}={v}" for k, v in metric.labels) + "}"
        if metric.kind == "histogram":
            if metric.name.endswith("_seconds"):
                # Wall-clock histograms render in microseconds; others
                # (e.g. simulated-time latency) keep their native unit.
                scale, unit = 1e6, "us"
            else:
                scale, unit = 1.0, ""
            lines.append(
                f"{metric.name}{labels}  count={metric.count} "
                f"mean={metric.mean * scale:.1f}{unit} "
                f"p50={metric.quantile(0.5) * scale:.1f}{unit} "
                f"p99={metric.quantile(0.99) * scale:.1f}{unit}"
            )
        else:
            value = metric.value
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            lines.append(f"{metric.name}{labels}  {value}")
    return "\n".join(lines)


def _describe_metrics(registry: MetricsRegistry) -> str:
    """Markdown reference table of every registered metric (the
    auto-generated section of ``docs/observability.md``)."""
    rows = {}
    for metric in registry.metrics():
        label_names = ",".join(k for k, _ in metric.labels)
        key = (metric.name, label_names)
        if key not in rows:
            rows[key] = (
                metric.name,
                metric.kind,
                label_names,
                metric.help,
            )
    lines = [
        "| metric | kind | labels | help |",
        "| --- | --- | --- | --- |",
    ]
    for name, kind, labels, help_text in sorted(rows.values()):
        label_cell = f"`{labels}`" if labels else ""
        lines.append(f"| `{name}` | {kind} | {label_cell} | {help_text} |")
    return "\n".join(lines)


def _parse_shed(text: str) -> list:
    """Shed spec: ``burst``, or comma-separated drop rates in (0, 1)."""
    if text.strip() == "burst":
        return ["burst"]
    rates = [float(part) for part in text.split(",") if part.strip()]
    if not rates or any(not 0.0 < rate < 1.0 for rate in rates):
        raise argparse.ArgumentTypeError(
            f"--shed takes 'burst' or rates in (0, 1), got {text!r}"
        )
    return rates


def _parse_seeds(text: str) -> list:
    """Seed spec: ``0..9`` (inclusive range), ``1,4,7``, or ``5``."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed spec {text!r}")
    return seeds


def cmd_check(args: argparse.Namespace) -> int:
    try:
        cells = deployments(args.faults or (), args.crash, args.shed or ())
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    cases = list(CASE_STUDY_NAMES) if args.case == "all" else [args.case]
    tracer = SpanTracer() if args.trace_out else None
    rows = []
    for case in cases:
        for seed in args.seeds:
            recording = Recording(case, seed, args.traces, args.max_events)
            for cell in cells:
                rows.append(run_cell(recording, cell, tracer))
                print(rows[-1].line())
    ok = all(row.ok for row in rows)
    print(summary(rows))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"ok": ok, "rows": [row.to_dict() for row in rows]},
                      fh, indent=2)
            fh.write("\n")
        print(f"wrote JSON report to {args.json}")
    if tracer is not None:
        _write_trace(tracer, args.trace_out)
    return 0 if ok else 1


def cmd_diagram(args: argparse.Namespace) -> int:
    from repro.analysis.diagram import render_diagram
    from repro.analysis.export import to_dot

    events, num_traces, names = load_events(args.dump)
    if args.limit:
        events = events[: args.limit]
    if args.dot:
        print(to_dot(events, num_traces, names))
    else:
        print(
            render_diagram(
                events, num_traces, names, max_width=args.width
            )
        )
    return 0


def cmd_offline(args: argparse.Namespace) -> int:
    from repro.baselines.offline import OfflineAnalyzer

    with open(args.pattern, "r", encoding="utf-8") as fh:
        pattern_source = fh.read()
    events, num_traces, names = load_events(args.dump)
    analyzer = OfflineAnalyzer.from_source(pattern_source, names)
    result = analyzer.analyze(events)
    for match in result.matches[: args.limit or len(result.matches)]:
        chain = sorted(match.values(), key=lambda e: e.lamport)
        print("match:", "  ".join(
            f"{e.etype}@{names[e.trace]}#{e.index}" for e in chain
        ))
    shown = min(len(result.matches), args.limit or len(result.matches))
    if shown < result.num_matches:
        print(f"... and {result.num_matches - shown} more")
    print(
        f"\n{len(events)} events, {result.num_matches} total matches, "
        f"{len(result.covered)} (event, trace) slots, "
        f"analysis took {result.analysis_seconds:.3f}s"
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocep",
        description="OCEP: online causal-event-pattern matching (ICDCS 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_traces_default):
        p.add_argument("--traces", type=int, default=with_traces_default,
                       help="number of traces / processes")
        p.add_argument("--seed", type=int, default=0, help="simulation seed")
        p.add_argument("--max-events", type=int, default=50_000,
                       help="event budget for the simulation")

    p = sub.add_parser("simulate", help="run a case study and dump its events")
    p.add_argument("case", choices=sorted(CASES))
    p.add_argument("output", help="dump file to write")
    add_common(p, 10)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("match", help="replay a dump through a pattern")
    p.add_argument("pattern", help="pattern source file")
    p.add_argument("dump", help="POET dump file")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("case", help="simulate + monitor a case study live")
    p.add_argument("case", choices=sorted(CASES))
    p.add_argument("--quiet", action="store_true", help="suppress per-match output")
    p.add_argument("--trace-size", type=_positive_int, default=4096,
                   help="search-trace ring buffer capacity")
    p.add_argument("--metrics", choices=["table", "json", "prometheus"],
                   help="emit the metrics registry in this format (to "
                        "stdout: the run's only output)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the metrics document to FILE instead")
    p.add_argument("--show-trace", type=_nonnegative_int, default=0,
                   metavar="K",
                   help="also print the last K search-trace records "
                        "(embedded in the document with --metrics json)")
    p.add_argument("--describe", action="store_true",
                   help="emit the metric reference table (markdown) "
                        "instead of the values")
    p.add_argument("--trace-out", metavar="FILE",
                   help="also record a Chrome trace-event timeline to FILE")
    p.add_argument("--serve-port", type=_nonnegative_int, default=None,
                   metavar="PORT",
                   help="also serve live /metrics on PORT while the case "
                        "runs (0 = auto-pick)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address of --serve-port")
    p.add_argument("--linger", type=float, default=0.0, metavar="SECONDS",
                   help="keep serving this long after the run finishes "
                        "(inf = until Ctrl-C; default 0)")
    p.add_argument("--profile", metavar="FILE",
                   help="sample the run, print the per-stage self time and "
                        "write collapsed stacks (flamegraph.pl / speedscope "
                        "input) to FILE")
    p.add_argument("--explain", action="store_true",
                   help="print the evaluation plan of every trigger leaf")
    add_common(p, 10)
    p.set_defaults(func=cmd_case)

    p = sub.add_parser("bench", help="quartile table for a case study")
    p.add_argument("case", choices=sorted(CASES))
    p.add_argument("--repetitions", type=int, default=3)
    add_common(p, 10)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "check",
        help="check deployment cells (faults, crash, shedding) "
             "against the undisturbed reference",
    )
    p.add_argument("case", choices=sorted(CASES) + ["all"],
                   help="one case study ('all' = the four paper cases); "
                        "a v2 case adds its own pattern to the set")
    p.add_argument("--seeds", type=_parse_seeds, default=list(range(10)),
                   metavar="SPEC",
                   help="workload and fault seeds: '0..9', '1,4,7', or a "
                        "single int")
    p.add_argument("--traces", type=int, default=4,
                   help="number of traces / processes")
    p.add_argument("--max-events", type=int, default=DEFAULT_EVENTS,
                   help="event budget per recorded stream (the shedding "
                        "oracle is brute force; keep this small)")
    p.add_argument("--faults", nargs="+", choices=FAULTS + ("all",),
                   metavar="KIND",
                   help=f"one cell per fault kind ({', '.join(FAULTS)}, "
                        "or all)")
    p.add_argument("--crash", action="store_true",
                   help="one cell cut mid-stream, checkpointed, restored "
                        "and replayed")
    p.add_argument("--shed", type=_parse_shed, metavar="RATES|burst",
                   help="shed at these drop rates, or under the burst "
                        "latency profile, in every repairable cell")
    p.add_argument("--json", metavar="FILE",
                   help="also write every cell as JSON")
    p.add_argument("--trace-out", metavar="FILE",
                   help="also record a Chrome trace-event timeline to FILE")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diagram", help="render a dump as a diagram")
    p.add_argument("dump", help="POET dump file")
    p.add_argument("--dot", action="store_true", help="emit GraphViz DOT")
    p.add_argument("--limit", type=int, default=60,
                   help="events to include (0 = all)")
    p.add_argument("--width", type=int, default=110, help="diagram width")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("offline", help="post-mortem full enumeration")
    p.add_argument("pattern", help="pattern source file")
    p.add_argument("dump", help="POET dump file")
    p.add_argument("--limit", type=int, default=20,
                   help="matches to print (0 = all)")
    p.set_defaults(func=cmd_offline)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
