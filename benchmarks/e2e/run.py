#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, six workloads.

    python3 benchmarks/e2e/run.py                       # all six, gated metrics
    python3 benchmarks/e2e/run.py --workload race_dense --trace 1
    python3 benchmarks/e2e/run.py --aa 2 --out benchmarks/e2e/results/aa.json
    python3 benchmarks/e2e/run.py --selftest

Each workload is measured in a child process of its own (fixed
``PYTHONHASHSEED``).  For every workload the metrics are printed by
name with their unit, then one JSON object
``{"correct", "attempted", "failed", "metrics"}`` on the last line;
the exit status is 1 when any output check failed.  See README.md
beside this file for what each metric means and how noise is handled.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SELFTEST_SCALE = 0.05


def load_spec() -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("benchmarks/e2e: src/repro not found beside the benchmark; "
                 "run from a full checkout")
    return json.loads(SPEC_PATH.read_text())


def metric_specs(spec: dict, trace: int) -> List[dict]:
    return spec["per_layer" if trace else "end_to_end"]


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------

def worker_main(args: argparse.Namespace) -> int:
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    import worker
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    workload = WORKLOADS[args.workload]
    if args.trace:
        trace_path = OUT_DIR / f"{workload.name}.trace.json"
        values, attempted, failed_by, info = worker.traced(
            workload, args.seed, args.scale, trace_path
        )
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values, attempted, failed_by, info = worker.end_to_end(
            workload, args.seed, args.seconds, args.scale, import_s
        )
    specs = metric_specs(spec, args.trace)
    expected = [m["name"] for m in specs]
    if sorted(expected) != sorted(values):
        missing = sorted(set(expected) - set(values))
        extra = sorted(set(values) - set(expected))
        sys.exit(f"metric names disagree with BENCHMARK.json: "
                 f"missing {missing}, unexpected {extra}")
    failed = sum(failed_by.values())
    document = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_by": {k: v for k, v in failed_by.items() if v},
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs
        },
        "info": info,
    }
    print(json.dumps(document))
    return 0


def run_child(workload: str, args: argparse.Namespace) -> dict:
    """Measure one workload in a child and return its document."""
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(args.scale),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, cwd=str(ROOT)
    )
    if done.returncode != 0:
        sys.exit(f"workload {workload}: child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Parent: printing, --aa, --selftest
# ----------------------------------------------------------------------

def contract_line(document: dict) -> str:
    return json.dumps({
        key: document[key]
        for key in ("correct", "attempted", "failed", "metrics")
    })


def print_document(document: dict) -> None:
    label = "" if document["scale"] == 1.0 else (
        f"  [SCALED x{document['scale']}: not comparable with baselines]"
    )
    info = document["info"]
    print(f"== {document['workload']}  seed={document['seed']}  "
          f"events={info['events']}  reports={info['reports']}{label}")
    for name, metric in document["metrics"].items():
        note = ""
        if name.startswith("detect_latency"):
            note = f"   ({info['latency_samples']} terminating deliveries)"
        print(f"  {name:<36} {metric['value']:>16.4f} {metric['unit']}{note}")
    share = document["failed"] / document["attempted"]
    print(f"  {'failed_share':<36} {share:>16.6f} "
          f"({document['failed']} of {document['attempted']}) "
          f"{document['failed_by'] or ''}")
    if document["trace"]:
        print(f"  trace written to {info['trace_file']} "
              f"(open in https://ui.perfetto.dev)")


def run_suite(names: List[str], args: argparse.Namespace) -> Dict[str, dict]:
    documents = {}
    for name in names:
        document = run_child(name, args)
        print_document(document)
        print(contract_line(document), flush=True)
        documents[name] = document
    return documents


def run_aa(names: List[str], args: argparse.Namespace, spec: dict) -> int:
    """Run the suite N times on the same code and print, for each
    (metric, workload), the spread of the N values next to its bound."""
    runs = [run_suite(names, args) for _ in range(args.aa)]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    worst = 0
    print(f"== A/A over {args.aa} runs, seed {args.seed}: "
          f"(max - min) / median against the bound")
    for name in names:
        for metric, bound in bounds.items():
            values = sorted(
                run[name]["metrics"][metric]["value"] for run in runs
            )
            spread = (values[-1] - values[0]) / statistics.median(values)
            verdict = "ok" if spread <= bound else "EXCEEDS"
            worst += spread > bound
            print(f"  {name:<18} {metric:<24} spread {spread:7.4f}  "
                  f"bound {bound:5.2f}  {verdict}")
            rows.append({"workload": name, "metric": metric,
                         "values": values, "spread": spread, "bound": bound})
    write_out(args, {"aa": args.aa, "seed": args.seed, "spreads": rows,
                     "runs": runs})
    failed = any(d["failed"] for run in runs for d in run.values())
    return 1 if worst or failed else 0


def run_selftest(spec: dict, args: argparse.Namespace) -> int:
    """A 1/20-scale run of everything, asserting the shape of the
    output rather than any number."""
    started = time.perf_counter()
    problems: List[str] = []
    args.seconds = 0.0  # the minimum two pairs
    args.scale = SELFTEST_SCALE
    names = [w["name"] for w in spec["workloads"]]
    for trace in (0, 1):
        args.trace = trace
        expected = [m["name"] for m in metric_specs(spec, trace)]
        for bad in [n for n in expected if not NAME_RE.fullmatch(n)]:
            problems.append(f"metric name {bad!r} has a character outside "
                            f"[A-Za-z0-9_.-]")
        for name, document in run_suite(names, args).items():
            metrics = document["metrics"]
            if list(metrics) != expected:
                problems.append(f"{name}: metrics printed differ from "
                                f"BENCHMARK.json")
            for metric, body in metrics.items():
                if not body.get("unit"):
                    problems.append(f"{name}: {metric} has no unit")
            if not document["info"]["counters_repeat"]:
                problems.append(f"{name}: counters differ between passes")
            if document["failed"]:
                problems.append(f"{name}: failed {document['failed_by']}")
            if trace:
                share = metrics["harness.unattributed_share"]["value"]
                if abs(share) > 0.05:
                    problems.append(
                        f"{name}: self times miss wall by {share:.1%}"
                    )
    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"SELFTEST FAIL: {problem}")
    print(f"selftest: {len(problems)} problem(s) in {elapsed:.1f} s")
    return 1 if problems else 0


def write_out(args: argparse.Namespace, document: dict) -> None:
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="pass time to spend per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every generator size")
    parser.add_argument("--aa", type=int, nargs="?", const=2, default=0,
                        metavar="N", help="run the suite N times (default 2) "
                        "and compare the spreads with the bounds")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", help="also write the run(s) as JSON here")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        return worker_main(args)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")
    names = known if args.workload == "all" else [args.workload]
    if args.selftest:
        return run_selftest(spec, args)
    if args.aa:
        return run_aa(names, args, spec)
    documents = run_suite(names, args)
    write_out(args, {"seed": args.seed, "scale": args.scale,
                     "runs": [documents]})
    return 1 if any(d["failed"] for d in documents.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
