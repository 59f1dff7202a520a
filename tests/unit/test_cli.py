"""Unit tests for the ``ocep`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_case_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["case", "not-a-case"])

    def test_defaults(self):
        args = build_parser().parse_args(["case", "race"])
        assert args.traces == 10
        assert args.seed == 0
        assert args.max_events == 50_000


class TestSimulateAndMatch:
    def test_round_trip(self, tmp_path, capsys):
        dump = tmp_path / "run.poet"
        rc = main(
            [
                "simulate",
                "atomicity",
                str(dump),
                "--traces",
                "4",
                "--seed",
                "2",
                "--max-events",
                "3000",
            ]
        )
        assert rc == 0
        assert dump.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

        pattern = tmp_path / "pattern.ocep"
        pattern.write_text(
            "X := ['', Access, ''];\nY := ['', Access, ''];\n"
            "pattern := X || Y;\n"
        )
        rc = main(["match", str(pattern), str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events" in out and "subset" in out


class TestCaseCommand:
    def test_ordering_case_reports(self, capsys):
        rc = main(
            ["case", "ordering", "--traces", "5", "--seed", "3",
             "--max-events", "5000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "case=ordering" in out

    def test_quiet_suppresses_matches(self, capsys):
        rc = main(
            ["case", "ordering", "--traces", "5", "--seed", "3",
             "--quiet", "--max-events", "5000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "match:" not in out

    def test_every_view_on_one_run(self, tmp_path, capsys):
        import json
        import re

        from repro.obs.spans import validate_chrome_trace

        trace_file = tmp_path / "trace.json"
        stacks_file = tmp_path / "profile.folded"
        metrics_file = tmp_path / "metrics.json"
        rc = main(
            ["case", "hotpath", "--traces", "4", "--max-events", "3000",
             "--quiet", "--explain", "--trace-out", str(trace_file),
             "--profile", str(stacks_file), "--metrics", "json",
             "--metrics-out", str(metrics_file)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        counts = validate_chrome_trace(json.loads(trace_file.read_text()))
        assert counts["flows"] >= 1 and counts["spans"] >= 1
        for line in stacks_file.read_text().splitlines():
            stack, samples = line.rsplit(" ", 1)
            assert ";" in stack and int(samples) > 0
        assert "plan for trigger leaf" in out
        assert "leaf 0: level 1 after (implied via leaf 1)" in out
        document = json.loads(metrics_file.read_text())
        metrics = {m["name"]: m for m in document["metrics"]}
        events = int(re.search(r"case=hotpath traces=4: (\d+) events",
                               out).group(1))
        assert metrics["poet_events_collected_total"]["value"] == events > 0


class TestBenchCommand:
    def test_quartile_table_printed(self, capsys):
        rc = main(
            ["bench", "race", "--traces", "5", "--repetitions", "2",
             "--max-events", "2000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Top Whisker" in out
        assert "race" in out


class TestDiagramCommand:
    def _dump(self, tmp_path):
        dump = tmp_path / "d.poet"
        main(
            ["simulate", "race", str(dump), "--traces", "4", "--seed", "1",
             "--max-events", "2000"]
        )
        return dump

    def test_ascii_diagram(self, tmp_path, capsys):
        dump = self._dump(tmp_path)
        capsys.readouterr()
        rc = main(["diagram", str(dump), "--limit", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P0" in out and "P1" in out

    def test_dot_output(self, tmp_path, capsys):
        dump = self._dump(tmp_path)
        capsys.readouterr()
        rc = main(["diagram", str(dump), "--dot", "--limit", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")


class TestStatsCommand:
    ARGS = ["case", "race", "--traces", "3", "--seed", "1",
            "--max-events", "500"]

    def test_table_output(self, capsys):
        rc = main(self.ARGS + ["--metrics", "table", "--show-trace", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "ocep_matcher_searches_run_total" in captured.out
        assert "ocep_monitor_event_seconds" in captured.out
        assert "poet_events_collected_total" in captured.out
        assert "search trace" in captured.err

    def test_json_round_trips_counters(self, capsys):
        import json

        rc = main(self.ARGS + ["--metrics", "json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        metrics = {m["name"]: m for m in document["metrics"]}
        searches = metrics["ocep_matcher_searches_run_total"]["value"]
        assert searches > 0
        # per-search latency histogram stays in lockstep with searches
        assert metrics["ocep_monitor_search_seconds"]["count"] == searches
        assert (
            metrics["poet_events_collected_total"]["value"]
            == metrics["ocep_monitor_events_total"]["value"]
            > 0
        )

    def test_describe_lists_routed_beside_offered(self, capsys):
        rc = main(self.ARGS + ["--describe"])
        assert rc == 0
        table = capsys.readouterr().out
        assert "| `ocep_dispatch_routed_events_total` | counter | `pattern` |" in table
        assert "| `ocep_monitor_events_total` | counter | `pattern` |" in table

    def test_prometheus_output_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "metrics.prom"
        rc = main(self.ARGS + ["--metrics", "prometheus",
                               "--metrics-out", str(out_file)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        text = out_file.read_text()
        assert "# TYPE ocep_matcher_searches_run_total counter" in text
        assert "ocep_monitor_event_seconds_bucket" in text


class TestChaosCommand:
    """``ocep check`` with fault and crash cells."""

    def test_seed_spec_parsing(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("0..3") == [0, 1, 2, 3]
        assert _parse_seeds("1,4,7") == [1, 4, 7]
        assert _parse_seeds("5") == [5]
        with pytest.raises(Exception):
            _parse_seeds("9..0")

    def test_empty_seed_spec_rejected(self, capsys):
        import argparse

        from repro.cli import _parse_seeds

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_seeds(",")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "race", "--seeds", ","])

    def test_matrix_passes_on_race_case(self, capsys):
        rc = main(
            ["check", "race", "--traces", "3", "--seeds", "0..1",
             "--faults", "all", "--crash", "--max-events", "1000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells passed" in out
        assert "FAIL" not in out
        for kind in ("plain", "reorder", "delay", "duplicate", "drop",
                     "crash"):
            assert kind in out

    def test_plan_filter_and_json_report(self, tmp_path, capsys):
        import json

        report_file = tmp_path / "check.json"
        rc = main(
            ["check", "race", "--traces", "3", "--seeds", "0",
             "--faults", "reorder", "--crash",
             "--max-events", "1000", "--json", str(report_file)]
        )
        assert rc == 0
        document = json.loads(report_file.read_text())
        assert document["ok"] is True
        assert {row["deployment"] for row in document["rows"]} == {
            "plain", "reorder", "crash"
        }

    def test_unknown_plan_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "race", "--traces", "3", "--seeds", "0",
                  "--faults", "gremlins", "--max-events", "500"])
        assert exc.value.code == 2
        assert "invalid choice: 'gremlins'" in capsys.readouterr().err

    def test_bare_faults_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["check", "race", "--faults"])
        assert exc.value.code == 2

    def test_drop_under_shedding_rejected(self, capsys):
        rc = main(["check", "race", "--seeds", "0", "--faults", "drop",
                   "--shed", "0.2"])
        assert rc == 2
        assert "drop is not repairable" in capsys.readouterr().err

    def test_a_holdback_that_loses_one_event_fails(self, capsys,
                                                   monkeypatch):
        from repro.poet.holdback import HoldbackBuffer

        hand_off = HoldbackBuffer._hand_off
        lost = []

        def lossy(self):
            if self._outbox and not lost:
                lost.append(self._outbox.pop())
            hand_off(self)

        monkeypatch.setattr(HoldbackBuffer, "_hand_off", lossy)
        rc = main(["check", "race", "--traces", "3", "--seeds", "0",
                   "--faults", "reorder", "--max-events", "1000"])
        assert lost
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "1/2 cells passed" in out  # the plain cell has no hold-back


class TestOfflineCommand:
    def test_enumerates_dump(self, tmp_path, capsys):
        dump = tmp_path / "d.poet"
        main(
            ["simulate", "race", str(dump), "--traces", "4", "--seed", "1",
             "--max-events", "2000"]
        )
        pattern = tmp_path / "p.ocep"
        pattern.write_text(
            "S := ['', Send, ''];\nR := ['', Receive, ''];\n"
            "pattern := S <> R;\n"
        )
        capsys.readouterr()
        rc = main(["offline", str(pattern), str(dump), "--limit", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total matches" in out
        assert "match:" in out


class TestTraceCommand:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs.spans import validate_chrome_trace

        out_file = tmp_path / "trace.json"
        rc = main(
            ["case", "race", "--traces", "4", "--seed", "0", "--quiet",
             "--max-events", "2000", "--trace-out", str(out_file)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "detection latency" in out
        assert "wrote" in out
        document = json.loads(out_file.read_text())
        counts = validate_chrome_trace(document)
        assert counts["flows"] >= 1
        assert counts["sim_events"] >= 1
        names = {
            e.get("name") for e in document["traceEvents"]
            if e.get("ph") == "B"
        }
        assert "matcher.search" in names
        assert "poet.deliver" in names
        # Nested child spans inside a search.
        assert names & {"matcher.goForward", "matcher.goBackward"}

    def test_case_trace_out_flag(self, tmp_path, capsys):
        import json

        from repro.obs.spans import validate_chrome_trace

        out_file = tmp_path / "case.json"
        rc = main(
            ["case", "race", "--traces", "3", "--seed", "1", "--quiet",
             "--max-events", "800", "--trace-out", str(out_file)]
        )
        assert rc == 0
        counts = validate_chrome_trace(json.loads(out_file.read_text()))
        assert counts["events"] > 0

    def test_chaos_trace_out_flag(self, tmp_path, capsys):
        import json

        from repro.obs.spans import validate_chrome_trace

        out_file = tmp_path / "check-trace.json"
        rc = main(
            ["check", "race", "--traces", "3", "--seeds", "0",
             "--faults", "reorder", "duplicate",
             "--max-events", "800", "--trace-out", str(out_file)]
        )
        assert rc == 0
        document = json.loads(out_file.read_text())
        validate_chrome_trace(document)
        names = {e.get("name") for e in document["traceEvents"]}
        assert "check.cell" in names


class TestStatsTraceInJson:
    ARGS = ["case", "race", "--traces", "3", "--seed", "1",
            "--max-events", "500"]

    def test_search_trace_embedded_in_json_document(self, capsys):
        import json

        rc = main(self.ARGS + ["--metrics", "json", "--show-trace", "5"])
        assert rc == 0
        captured = capsys.readouterr()
        # Structured output stays structured: nothing on stderr, the
        # trace tail lives inside the document.
        assert captured.err == ""
        document = json.loads(captured.out)
        trace = document["search_trace"]
        assert trace["recorded_total"] > 0
        assert 0 < len(trace["records"]) <= 5
        record = trace["records"][0]
        assert {"kind", "search", "level", "leaf_id"} <= set(record)

    def test_json_without_show_trace_has_no_trace_key(self, capsys):
        import json

        rc = main(self.ARGS + ["--metrics", "json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert "search_trace" not in document

    def test_detection_latency_histogram_in_stats(self, capsys):
        import json

        rc = main(self.ARGS + ["--metrics", "json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        metrics = {m["name"]: m for m in document["metrics"]}
        latency = metrics["ocep_detection_latency_sim_time_units"]
        assert latency["kind"] == "histogram"
        assert latency["count"] > 0
        reports = metrics["ocep_detection_reports_total"]["value"]
        assert reports > 0
        # The pre-rename name is retired from the JSON snapshot too.
        assert "ocep_detection_latency_sim_time" not in metrics

    def test_detection_latency_in_table_output(self, capsys):
        rc = main(self.ARGS + ["--metrics", "table"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ocep_detection_latency_sim_time_units" in out
        # Sim-time histograms are not rendered in microseconds.
        line = next(
            line for line in out.splitlines()
            if line.startswith("ocep_detection_latency_sim_time_units ")
        )
        assert "us" not in line

