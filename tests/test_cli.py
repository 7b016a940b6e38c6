"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_parses_to_none(self):
        assert build_parser().parse_args([]).command is None

    def test_no_command_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage: repro" in err
        assert "endoflife" in err  # full help, not just the usage line

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.workload == 1
        assert args.interval == 50_000
        assert "Re-NUCA" in args.schemes
        assert args.trace_out is None and args.profile is False

    def test_telemetry_flags_on_compare(self):
        args = build_parser().parse_args(
            ["compare", "--trace-out", "t.jsonl", "--profile"]
        )
        assert args.trace_out == "t.jsonl"
        assert args.profile is True

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.workload == 1
        assert "Re-NUCA" in args.schemes

    def test_endoflife_defaults(self):
        args = build_parser().parse_args(["endoflife"])
        assert args.workload == 1
        assert args.ages == (0.5, 0.9, 1.1)
        assert args.fail_bank == []
        assert args.transient_rate == 0.0

    def test_endoflife_ages_parsed(self):
        args = build_parser().parse_args(["endoflife", "--ages", "0.25,0.75"])
        assert args.ages == (0.25, 0.75)

    def test_endoflife_bad_ages_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["endoflife", "--ages", "young"])

    def test_endoflife_fail_bank_parsed(self):
        args = build_parser().parse_args(
            ["endoflife", "--fail-bank", "3", "--fail-bank", "7:0.9"]
        )
        assert args.fail_bank == [(3, 0.0), (7, 0.9)]

    def test_endoflife_bad_fail_bank_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["endoflife", "--fail-bank", "three"])


class TestCommands:
    def test_config(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "16 cores" in out
        assert "32MB total" in out

    def test_workloads(self, capsys):
        assert main(["workloads", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "WL1:" in out and "WL10:" in out
        assert "high" in out

    def test_table2_subset(self, capsys):
        assert main(["table2", "namd", "--instructions", "15000"]) == 0
        out = capsys.readouterr().out
        assert "namd" in out and "WPKI" in out

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--schemes", "S-NUCA", "Private",
            "--instructions", "10000", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "S-NUCA" in out and "Private" in out
        assert "min life" in out

    def test_compare_bad_workload(self, capsys):
        assert main(["compare", "--workload", "99"]) == 2

    def test_trace_generation(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        code = main(["trace", "milc", str(out_file), "--instructions", "5000"])
        assert code == 0
        from repro.trace.fileio import load_trace

        trace, meta = load_trace(out_file)
        assert len(trace) > 0
        assert meta["extra"]["app"] == "milc"

    def test_stats_small(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "stats", "--schemes", "R-NUCA", "Re-NUCA",
            "--instructions", "8000", "--seed", "2",
            "--interval", "20000", "--trace-out", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-interval per-bank LLC writes" in out
        assert "bank0" in out and "bank15" in out  # heatmap rows
        assert "per-bank write CoV" in out
        from repro.telemetry import load_events

        events = load_events(trace)
        assert events
        assert {e.fields["scheme"] for e in events} == {"R-NUCA", "Re-NUCA"}

    def test_compare_trace_and_profile(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "compare", "--schemes", "S-NUCA", "--instructions", "6000",
            "--trace-out", str(trace), "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "events to" in out
        assert "measure" in out and "stage1" in out  # profiler report
        from repro.telemetry import load_events

        assert all(e.fields["scheme"] == "S-NUCA" for e in load_events(trace))

    def test_compare_profile_keeps_the_kernel(self, tmp_path, capsys):
        # Observing must not change which engine runs: --profile times
        # the vectorized kernel the plain command uses, and prints the
        # same results table ahead of its phase table.
        from repro.obs.spans import load_spans

        argv = ["compare", "--schemes", "S-NUCA", "Re-NUCA",
                "--instructions", "4000"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        spans = tmp_path / "spans.jsonl"
        assert main(argv + ["--profile", "--spans", str(spans)]) == 0
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain)
        assert "measure" in profiled[len(plain):]
        measures = [s for s in load_spans(spans) if s.name == "measure"]
        assert len(measures) == 2
        assert all(s.attrs["kernel"] is True for s in measures)

    def test_compare_parallel_trace_out_stamps_each_scheme(
        self, tmp_path, capsys,
    ):
        # At -j 2 the cells' events merge back already stamped; the
        # file holds both schemes' events, each under its own label.
        from repro.telemetry import load_events

        trace = tmp_path / "t.jsonl"
        assert main([
            "compare", "--schemes", "S-NUCA", "Re-NUCA",
            "--instructions", "4000", "-j", "2", "--trace-out", str(trace),
        ]) == 0
        assert "events to" in capsys.readouterr().out
        schemes = {e.fields["scheme"] for e in load_events(trace)}
        assert schemes == {"S-NUCA", "Re-NUCA"}

    def test_compare_profile_ledger_records_phase_totals(
        self, tmp_path, capsys,
    ):
        # A serial profiled compare writes each cell's phase split.
        from repro.obs.ledger import RunLedger

        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "compare", "--schemes", "S-NUCA", "Re-NUCA",
            "--instructions", "4000", "--profile", "--ledger", str(ledger),
        ]) == 0
        capsys.readouterr()
        records = RunLedger(ledger).load()
        assert [r.scheme for r in records] == ["S-NUCA", "Re-NUCA"]
        phases = {"stage1", "warm-up", "measure", "reduce"}
        assert all(set(r.profile) == phases for r in records)
        assert all(v >= 0.0 for r in records for v in r.profile.values())

    def test_endoflife_small(self, capsys):
        code = main([
            "endoflife", "--ages", "1.1", "--schemes", "S-NUCA",
            "--instructions", "5000", "--seed", "2",
            "--fail-bank", "3",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "S-NUCA" in captured.out
        assert "capacity" in captured.out
        assert "IPC retention" in captured.out
        assert "running S-NUCA" in captured.err  # progress narration


class TestErrorReporting:
    """ReproError subclasses become `error: ...` + exit 2, not tracebacks."""

    def test_unknown_app(self, tmp_path, capsys):
        code = main(["trace", "no-such-app", str(tmp_path / "x.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no-such-app" in err

    def test_unknown_scheme(self, capsys):
        code = main([
            "compare", "--schemes", "no-such-scheme", "--instructions", "5000",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no-such-scheme" in err

    def test_unknown_app_in_table2(self, capsys):
        code = main(["table2", "no-such-app"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_endoflife_bad_workload(self, capsys):
        code = main(["endoflife", "--workload", "99", "--ages", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "workload" in err


class TestObservabilityCommands:
    """repro diff / report / bench-record and the --ledger/--progress flags."""

    def _sweep(self, tmp_path, out_name="matrix.json", extra=()):
        out = tmp_path / out_name
        ledger = tmp_path / "ledger.jsonl"
        code = main([
            "sweep", "--workloads", "1", "--schemes", "S-NUCA", "Re-NUCA",
            "--instructions", "6000", "--seed", "1",
            "--ledger", str(ledger), "--out", str(out), *extra,
        ])
        assert code == 0
        return out, ledger

    def test_diff_unchanged_rerun_exits_zero(self, tmp_path, capsys):
        base, _ = self._sweep(tmp_path, "base.json")
        cur, _ = self._sweep(tmp_path, "cur.json")
        assert main(["diff", str(base), str(cur)]) == 0
        assert "all within tolerance" in capsys.readouterr().out

    def test_diff_drift_exits_one(self, tmp_path, capsys):
        import json

        base, _ = self._sweep(tmp_path, "base.json")
        drifted = json.loads(base.read_text())
        for cell in drifted["results"]:
            cell["per_core_ipc"] = [v * 1.2 for v in cell["per_core_ipc"]]
        cur = tmp_path / "drifted.json"
        cur.write_text(json.dumps(drifted))
        assert main(["diff", str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "violation" in out

    def test_diff_missing_file_exits_two(self, tmp_path, capsys):
        base, _ = self._sweep(tmp_path)
        assert main(["diff", str(base), str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_against_ledger(self, tmp_path, capsys):
        base, ledger = self._sweep(tmp_path)
        assert main(["diff", str(base), str(ledger)]) == 0

    def test_report_self_contained_html(self, tmp_path, capsys):
        matrix, ledger = self._sweep(tmp_path)
        html = tmp_path / "report.html"
        code = main([
            "report", "--matrix", str(matrix), "--ledger", str(ledger),
            "--html", str(html), "--title", "smoke",
        ])
        assert code == 0
        text = html.read_text()
        assert text.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in text and "smoke" in text
        for banned in ("http://", "https://", "<script", "<link"):
            assert banned not in text

    def test_bench_record_appends_points(self, tmp_path, capsys):
        matrix, ledger = self._sweep(tmp_path)
        out = tmp_path / "BENCH_sweep.json"
        for expected in (1, 2):
            code = main([
                "bench-record", "--matrix", str(matrix),
                "--ledger", str(ledger), "--out", str(out),
            ])
            assert code == 0
        from repro.obs.bench import load_bench_trajectory

        points = load_bench_trajectory(out)
        assert len(points) == 2
        assert "S-NUCA" in points[0]["schemes"]

    def test_sweep_progress_live_line(self, tmp_path, capsys):
        self._sweep(tmp_path, extra=("--progress",))
        err = capsys.readouterr().err
        assert "2/2 cells" in err
        assert "running" not in err.rsplit("\r", 1)[-1]  # final line settled

    def test_stats_registry_only_without_intervals(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        code = main([
            "stats", "--schemes", "Re-NUCA", "--instructions", "6000",
            "--seed", "2", "--interval", "0", "--ledger", str(ledger),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "registry-only view" in out
        assert "per-interval per-bank LLC writes" not in out
        from repro.obs.ledger import RunLedger

        records = RunLedger(ledger).load()
        assert len(records) == 1 and records[0].scheme == "Re-NUCA"
