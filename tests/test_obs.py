"""Observability layer: run ledger, diff gate, HTML report, progress."""

import io
import json

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.obs.bench import (
    BENCH_FORMAT_VERSION,
    append_bench_point,
    bench_point,
    load_bench,
    load_bench_trajectory,
    validate_bench_point,
)
from repro.obs.diff import (
    DEFAULT_RULES,
    ToleranceRule,
    diff_metric_maps,
    ledger_metric_map,
    load_comparable,
    load_rules,
    matrix_metric_map,
    render_findings,
)
from repro.obs.html_report import _scatter_chart, render_html_report
from repro.obs.ledger import (
    LEDGER_FORMAT_VERSION,
    RunLedger,
    RunRecord,
    new_run_id,
)
from repro.obs.progress import JobEvent, SweepProgress
from repro.sim.metrics import MatrixResult, WorkloadSchemeResult
from repro.telemetry.intervals import IntervalSeries


def make_result(workload="WL1", scheme="S-NUCA", *, ipc_per_core=1.0, n=4,
                with_intervals=False):
    result = WorkloadSchemeResult(
        workload=workload,
        scheme=scheme,
        apps=("hmmer",) * n,
        per_core_ipc=np.full(n, ipc_per_core),
        per_core_instructions=np.full(n, 1000, dtype=np.int64),
        per_core_cycles=np.full(n, 1000.0 / ipc_per_core),
        bank_writes=np.arange(n, dtype=np.int64) + 1,
        bank_lifetimes=np.asarray([5.0] * n),
        elapsed_cycles=1000.0,
        llc_fetch_hit_rate=0.5,
        llc_mean_fetch_latency=100.0,
        noc_mean_hops=2.0,
    )
    if with_intervals:
        series = IntervalSeries(1000)
        for i in range(1, 4):
            series.record(
                accesses=i * 100, instructions=i * 1000, cycles=i * 500.0,
                sample={f"wear.bank{b}.writes": float(i * 10 + b)
                        for b in range(n)},
            )
        result.intervals = series
    return result


def make_matrix(schemes=("S-NUCA", "Re-NUCA"), workloads=("WL1", "WL2"),
                **kwargs):
    matrix = MatrixResult(
        label="unit", schemes=tuple(schemes), workloads=tuple(workloads),
    )
    for i, workload in enumerate(workloads):
        for j, scheme in enumerate(schemes):
            matrix.add(make_result(
                workload, scheme, ipc_per_core=1.0 + 0.1 * i + 0.01 * j,
                **kwargs,
            ))
    return matrix


def make_record(workload="WL1", scheme="S-NUCA", **kwargs):
    return RunRecord.for_result(
        make_result(workload, scheme),
        seed=7, n_instructions=6000, wall_time_s=1.5, **kwargs,
    )


class TestRunRecord:
    def test_for_result_carries_headline_metrics(self):
        record = make_record()
        result = make_result()
        assert record.metrics["ipc"] == pytest.approx(result.ipc)
        assert record.metrics["min_lifetime"] == pytest.approx(
            result.min_lifetime)
        assert record.metrics["wear_cov"] == pytest.approx(result.wear_cov)
        assert record.source == "executed"
        assert record.timestamp > 0

    def test_dict_round_trip(self):
        record = make_record(profile={"measure": 0.5}, engine={"total": 4})
        clone = RunRecord.from_dict(
            json.loads(json.dumps(record.to_dict())))
        assert clone == record

    def test_bad_source_rejected(self):
        with pytest.raises(ReproError, match="source"):
            make_record(source="wishful")

    def test_from_dict_rejects_unknown_version(self):
        payload = make_record().to_dict()
        payload["v"] = 999
        with pytest.raises(ReproError, match="unsupported ledger record"):
            RunRecord.from_dict(payload)

    def test_from_dict_rejects_missing_field(self):
        payload = make_record().to_dict()
        del payload["metrics"]
        with pytest.raises(ReproError, match="malformed ledger record"):
            RunRecord.from_dict(payload)

    def test_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()


class TestRunLedger:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.append(make_record())
            ledger.append(make_record(scheme="Re-NUCA"))
        records = RunLedger(path).load()
        assert [r.scheme for r in records] == ["S-NUCA", "Re-NUCA"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunLedger(tmp_path / "nope.jsonl").load() == []

    def test_append_reopens_after_close(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(make_record())
        ledger.close()
        ledger.append(make_record(scheme="Re-NUCA"))
        ledger.close()
        assert len(RunLedger(path).load()) == 2

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.append(make_record())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "run_id": "r1", "work')
        records = RunLedger(path).load()
        assert len(records) == 1
        assert records[0].scheme == "S-NUCA"

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.append(make_record())
        path.write_text("not json\n" + path.read_text())
        with pytest.raises(ReproError, match="malformed"):
            RunLedger(path).load()

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        payload = make_record().to_dict()
        payload["v"] = LEDGER_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload) + "\n\n")
        with pytest.raises(ReproError, match="unsupported ledger record"):
            RunLedger(path).load()

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.append(make_record())
        assert len(RunLedger(path).load()) == 1


class TestToleranceRule:
    def test_within_tolerance_passes(self):
        rule = ToleranceRule("ipc", rel_tol=0.01)
        assert not rule.violated_by(100.0, 100.5)
        assert rule.violated_by(100.0, 102.0)

    def test_direction_decrease_ignores_gains(self):
        rule = ToleranceRule("min_lifetime", rel_tol=0.01,
                             direction="decrease")
        assert not rule.violated_by(10.0, 20.0)
        assert rule.violated_by(10.0, 9.0)

    def test_direction_increase_ignores_drops(self):
        rule = ToleranceRule("wear_cov", rel_tol=0.01, direction="increase")
        assert not rule.violated_by(0.5, 0.1)
        assert rule.violated_by(0.5, 0.6)

    def test_abs_floor_protects_near_zero_baselines(self):
        rule = ToleranceRule("wear_cov", rel_tol=0.02, abs_tol=0.005)
        # 2% of 0.01 is tiny; the absolute floor keeps noise legal.
        assert not rule.violated_by(0.01, 0.014)
        assert rule.violated_by(0.01, 0.02)

    def test_bad_direction_rejected(self):
        with pytest.raises(ReproError, match="direction"):
            ToleranceRule("ipc", direction="sideways")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ReproError, match=">= 0"):
            ToleranceRule("ipc", rel_tol=-0.1)


class TestDiff:
    def test_identical_maps_all_pass(self):
        cells = matrix_metric_map(make_matrix())
        findings = diff_metric_maps(cells, dict(cells))
        assert findings and all(f.ok for f in findings)

    def test_ipc_drift_fails(self):
        base = matrix_metric_map(make_matrix())
        current = {k: dict(v) for k, v in base.items()}
        current[("WL1", "S-NUCA")]["ipc"] *= 1.02
        findings = diff_metric_maps(base, current)
        bad = [f for f in findings if not f.ok]
        assert [(f.workload, f.scheme, f.metric) for f in bad] == [
            ("WL1", "S-NUCA", "ipc")
        ]
        assert bad[0].delta_pct == pytest.approx(2.0)

    def test_missing_cell_is_a_failure(self):
        base = matrix_metric_map(make_matrix())
        current = dict(base)
        del current[("WL2", "Re-NUCA")]
        findings = diff_metric_maps(base, current)
        bad = [f for f in findings if not f.ok]
        assert len(bad) == 1 and bad[0].metric == "*"
        assert "missing" in bad[0].note

    def test_extra_cell_is_informational(self):
        base = matrix_metric_map(make_matrix())
        current = dict(base)
        current[("WL9", "S-NUCA")] = {"ipc": 1.0}
        findings = diff_metric_maps(base, current)
        assert all(f.ok for f in findings)

    def test_unruled_metrics_are_skipped(self):
        findings = diff_metric_maps(
            {("WL1", "S"): {"exotic": 1.0}},
            {("WL1", "S"): {"exotic": 99.0}},
        )
        assert findings == []

    def test_ledger_map_last_record_wins_and_has_wall_time(self):
        records = [
            make_record(), make_record(),  # same cell twice
        ]
        cells = ledger_metric_map(records)
        assert set(cells) == {("WL1", "S-NUCA")}
        assert cells[("WL1", "S-NUCA")]["wall_time_s"] == pytest.approx(1.5)

    def test_render_lists_failures_and_summary(self):
        base = matrix_metric_map(make_matrix())
        current = {k: dict(v) for k, v in base.items()}
        current[("WL1", "S-NUCA")]["ipc"] *= 2
        text = render_findings(diff_metric_maps(base, current))
        assert "FAIL" in text and "1 violation" in text
        ok_text = render_findings(diff_metric_maps(base, base))
        assert "all within tolerance" in ok_text


class TestRulesFile:
    def test_load_rules_round_trip(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "rules": {"ipc": {"rel_tol": 0.01, "direction": "any"}},
        }))
        rules = load_rules(path)
        assert rules["ipc"].rel_tol == 0.01

    def test_checked_in_tolerances_match_defaults(self):
        rules = load_rules("baselines/tolerances.json")
        assert rules == DEFAULT_RULES

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"format_version": 99, "rules": {}}))
        with pytest.raises(ReproError, match="unsupported tolerance"):
            load_rules(path)

    def test_empty_rules_rejected(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"format_version": 1, "rules": {}}))
        with pytest.raises(ReproError, match="no rules"):
            load_rules(path)


class TestLoadComparable:
    def test_sniffs_matrix_file(self, tmp_path):
        from repro.sim.store import save_matrix

        path = tmp_path / "matrix.json"
        save_matrix(path, make_matrix())
        cells = load_comparable(path)
        assert ("WL1", "S-NUCA") in cells
        assert "ipc" in cells[("WL1", "S-NUCA")]

    def test_sniffs_ledger_file(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.append(make_record())
        cells = load_comparable(path)
        assert set(cells) == {("WL1", "S-NUCA")}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            load_comparable(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_comparable(tmp_path / "nope.json")


class TestHtmlReport:
    def test_report_is_self_contained(self):
        html = render_html_report(
            make_matrix(with_intervals=True),
            ledger_records=[make_record(profile={"measure": 1.0})],
        )
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        # Zero external references: no URLs, scripts or stylesheets.
        for banned in ("http://", "https://", "<script", "<link",
                       "url(", "@import"):
            assert banned not in html, f"external reference: {banned}"

    def test_sections_present(self):
        html = render_html_report(
            make_matrix(with_intervals=True),
            ledger_records=[make_record(profile={"measure": 1.0})],
        )
        for heading in ("Scheme comparison", "Wear heatmaps",
                        "Interval write timelines", "Phase timings",
                        "Run ledger history"):
            assert heading in html

    def test_without_ledger_or_intervals(self):
        html = render_html_report(make_matrix())
        assert "No interval series recorded" in html
        assert "No ledger supplied" in html

    def test_escapes_labels(self):
        matrix = make_matrix(workloads=("WL<script>",))
        html = render_html_report(matrix, title="<&>")
        assert "WL<script>" not in html
        assert "WL&lt;script&gt;" in html

    def test_paper_target_marker_when_rnuca_present(self):
        html = render_html_report(
            make_matrix(schemes=("S-NUCA", "R-NUCA", "Re-NUCA")))
        assert "+42% vs R-NUCA" in html


class TestBenchTrajectory:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        point = bench_point(make_matrix(), label="p1", wall_time_s=3.0)
        assert append_bench_point(path, point) == 1
        assert append_bench_point(
            path, bench_point(make_matrix(), label="p2")) == 2
        points = load_bench_trajectory(path)
        assert [p["label"] for p in points] == ["p1", "p2"]
        assert points[0]["wall_time_s"] == pytest.approx(3.0)
        assert points[0]["schemes"]["S-NUCA"]["mean_ipc"] > 0

    def test_missing_file_is_empty(self, tmp_path):
        assert load_bench_trajectory(tmp_path / "nope.json") == []

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        path.write_text("{broken")
        with pytest.raises(ReproError, match="cannot read"):
            load_bench_trajectory(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        path.write_text(json.dumps(
            {"format_version": BENCH_FORMAT_VERSION + 1, "points": []}))
        with pytest.raises(ReproError, match="unsupported trajectory"):
            load_bench_trajectory(path)


class TestBenchValidation:
    def test_matrix_and_search_points_valid(self):
        matrix_point = bench_point(make_matrix(), label="m")
        assert validate_bench_point(matrix_point) is None
        search_point = {
            "timestamp": 1.0, "git_sha": None, "label": "s",
            "bench": "search", "frontier_size": 3, "hypervolume": 2.5,
        }
        assert validate_bench_point(search_point) is None

    def test_rejects_malformed_points(self):
        assert "not an object" in validate_bench_point([1, 2])
        assert "timestamp" in validate_bench_point({"timestamp": "late"})
        base = {"timestamp": 1.0, "git_sha": ""}
        assert "git_sha" in validate_bench_point(base)
        flavourless = {"timestamp": 1.0, "git_sha": None}
        assert "flavour" in validate_bench_point(flavourless)
        bad_scheme = {
            "timestamp": 1.0, "git_sha": None,
            "schemes": {"S-NUCA": {"mean_ipc": "fast"}},
        }
        assert "S-NUCA" in validate_bench_point(bad_scheme)
        bad_search = {
            "timestamp": 1.0, "git_sha": None, "bench": "search",
            "frontier_size": 2.5, "hypervolume": 1.0,
        }
        assert "frontier_size" in validate_bench_point(bad_search)

    def test_bool_is_not_a_number(self):
        point = {
            "timestamp": True, "git_sha": None,
            "frontier_size": 1, "hypervolume": 1.0,
        }
        assert "timestamp" in validate_bench_point(point)

    def test_load_bench_skips_bad_points_with_reasons(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        good = bench_point(make_matrix(), label="ok")
        path.write_text(json.dumps({
            "format_version": BENCH_FORMAT_VERSION,
            "points": [good, {"timestamp": "bad"}, good],
        }))
        points, skipped = load_bench(path)
        assert len(points) == 2
        assert len(skipped) == 1
        assert "point 1" in skipped[0] and str(path) in skipped[0]

    def test_load_bench_missing_file_is_empty(self, tmp_path):
        assert load_bench(tmp_path / "nope.json") == ([], [])

    def test_load_bench_keeps_strict_envelope(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        path.write_text(json.dumps(
            {"format_version": BENCH_FORMAT_VERSION + 1, "points": []}))
        with pytest.raises(ReproError, match="unsupported trajectory"):
            load_bench(path)


class TestScatterEdgeCases:
    def test_empty_frontier_renders_placeholder(self):
        assert "(no data)" in _scatter_chart(
            [], label="l", x_label="x", y_label="y")

    def test_single_point_pads_axes(self):
        svg = _scatter_chart(
            [(1.5, 8.0, "pt-front", "only")],
            label="l", x_label="x", y_label="y",
        )
        assert svg.count("<circle") == 1
        assert "NaN" not in svg and "Infinity" not in svg

    def test_single_point_at_origin(self):
        svg = _scatter_chart(
            [(0.0, 0.0, "pt-front", "origin")],
            label="l", x_label="x", y_label="y",
        )
        assert "NaN" not in svg and "Infinity" not in svg

    def test_all_dominated_points_draw_dimmed(self):
        svg = _scatter_chart(
            [(1.0, 1.0, "pt-dim", "a"), (2.0, 2.0, "pt-dim", "b")],
            label="l", x_label="x", y_label="y",
        )
        assert svg.count('class="pt-dim"') == 2
        assert "pt-front" not in svg

    def test_optional_href_wraps_marker(self):
        svg = _scatter_chart(
            [(1.0, 1.0, "h3", "linked", "#run-r1"),
             (2.0, 2.0, "h3", "plain")],
            label="l", x_label="x", y_label="y",
        )
        assert svg.count('<a href="#run-r1">') == 1
        assert svg.count("<circle") == 2


class TestUntrackedProvenance:
    def test_ledger_history_renders_untracked_sha(self):
        record = make_record()
        record.git_sha = None
        html = render_html_report(make_matrix(), ledger_records=[record])
        assert "untracked" in html


class TestSweepProgress:
    def make(self, total=4, workers=2):
        return SweepProgress(
            total=total, workers=workers,
            stream=io.StringIO(), min_redraw_s=0.0,
        )

    def test_event_folding(self):
        progress = self.make()
        progress(JobEvent("resumed", "WL1/S-NUCA", 0))
        progress(JobEvent("cache", "WL1/Re-NUCA", 1))
        progress(JobEvent("dispatch", "WL2/S-NUCA", 2))
        progress(JobEvent("done", "WL2/S-NUCA", 2, wall_time_s=2.0))
        assert progress.completed == 3
        line = progress.status_line()
        assert "3/4 cells" in line
        assert "1 cached" in line and "1 resumed" in line

    def test_eta_uses_mean_duration_over_workers(self):
        progress = self.make(total=5, workers=2)
        assert progress.eta_seconds() is None  # no durations yet
        progress(JobEvent("done", "a", 0, wall_time_s=4.0))
        progress(JobEvent("done", "b", 1, wall_time_s=2.0))
        # 3 remaining x mean(3s) / 2 workers.
        assert progress.eta_seconds() == pytest.approx(4.5)

    def test_cached_cells_do_not_skew_eta(self):
        progress = self.make(total=4)
        progress(JobEvent("cache", "a", 0))
        progress(JobEvent("done", "b", 1, wall_time_s=10.0))
        assert progress.eta_seconds() == pytest.approx(10.0)

    def test_in_flight_labels_shown(self):
        progress = self.make()
        progress(JobEvent("dispatch", "WL1/S-NUCA", 0))
        progress(JobEvent("dispatch", "WL1/Re-NUCA", 1))
        line = progress.status_line()
        assert "2 running" in line and "WL1/S-NUCA" in line

    def test_single_rewriting_line(self):
        progress = self.make(total=2)
        progress(JobEvent("dispatch", "a", 0))
        progress(JobEvent("done", "a", 0, wall_time_s=1.0))
        progress.close()
        text = progress.stream.getvalue()
        # Rewrites use carriage returns; only close() emits newlines.
        assert "\r" in text
        assert text.split("\r")[0] == ""
        assert "elapsed" in text.splitlines()[-1]

    def test_retry_counted(self):
        progress = self.make()
        progress(JobEvent("retry", "a", 0))
        assert "1 retried" in progress.status_line()

    def test_zero_total_does_not_divide(self):
        progress = self.make(total=0)
        assert "0/0" in progress.status_line()
