"""Telemetry subsystem: registry, event trace, intervals, phase profiling.

Covers the observability contracts documented in docs/OBSERVABILITY.md:
hierarchical instrument naming, JSONL event round-trips, ring-buffer
retention, nested phase timing over spans, interval series
arithmetic — and the headline guarantee that a run without a telemetry handle behaves
identically to one with it.
"""

import json

import numpy as np
import pytest

from repro.cli import _phase_table
from repro.config import baseline_config
from repro.obs.spans import DISABLED_SPANS, SpanRecorder, phase_wall_table
from repro.sim.runner import Stage1Cache, run_workload
from repro.telemetry import (
    KNOWN_KINDS,
    EventTrace,
    IntervalSeries,
    StatsRegistry,
    Telemetry,
    TelemetryError,
    load_events,
)
from repro.telemetry.registry import check_name
from repro.trace.workloads import make_workloads


class TestNames:
    @pytest.mark.parametrize("name", [
        "llc.bank3.writes", "cpt.mispredicts", "a", "x9.y-z.w_v",
    ])
    def test_valid(self, name):
        assert check_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "LLC.writes", "llc..writes", ".llc", "llc.", "3abc", "a b",
    ])
    def test_invalid(self, name):
        with pytest.raises(TelemetryError):
            check_name(name)


class TestStatsRegistry:
    def test_counter_lazy_and_shared(self):
        reg = StatsRegistry()
        c = reg.counter("llc.fetches")
        c.inc()
        c.inc(4)
        assert reg.counter("llc.fetches") is c
        assert reg.snapshot()["llc.fetches"] == 5

    def test_gauge_callback_evaluated_at_snapshot(self):
        reg = StatsRegistry()
        box = {"v": 1}
        reg.gauge("llc.occupancy", lambda: box["v"])
        box["v"] = 7
        assert reg.snapshot()["llc.occupancy"] == 7

    def test_gauge_set_value(self):
        reg = StatsRegistry()
        reg.gauge("run.age").set(0.9)
        assert reg.snapshot()["run.age"] == pytest.approx(0.9)

    def test_histogram_flattens_moments(self):
        reg = StatsRegistry()
        h = reg.histogram("llc.latency")
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        snap = reg.snapshot()
        assert snap["llc.latency.count"] == 3
        assert snap["llc.latency.mean"] == pytest.approx(20.0)
        assert snap["llc.latency.min"] == 10.0
        assert snap["llc.latency.max"] == 30.0

    def test_kind_mismatch_rejected(self):
        reg = StatsRegistry()
        reg.counter("llc.fetches")
        with pytest.raises(TelemetryError):
            reg.gauge("llc.fetches")
        with pytest.raises(TelemetryError):
            reg.histogram("llc.fetches")

    def test_bad_name_rejected(self):
        with pytest.raises(TelemetryError):
            StatsRegistry().counter("LLC.Fetches")

    def test_subtree(self):
        reg = StatsRegistry()
        reg.counter("llc.bank0.writes").inc(3)
        reg.counter("llc.bank1.writes").inc(5)
        reg.counter("cpt.lookups").inc()
        sub = reg.subtree("llc")
        assert set(sub) == {"llc.bank0.writes", "llc.bank1.writes"}

    def test_render_mentions_instruments(self):
        reg = StatsRegistry()
        reg.counter("cpt.lookups").inc(2)
        assert "cpt.lookups" in reg.render()


class TestEventTrace:
    def test_emit_and_filter(self):
        trace = EventTrace()
        trace.emit("llc.hit", ts=1.0, bank=3)
        trace.emit("llc.miss", ts=2.0, bank=4)
        hits = trace.events("llc.hit")
        assert len(hits) == 1 and hits[0].fields["bank"] == 3
        assert len(trace.events()) == 2

    def test_reserved_field_rejected(self):
        with pytest.raises(TelemetryError):
            EventTrace().emit("llc.hit", seq=1)

    def test_non_scalar_field_rejected(self):
        with pytest.raises(TelemetryError):
            EventTrace().emit("llc.hit", banks=[1, 2])

    def test_ring_buffer_drops_oldest(self):
        trace = EventTrace(capacity=3)
        for i in range(5):
            trace.emit("llc.hit", bank=i)
        assert trace.dropped == 2
        assert trace.emitted == 5
        assert [e.fields["bank"] for e in trace.events()] == [2, 3, 4]

    def test_clear_keeps_sequencing(self):
        trace = EventTrace()
        trace.emit("llc.hit")
        trace.clear()
        trace.emit("llc.miss")
        assert trace.events()[0].seq == 1

    def test_export_load_round_trip(self, tmp_path):
        trace = EventTrace()
        trace.emit("llc.hit", ts=3.5, bank=2, critical=True)
        trace.emit("cpt.predict", core=0, critical=False)
        path = tmp_path / "t.jsonl"
        assert trace.export_jsonl(path) == 2
        events = load_events(path)
        assert [e.kind for e in events] == ["llc.hit", "cpt.predict"]
        assert events[0].ts == 3.5
        assert events[0].fields == {"bank": 2, "critical": True}
        assert events[1].ts is None

    def test_export_extra_stamps_and_appends(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = EventTrace()
        trace.emit("llc.hit")
        trace.export_jsonl(path, extra={"scheme": "R-NUCA"})
        trace.clear()
        trace.emit("llc.miss")
        trace.export_jsonl(path, append=True, extra={"scheme": "Re-NUCA"})
        events = load_events(path)
        assert [e.fields["scheme"] for e in events] == ["R-NUCA", "Re-NUCA"]

    @pytest.mark.parametrize("record", [
        {"kind": "llc.hit", "ts": 1.0},            # missing seq
        {"seq": True, "kind": "llc.hit", "ts": 1},  # bool is not a seq
        {"seq": -1, "kind": "llc.hit", "ts": 1},    # negative seq
        {"seq": 0, "ts": 1.0},                      # missing kind
        {"seq": 0, "kind": "", "ts": 1.0},          # empty kind
        {"seq": 0, "kind": "llc.hit", "ts": "x"},   # non-numeric ts
        [1, 2, 3],                                  # not an object
    ])
    def test_load_rejects_bad_records(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(TelemetryError):
            load_events(path)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(TelemetryError):
            load_events(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError):
            load_events(tmp_path / "nope.jsonl")


class TestProfiler:
    """Phase profiling (``--profile``): ``phase`` spans, one table."""

    def test_nested_paths_and_calls(self):
        rec = SpanRecorder()
        with rec.span("measure"):
            with rec.span("cpt"):
                pass
            with rec.span("cpt"):
                pass
        outer = next(s for s in rec.spans if s.name == "measure")
        inner = [s for s in rec.spans if s.name == "cpt"]
        assert all(s.parent_id == outer.span_id for s in inner)
        assert len({s.span_id for s in inner}) == 2
        rows = {name: (calls, total)
                for name, calls, total, _mean in phase_wall_table(rec.spans)}
        assert rows["measure"][0] == 1 and rows["cpt"][0] == 2
        assert rows["measure"][1] >= max(s.duration_s for s in inner) >= 0.0

    def test_disabled_returns_shared_null_context(self):
        rec = SpanRecorder(enabled=False)
        assert rec.span("a") is rec.span("b")
        assert rec.span("a") is DISABLED_SPANS.span("c")
        with rec.span("a"):
            pass
        assert rec.spans == []
        assert DISABLED_SPANS.spans == []

    def test_report_lists_phases(self):
        rec = SpanRecorder()
        with rec.span("measure"):
            pass
        report = _phase_table(rec.spans)
        assert "measure" in report and "total [s]" in report
        assert _phase_table(SpanRecorder().spans) == ""


class TestIntervalSeries:
    def make_series(self):
        series = IntervalSeries(interval_instructions=100)
        series.record(accesses=10, instructions=100, cycles=50.0,
                      sample={"llc.bank0.writes": 4, "llc.bank1.writes": 1})
        series.record(accesses=20, instructions=200, cycles=90.0,
                      sample={"llc.bank0.writes": 9, "llc.bank1.writes": 3})
        return series

    def test_series_and_deltas(self):
        series = self.make_series()
        assert series.series("llc.bank0.writes") == [4.0, 9.0]
        assert series.deltas("llc.bank0.writes") == [4.0, 5.0]

    def test_bank_write_matrix_ordering(self):
        series = IntervalSeries(interval_instructions=1)
        # bank10 must sort after bank2 numerically, not lexically
        series.record(accesses=1, instructions=1, cycles=1.0, sample={
            "llc.bank10.writes": 7, "llc.bank2.writes": 5, "cpt.lookups": 1,
        })
        assert series.bank_write_names() == [
            "llc.bank2.writes", "llc.bank10.writes",
        ]
        matrix = series.bank_write_matrix()
        assert matrix.shape == (1, 2)
        assert matrix[0].tolist() == [5.0, 7.0]

    def test_dict_round_trip(self):
        series = self.make_series()
        clone = IntervalSeries.from_dict(series.to_dict())
        assert clone.to_dict() == series.to_dict()
        assert clone.accesses == [10, 20]

    def test_from_dict_rejects_ragged(self):
        data = self.make_series().to_dict()
        data["accesses"].append(30)
        with pytest.raises(TelemetryError):
            IntervalSeries.from_dict(data)


class TestTelemetryHandle:
    def test_defaults_are_cheap(self):
        tel = Telemetry()
        assert tel.trace is None
        assert tel.interval_instructions == 0

    def test_negative_interval_rejected(self):
        with pytest.raises(TelemetryError):
            Telemetry(interval_instructions=-1)

    def test_summary_mentions_trace_and_registry(self):
        tel = Telemetry(trace=True)
        tel.counter("llc.fetches").inc()
        tel.trace.emit("llc.hit")
        summary = tel.summary()
        assert "llc.fetches" in summary
        assert "1 events retained" in summary


class TestRunnerIntegration:
    """End-to-end behaviour of an instrumented run."""

    @pytest.fixture(scope="class")
    def instrumented(self):
        config = baseline_config()
        workload = make_workloads(num_cores=config.num_cores, seed=5)[0]
        telemetry = Telemetry(trace=True, interval_instructions=20_000)
        recorder = SpanRecorder()
        result = run_workload(
            workload, "Re-NUCA", config, seed=5, n_instructions=6000,
            stage1=Stage1Cache(), telemetry=telemetry, spans=recorder,
        )
        return result, telemetry, recorder

    def test_disabled_telemetry_changes_nothing(self):
        config = baseline_config()
        workload = make_workloads(num_cores=config.num_cores, seed=5)[0]
        stage1 = Stage1Cache()
        plain = run_workload(workload, "Re-NUCA", config, seed=5,
                             n_instructions=6000, stage1=stage1)
        tel = Telemetry(trace=True, interval_instructions=10_000)
        traced = run_workload(workload, "Re-NUCA", config, seed=5,
                              n_instructions=6000, stage1=stage1,
                              telemetry=tel)
        np.testing.assert_array_equal(plain.per_core_ipc, traced.per_core_ipc)
        np.testing.assert_array_equal(plain.bank_writes, traced.bank_writes)
        assert plain.elapsed_cycles == traced.elapsed_cycles
        assert plain.intervals is None
        assert traced.intervals is not None

    def test_counters_match_result(self, instrumented):
        result, telemetry, _ = instrumented
        snap = telemetry.registry.snapshot()
        assert snap["llc.fetches"] == result.llc_fetches
        assert snap["llc.fetch_hit_rate"] == pytest.approx(
            result.llc_fetch_hit_rate
        )
        assert snap["llc.total_writes"] == result.bank_writes.sum()

    def test_interval_series_closed_and_consistent(self, instrumented):
        result, _, _ = instrumented
        series = result.intervals
        assert len(series.accesses) >= 2
        assert series.accesses == sorted(series.accesses)
        matrix = series.bank_write_matrix()
        assert matrix.shape[1] == result.bank_writes.size
        # delta columns sum to the final per-bank write totals
        np.testing.assert_allclose(
            matrix.sum(axis=0), result.bank_writes.astype(float)
        )

    def test_trace_kinds_are_known(self, instrumented):
        _, telemetry, _ = instrumented
        kinds = {event.kind for event in telemetry.trace.events()}
        assert kinds
        assert kinds <= KNOWN_KINDS

    def test_profiler_saw_all_phases(self, instrumented):
        _, _, recorder = instrumented
        phases = [s.name for s in recorder.spans if s.category == "phase"]
        assert phases == ["stage1", "warm-up", "measure", "reduce"]
        # A telemetry handle pins the reference replay; the span says so.
        measure = next(s for s in recorder.spans if s.name == "measure")
        assert measure.attrs["kernel"] is False

    def test_trace_round_trip_through_file(self, instrumented, tmp_path):
        _, telemetry, _ = instrumented
        path = tmp_path / "run.jsonl"
        count = telemetry.trace.export_jsonl(path)
        events = load_events(path)
        assert len(events) == count
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs)


class TestStateMerging:
    """`export_state`/`merge_state`: the sweep engine's worker hand-off."""

    def test_counters_accumulate(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.counter("llc.hits").inc(3)
        b.counter("llc.hits").inc(4)
        b.counter("llc.misses").inc(1)
        a.merge_state(b.export_state())
        snap = a.snapshot()
        assert snap["llc.hits"] == 7
        assert snap["llc.misses"] == 1

    def test_gauges_take_merged_value(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.gauge("llc.occupancy").set(1.0)
        b.gauge("llc.occupancy").set(5.0)
        a.merge_state(b.export_state())
        assert a.snapshot()["llc.occupancy"] == 5.0

    def test_callback_gauge_exports_its_reading(self):
        b = StatsRegistry()
        b.gauge("jobs.stage1.entries", fn=lambda: 42.0)
        a = StatsRegistry()
        a.merge_state(b.export_state())
        assert a.snapshot()["jobs.stage1.entries"] == 42.0

    def test_histograms_merge_distributions(self):
        a, b = StatsRegistry(), StatsRegistry()
        for v in (1.0, 2.0, 3.0):
            a.histogram("llc.latency").observe(v)
        for v in (10.0, 20.0):
            b.histogram("llc.latency").observe(v)
        a.merge_state(b.export_state())
        merged = a.histogram("llc.latency").stats
        from repro.common.stats import RunningStats

        reference = RunningStats()
        for v in (1.0, 2.0, 3.0, 10.0, 20.0):
            reference.add(v)
        assert merged.count == 5
        assert merged.mean == pytest.approx(reference.mean)
        assert merged.stddev == pytest.approx(reference.stddev)
        assert (merged.min, merged.max) == (1.0, 20.0)

    def test_merge_creates_missing_instruments(self):
        b = StatsRegistry()
        b.counter("x.c").inc()
        b.gauge("x.g").set(2.0)
        b.histogram("x.h").observe(1.0)
        a = StatsRegistry()
        a.merge_state(b.export_state())
        assert a.snapshot()["x.c"] == 1

    def test_kind_conflict_raises(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.gauge("x").set(1.0)
        b.counter("x").inc()
        with pytest.raises(TelemetryError):
            a.merge_state(b.export_state())

    def test_unknown_kind_raises(self):
        a = StatsRegistry()
        with pytest.raises(TelemetryError, match="unknown instrument kind"):
            a.merge_state({"x": ("sparkline", 1)})

    def test_state_is_plain_data(self):
        import pickle

        b = StatsRegistry()
        b.counter("x.c").inc()
        b.gauge("x.g", fn=lambda: 3.0)
        b.histogram("x.h").observe(2.0)
        state = pickle.loads(pickle.dumps(b.export_state()))
        a = StatsRegistry()
        a.merge_state(state)
        assert a.snapshot()["x.g"] == 3.0


class TestEventTraceMerge:
    def test_merge_preserves_and_stamps(self):
        worker = EventTrace()
        worker.emit("llc.hit", ts=1.0, bank=3)
        worker.emit("llc.miss", ts=2.0, bank=1, scheme="already-set")
        parent = EventTrace()
        merged = parent.merge(
            worker.events(), extra={"scheme": "S-NUCA", "workload": "WL1"}
        )
        assert merged == 2
        events = parent.events()
        assert [e.kind for e in events] == ["llc.hit", "llc.miss"]
        assert events[0].ts == 1.0
        assert events[0].fields["scheme"] == "S-NUCA"
        assert events[0].fields["workload"] == "WL1"
        # setdefault semantics: the worker's own stamp wins.
        assert events[1].fields["scheme"] == "already-set"

    def test_merge_assigns_fresh_sequence_numbers(self):
        parent = EventTrace()
        parent.emit("llc.hit", ts=0.0)
        worker = EventTrace()
        worker.emit("llc.miss", ts=5.0)
        parent.merge(worker.events())
        seqs = [e.seq for e in parent.events()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_merge_empty_is_noop(self):
        parent = EventTrace()
        assert parent.merge([]) == 0
        assert len(parent) == 0


class TestHistogramPercentiles:
    """Sliding-window p50/p90/p99 on histograms (see docs/OBSERVABILITY.md)."""

    def test_empty_histogram_has_no_percentile_keys(self):
        reg = StatsRegistry()
        reg.histogram("llc.latency")
        snap = reg.snapshot()
        assert "llc.latency.count" in snap
        assert not any(".p" in k for k in snap)

    def test_single_sample_collapses_all_levels(self):
        reg = StatsRegistry()
        reg.histogram("llc.latency").observe(42.0)
        snap = reg.snapshot()
        for level in (50, 90, 99):
            assert snap[f"llc.latency.p{level}"] == pytest.approx(42.0)

    def test_levels_are_ordered_on_a_spread(self):
        reg = StatsRegistry()
        h = reg.histogram("llc.latency")
        for v in range(1, 101):
            h.observe(float(v))
        snap = reg.snapshot()
        p50, p90, p99 = (snap[f"llc.latency.p{p}"] for p in (50, 90, 99))
        assert p50 < p90 < p99
        assert p50 == pytest.approx(50.5)

    def test_window_is_bounded(self):
        from repro.telemetry.registry import PERCENTILE_WINDOW

        reg = StatsRegistry()
        h = reg.histogram("llc.latency")
        for v in range(PERCENTILE_WINDOW + 500):
            h.observe(float(v))
        assert len(h.recent) == PERCENTILE_WINDOW
        # Early observations fell out of the window; the floor moved up.
        assert min(h.recent) == 500.0

    def test_merge_carries_recent_samples(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.histogram("llc.latency").observe(1.0)
        b.histogram("llc.latency").observe(99.0)
        a.merge_state(b.export_state())
        assert sorted(a.histogram("llc.latency").recent) == [1.0, 99.0]

    def test_merge_tolerates_state_without_recent(self):
        a, b = StatsRegistry(), StatsRegistry()
        b.histogram("llc.latency").observe(5.0)
        state = b.export_state()
        kind, payload = state["llc.latency"]
        state["llc.latency"] = (
            kind, {k: v for k, v in payload.items() if k != "recent"},
        )
        a.merge_state(state)
        assert a.histogram("llc.latency").stats.count == 1
        assert list(a.histogram("llc.latency").recent) == []


class TestProfilerStateMerge:
    """Span ``export_state``/``merge_state``: the worker phase hand-off."""

    def test_export_round_trip(self):
        worker = SpanRecorder()
        with worker.span("stage1"):
            pass
        with worker.span("measure"), worker.span("inner"):
            pass
        parent = SpanRecorder()
        parent.merge_state(worker.export_state())
        assert parent.export_state() == worker.export_state()

    def test_merge_accumulates_calls_and_seconds(self):
        a, b = SpanRecorder(), SpanRecorder()
        for rec in (a, b):
            with rec.span("measure"):
                pass
        expected = sum(rec.spans[0].duration_s for rec in (a, b))
        a.merge_state(b.export_state())
        [(name, calls, total, _mean)] = phase_wall_table(a.spans)
        assert (name, calls) == ("measure", 2)
        assert total == pytest.approx(expected)

    def test_state_survives_pickling(self):
        import pickle

        worker = SpanRecorder()
        with worker.span("reduce"):
            pass
        state = pickle.loads(pickle.dumps(worker.export_state()))
        parent = SpanRecorder()
        parent.merge_state(state)
        assert "reduce" in _phase_table(parent.spans)

    def test_report_includes_merged_phases(self):
        worker = SpanRecorder()
        with worker.span("stage1"):
            pass
        parent = SpanRecorder()
        with parent.span("measure"):
            pass
        parent.merge_state(worker.export_state(), extra={"scheme": "S-NUCA"})
        report = _phase_table(parent.spans)
        assert "stage1" in report and "measure" in report
