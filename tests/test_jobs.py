"""The parallel sweep engine: specs, result cache, journal, scheduler."""

import json

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.config import FaultConfig, baseline_config, scaled_config
from repro.jobs.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.jobs.journal import SweepJournal
from repro.jobs.scheduler import SweepJob, matrix_jobs, run_jobs
from repro.jobs.spec import JobSpec
from repro.sim.store import result_to_dict
from repro.telemetry import Telemetry
from repro.trace.workloads import Workload

INSTR = 6_000

#: A tiny 4-core machine keeps the grid tests fast while exercising the
#: full stage-1 + stage-2 pipeline.
CONFIG = scaled_config(baseline_config(), cores=4)

#: Overlapping app sets so per-worker stage-1 caches actually get reuse.
GRID_WORKLOADS = [
    Workload("mixA", ("hmmer", "namd", "povray", "dealII")),
    Workload("mixB", ("hmmer", "sjeng", "gromacs", "namd")),
    Workload("mixC", ("soplex", "sphinx3", "povray", "hmmer")),
]
GRID_SCHEMES = ("S-NUCA", "R-NUCA", "Re-NUCA")


@pytest.fixture(scope="module")
def flat_cpi():
    """Skip the expensive calibration probes; preserves determinism."""
    mp = pytest.MonkeyPatch()
    mp.setattr(
        "repro.sim.runner.calibrated_base_cpi",
        lambda app, config, seed=None: 1.0,
    )
    yield
    mp.undo()


def grid_jobs(seed=7):
    return matrix_jobs(
        GRID_WORKLOADS, GRID_SCHEMES, CONFIG, seed=seed, n_instructions=INSTR
    )


def canned_result(workload="WL1", scheme="S-NUCA", *, ipc_per_core=1.0, n=4):
    from repro.sim.metrics import WorkloadSchemeResult

    return WorkloadSchemeResult(
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


def spec_for(workload=None, scheme="S-NUCA", *, seed=7, fault=None):
    return JobSpec.for_run(
        workload or GRID_WORKLOADS[0], scheme, CONFIG,
        seed=seed, n_instructions=INSTR, fault_config=fault,
    )


class TestJobSpec:
    def test_fingerprint_stable(self):
        assert spec_for().fingerprint() == spec_for().fingerprint()

    def test_fingerprint_is_hex_sha256(self):
        fingerprint = spec_for().fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)

    @pytest.mark.parametrize("other", [
        spec_for(scheme="Re-NUCA"),
        spec_for(seed=8),
        spec_for(workload=GRID_WORKLOADS[1]),
        spec_for(fault=FaultConfig(age_fraction=0.9)),
    ])
    def test_fingerprint_sensitivity(self, other):
        assert other.fingerprint() != spec_for().fingerprint()

    def test_same_name_different_apps_differ(self):
        renamed = Workload("mixA", GRID_WORKLOADS[1].apps)
        assert (
            spec_for(workload=renamed).fingerprint()
            != spec_for().fingerprint()
        )

    def test_inactive_fault_normalises_to_pristine(self):
        idle = FaultConfig(age_fraction=0.0)
        assert not idle.active
        spec = spec_for(fault=idle)
        assert spec.fault is None
        assert spec.fingerprint() == spec_for().fingerprint()

    @pytest.mark.parametrize("fault", [
        None,
        FaultConfig(age_fraction=0.9, transient_rate=1e-6,
                    bank_failures=((3, 0.5),)),
    ])
    def test_dict_round_trip(self, fault):
        spec = spec_for(fault=fault)
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert JobSpec.from_dict(spec.to_dict()).fingerprint() == spec.fingerprint()

    def test_dict_round_trip_survives_json(self):
        spec = spec_for(fault=FaultConfig(age_fraction=1.1))
        thawed = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert thawed.fingerprint() == spec.fingerprint()

    def test_from_dict_rejects_unknown_version(self):
        payload = spec_for().to_dict()
        payload["format"] = 999
        with pytest.raises(ReproError, match="format"):
            JobSpec.from_dict(payload)

    def test_from_dict_rejects_missing_field(self):
        payload = spec_for().to_dict()
        del payload["apps"]
        with pytest.raises(ReproError, match="malformed"):
            JobSpec.from_dict(payload)

    def test_rejects_empty_apps(self):
        with pytest.raises(ReproError, match="no apps"):
            JobSpec(workload="w", apps=(), scheme="S-NUCA", seed=1,
                    n_instructions=INSTR, config_signature=("x",))

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ReproError, match="budget"):
            JobSpec(workload="w", apps=("hmmer",), scheme="S-NUCA", seed=1,
                    n_instructions=0, config_signature=("x",))

    def test_label_mentions_fault_age(self):
        assert spec_for().label() == "mixA/S-NUCA"
        aged = spec_for(fault=FaultConfig(age_fraction=0.9))
        assert aged.label() == "mixA/S-NUCA@age0.9"


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = spec_for()
        assert cache.get(spec) is None
        cache.put(spec, canned_result())
        hit = cache.get(spec)
        assert hit is not None
        assert hit.ipc == pytest.approx(canned_result().ipc)
        assert len(cache) == 1
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)

    def test_distinct_specs_distinct_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec_for(), canned_result())
        assert cache.get(spec_for(scheme="Re-NUCA")) is None

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, canned_result())
        path = cache.path_for(spec.fingerprint())
        payload = json.loads(path.read_text())
        payload["format_version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        cache.put(spec, canned_result())
        cache.path_for(spec.fingerprint()).write_text("{ truncated")
        assert cache.get(spec) is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec_for(), canned_result())
        assert [p.name for p in tmp_path.glob("*.tmp")] == []

    def test_bind_telemetry_counts(self, tmp_path):
        from repro.telemetry import StatsRegistry

        cache = ResultCache(tmp_path)
        registry = StatsRegistry()
        cache.bind_telemetry(registry)
        spec = spec_for()
        cache.get(spec)
        cache.put(spec, canned_result())
        cache.get(spec)
        snap = registry.snapshot()
        assert snap["jobs.cache.hits"] == 1
        assert snap["jobs.cache.misses"] == 1
        assert snap["jobs.cache.writes"] == 1

    def test_unwritable_root_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ReproError, match="cannot create"):
            ResultCache(blocker / "cache")


class TestSweepJournal:
    def test_record_load_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            journal.record(spec_for(), canned_result())
            journal.record(spec_for(scheme="Re-NUCA"),
                           canned_result(scheme="Re-NUCA"))
        loaded = SweepJournal(path).load()
        assert set(loaded) == {
            spec_for().fingerprint(),
            spec_for(scheme="Re-NUCA").fingerprint(),
        }
        assert loaded[spec_for().fingerprint()].scheme == "S-NUCA"

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "nope.jsonl").load() == {}

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            journal.record(spec_for(), canned_result())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "fingerprint": "abc", "resu')
        loaded = SweepJournal(path).load()
        assert set(loaded) == {spec_for().fingerprint()}

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            journal.record(spec_for(), canned_result())
        text = path.read_text()
        path.write_text("not json\n" + text)
        with pytest.raises(ReproError, match="malformed"):
            SweepJournal(path).load()

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        record = {"v": 999, "fingerprint": "abc", "result": {}}
        path.write_text(json.dumps(record) + "\n\n")
        with pytest.raises(ReproError, match="unsupported journal format"):
            SweepJournal(path).load()

    def test_truncate_discards_previous_records(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal(path) as journal:
            journal.record(spec_for(), canned_result())
        journal = SweepJournal(path)
        journal.open(truncate=True)
        journal.close()
        assert journal.load() == {}


class TestRunJobsValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ReproError, match="max_workers"):
            run_jobs([], max_workers=0)

    def test_negative_retries(self):
        with pytest.raises(ReproError, match="retries"):
            run_jobs([], retries=-1)

    def test_resume_requires_journal(self):
        with pytest.raises(ReproError, match="resume requires"):
            run_jobs([], resume=True)

    def test_duplicate_jobs_rejected(self):
        job = SweepJob(spec=spec_for(), config=CONFIG)
        with pytest.raises(ReproError, match="duplicate sweep job"):
            run_jobs([job, job])

    def test_empty_sweep_is_fine(self):
        results, report = run_jobs([])
        assert results == []
        assert report.total == 0


class TestRetries:
    """Transient failures retry; deterministic (ReproError) ones do not."""

    def _flaky(self, fail_times):
        calls = {"n": 0}

        def fake_run_workload(workload, scheme, config, **kwargs):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise OSError("transient")
            return canned_result(workload.name, scheme)

        return fake_run_workload, calls

    def test_serial_retry_recovers(self, monkeypatch):
        fake, calls = self._flaky(fail_times=1)
        monkeypatch.setattr("repro.jobs.scheduler.run_workload", fake)
        job = SweepJob(spec=spec_for(), config=CONFIG)
        results, report = run_jobs([job], retries=1)
        assert calls["n"] == 2
        assert report.retries == 1
        assert report.executed == 1
        assert results[0].scheme == "S-NUCA"

    def test_serial_retries_exhausted(self, monkeypatch):
        fake, _calls = self._flaky(fail_times=10)
        monkeypatch.setattr("repro.jobs.scheduler.run_workload", fake)
        job = SweepJob(spec=spec_for(), config=CONFIG)
        with pytest.raises(ReproError, match="failed after 2 attempt"):
            run_jobs([job], retries=1)

    def test_repro_error_is_not_retried(self, monkeypatch):
        calls = {"n": 0}

        def fake(workload, scheme, config, **kwargs):
            calls["n"] += 1
            raise ReproError("deterministic failure")

        monkeypatch.setattr("repro.jobs.scheduler.run_workload", fake)
        job = SweepJob(spec=spec_for(), config=CONFIG)
        with pytest.raises(ReproError, match="deterministic failure"):
            run_jobs([job], retries=5)
        assert calls["n"] == 1


@pytest.fixture(scope="module")
def serial_grid(flat_cpi):
    results, report = run_jobs(grid_jobs(), max_workers=1)
    return results, report


@pytest.fixture(scope="module")
def parallel_grid(flat_cpi):
    results, report = run_jobs(grid_jobs(), max_workers=4)
    return results, report


class TestDeterminism:
    """A parallel sweep must be field-for-field equal to the serial one."""

    def test_parallel_matches_serial(self, serial_grid, parallel_grid):
        serial, _ = serial_grid
        parallel, _ = parallel_grid
        assert len(serial) == len(parallel) == 9
        for a, b in zip(serial, parallel):
            assert result_to_dict(a) == result_to_dict(b)

    def test_results_follow_job_order(self, parallel_grid):
        results, _ = parallel_grid
        expected = [
            (workload.name, scheme)
            for workload in GRID_WORKLOADS
            for scheme in GRID_SCHEMES
        ]
        assert [(r.workload, r.scheme) for r in results] == expected

    def test_report_counts(self, parallel_grid):
        _, report = parallel_grid
        assert report.total == 9
        assert report.executed == 9
        assert report.cache_hits == report.resumed == report.retries == 0


class TestCacheAndResume:
    def test_warm_cache_skips_every_simulation(self, flat_cpi, tmp_path,
                                               serial_grid):
        cache = ResultCache(tmp_path / "cache")
        first, first_report = run_jobs(grid_jobs(), cache=cache)
        assert first_report.executed == 9
        warm, warm_report = run_jobs(grid_jobs(), cache=cache)
        assert warm_report.executed == 0
        assert warm_report.cache_hits == 9
        for a, b in zip(first, warm):
            assert result_to_dict(a) == result_to_dict(b)
        # And the cached grid equals the plain serial run.
        for a, b in zip(serial_grid[0], warm):
            assert result_to_dict(a) == result_to_dict(b)

    def test_resume_runs_only_the_remainder(self, flat_cpi, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = grid_jobs()
        _, partial = run_jobs(jobs[:4], journal=path)
        assert partial.executed == 4
        telemetry = Telemetry()
        results, report = run_jobs(jobs, journal=path, resume=True,
                                   telemetry=telemetry)
        assert report.resumed == 4
        assert report.executed == 5
        assert len(results) == 9
        snap = telemetry.registry.snapshot()
        assert snap["jobs.journal.resumed"] == 4
        assert snap["jobs.executed"] == 5

    def test_journal_restarts_without_resume(self, flat_cpi, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = grid_jobs()
        run_jobs(jobs[:2], journal=path)
        run_jobs(jobs[2:4], journal=path)  # no resume: truncates
        loaded = SweepJournal(path).load()
        assert set(loaded) == {job.spec.fingerprint() for job in jobs[2:4]}

    def test_cache_hits_are_journaled(self, flat_cpi, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = grid_jobs()[:2]
        run_jobs(jobs, cache=cache)
        path = tmp_path / "sweep.jsonl"
        _, report = run_jobs(jobs, cache=cache, journal=path)
        assert report.cache_hits == 2
        assert set(SweepJournal(path).load()) == {
            job.spec.fingerprint() for job in jobs
        }


class TestParallelTelemetry:
    def test_worker_events_are_stamped_and_counters_merged(self, flat_cpi):
        telemetry = Telemetry(trace=True)
        jobs = grid_jobs()[:3]  # mixA under all three schemes
        _, report = run_jobs(jobs, max_workers=2, telemetry=telemetry)
        assert report.executed == 3
        snap = telemetry.registry.snapshot()
        assert snap["jobs.executed"] == 3
        # Simulation counters from the workers landed in the parent.
        assert any(name.startswith("llc.") for name in snap)
        events = telemetry.trace.events()
        assert events
        schemes = {event.fields.get("scheme") for event in events}
        assert schemes <= set(GRID_SCHEMES)
        assert len(schemes) > 1
        assert all(
            event.fields.get("workload") == "mixA" for event in events
        )


class TestEndOfLifeParallel:
    def test_parallel_endoflife_matches_serial(self, flat_cpi):
        from repro.experiments.endoflife import run_endoflife

        kwargs = dict(
            workload_number=1,
            ages=(0.0, 0.9),
            schemes=("S-NUCA", "Re-NUCA"),
            config=CONFIG,
            seed=5,
            n_instructions=INSTR,
            transient_rate=1e-7,
        )
        serial = run_endoflife(**kwargs)
        parallel = run_endoflife(max_workers=4, **kwargs)
        assert serial == parallel
        assert [p.age for p in serial["S-NUCA"]] == [0.0, 0.9]


class TestObserverEvents:
    """The scheduler's live JobEvent stream (repro sweep --progress)."""

    def test_three_tier_event_stream(self, flat_cpi, tmp_path):
        from repro.jobs.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        journal = tmp_path / "sweep.jsonl"
        jobs = grid_jobs()[:3]
        run_jobs(jobs[:1], cache=cache)            # warm one cell
        run_jobs(jobs[1:2], journal=journal)       # journal another
        events = []
        _, report = run_jobs(
            jobs, cache=cache, journal=journal, resume=True,
            observer=events.append,
        )
        assert report.cache_hits == 1 and report.resumed == 1
        kinds = [e.kind for e in events]
        assert kinds.count("cache") == 1
        assert kinds.count("resumed") == 1
        assert kinds.count("dispatch") == kinds.count("done") == 1
        done = [e for e in events if e.kind == "done"]
        assert done[0].wall_time_s > 0
        assert all("/" in e.label for e in events)

    def test_parallel_emits_dispatch_and_done(self, flat_cpi):
        events = []
        run_jobs(grid_jobs()[:2], max_workers=2, observer=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count("dispatch") == kinds.count("done") == 2
        indices = sorted(e.index for e in events if e.kind == "done")
        assert indices == [0, 1]


class TestRunJobsLedger:
    """One provenance record per job, in job order, source-stamped."""

    def test_sources_and_engine_counts(self, flat_cpi, tmp_path):
        from repro.jobs.cache import ResultCache
        from repro.obs.ledger import RunLedger

        cache = ResultCache(tmp_path / "cache")
        jobs = grid_jobs()[:2]
        run_jobs(jobs[:1], cache=cache)
        path = tmp_path / "ledger.jsonl"
        run_jobs(jobs, cache=cache, ledger=path)
        records = RunLedger(path).load()
        assert [r.source for r in records] == ["cache", "executed"]
        assert [r.fingerprint for r in records] == [
            job.spec.fingerprint() for job in jobs
        ]
        assert records[0].wall_time_s == 0.0      # served, not simulated
        assert records[1].wall_time_s > 0.0
        assert all(
            r.engine == {"total": 2, "executed": 1, "cache_hits": 1,
                         "resumed": 0, "retries": 0}
            for r in records
        )

    def test_ledger_metrics_match_results(self, flat_cpi, tmp_path):
        from repro.obs.ledger import RunLedger

        path = tmp_path / "ledger.jsonl"
        jobs = grid_jobs()[:2]
        results, _ = run_jobs(jobs, max_workers=2, ledger=path)
        records = RunLedger(path).load()
        for record, result in zip(records, results):
            assert record.workload == result.workload
            assert record.scheme == result.scheme
            assert record.metrics["ipc"] == pytest.approx(result.ipc)
            assert record.n_instructions == INSTR


class TestParallelProfilerMerge:
    """Worker phase spans are the parallel run's only timing channel."""

    PHASES = {"stage1", "warm-up", "measure", "reduce"}

    def test_parent_profiler_sees_worker_phases(self, flat_cpi, tmp_path):
        import os

        from repro.obs.ledger import RunLedger
        from repro.obs.spans import SpanRecorder

        recorder = SpanRecorder()
        path = tmp_path / "ledger.jsonl"
        run_jobs(grid_jobs()[:2], max_workers=2, spans=recorder,
                 ledger=path)
        phases = [s for s in recorder.spans if s.category == "phase"]
        assert sorted(s.name for s in phases) == sorted([*self.PHASES] * 2)
        assert all(s.pid != os.getpid() for s in phases)
        # And the per-job phase split is in the ledger records.
        records = RunLedger(path).load()
        assert all(set(r.profile) == self.PHASES for r in records)

    def test_disabled_profiler_not_polluted(self, flat_cpi, tmp_path):
        from repro.obs.ledger import RunLedger
        from repro.obs.spans import DISABLED_SPANS

        path = tmp_path / "ledger.jsonl"
        run_jobs(grid_jobs()[:2], max_workers=2, ledger=path)
        run_jobs(grid_jobs()[2:3], max_workers=1, ledger=path)
        assert DISABLED_SPANS.spans == []
        assert all(r.profile == {} for r in RunLedger(path).load())

    def test_serial_and_parallel_ledgers_share_phase_keys(
        self, flat_cpi, tmp_path,
    ):
        from repro.obs.ledger import RunLedger
        from repro.obs.spans import SpanRecorder

        keys = {}
        for workers in (1, 2):
            path = tmp_path / f"ledger-{workers}.jsonl"
            run_jobs(grid_jobs()[:2], max_workers=workers,
                     spans=SpanRecorder(), ledger=path)
            keys[workers] = [set(r.profile) for r in RunLedger(path).load()]
        assert keys[1] == keys[2] == [self.PHASES, self.PHASES]
