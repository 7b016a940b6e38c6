"""The sweep scheduler: cache → journal → process pool → merge.

:func:`run_jobs` resolves a list of :class:`SweepJob` cells in three
tiers — journal replay (``resume=True``), content-addressed cache
lookup, then actual simulation — and executes the remainder either
in-process (``max_workers=1``, the exact legacy serial path: shared
:class:`~repro.sim.runner.Stage1Cache`, parent telemetry threaded
straight through) or on a ``ProcessPoolExecutor``.

Determinism guarantee: per-job randomness derives from
``(seed, workload, scheme)`` (see :mod:`repro.common.rng`), never from
scheduling, so a parallel sweep's results are field-for-field equal to
the serial ones and the output list always follows job-submission
order regardless of completion order.  Worker telemetry (registry
state + retained trace events) is merged into the parent handle in the
same deterministic job order.  Retry backoff jitter derives from the
job fingerprint (:meth:`~repro.jobs.spec.JobSpec.retry_delay_s`), so
even failure handling replays identically.

Worker processes are reused across jobs and keep a process-global
:class:`~repro.sim.runner.Stage1Cache`, so a worker that executes
several cells of one workload pays its stage-1 cost once.  The pool
uses the ``fork`` start method where the platform offers it (cheap,
and inherits warmed module state); elsewhere it falls back to the
platform default, which only requires the ``repro`` package to be
importable in the child.

Resilience layer (see ``docs/RESILIENCE.md``):

* **Crash recovery** — a dead worker (OOM kill, hard exit) breaks the
  whole ``ProcessPoolExecutor``; instead of aborting, the pool is
  rebuilt (bounded by ``max_pool_rebuilds``) and in-flight jobs are
  requeued.  With several jobs in flight the culprit is unknowable, so
  all of them become *suspects*, re-dispatched one at a time: a repeat
  crash then attributes exactly and charges that job a retry attempt.
* **Watchdog timeouts** — ``job_timeout_s`` sets a wall-clock deadline
  per job, scaled up by ``n_instructions`` relative to the default
  budget.  An overdue job's workers are killed, the pool rebuilt, the
  job charged an attempt and innocents requeued uncharged.
* **Retry with backoff** — transient failures retry up to ``retries``
  times with exponential, fingerprint-jittered delays; retries wait in
  a delay queue without blocking other dispatches.
* **Quarantine** — a job that exhausts its attempts (or fails
  deterministically) aborts the sweep by default; under ``keep_going``
  it is recorded to the :class:`~repro.jobs.journal.QuarantineJournal`
  and its cell resolves to a zeroed ``FAILED`` placeholder
  (:meth:`~repro.sim.metrics.WorkloadSchemeResult.failed_cell`) so the
  rest of the sweep completes.
* **Graceful cancellation** — the first SIGINT/SIGTERM stops
  dispatching, drains and journals in-flight jobs, flushes ledger
  records and raises :class:`~repro.common.errors.SweepCancelled` with
  a resume hint; a second signal aborts immediately.
* **Chaos hooks** — a :class:`~repro.jobs.chaos.ChaosPlan` travels in
  the worker payload and injects real failures (raise/hang/kill/exit/
  cache corruption) on chosen attempts, which is how the tests and the
  CI chaos-smoke job prove all of the above end to end.
"""

from __future__ import annotations

import multiprocessing
import re
import signal as signal_module
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.common.errors import ReproError, SweepCancelled
from repro.config import FaultConfig, SystemConfig
from repro.jobs.cache import ResultCache
from repro.jobs.chaos import ChaosPlan, as_chaos
from repro.jobs.journal import QuarantineJournal, SweepJournal
from repro.jobs.spec import JobSpec
from repro.obs.ledger import RunLedger, RunRecord, as_ledger
from repro.obs.progress import JobEvent, tee_observers
from repro.obs.spans import (
    Span,
    SpanObserver,
    SpanRecorder,
    SpanWriter,
    phase_totals,
)
from repro.sim.metrics import WorkloadSchemeResult
from repro.sim.runner import DEFAULT_INSTRUCTIONS, Stage1Cache, run_workload
from repro.sim.stage1_store import Stage1Store, as_stage1_store
from repro.telemetry import Telemetry
from repro.trace.workloads import Workload

#: Default per-job retry budget for transient failures.
DEFAULT_RETRIES = 1

#: Default base delay of the exponential retry backoff (seconds).
DEFAULT_BACKOFF_S = 0.25

#: Default bound on worker-pool rebuilds before the sweep gives up.
DEFAULT_MAX_POOL_REBUILDS = 8


@dataclass(frozen=True)
class SweepJob:
    """One schedulable cell: its identity plus the machine to run it on."""

    spec: JobSpec
    config: SystemConfig


@dataclass
class SweepReport:
    """How a sweep's cells were resolved (mirrors the ``jobs.*`` counters)."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    retries: int = 0
    #: Cells quarantined as FAILED placeholders (``keep_going`` only).
    failed: int = 0
    #: Watchdog-deadline expiries (each also charged as a retry attempt).
    timeouts: int = 0
    #: Worker-pool rebuilds after crashes or watchdog kills.
    pool_rebuilds: int = 0
    #: Innocent in-flight jobs requeued (uncharged) by rebuilds.
    requeued: int = 0

    def summary(self) -> str:
        """One-line human-readable accounting."""
        line = (
            f"{self.total} jobs: {self.executed} executed, "
            f"{self.cache_hits} from cache, {self.resumed} resumed"
            + (f", {self.retries} retried" if self.retries else "")
        )
        if self.timeouts:
            line += f", {self.timeouts} timed out"
        if self.pool_rebuilds:
            line += f", {self.pool_rebuilds} pool rebuild(s)"
        if self.failed:
            line += f", {self.failed} FAILED (quarantined)"
        return line


def matrix_jobs(
    workloads: list[Workload],
    schemes: tuple[str, ...],
    config: SystemConfig,
    *,
    seed: int | None,
    n_instructions: int,
    fault_config: FaultConfig | None = None,
) -> list[SweepJob]:
    """The grid's job list in canonical (workload-outer) order."""
    return [
        SweepJob(
            spec=JobSpec.for_run(
                workload, scheme, config,
                seed=seed, n_instructions=n_instructions,
                fault_config=fault_config,
            ),
            config=config,
        )
        for workload in workloads
        for scheme in schemes
    ]


# -- worker side -------------------------------------------------------------

#: Process-global stage-1 memo, shared by every job one worker executes.
_WORKER_STAGE1: Stage1Cache | None = None


@dataclass(frozen=True)
class _Payload:
    """Everything a worker needs to execute one job."""

    spec: JobSpec
    config: SystemConfig
    collect_telemetry: bool
    trace: bool
    trace_capacity: int
    interval_instructions: int
    #: Zero-based attempt number (rebuilt per submission for retries).
    attempt: int = 0
    #: Fault-injection plan for chaos tests; None in production runs.
    chaos: ChaosPlan | None = None
    #: Span tracing: record run_workload phase spans in the worker and
    #: ship them back for the parent-side deterministic merge (and the
    #: cell's ledger phase totals).
    spans: bool = False
    #: The sweep's shared trace id (span identity derives from it).
    trace_id: str | None = None
    #: The cell's parent-side ``job`` span id, so worker phases nest
    #: under their cell in the merged trace.
    span_parent: str | None = None
    #: Root of the shared on-disk :class:`Stage1Store`; None runs the
    #: worker's stage-1 memo purely in-memory.
    stage1_store: str | None = None


@dataclass
class _Outcome:
    """A worker's answer: the result plus its telemetry to merge."""

    result: WorkloadSchemeResult
    registry_state: dict | None = None
    events: list = field(default_factory=list)
    wall_time_s: float = 0.0
    #: Finished worker-side spans (``SpanRecorder.export_state``).
    span_state: list | None = None


def _worker_store_root(cache: Stage1Cache) -> str | None:
    return str(cache.store.root) if cache.store is not None else None


def _execute_payload(payload: _Payload) -> _Outcome:
    """Run one job inside a worker process (also usable in-process)."""
    global _WORKER_STAGE1
    if payload.chaos is not None:
        payload.chaos.apply(payload.spec.label(), payload.attempt)
    if (
        _WORKER_STAGE1 is None
        or _worker_store_root(_WORKER_STAGE1) != payload.stage1_store
    ):
        _WORKER_STAGE1 = Stage1Cache(store=payload.stage1_store)
    telemetry = None
    if payload.collect_telemetry:
        telemetry = Telemetry(
            trace=payload.trace,
            trace_capacity=payload.trace_capacity,
            interval_instructions=payload.interval_instructions,
        )
    recorder = None
    scope = nullcontext()
    if payload.spans:
        recorder = SpanRecorder(trace_id=payload.trace_id)
        # Phases nest under the cell's parent-side job span and
        # inherit its workload/scheme context; the attempt number is
        # volatile (a retry must not change span identity).
        scope = recorder.scope(
            parent_id=payload.span_parent,
            workload=payload.spec.workload,
            scheme=payload.spec.scheme,
            attempt=payload.attempt,
        )
    started = time.perf_counter()
    with scope:
        result = run_workload(
            payload.spec.to_workload(),
            payload.spec.scheme,
            payload.config,
            seed=payload.spec.seed,
            n_instructions=payload.spec.n_instructions,
            stage1=_WORKER_STAGE1,
            fault_config=payload.spec.fault,
            telemetry=telemetry,
            spans=recorder,
        )
    wall_time_s = time.perf_counter() - started
    span_state = recorder.export_state() if recorder is not None else None
    if telemetry is None:
        return _Outcome(
            result=result, wall_time_s=wall_time_s, span_state=span_state,
        )
    return _Outcome(
        result=result,
        registry_state=telemetry.registry.export_state(),
        events=(
            telemetry.trace.events() if telemetry.trace is not None else []
        ),
        wall_time_s=wall_time_s,
        span_state=span_state,
    )


# -- parent side -------------------------------------------------------------


def _as_cache(cache: ResultCache | str | Path | None) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _as_journal(
    journal: SweepJournal | str | Path | None,
) -> SweepJournal | None:
    if journal is None or isinstance(journal, SweepJournal):
        return journal
    return SweepJournal(journal)


def _as_quarantine(
    quarantine: QuarantineJournal | str | Path | None,
) -> QuarantineJournal | None:
    if quarantine is None or isinstance(quarantine, QuarantineJournal):
        return quarantine
    return QuarantineJournal(quarantine)


def _merge_outcome(
    telemetry: Telemetry | None,
    job: SweepJob,
    outcome: _Outcome,
    span_recorder: SpanRecorder | None = None,
) -> None:
    """Fold one worker's telemetry (and spans) into the parent handles."""
    if span_recorder is not None and outcome.span_state:
        # Worker spans already carry workload/scheme from their scope
        # frame; merging streams them to the spans.jsonl sink.
        span_recorder.merge_state(outcome.span_state)
    if telemetry is None:
        return
    if outcome.registry_state is not None:
        telemetry.registry.merge_state(outcome.registry_state)
    if telemetry.trace is not None and outcome.events:
        extra = {"workload": job.spec.workload, "scheme": job.spec.scheme}
        if job.spec.fault is not None:
            extra["age"] = job.spec.fault.age_fraction
        telemetry.trace.merge(outcome.events, extra=extra)


class GracefulCancel:
    """Two-phase SIGINT/SIGTERM bookkeeping for a running sweep.

    The first signal only raises the :attr:`soft` flag — the engines
    stop dispatching, drain in-flight jobs (journaling their results)
    and raise :class:`~repro.common.errors.SweepCancelled` with a
    resume hint.  A second signal raises ``KeyboardInterrupt`` from the
    handler: the hard abort for a drain that is itself stuck.
    """

    def __init__(self, stream=None) -> None:
        self.signals = 0
        self.stream = stream if stream is not None else sys.stderr

    @property
    def soft(self) -> bool:
        """True once the first signal arrived: stop dispatching."""
        return self.signals >= 1

    def __call__(self, signum, frame) -> None:
        self.signals += 1
        if self.signals == 1:
            self.stream.write(
                "\nsweep: interrupt received — finishing in-flight jobs "
                "and journaling results (interrupt again to abort now)\n"
            )
            self.stream.flush()
            return
        raise KeyboardInterrupt


@contextmanager
def _graceful_signals(cancel: GracefulCancel | None):
    """Install ``cancel`` as the SIGINT/SIGTERM handler, then restore.

    A no-op off the main thread (the interpreter refuses handler
    installation there) and when ``cancel`` is None.
    """
    if (
        cancel is None
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    previous = {}
    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        try:
            previous[signum] = signal_module.signal(signum, cancel)
        except (ValueError, OSError):
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            try:
                signal_module.signal(signum, handler)
            except (ValueError, OSError):
                pass


@dataclass
class _Resilience:
    """The failure-handling knobs both execution engines consult."""

    retries: int
    keep_going: bool
    quarantine: QuarantineJournal | None
    backoff_s: float
    job_timeout_s: float | None
    max_pool_rebuilds: int
    chaos: ChaosPlan | None
    cancel: GracefulCancel | None


def run_jobs(
    jobs: list[SweepJob],
    *,
    max_workers: int = 1,
    cache: ResultCache | str | Path | None = None,
    journal: SweepJournal | str | Path | None = None,
    resume: bool = False,
    retries: int = DEFAULT_RETRIES,
    stage1: Stage1Cache | None = None,
    stage1_store: Stage1Store | str | Path | None = None,
    telemetry: Telemetry | None = None,
    progress=None,
    observer=None,
    ledger: RunLedger | str | Path | None = None,
    job_timeout_s: float | None = None,
    keep_going: bool = False,
    quarantine: QuarantineJournal | str | Path | None = None,
    backoff_s: float = DEFAULT_BACKOFF_S,
    max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS,
    chaos: ChaosPlan | str | None = None,
    install_signal_handlers: bool = True,
    spans: SpanRecorder | str | Path | None = None,
) -> tuple[list[WorkloadSchemeResult], SweepReport]:
    """Resolve every job; returns results in job order plus a report.

    Args:
        jobs: the cells to resolve (duplicate fingerprints are an error).
        max_workers: 1 executes in-process — the exact serial path, with
            ``stage1`` shared across cells and ``telemetry`` threaded
            directly into the simulations; >1 fans out over a process
            pool with per-worker stage-1 caches and post-hoc telemetry
            merging.
        cache: a :class:`~repro.jobs.cache.ResultCache` (or its root
            directory) consulted before executing and updated after.
        stage1_store: a :class:`~repro.sim.stage1_store.Stage1Store`
            (or its root directory) layered under every stage-1 cache —
            the serial run's and each pool worker's — so parallel
            workers and repeat runs share one on-disk characterisation
            per ``(app, config signature, seed, budget)`` instead of
            re-simulating it per process.
        journal: a :class:`~repro.jobs.journal.SweepJournal` (or its
            path) appended to as cells complete.  Without ``resume`` the
            journal restarts empty.
        resume: replay completed cells from the journal instead of
            rerunning them; requires ``journal``.
        retries: extra attempts per job after a transient (non-
            :class:`~repro.common.errors.ReproError`) failure, a worker
            crash attributed to the job, or a watchdog timeout.
        progress: optional ``(job: SweepJob) -> None`` narration hook,
            fired once per job as it is dispatched or served.
        observer: optional ``(event: JobEvent) -> None`` hook receiving
            the live event stream (see
            :data:`repro.obs.progress.EVENT_KINDS`) — what
            :class:`~repro.obs.progress.SweepProgress` renders.
        ledger: a :class:`~repro.obs.ledger.RunLedger` (or its path);
            one provenance record per resolved job is appended in job
            order, stamped with how each cell was obtained.  On an
            abort, records for the cells that *did* resolve are flushed
            before the error propagates.
        job_timeout_s: watchdog wall-clock deadline per job, scaled up
            for budgets above the ``DEFAULT_INSTRUCTIONS`` reference
            (never down, so small smoke budgets keep the full grace
            period).  None disables the watchdog.
        keep_going: quarantine poison jobs (crash / timeout / retry
            exhaustion / deterministic failure) as zeroed ``FAILED``
            placeholder cells instead of aborting the sweep.
        quarantine: a :class:`~repro.jobs.journal.QuarantineJournal`
            (or its path) receiving one record per poisoned job.
        backoff_s: base of the exponential retry backoff; jitter is
            deterministic per job fingerprint.  0 retries immediately.
        max_pool_rebuilds: worker-pool rebuild budget; one more crash
            or watchdog kill after this aborts even under
            ``keep_going``.
        chaos: a :class:`~repro.jobs.chaos.ChaosPlan` (or its spec
            string) injecting worker failures — test harness only.
        install_signal_handlers: install the two-phase SIGINT/SIGTERM
            graceful-cancellation handler for the duration of the sweep
            (main thread only; restored afterwards).
        spans: span tracing — a ``spans.jsonl`` path (records streamed
            as cells finish; truncated unless ``resume``) or a
            :class:`~repro.obs.spans.SpanRecorder` to collect in
            memory.  The sweep becomes the root span, every cell gets
            a ``job`` span, ``run_workload`` phases nest under their
            cell, and retries/timeouts/requeues/quarantines appear as
            instant events (see ``docs/OBSERVABILITY.md``).

    Raises:
        ReproError: invalid arguments, duplicate jobs, a poison job
            without ``keep_going``, or an exhausted pool-rebuild budget.
        SweepCancelled: the sweep was interrupted and drained; the
            message carries the resume hint.
    """
    if max_workers < 1:
        raise ReproError("max_workers must be at least 1")
    if retries < 0:
        raise ReproError("retries cannot be negative")
    if resume and journal is None:
        raise ReproError("resume requires a journal")
    if job_timeout_s is not None and job_timeout_s <= 0:
        raise ReproError("job_timeout_s must be positive (or None)")
    if backoff_s < 0:
        raise ReproError("backoff_s cannot be negative")
    if max_pool_rebuilds < 1:
        raise ReproError("max_pool_rebuilds must be at least 1")
    fingerprints = [job.spec.fingerprint() for job in jobs]
    if len(set(fingerprints)) != len(fingerprints):
        seen: set[str] = set()
        for job, fingerprint in zip(jobs, fingerprints):
            if fingerprint in seen:
                raise ReproError(
                    f"duplicate sweep job {job.spec.label()}"
                )
            seen.add(fingerprint)

    cache = _as_cache(cache)
    journal = _as_journal(journal)
    ledger = as_ledger(ledger)
    quarantine = _as_quarantine(quarantine)
    chaos = as_chaos(chaos)
    stage1_store = as_stage1_store(stage1_store)
    if (
        stage1 is not None
        and stage1_store is not None
        and stage1.store is None
    ):
        stage1.store = stage1_store
    report = SweepReport(total=len(jobs))
    if telemetry is not None:
        telemetry.registry.counter("jobs.executed")
        telemetry.registry.counter("jobs.retried")
        telemetry.registry.counter("jobs.journal.resumed")
        telemetry.registry.counter("jobs.recovery.pool_rebuilds")
        telemetry.registry.counter("jobs.recovery.timeouts")
        telemetry.registry.counter("jobs.recovery.requeued")
        telemetry.registry.counter("jobs.recovery.quarantined")
        telemetry.registry.counter("jobs.stage1.hits")
        telemetry.registry.counter("jobs.stage1.misses")
        if cache is not None:
            cache.bind_telemetry(telemetry.registry)
        if stage1_store is not None:
            stage1_store.bind_telemetry(telemetry.registry)

    journaled: dict[str, WorkloadSchemeResult] = {}
    if journal is not None:
        if resume:
            journaled = journal.load()
            journal.open()
        else:
            journal.open(truncate=True)

    cancel = GracefulCancel() if install_signal_handlers else None
    res = _Resilience(
        retries=retries, keep_going=keep_going, quarantine=quarantine,
        backoff_s=backoff_s, job_timeout_s=job_timeout_s,
        max_pool_rebuilds=max_pool_rebuilds, chaos=chaos, cancel=cancel,
    )

    # Span layer: root span, job-span observer, optional jsonl sink.
    # Composed *before* tier 1+2 so cache/resumed cells record instants.
    span_recorder: SpanRecorder | None = None
    span_writer: SpanWriter | None = None
    span_observer: SpanObserver | None = None
    root_span = None
    if spans is not None:
        if isinstance(spans, SpanRecorder):
            span_recorder = spans
        else:
            span_writer = SpanWriter(spans)
            span_writer.open(truncate=not resume)
            span_recorder = SpanRecorder(sink=span_writer.record)
        root_span = span_recorder.begin(
            "sweep", "sweep", total=len(jobs), workers=max_workers,
        )
        span_observer = SpanObserver(
            span_recorder, parent_id=root_span.span_id,
        )
        observer = tee_observers(observer, span_observer)

    # Tier 1+2: resolve what we already know; collect the remainder.
    resolved: dict[int, WorkloadSchemeResult] = {}
    pending: list[tuple[int, SweepJob]] = []
    #: Per-index ledger provenance: (source, wall seconds, phase totals).
    provenance: dict[int, tuple[str, float, dict[str, float]]] = {}
    for index, (job, fingerprint) in enumerate(zip(jobs, fingerprints)):
        if fingerprint in journaled:
            if progress is not None:
                progress(job)
            if observer is not None:
                observer(JobEvent("resumed", job.spec.label(), index))
            resolved[index] = journaled[fingerprint]
            provenance[index] = ("journal", 0.0, {})
            report.resumed += 1
            if telemetry is not None:
                telemetry.registry.counter("jobs.journal.resumed").inc()
            continue
        if cache is not None:
            cached = cache.get(job.spec)
            if cached is not None:
                if progress is not None:
                    progress(job)
                if observer is not None:
                    observer(JobEvent("cache", job.spec.label(), index))
                resolved[index] = cached
                provenance[index] = ("cache", 0.0, {})
                report.cache_hits += 1
                if journal is not None:
                    journal.record(job.spec, cached)
                continue
        pending.append((index, job))

    ledger_flushed = False

    def _flush_ledger() -> None:
        # Satellite of the abort path: every cell that resolved must
        # reach the ledger, whether the sweep finished or died — so
        # this runs once, from the success path or the except path.
        nonlocal ledger_flushed
        if ledger is None or ledger_flushed:
            return
        ledger_flushed = True
        engine = {
            "total": report.total,
            "executed": report.executed,
            "cache_hits": report.cache_hits,
            "resumed": report.resumed,
            "retries": report.retries,
        }
        for key in ("failed", "timeouts", "pool_rebuilds", "requeued"):
            value = getattr(report, key)
            if value:
                engine[key] = value
        with ledger:
            for index, job in enumerate(jobs):
                if index not in resolved or index not in provenance:
                    continue
                source, wall_time_s, profile = provenance[index]
                ledger.append(RunRecord.for_result(
                    resolved[index],
                    seed=job.spec.seed,
                    n_instructions=job.spec.n_instructions,
                    wall_time_s=wall_time_s,
                    source=source,
                    fingerprint=fingerprints[index],
                    profile=profile,
                    engine=engine,
                ))

    # Tier 3: execute.
    try:
        with _graceful_signals(cancel):
            if pending and max_workers == 1:
                _run_serial(
                    pending, resolved, report,
                    res=res,
                    stage1=(
                        stage1 if stage1 is not None
                        else Stage1Cache(store=stage1_store)
                    ),
                    cache=cache, journal=journal,
                    telemetry=telemetry, progress=progress,
                    observer=observer, provenance=provenance,
                    span_recorder=span_recorder, span_observer=span_observer,
                )
            elif pending:
                _run_parallel(
                    pending, resolved, report,
                    max_workers=max_workers, res=res,
                    stage1_store=stage1_store,
                    cache=cache, journal=journal,
                    telemetry=telemetry, progress=progress,
                    observer=observer, provenance=provenance,
                    span_recorder=span_recorder, span_observer=span_observer,
                )
    except BaseException:
        try:
            _flush_ledger()
        except Exception:
            # Never let ledger trouble mask the original abort cause.
            pass
        raise
    finally:
        # The root span closes even on an abort — a partial trace of a
        # cancelled sweep is exactly when spans are wanted.
        if root_span is not None:
            try:
                span_recorder.end(root_span)
            except Exception:
                pass
        if span_writer is not None:
            span_writer.close()
        if journal is not None:
            journal.close()
        if quarantine is not None:
            quarantine.close()

    _flush_ledger()
    return [resolved[index] for index in range(len(jobs))], report


def _count(telemetry: Telemetry | None, name: str, amount: int = 1) -> None:
    if telemetry is not None and amount:
        telemetry.registry.counter(name).inc(amount)


def _count_executed(telemetry: Telemetry | None) -> None:
    _count(telemetry, "jobs.executed")


def _retry_kind(exc: BaseException | str) -> str:
    """Counter-safe failure kind: lowercased exception class name."""
    name = exc if isinstance(exc, str) else type(exc).__name__
    kind = re.sub(r"[^a-z0-9_-]", "", name.lower())
    if not kind or not kind[0].isalpha():
        kind = f"e{kind}" if kind else "unknown"
    return kind


def _count_retry(telemetry: Telemetry | None, kind: str) -> None:
    """One retry: the total plus the per-failure-kind breakdown."""
    _count(telemetry, "jobs.retried")
    _count(telemetry, f"jobs.retry.{kind}")


def _complete(
    job: SweepJob,
    result: WorkloadSchemeResult,
    cache: ResultCache | None,
    journal: SweepJournal | None,
) -> None:
    if cache is not None:
        cache.put(job.spec, result)
    if journal is not None:
        journal.record(job.spec, result)


def _chaos_corrupt(
    res: _Resilience, job: SweepJob, attempt: int, cache: ResultCache | None
) -> None:
    """Parent-side ``corrupt`` chaos rules: mangle the fresh cache entry."""
    if res.chaos is None or cache is None:
        return
    rule = res.chaos.rule_for(job.spec.label(), attempt)
    if rule is not None and rule.action == "corrupt":
        cache.corrupt(job.spec)


#: Poison-message verb per failure kind (anything else reads "failed").
_POISON_PHRASE = {
    "crash": "crashed the worker pool",
    "timeout": "timed out",
}


def _poison(
    job: SweepJob,
    index: int,
    attempts: int,
    kind: str,
    reason: str,
    *,
    resolved,
    report: SweepReport,
    res: _Resilience,
    telemetry: Telemetry | None,
    provenance,
    observer,
    cause: BaseException | None = None,
    message: str | None = None,
) -> None:
    """Give up on one job: quarantine it (``keep_going``) or abort.

    ``kind`` is the retry/telemetry kind; it collapses onto the
    quarantine kinds (``crash``/``timeout``/``error``) for the journal
    record and the FAILED placeholder's reason string.
    """
    qkind = kind if kind in ("crash", "timeout") else "error"
    if message is None:
        phrase = _POISON_PHRASE.get(kind, "failed")
        message = (
            f"sweep job {job.spec.label()} {phrase} after "
            f"{attempts} attempt(s): {reason}"
        )
    if not res.keep_going:
        raise ReproError(
            message
            + " (run with keep_going/--keep-going to quarantine failing "
            "cells and continue)"
        ) from cause
    if res.quarantine is not None:
        res.quarantine.record(
            job.spec, kind=qkind, reason=reason, attempts=attempts,
        )
    report.failed += 1
    _count(telemetry, "jobs.recovery.quarantined")
    resolved[index] = WorkloadSchemeResult.failed_cell(
        workload=job.spec.workload,
        scheme=job.spec.scheme,
        apps=job.spec.apps,
        n_banks=job.config.num_banks,
        reason=f"{qkind}: {reason}",
        age_fraction=(
            job.spec.fault.age_fraction if job.spec.fault is not None else 0.0
        ),
    )
    if provenance is not None:
        provenance[index] = ("failed", 0.0, {})
    if observer is not None:
        observer(JobEvent("failed", job.spec.label(), index))


def _cancel_message(
    report: SweepReport, journal: SweepJournal | None
) -> str:
    done = (
        report.executed + report.cache_hits + report.resumed + report.failed
    )
    message = (
        f"sweep cancelled by user: {done} of {report.total} cells "
        "resolved and journaled"
    )
    if journal is not None:
        message += (
            f"; rerun with resume=True (--resume) against the same "
            f"journal ({journal.path}) to finish the rest"
        )
    else:
        message += "; run with a journal to make cancelled sweeps resumable"
    return message


def _run_serial(
    pending, resolved, report, *,
    res, stage1, cache, journal, telemetry, progress,
    observer=None, provenance=None,
    span_recorder=None, span_observer=None,
) -> None:
    """In-process execution: the legacy sequential sweep, plus retries.

    Serial runs thread the parent telemetry and span recorder straight
    through; a cell's ledger phase totals are the ``phase`` spans its
    successful attempt recorded.  The watchdog does not apply here
    (there is no second process to kill); chaos ``kill``/``exit`` rules
    would take the parent down and belong in parallel runs.
    """
    for index, job in pending:
        if res.cancel is not None and res.cancel.soft:
            raise SweepCancelled(_cancel_message(report, journal))
        if progress is not None:
            progress(job)
        if observer is not None:
            observer(JobEvent("dispatch", job.spec.label(), index))
        attempts = 0
        started = time.perf_counter()
        failed = False
        while True:
            spans_before = (
                len(span_recorder.spans) if span_recorder is not None else 0
            )
            try:
                if res.chaos is not None:
                    res.chaos.apply(job.spec.label(), attempts)
                scope = nullcontext()
                if span_recorder is not None:
                    scope = span_recorder.scope(
                        parent_id=span_observer.open_span_id(index),
                        workload=job.spec.workload,
                        scheme=job.spec.scheme,
                        attempt=attempts,
                    )
                with scope:
                    result = run_workload(
                        job.spec.to_workload(),
                        job.spec.scheme,
                        job.config,
                        seed=job.spec.seed,
                        n_instructions=job.spec.n_instructions,
                        stage1=stage1,
                        fault_config=job.spec.fault,
                        telemetry=telemetry,
                        spans=span_recorder,
                    )
                break
            except ReproError as exc:
                if not res.keep_going:
                    raise
                _poison(
                    job, index, attempts + 1, "error", str(exc),
                    resolved=resolved, report=report, res=res,
                    telemetry=telemetry, provenance=provenance,
                    observer=observer, cause=exc,
                )
                failed = True
                break
            except Exception as exc:
                attempts += 1
                if attempts > res.retries:
                    _poison(
                        job, index, attempts, _retry_kind(exc), str(exc),
                        resolved=resolved, report=report, res=res,
                        telemetry=telemetry, provenance=provenance,
                        observer=observer, cause=exc,
                        message=(
                            f"sweep job {job.spec.label()} failed after "
                            f"{attempts} attempt(s): {exc}"
                        ),
                    )
                    failed = True
                    break
                report.retries += 1
                _count_retry(telemetry, _retry_kind(exc))
                if observer is not None:
                    observer(JobEvent("retry", job.spec.label(), index))
                delay = job.spec.retry_delay_s(
                    attempts - 1, base_s=res.backoff_s
                )
                if delay > 0:
                    time.sleep(delay)
        if failed:
            continue
        wall_time_s = time.perf_counter() - started
        report.executed += 1
        _count_executed(telemetry)
        resolved[index] = result
        if provenance is not None:
            provenance[index] = (
                "executed", wall_time_s,
                phase_totals(span_recorder.spans[spans_before:])
                if span_recorder is not None else {},
            )
        if observer is not None:
            observer(JobEvent(
                "done", job.spec.label(), index, wall_time_s=wall_time_s,
            ))
        _complete(job, result, cache, journal)
        _chaos_corrupt(res, job, attempts, cache)
    if res.cancel is not None and res.cancel.soft:
        raise SweepCancelled(_cancel_message(report, journal))


def _pool_context():
    """Prefer ``fork`` (fast, inherits warmed state) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _worker_init() -> None:
    """Pool initializer: restore default signal dispositions.

    Forked workers inherit the parent's :class:`GracefulCancel`
    handler; without this reset, the executor's broken-pool cleanup
    (which SIGTERMs surviving workers) would trip the drain notice
    inside a worker — and the worker would swallow the signal instead
    of dying.
    """
    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        try:
            signal_module.signal(signum, signal_module.SIG_DFL)
        except (ValueError, OSError):
            pass


def _deadline_s(spec: JobSpec, job_timeout_s: float | None) -> float | None:
    """The watchdog deadline for one job: scaled up for big budgets.

    ``job_timeout_s`` is calibrated against the default instruction
    budget; a job simulating 10x the instructions gets 10x the wall
    clock.  Budgets *below* the reference keep the full deadline — the
    flag is a floor, so tiny CI smoke budgets are not starved into
    spurious timeouts.
    """
    if job_timeout_s is None:
        return None
    scale = max(1.0, spec.n_instructions / DEFAULT_INSTRUCTIONS)
    return job_timeout_s * scale


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: SIGKILL its workers, then tear down the plumbing.

    ``ProcessPoolExecutor`` has no per-job cancellation, so a hung or
    poisoned worker can only be dealt with wholesale: kill every worker
    process (a hung one never reacts to anything softer) and shut the
    executor down without waiting.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            if process.is_alive():
                process.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class _Flight:
    """One in-flight submission: which job, which attempt, its deadline."""

    index: int
    attempts: int
    started: float
    deadline_s: float | None


def _run_parallel(
    pending, resolved, report, *,
    max_workers, res, cache, journal, telemetry, progress,
    stage1_store=None,
    observer=None, provenance=None,
    span_recorder=None, span_observer=None,
) -> None:
    """Process-pool execution with crash recovery and deterministic merge.

    The dispatch loop keeps at most ``workers`` jobs in flight (so the
    in-flight set is exactly what a pool crash can take down), promotes
    backoff-delayed retries as their deadlines pass, and runs
    *suspects* — jobs requeued by an unattributed pool crash — one at a
    time so a repeat crash identifies its culprit.
    """
    want_trace = telemetry is not None and telemetry.trace is not None
    payloads = {
        index: _Payload(
            spec=job.spec,
            config=job.config,
            collect_telemetry=telemetry is not None,
            trace=want_trace,
            trace_capacity=(
                telemetry.trace.capacity if want_trace else 1
            ),
            interval_instructions=(
                telemetry.interval_instructions if telemetry is not None else 0
            ),
            chaos=res.chaos,
            spans=span_recorder is not None,
            trace_id=(
                span_recorder.trace_id if span_recorder is not None else None
            ),
            stage1_store=(
                str(stage1_store.root) if stage1_store is not None else None
            ),
        )
        for index, job in pending
    }
    jobs_by_index = dict(pending)
    outcomes: dict[int, _Outcome] = {}
    workers = min(max_workers, len(pending))
    context = _pool_context()
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_worker_init,
    )
    rebuilds = 0
    announced: set[int] = set()
    #: (index, attempts) queues: ready to submit / backoff-delayed
    #: (with their not-before instant) / crash suspects on probation.
    ready: deque[tuple[int, int]] = deque(
        (index, 0) for index, _job in pending
    )
    delayed: list[tuple[float, int, int]] = []
    suspects: deque[tuple[int, int]] = deque()
    futures: dict = {}

    def _event(kind: str, index: int, **kw) -> None:
        if observer is not None:
            observer(JobEvent(
                kind, jobs_by_index[index].spec.label(), index, **kw,
            ))

    def _rebuild_pool(reason: str) -> None:
        nonlocal pool, rebuilds
        rebuilds += 1
        report.pool_rebuilds += 1
        _count(telemetry, "jobs.recovery.pool_rebuilds")
        _kill_pool(pool)
        if rebuilds > res.max_pool_rebuilds:
            raise ReproError(
                f"sweep worker pool died {rebuilds} times "
                f"(last cause: {reason}); rebuild budget "
                f"({res.max_pool_rebuilds}) exhausted — is the machine "
                "out of memory?"
            )
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=context,
            initializer=_worker_init,
        )

    def _submit(index: int, attempts: int) -> None:
        if index not in announced:
            announced.add(index)
            if progress is not None:
                progress(jobs_by_index[index])
            _event("dispatch", index)
        payload = replace(
            payloads[index],
            attempt=attempts,
            span_parent=(
                span_observer.open_span_id(index)
                if span_observer is not None else None
            ),
        )
        while True:
            try:
                future = pool.submit(_execute_payload, payload)
                break
            except BrokenProcessPool:
                # Broke between completions; nothing else was in
                # flight, so no jobs to requeue — just rebuild.
                _rebuild_pool("pool broke before submission")
        futures[future] = _Flight(
            index=index, attempts=attempts, started=time.monotonic(),
            deadline_s=_deadline_s(
                jobs_by_index[index].spec, res.job_timeout_s
            ),
        )

    def _charge(flight: _Flight, kind: str, reason: str,
                cause: BaseException | None = None) -> None:
        """Account one failed attempt: requeue with backoff, or poison."""
        attempts = flight.attempts + 1
        job = jobs_by_index[flight.index]
        if attempts > res.retries:
            _poison(
                job, flight.index, attempts, kind, reason,
                resolved=resolved, report=report, res=res,
                telemetry=telemetry, provenance=provenance,
                observer=observer, cause=cause,
            )
            return
        report.retries += 1
        _count_retry(telemetry, kind)
        _event("retry", flight.index)
        delay = job.spec.retry_delay_s(flight.attempts, base_s=res.backoff_s)
        if delay > 0:
            delayed.append((time.monotonic() + delay, flight.index, attempts))
        else:
            ready.append((flight.index, attempts))

    try:
        while ready or delayed or suspects or futures:
            now = time.monotonic()
            if delayed:
                due = sorted(
                    (d for d in delayed if d[0] <= now), key=lambda d: d[1]
                )
                if due:
                    delayed = [d for d in delayed if d[0] > now]
                    ready.extend((index, attempts) for _, index, attempts in due)
            soft = res.cancel is not None and res.cancel.soft
            if not soft:
                if suspects:
                    # Probation: one suspect at a time, alone in the
                    # pool, so a repeat crash attributes exactly.
                    if not futures:
                        _submit(*suspects.popleft())
                else:
                    while ready and len(futures) < workers:
                        _submit(*ready.popleft())
            if not futures:
                if soft:
                    break
                if delayed:
                    next_at = min(d[0] for d in delayed)
                    pause = min(max(0.0, next_at - time.monotonic()), 0.25)
                    if pause > 0:
                        time.sleep(pause)
                continue

            timeout = None
            for flight in futures.values():
                if flight.deadline_s is not None:
                    left = flight.started + flight.deadline_s - now
                    timeout = left if timeout is None else min(timeout, left)
            if delayed:
                left = min(d[0] for d in delayed) - now
                timeout = left if timeout is None else min(timeout, left)
            if timeout is not None:
                timeout = max(0.01, timeout)
            done, _ = wait(
                set(futures), timeout=timeout, return_when=FIRST_COMPLETED
            )

            crashed: list[_Flight] = []
            for future in done:
                flight = futures.pop(future)
                index = flight.index
                job = jobs_by_index[index]
                try:
                    outcome = future.result()
                except ReproError as exc:
                    # Deterministic failure: retrying cannot help.
                    _poison(
                        job, index, flight.attempts + 1, "error", str(exc),
                        resolved=resolved, report=report, res=res,
                        telemetry=telemetry, provenance=provenance,
                        observer=observer, cause=exc,
                        message=(
                            f"sweep job {job.spec.label()} failed: {exc}"
                        ),
                    )
                except BrokenProcessPool:
                    crashed.append(flight)
                except Exception as exc:
                    _charge(flight, _retry_kind(exc), str(exc), exc)
                else:
                    outcomes[index] = outcome
                    resolved[index] = outcome.result
                    report.executed += 1
                    _count_executed(telemetry)
                    if provenance is not None:
                        provenance[index] = (
                            "executed",
                            outcome.wall_time_s,
                            phase_totals(
                                Span.from_dict(record)
                                for record in outcome.span_state or ()
                            ),
                        )
                    _event("done", index, wall_time_s=outcome.wall_time_s)
                    _complete(job, outcome.result, cache, journal)
                    _chaos_corrupt(res, job, flight.attempts, cache)

            if crashed:
                # The pool is broken: every remaining in-flight future
                # is doomed with it.  Rebuild, then attribute: a lone
                # in-flight job is charged directly; with several we
                # cannot tell who killed the pool, so all are requeued
                # uncharged as suspects and re-run one at a time.
                inflight = crashed + list(futures.values())
                futures.clear()
                _rebuild_pool("a worker process died unexpectedly")
                if len(inflight) == 1:
                    _charge(
                        inflight[0], "crash",
                        "worker process died unexpectedly",
                    )
                else:
                    report.requeued += len(inflight)
                    _count(
                        telemetry, "jobs.recovery.requeued", len(inflight)
                    )
                    for flight in sorted(inflight, key=lambda f: f.index):
                        suspects.append((flight.index, flight.attempts))
                        _event("requeue", flight.index)
                continue

            if (
                res.job_timeout_s is not None
                and futures
                and not any(f.done() for f in futures)
            ):
                now = time.monotonic()
                expired = {
                    f: fl for f, fl in futures.items()
                    if fl.deadline_s is not None
                    and now - fl.started >= fl.deadline_s
                }
                if expired:
                    innocents = [
                        fl for f, fl in futures.items() if f not in expired
                    ]
                    futures.clear()
                    report.timeouts += len(expired)
                    _count(
                        telemetry, "jobs.recovery.timeouts", len(expired)
                    )
                    # No per-job kill exists: take the pool down and
                    # rebuild, requeueing the innocent bystanders free
                    # of charge.
                    _rebuild_pool("watchdog deadline exceeded")
                    for flight in sorted(
                        expired.values(), key=lambda f: f.index
                    ):
                        _event("timeout", flight.index)
                        _charge(
                            flight, "timeout",
                            f"exceeded {flight.deadline_s:.1f}s watchdog "
                            "deadline",
                        )
                    if innocents:
                        report.requeued += len(innocents)
                        _count(
                            telemetry, "jobs.recovery.requeued",
                            len(innocents),
                        )
                        for flight in sorted(
                            innocents, key=lambda f: f.index, reverse=True,
                        ):
                            ready.appendleft((flight.index, flight.attempts))
                            _event("requeue", flight.index)
    except BaseException:
        _kill_pool(pool)
        raise
    pool.shutdown(wait=True)

    # Deterministic merge: job order, not completion order.
    for index in sorted(outcomes):
        _merge_outcome(
            telemetry, jobs_by_index[index], outcomes[index], span_recorder,
        )
    if res.cancel is not None and res.cancel.soft:
        raise SweepCancelled(_cancel_message(report, journal))
