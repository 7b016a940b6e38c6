#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``repro`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload compare-wl1 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --trace 1     # every workload, tables

Every measured command is a fresh ``python -m repro`` process in its own
temporary directory under ``.perfbench_work/``, so no in-process memo or
stage-1 store carries over between samples.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` adds one traced sample (see
``perfbench/tracer.py``) and reports the per-layer metrics.  The last
stdout line is one JSON object: ``correct``, ``attempted`` and ``failed``
count simulated cells, ``metrics`` maps names to ``{value, unit}``.
See ``perfbench/README.md`` for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
TRACER = Path(__file__).resolve().parent / "tracer.py"

#: A seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 97

#: The five schemes ``repro`` simulates by default in its experiments.
ALL_SCHEMES = ("S-NUCA", "R-NUCA", "Re-NUCA", "Private", "Naive")

#: Table II's slowest app (IPC 0.07, 5x below the next): the core running
#: it sets the replay horizon every other core's stream is cycled to.
SLOWEST_APP = "mcf"

#: The paper's headline: Re-NUCA's IPC vs R-NUCA, and its raw minimum
#: lifetime gain over R-NUCA, in percent.
PAPER_IPC_GAP_PCT = -0.5
PAPER_LIFE_GAIN_PCT = 42.0

#: Fresh-interpreter repeats of the workload listing that ``setup_s`` takes
#: the median of.
SETUP_REPEATS = 3

#: Watchdog for one CLI process; a run must end within 180 s.
COMMAND_TIMEOUT_S = 150.0

#: CPU seconds of one ``_probe_loop`` on an idle 2-vCPU Xeon host; timed
#: metrics are scaled to this speed.
PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.1

JOBS = 2


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs; no result is printed."""


def _probe_loop() -> None:
    table: dict = {}
    for i in range(30_000):
        table[i & 1023] = table.get(i & 1023, 0) + i


class SpeedProbe(threading.Thread):
    """Times a fixed pure-Python loop every 100 ms while a command runs.

    The CPU speed a process gets on a shared host drifts by more than
    1.5x within minutes, and a command's CPU time drifts with it.  The
    loop's thread CPU time, sampled through the command's life, measures
    that drift so timed metrics can be reported at reference speed.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._done = threading.Event()
        self.times: list[float] = []

    def run(self) -> None:
        while True:
            start = time.thread_time()
            _probe_loop()
            self.times.append(time.thread_time() - start)
            if self._done.wait(PROBE_EVERY_S):
                return

    def finish(self) -> float:
        """Stop; the command's slowdown against the reference host."""
        self._done.set()
        self.join()
        return statistics.fmean(self.times) / PROBE_REF_S


@dataclass
class Sample:
    """One CLI process: host costs plus what its outputs showed.

    ``wall_s`` and ``cpu_s`` are at reference host speed; ``raw_wall_s``
    is the wall time as the clock read it.
    """

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    rss_mb: float
    code: int
    stdout: str
    cells: int = 0
    bad_cells: int = 0
    digest: str = ""
    sim_instructions: float = 0.0
    accuracy: dict | None = None
    problems: list = field(default_factory=list)


def run_cli(args: list[str], cwd: Path, *, spans_dir: Path | None = None) -> Sample:
    """Run one ``repro`` command; CPU and peak RSS cover its pool workers.

    ``wait4`` reports the child together with the descendants it reaped,
    so ``cpu_s`` sums the parent and every worker and ``rss_mb`` is the
    largest of their peaks.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if spans_dir is None:
        cmd = [sys.executable, "-m", "repro", *args]
    else:
        spans_dir.mkdir(parents=True, exist_ok=True)
        env["PERFBENCH_SPANS"] = str(spans_dir)
        cmd = [sys.executable, str(TRACER), *args]
    probe = SpeedProbe()
    with open(cwd / "stdout", "w") as out, open(cwd / "stderr", "w") as err:
        probe.start()
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(
            COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        slowdown = probe.finish()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Kill anything the command left behind in its process group.
    _kill_group(proc.pid)
    return Sample(
        wall_s=wall / slowdown,
        cpu_s=(usage.ru_utime + usage.ru_stime) / slowdown,
        raw_wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=(cwd / "stdout").read_text(),
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _finite_positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def _digest(payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _accuracy(ipc: dict, life: dict) -> dict:
    """Distance of Re-NUCA vs R-NUCA from the paper's headline, in pp."""
    return {
        "err.ipc_gap_pp": abs(
            100.0 * (ipc["Re-NUCA"] / ipc["R-NUCA"] - 1.0) - PAPER_IPC_GAP_PCT),
        "err.life_gain_pp": abs(
            100.0 * (life["Re-NUCA"] / life["R-NUCA"] - 1.0) - PAPER_LIFE_GAIN_PCT),
    }


@dataclass
class Mix:
    number: int
    apps: list
    high: int


def parse_mixes(stdout: str) -> list[Mix]:
    """Parse ``repro workloads``: one name line, then one intensity line."""
    mixes = []
    for line in stdout.splitlines():
        named = re.match(r"WL(\d+): (.+)$", line)
        if named:
            mixes.append(Mix(int(named.group(1)), named.group(2).split(", "), 0))
            continue
        counted = re.search(r"\((\d+) high /", line)
        if counted and mixes:
            mixes[-1].high = int(counted.group(1))
    return mixes


class Bench:
    """Inputs and scratch space shared by one run's samples."""

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self._serial = 0
        self.mixes: list[Mix] = []

    def scratch(self, label: str) -> Path:
        self._serial += 1
        return self.work / f"{self._serial:03d}-{label}"

    def list_mixes(self) -> float:
        """Generate the seed's WL mixes in fresh interpreters; median seconds."""
        walls, listings = [], set()
        for _ in range(SETUP_REPEATS):
            sample = run_cli(["workloads", "--seed", str(self.seed)],
                             self.scratch("setup"))
            if sample.code != 0:
                raise SetupError(f"'repro workloads' exited {sample.code}")
            walls.append(sample.wall_s)
            listings.add(sample.stdout)
        if len(listings) != 1:
            raise SetupError("'repro workloads' is not deterministic")
        self.mixes = parse_mixes(listings.pop())
        if not self.mixes:
            raise SetupError("'repro workloads' listed no mixes")
        return statistics.median(walls)

    def cores(self, number: int) -> int:
        return len(self.mixes[number - 1].apps)


class CompareWl1:
    name = "compare-wl1"
    why = ("the quickstart: compare --workload 1 at CLI defaults, serial, "
           "cold process; warm-up and calibration dominate")
    schemes = ("S-NUCA", "R-NUCA", "Re-NUCA")

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.instructions = 5_000 if bench.smoke else 60_000

    def prepare(self) -> float:
        return 0.0

    def argv(self, run_dir: Path) -> list[str]:
        return ["compare", "--workload", "1", "--seed", str(self.bench.seed),
                "--instructions", str(self.instructions)]

    def check(self, sample: Sample, run_dir: Path) -> None:
        ipc, life = {}, {}
        for line in sample.stdout.splitlines():
            parts = line.split()
            if len(parts) == 5 and parts[0] in self.schemes:
                ipc[parts[0]], life[parts[0]] = float(parts[1]), float(parts[2])
        sample.cells = len(self.schemes)
        sample.bad_cells = sum(
            1 for s in self.schemes
            if s not in ipc or not _finite_positive(ipc[s], life[s]))
        if sample.bad_cells:
            sample.problems.append("missing or non-positive table rows")
            return
        # Identical invocations print byte-identical tables.
        sample.digest = _digest(sample.stdout)
        sample.sim_instructions = (
            self.bench.cores(1) * self.instructions * len(self.schemes))
        sample.accuracy = _accuracy(ipc, life)


class SweepHiwriteWarm:
    name = "sweep-hiwrite-warm"
    why = ("all five schemes, -j 2, 120k instr/core, warm stage-1 store, on the "
           "most write-intensive mix running mcf: replay and warm-up dominate")

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.instructions = 5_000 if bench.smoke else 120_000
        self.store = bench.work / "stage1-store"
        self.number = 0

    def _common(self) -> list[str]:
        return ["--workloads", str(self.number), "--seed", str(self.bench.seed),
                "--instructions", str(self.instructions), "-j", str(JOBS),
                "--stage1-cache", str(self.store)]

    def prepare(self) -> float:
        """Pick the most write-intensive long-horizon mix; fill the store.

        The mix with the most high-intensity apps among those that run
        the slowest app: whether a mix holds it changes the replayed
        volume about twofold, so choosing on it keeps seeds comparable.
        """
        slow = [m for m in self.bench.mixes if SLOWEST_APP in m.apps]
        self.number = max(slow or self.bench.mixes,
                          key=lambda m: (m.high, -m.number)).number
        fill = run_cli(["sweep", "--schemes", "S-NUCA", *self._common()],
                       self.bench.scratch("fill"))
        if fill.code != 0:
            raise SetupError(f"cold stage-1 fill exited {fill.code}")
        return fill.wall_s

    def argv(self, run_dir: Path) -> list[str]:
        return ["sweep", "--schemes", *ALL_SCHEMES, *self._common(),
                "--out", str(run_dir / "matrix.json")]

    def check(self, sample: Sample, run_dir: Path) -> None:
        sample.cells = len(ALL_SCHEMES)
        try:
            payload = json.loads((run_dir / "matrix.json").read_text())
        except (OSError, ValueError):
            sample.bad_cells = sample.cells
            sample.problems.append("no result matrix")
            return
        ipc, life = {}, {}
        for cell in payload["results"]:
            ipc[cell["scheme"]] = sum(cell["per_core_ipc"])
            life[cell["scheme"]] = min(cell["bank_lifetimes"])
            if cell.get("failed") or not _finite_positive(
                    ipc[cell["scheme"]], life[cell["scheme"]]):
                sample.bad_cells += 1
        sample.bad_cells += sample.cells - len(payload["results"])
        misses = re.search(r"jobs\.stage1\.store\.misses = (\d+)", sample.stdout)
        if misses is None or int(misses.group(1)) != 0:
            sample.problems.append("warm sweep missed the stage-1 store")
            sample.bad_cells = sample.cells
        if sample.bad_cells:
            return
        sample.digest = _digest(payload)
        sample.sim_instructions = (
            self.bench.cores(self.number) * self.instructions * sample.cells)
        sample.accuracy = _accuracy(ipc, life)


class SearchCold:
    name = "search-cold"
    why = ("halving search over the nuca space, 4 points, -j 2, empty stage-1 "
           "store, 11-app mix: per-cell calibration and store writes dominate")

    #: Every cell calibrates each distinct app of the mix once, so the
    #: mix is the one with this many distinct apps (every seed tried has
    #: one); the search's cost then does not swing with the seed.
    distinct_apps = 11

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.schedule = "500,1000" if bench.smoke else "2000,8000"
        self.number = 0

    def prepare(self) -> float:
        self.number = min(
            self.bench.mixes,
            key=lambda m: (abs(len(set(m.apps)) - self.distinct_apps), m.number),
        ).number
        return 0.0

    def argv(self, run_dir: Path) -> list[str]:
        return ["search", "--space", "nuca", "--driver", "halving",
                "--points", "4", "--budget-schedule", self.schedule,
                "--workloads", str(self.number), "--seed", str(self.bench.seed),
                "-j", str(JOBS), "--stage1-cache", str(run_dir / "stage1-store"),
                "--out", str(run_dir / "search.json")]

    def check(self, sample: Sample, run_dir: Path) -> None:
        try:
            payload = json.loads((run_dir / "search.json").read_text())
        except (OSError, ValueError):
            sample.cells = sample.bad_cells = 1
            sample.problems.append("no search outcome")
            return
        report = payload["report"]
        sample.cells = report["jobs_total"]
        sample.bad_cells = report["jobs_failed"]
        budgets = {}
        for evaluation in payload["evaluations"]:
            metrics = evaluation["metrics"]
            if not _finite_positive(metrics["ipc"], metrics["lifetime"]):
                sample.bad_cells += len(evaluation["fingerprints"])
            for fingerprint in evaluation["fingerprints"]:
                budgets[fingerprint] = evaluation["budget"]
        if not sample.cells:
            sample.cells = sample.bad_cells = 1
        sample.bad_cells = min(sample.bad_cells, sample.cells)
        if sample.bad_cells:
            sample.problems.append("failed or non-positive evaluations")
            return
        stable = {k: v for k, v in payload.items()
                  if k not in ("created_at", "git_sha")}
        sample.digest = _digest(stable)
        sample.sim_instructions = (
            self.bench.cores(self.number) * sum(budgets.values()))


WORKLOADS = {w.name: w for w in (CompareWl1, SweepHiwriteWarm, SearchCold)}

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("sim_minstr_per_s", "Minstr/s"),
    ("setup_s", "s"),
)
#: Printed with the end-to-end metrics but left out of the result line:
#: fail_frac is zero when all is well, and the others swing with the
#: seed's mix far more than with the code (see README.md).
REPORTED_ONLY = (
    ("peak_rss_mb", "MB"), ("fail_frac", "frac"), ("err.ipc_gap_pp", "pp"),
    ("err.life_gain_pp", "pp"), ("raw_wall_s", "s"),
)
PER_LAYER = (
    ("calibrate.s", "s"), ("calibrate.calls", "count"),
    ("calibrate.probes", "count"),
    ("stage1.s", "s"), ("stage1.sims", "count"), ("stage1.kinstr_per_s", "kinstr/s"),
    ("trace.s", "s"), ("trace.records", "count"),
    ("store.get_s", "s"), ("store.put_s", "s"), ("store.hits", "count"),
    ("store.misses", "count"), ("store.hit_ratio", "frac"),
    ("warmup.s", "s"), ("warmup.lines", "count"),
    ("merge.s", "s"), ("merge.records", "count"),
    ("snapshot.s", "s"),
    ("replay.s", "s"), ("replay.records", "count"), ("replay.krec_per_s", "krec/s"),
    ("replay.kernel_share", "frac"),
    ("reduce.s", "s"),
    ("jobs.overhead_s", "s"), ("jobs.worker_busy_frac", "frac"),
    ("jobs.cells", "count"), ("jobs.retries", "count"),
    ("search.s", "s"),
    ("tracing.overhead_frac", "frac"), ("unattributed.s", "s"),
)
#: Span layer -> per-layer metric carrying its summed self time.
SELF_TIME_METRIC = {
    "calibrate": "calibrate.s", "stage1": "stage1.s", "trace": "trace.s",
    "store.get": "store.get_s", "store.put": "store.put_s",
    "warmup": "warmup.s", "merge": "merge.s", "snapshot": "snapshot.s",
    "replay": "replay.s", "reduce": "reduce.s", "jobs": "jobs.overhead_s",
    "search": "search.s",
}
COUNT_METRICS = (
    "calibrate.calls", "calibrate.probes", "stage1.sims", "trace.records",
    "store.hits", "store.misses", "warmup.lines", "merge.records",
    "replay.records", "jobs.retries",
)


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(spans_dir: Path, traced: Sample, untraced_wall: float,
                  workers: int) -> dict:
    """Per-layer self times and counts from the tracer's span files.

    A span's self time is its duration minus the part of it covered by
    its child spans, worker spans included; seconds are summed over
    processes, so on ``-j 2`` they add up to more than wall time.
    """
    spans, counts = {}, {}
    for path in sorted(spans_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        for span_id, parent, layer, start, end in data["spans"]:
            spans[span_id] = (parent, layer, start, end)
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
    children = {}
    for parent, _layer, start, end in spans.values():
        children.setdefault(parent, []).append((start, end))

    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    busy, jobs_wall = 0.0, 0.0
    for span_id, (parent, layer, start, end) in spans.items():
        covered = _union_length(
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span_id, ()) if hi > start and lo < end)
        metrics[SELF_TIME_METRIC[layer]] += (end - start) - covered
        if layer == "jobs":
            jobs_wall += end - start
        elif layer == "reduce" and _under_jobs(spans, parent):
            busy += end - start
            metrics["jobs.cells"] += 1
    for name in COUNT_METRICS:
        metrics[name] = float(counts.get(name, 0))
    lookups = metrics["store.hits"] + metrics["store.misses"]
    metrics["store.hit_ratio"] = metrics["store.hits"] / lookups if lookups else 0.0
    if metrics["stage1.s"] > 0:
        metrics["stage1.kinstr_per_s"] = (
            counts.get("stage1.instructions", 0) / metrics["stage1.s"] / 1e3)
    if metrics["replay.s"] > 0:
        metrics["replay.krec_per_s"] = metrics["replay.records"] / metrics["replay.s"] / 1e3
    replays = counts.get("replay.kernel", 0) + counts.get("replay.reference", 0)
    if replays:
        metrics["replay.kernel_share"] = counts.get("replay.kernel", 0) / replays
    if jobs_wall > 0:
        metrics["jobs.worker_busy_frac"] = busy / (workers * jobs_wall)
    metrics["tracing.overhead_frac"] = traced.wall_s / untraced_wall - 1.0
    # Only the CLI process has spans without a parent.
    metrics["unattributed.s"] = traced.raw_wall_s - _union_length(
        (s[2], s[3]) for s in spans.values() if s[0] is None)
    return metrics


def _under_jobs(spans: dict, span_id) -> bool:
    while span_id is not None and span_id in spans:
        parent, layer, *_rest = spans[span_id]
        if layer == "jobs":
            return True
        span_id = parent
    return False


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """One run: set up, sample for ``seconds``, optionally trace once."""
    ROOT.joinpath(".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        bench = Bench(seed, smoke, work)
        workload = WORKLOADS[workload_name](bench)
        setup_s = bench.list_mixes() + workload.prepare()

        def sample(spans_dir=None) -> Sample:
            run_dir = bench.scratch("spans" if spans_dir else "run")
            result = run_cli(workload.argv(run_dir), run_dir, spans_dir=spans_dir)
            if result.code != 0:
                result.cells = result.bad_cells = 1
                result.problems.append(f"exit status {result.code}")
                return result
            try:
                workload.check(result, run_dir)
            except (KeyError, TypeError, ValueError) as exc:
                result.cells = result.bad_cells = max(result.cells, 1)
                result.problems.append(f"unreadable output: {exc!r}")
            return result

        samples, started = [], time.perf_counter()
        while True:
            samples.append(sample())
            elapsed = time.perf_counter() - started
            if elapsed + samples[-1].raw_wall_s > seconds:
                break
        traced = None
        if trace:
            traced = sample(spans_dir=work / "spans")
        judged = samples + ([traced] if traced else [])
        reference = next((s.digest for s in judged if not s.bad_cells), "")
        for s in judged:
            if s.digest != reference and not s.bad_cells:
                s.bad_cells = s.cells
                s.problems.append("results digest differs within the run")
        attempted = sum(s.cells for s in judged)
        failed = sum(s.bad_cells for s in judged)
        good = [s for s in samples if not s.bad_cells] or samples
        wall = statistics.median(s.wall_s for s in good)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(s.cpu_s for s in good),
            "sim_minstr_per_s": statistics.median(
                s.sim_instructions / s.wall_s / 1e6 for s in good),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(s.rss_mb for s in good),
            "fail_frac": failed / attempted,
            "raw_wall_s": statistics.median(s.raw_wall_s for s in good),
        }
        accuracy = next((s.accuracy for s in good if s.accuracy), None)
        for name in ("err.ipc_gap_pp", "err.life_gain_pp"):
            values[name] = accuracy[name] if accuracy else None
        layers = None
        if traced is not None:
            layers = layer_metrics(work / "spans", traced, wall, JOBS)
        return {
            "workload": workload_name, "seed": seed, "samples": len(samples),
            "attempted": attempted, "failed": failed,
            "digest": reference,
            "problems": sorted({p for s in judged for p in s.problems}),
            "values": values, "layers": layers,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(result: dict) -> None:
    """Human-readable lines for one run."""
    print(f"{result['workload']}  seed={result['seed']}  "
          f"samples={result['samples']}  cells={result['attempted']}  "
          f"failed={result['failed']}  digest={result['digest'][:16]}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, unit in END_TO_END + REPORTED_ONLY:
        print(f"  {name:<22} {_fmt(result['values'][name]):>12} {unit}")
    if result["layers"]:
        for name, unit in PER_LAYER:
            print(f"  {name:<22} {_fmt(result['layers'][name]):>12} {unit}")


def result_line(result: dict, trace: bool) -> str:
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": result["values"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def summary_tables(results: list, trace: bool) -> None:
    """One column per workload: end-to-end rows, then per-layer rows if traced."""
    head = f"{'metric':<22} {'unit':<9}" + "".join(
        f"{r['workload']:>20}" for r in results)
    rows = END_TO_END + REPORTED_ONLY + (("samples", "count"),)
    print("\n" + head)
    for name, unit in rows:
        cells = [r["samples"] if name == "samples" else r["values"][name]
                 for r in results]
        print(f"{name:<22} {unit:<9}" + "".join(f"{_fmt(c):>20}" for c in cells))
    if trace:
        print("\n" + head)
        for name, unit in PER_LAYER:
            print(f"{name:<22} {unit:<9}"
                  + "".join(f"{_fmt(r['layers'][name]):>20}" for r in results))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload and print summary tables")
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed (held out from tuning: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets: checks the harness, not speed")
    args = parser.parse_args(argv)
    # A terminated run still stops the command it started (see run_cli).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no src/repro/cli.py under {ROOT}; run from the "
              "repository root", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.all else [args.workload]
    try:
        results = [measure(name, args.seed, args.seconds, bool(args.trace),
                           args.smoke) for name in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    if args.all:
        summary_tables(results, bool(args.trace))
    else:
        print(result_line(results[0], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
