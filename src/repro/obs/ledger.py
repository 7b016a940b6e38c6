"""The run ledger: append-only provenance records for every simulation.

A :class:`RunLedger` is a JSONL file with one :class:`RunRecord` per
resolved run — the identity of the cell (workload/scheme/seed/budget
plus the :meth:`JobSpec fingerprint <repro.jobs.spec.JobSpec.fingerprint>`
of its inputs), where the result came from (executed, result cache or
resume journal), the headline metrics, wall time, the repository commit
and optional per-phase wall-time totals.  ``run_workload``, the sweep
engine's ``run_jobs`` and the CLI all append to it, so a directory's
ledger is the full history of what was simulated there and what it
measured — the raw material of the ``repro diff`` regression gate and
the ledger-history section of ``repro report``.

Robustness mirrors :class:`~repro.jobs.journal.SweepJournal`: records
are flushed and fsynced as they are appended; a torn final line (an
interrupted append) is ignored on read; corruption anywhere earlier
raises :class:`~repro.common.errors.ReproError`, as does an unknown
format version.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

from repro.common.errors import ReproError
from repro.sim.metrics import WorkloadSchemeResult

#: Ledger record layout version; bump on incompatible schema changes.
LEDGER_FORMAT_VERSION = 1

#: How a run's result was obtained.  ``failed`` marks a quarantined
#: placeholder cell from a ``keep_going`` sweep (zero metrics, no run).
SOURCES = ("executed", "cache", "journal", "failed")


@lru_cache(maxsize=1)
def current_git_sha() -> str | None:
    """The repository HEAD commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def new_run_id() -> str:
    """A unique, roughly sortable run identifier (``r<epoch>-<hex>``)."""
    return f"r{int(time.time())}-{os.urandom(4).hex()}"


@dataclass
class RunRecord:
    """One ledger line: the provenance of one resolved simulation run."""

    run_id: str
    workload: str
    scheme: str
    seed: int | None
    n_instructions: int
    fingerprint: str | None
    source: str
    wall_time_s: float
    metrics: dict[str, float]
    git_sha: str | None = None
    timestamp: float = 0.0
    #: Per-phase wall seconds (``{"stage1": seconds, ...}``) summed
    #: from the run's ``phase`` spans; empty when no spans were recorded.
    profile: dict[str, float] = field(default_factory=dict)
    #: Sweep-engine accounting for grid runs (``{"total": N, ...}``);
    #: empty for standalone runs.
    engine: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ReproError(
                f"run record source must be one of {SOURCES}, "
                f"got {self.source!r}"
            )

    @classmethod
    def for_result(
        cls,
        result: WorkloadSchemeResult,
        *,
        seed: int | None,
        n_instructions: int,
        wall_time_s: float,
        source: str = "executed",
        fingerprint: str | None = None,
        run_id: str | None = None,
        profile: dict[str, float] | None = None,
        engine: dict[str, int] | None = None,
    ) -> "RunRecord":
        """Build the ledger record of one stage-2 result."""
        return cls(
            run_id=run_id or new_run_id(),
            workload=result.workload,
            scheme=result.scheme,
            seed=seed,
            n_instructions=int(n_instructions),
            fingerprint=fingerprint,
            source=source,
            wall_time_s=float(wall_time_s),
            metrics={
                "ipc": result.ipc,
                "min_lifetime": result.min_lifetime,
                "wear_cov": result.wear_cov,
                "llc_hit_rate": result.llc_fetch_hit_rate,
                "effective_capacity": result.effective_capacity,
                "energy_mj": result.energy_mj,
            },
            git_sha=current_git_sha(),
            timestamp=time.time(),
            profile=dict(profile or {}),
            engine=dict(engine or {}),
        )

    def to_dict(self) -> dict:
        """Plain-JSON representation (with the format version)."""
        out = {"v": LEDGER_FORMAT_VERSION}
        out.update(asdict(self))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Inverse of :meth:`to_dict`.

        Raises:
            ReproError: for a missing field or unsupported version.
        """
        version = data.get("v")
        if version != LEDGER_FORMAT_VERSION:
            raise ReproError(
                f"unsupported ledger record format {version!r} "
                f"(expected {LEDGER_FORMAT_VERSION})"
            )
        try:
            return cls(
                run_id=str(data["run_id"]),
                workload=str(data["workload"]),
                scheme=str(data["scheme"]),
                seed=None if data["seed"] is None else int(data["seed"]),
                n_instructions=int(data["n_instructions"]),
                fingerprint=(
                    None if data["fingerprint"] is None
                    else str(data["fingerprint"])
                ),
                source=str(data["source"]),
                wall_time_s=float(data["wall_time_s"]),
                metrics={
                    str(k): float(v) for k, v in data["metrics"].items()
                },
                git_sha=(
                    None if data.get("git_sha") is None
                    else str(data["git_sha"])
                ),
                timestamp=float(data.get("timestamp", 0.0)),
                profile={
                    str(k): float(v)
                    for k, v in data.get("profile", {}).items()
                },
                engine={
                    str(k): int(v)
                    for k, v in data.get("engine", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ReproError(f"malformed ledger record: {exc}") from exc


class RunLedger:
    """Append-only JSONL file of :class:`RunRecord` provenance lines."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None

    # -- reading -------------------------------------------------------------

    def load(self) -> list[RunRecord]:
        """All records in append order (empty when the file is missing).

        Raises:
            ReproError: for corruption other than a torn final record.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise ReproError(f"cannot read ledger {self.path}: {exc}") from exc
        records: list[RunRecord] = []
        lines = text.splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines):
                    # Torn final append (interrupted writer): that run's
                    # record is simply lost; everything before it holds.
                    break
                raise ReproError(
                    f"{self.path}:{lineno}: malformed ledger record: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise ReproError(
                    f"{self.path}:{lineno}: ledger record is not an object"
                )
            try:
                records.append(RunRecord.from_dict(payload))
            except ReproError as exc:
                raise ReproError(f"{self.path}:{lineno}: {exc}") from exc
        return records

    # -- writing -------------------------------------------------------------

    def open(self) -> None:
        """Open the backing file for appending (creating it if needed)."""
        if self._fh is not None:
            return
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fh = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot open ledger {self.path}: {exc}") from exc

    def append(self, record: RunRecord) -> None:
        """Append one record (flushed and fsynced immediately)."""
        if self._fh is None:
            self.open()
        self._fh.write(json.dumps(record.to_dict()) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the backing file (reopened automatically on ``append``)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def as_ledger(ledger: RunLedger | str | Path | None) -> RunLedger | None:
    """Coerce a path-or-ledger argument (the runner/scheduler contract)."""
    if ledger is None or isinstance(ledger, RunLedger):
        return ledger
    return RunLedger(ledger)
