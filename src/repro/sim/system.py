"""High-level façade: one object that owns a full simulated machine.

:class:`System` bundles a configuration, a seed, the stage-1 cache and
the workload set behind a small task-oriented API — the entry point the
examples and notebooks use when they do not need the lower-level runner
knobs::

    system = System()                      # the Table I machine
    row = system.characterize("mcf")       # Table II columns
    result = system.run(0, "Re-NUCA")      # WL1 under Re-NUCA
    table = system.compare(0)              # all five schemes side by side
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.config import SystemConfig, baseline_config
from repro.cpu.core import Stage1Result
from repro.sim.metrics import WorkloadSchemeResult
from repro.sim.runner import DEFAULT_INSTRUCTIONS, Stage1Cache, run_workload
from repro.telemetry import Telemetry
from repro.trace.workloads import Workload, make_workloads

#: Scheme set used by :meth:`System.compare` when none is given.
DEFAULT_SCHEMES: tuple[str, ...] = (
    "S-NUCA", "R-NUCA", "Re-NUCA", "Private", "Naive",
)


class System:
    """A configured machine plus its memoised simulation state."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        seed: int | None = None,
        n_instructions: int = DEFAULT_INSTRUCTIONS,
    ) -> None:
        self.config = config or baseline_config()
        self.seed = seed
        self.n_instructions = n_instructions
        self.stage1 = Stage1Cache()
        self.workloads: list[Workload] = make_workloads(
            num_cores=self.config.num_cores, seed=seed
        )

    # -- workload resolution ----------------------------------------------------

    def workload(self, which: int | str | Workload) -> Workload:
        """Resolve an index (0-based), a name ("WL3"), or a Workload."""
        if isinstance(which, Workload):
            if which.num_cores != self.config.num_cores:
                raise ReproError(
                    f"workload {which.name} has {which.num_cores} apps; "
                    f"this system has {self.config.num_cores} cores"
                )
            return which
        if isinstance(which, int):
            if not (0 <= which < len(self.workloads)):
                raise ReproError(
                    f"workload index {which} out of range 0.."
                    f"{len(self.workloads) - 1}"
                )
            return self.workloads[which]
        for workload in self.workloads:
            if workload.name == which:
                return workload
        raise ReproError(f"no workload named {which!r}")

    # -- simulation entry points ---------------------------------------------------

    def characterize(self, app: str, *, n_instructions: int | None = None) -> Stage1Result:
        """Single-core Table II characterisation of one application."""
        return self.stage1.get(
            app,
            self.config,
            seed=self.seed,
            n_instructions=n_instructions or self.n_instructions,
        )

    def run(
        self,
        which: int | str | Workload,
        scheme: str,
        *,
        n_instructions: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> WorkloadSchemeResult:
        """One workload under one NUCA scheme.

        ``telemetry`` opts the run into observability: counters, event
        tracing and interval dumps (see ``docs/OBSERVABILITY.md``).
        Phase wall time is recorded by span tracing, not telemetry
        (``run_workload(spans=...)``).
        """
        return run_workload(
            self.workload(which),
            scheme,
            self.config,
            seed=self.seed,
            n_instructions=n_instructions or self.n_instructions,
            stage1=self.stage1,
            telemetry=telemetry,
        )

    def compare(
        self,
        which: int | str | Workload,
        schemes: tuple[str, ...] = DEFAULT_SCHEMES,
        *,
        n_instructions: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> dict[str, WorkloadSchemeResult]:
        """One workload under several schemes (shared stage-1 state).

        A shared ``telemetry`` handle sees every scheme: counters
        accumulate over the comparison, gauges end up reflecting the
        last scheme run.  Use one handle per scheme for isolated series.
        """
        return {
            scheme: self.run(
                which, scheme, n_instructions=n_instructions,
                telemetry=telemetry,
            )
            for scheme in schemes
        }

    # -- convenience reductions ---------------------------------------------------------

    def summary(self, results: dict[str, WorkloadSchemeResult]) -> str:
        """Text table of a :meth:`compare` outcome."""
        from repro.experiments.report import format_table

        rows = []
        for scheme, result in results.items():
            writes = result.bank_writes
            cv = float(writes.std() / writes.mean()) if writes.mean() else 0.0
            rows.append(
                (scheme, result.ipc, result.min_lifetime, cv,
                 result.llc_fetch_hit_rate)
            )
        return format_table(
            ["scheme", "IPC", "min life [y]", "wear CV", "LLC hit"], rows
        )
