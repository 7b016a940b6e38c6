"""Telemetry: counters/gauges/histograms, event tracing and interval
dumps for the NUCA simulation pipeline.

One :class:`Telemetry` handle bundles the three facilities and is
threaded through :func:`~repro.sim.runner.run_workload`; every
instrumented component (:class:`~repro.nuca.llc.NucaLLC`, the mapping
policies, the criticality predictor, the enhanced TLB, the wear tracker,
the fault injector, the mesh) takes the handle as an optional argument
and does **nothing** when it is absent — the un-instrumented hot path is
byte-for-byte the pre-telemetry code plus one ``is None`` test per
guarded block (see ``benchmarks/test_bench_telemetry_overhead.py`` for
the enforced bound, and ``docs/OBSERVABILITY.md`` for the full contract).

Quick start::

    from repro import System, Telemetry

    tel = Telemetry(trace=True, interval_instructions=5_000)
    result = System(seed=1).run(0, "Re-NUCA", telemetry=tel)
    print(tel.registry.render())            # counter/gauge summary
    print(result.intervals.bank_write_matrix())   # wear time series
    tel.trace.export_jsonl("events.jsonl")  # structured event log

Phase wall time (where a run spent its time) is not a telemetry
facility: it is recorded as ``phase`` spans by
:class:`~repro.obs.spans.SpanRecorder`, which — unlike a telemetry
handle — leaves the vectorized replay kernel engaged.
"""

from __future__ import annotations

from repro.telemetry.events import (
    KNOWN_KINDS,
    EventTrace,
    TraceEvent,
    load_events,
)
from repro.telemetry.intervals import IntervalSeries
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    StatsRegistry,
    TelemetryError,
)

__all__ = [
    "KNOWN_KINDS",
    "EventTrace",
    "TraceEvent",
    "load_events",
    "IntervalSeries",
    "Counter",
    "Gauge",
    "Histogram",
    "StatsRegistry",
    "TelemetryError",
    "Telemetry",
]

#: Default ring-buffer capacity of the event trace.
DEFAULT_TRACE_CAPACITY = 65536


class Telemetry:
    """One run's observability bundle.

    Args:
        trace: enable structured event tracing (off by default — events
            on the hot path are the costliest instrument).
        trace_capacity: ring-buffer retention when tracing is enabled.
        interval_instructions: snapshot the registry every N committed
            instructions (0 disables interval dumps).

    The registry is always live — counters and gauges are cheap and the
    summary they feed is the point of asking for telemetry at all.
    """

    def __init__(
        self,
        *,
        trace: bool = False,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        interval_instructions: int = 0,
    ) -> None:
        if interval_instructions < 0:
            raise TelemetryError("interval_instructions must be >= 0")
        self.registry = StatsRegistry()
        self.trace: EventTrace | None = (
            EventTrace(trace_capacity) if trace else None
        )
        self.interval_instructions = interval_instructions

    def counter(self, name: str) -> Counter:
        """Shorthand for ``telemetry.registry.counter(name)``."""
        return self.registry.counter(name)

    def summary(self) -> str:
        """Registry dump plus a trace one-liner."""
        lines = [self.registry.render()]
        if self.trace is not None:
            lines.append(
                f"trace: {len(self.trace)} events retained "
                f"({self.trace.emitted} emitted, {self.trace.dropped} dropped)"
            )
        return "\n".join(lines)
