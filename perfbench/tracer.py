"""Run the ``repro`` CLI with timing wrappers around each layer's entry points.

Usage (from the repository root)::

    PERFBENCH_SPANS=DIR PYTHONPATH=src python3 perfbench/tracer.py <repro args>

The wrappers are installed by rebinding module and class attributes
before the CLI runs; nothing under ``src/`` changes.  Each wrapper
either records a span (layer, start, end, parent span) or bumps a
counter.  Spans are held in memory and written once per process as
``DIR/spans-<pid>.json``: by the CLI process when ``main`` returns, and
by each forked pool worker from a multiprocessing finaliser at worker
exit.  A worker's root spans point at the parent-side span that was open
when the worker was forked (``run_jobs``), so ``-j N`` cells nest under
the jobs layer.  ``perfbench/run.py`` turns the files into per-layer
self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from multiprocessing import util as mp_util


class Tracer:
    """Per-process span stack and counters."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset(inherited=None)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset(self, inherited) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        # Entries are (span id, parent id, layer, start).  A forked worker
        # keeps the open span it was forked under as a phantom root that
        # is never closed here.
        self.stack: list[tuple] = [inherited] if inherited else []
        self._serial = 0

    def _after_fork(self) -> None:
        self._reset(self.stack[-1] if self.stack else None)
        # The worker's finaliser registry is cleared after fork, before
        # after-fork hooks run, so registering here survives.
        mp_util.Finalize(None, self.write, exitpriority=100)

    def begin(self, layer: str) -> None:
        self._serial += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append(
            (f"{self.pid}.{self._serial}", parent, layer, time.perf_counter())
        )

    def end(self) -> None:
        span_id, parent, layer, start = self.stack.pop()
        self.spans.append((span_id, parent, layer, start, time.perf_counter()))

    def layer(self) -> str | None:
        return self.stack[-1][2] if self.stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def write(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def _rebind(module_name: str, attr: str, wrapper_for) -> None:
    """Replace a module-level function everywhere it is already bound.

    Modules imported later pick the wrapper up from the defining module.
    """
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = functools.wraps(original)(wrapper_for(original))
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def _rebind_method(cls, attr: str, wrapper_for) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapper = functools.wraps(raw.__func__)(wrapper_for(raw.__func__))
        setattr(cls, attr, classmethod(wrapper))
    else:
        setattr(cls, attr, functools.wraps(raw)(wrapper_for(raw)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""

    def spanned(layer, after=None):
        def wrapper_for(fn):
            def wrapper(*args, **kwargs):
                tracer.begin(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end()
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper
        return wrapper_for

    def counted(after):
        def wrapper_for(fn):
            def wrapper(*args, **kwargs):
                after(args, kwargs)
                return fn(*args, **kwargs)
            return wrapper
        return wrapper_for

    def stage1_run(fn):
        # Probe runs started by calibration stay in calibrate's self time.
        def wrapper(self, n_instructions, *args, **kwargs):
            if tracer.layer() == "calibrate":
                tracer.count("calibrate.probes")
                return fn(self, n_instructions, *args, **kwargs)
            tracer.begin("stage1")
            try:
                result = fn(self, n_instructions, *args, **kwargs)
            finally:
                tracer.end()
            tracer.count("stage1.sims")
            tracer.count("stage1.instructions", int(result.instructions))
            return result
        return wrapper

    def count_replay(engine):
        def after(args, kwargs, _result):
            tracer.count(f"replay.{engine}")
            tracer.count("replay.records", int(args[1].total))
        return after

    def store_get(args, kwargs, result):
        tracer.count("store.hits" if result is not None else "store.misses")

    from repro.cpu.core import AppSimulator
    from repro.nuca.kernel import ArrayBanks
    from repro.nuca.llc import NucaLLC
    from repro.sim.stage1_store import Stage1Store

    _rebind("repro.sim.calibrate", "calibrated_base_cpi", spanned(
        "calibrate", lambda a, k, r: tracer.count("calibrate.calls")))
    _rebind_method(AppSimulator, "run", stage1_run)
    _rebind("repro.trace.generator", "generate_trace", spanned(
        "trace", lambda a, k, r: tracer.count("trace.records", len(r))))
    _rebind_method(Stage1Store, "get", spanned("store.get", store_get))
    _rebind_method(Stage1Store, "put", spanned("store.put"))
    _rebind("repro.sim.runner", "_warm_llc", spanned("warmup"))
    _rebind_method(NucaLLC, "prefill_many", counted(
        lambda a, k: tracer.count("warmup.lines", len(a[2]))))
    _rebind("repro.sim.runner", "_merge_streams", spanned(
        "merge", lambda a, k, r: tracer.count("merge.records", int(r.total))))
    _rebind_method(ArrayBanks, "from_llc", spanned("snapshot"))
    _rebind("repro.nuca.kernel", "replay",
            spanned("replay", count_replay("kernel")))
    _rebind("repro.sim.runner", "_replay_reference",
            spanned("replay", count_replay("reference")))
    _rebind("repro.sim.runner", "run_workload", spanned("reduce"))
    _rebind("repro.jobs.scheduler", "run_jobs", spanned("jobs"))
    _rebind("repro.jobs.scheduler", "_execute_payload", counted(
        lambda a, k: tracer.count("jobs.retries", 1 if a[0].attempt else 0)))
    _rebind("repro.search.drivers", "run_search", spanned("search"))


def main(argv: list[str]) -> int:
    tracer = Tracer(os.environ["PERFBENCH_SPANS"])
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
