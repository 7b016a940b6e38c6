"""Cross-process span tracing for sweeps and simulation runs.

A **span** is one timed piece of work — the sweep itself, one cell's
dispatch-to-completion bracket, one ``run_workload`` phase — with a
trace id shared by every span of one sweep, a span id, an optional
parent id, a category and free-form attributes.  Spans nest: the
scheduler opens a ``sweep`` root span, each cell gets a ``job`` span
under it, and the runner's ``stage1`` / ``warm-up`` / ``measure`` /
``reduce`` phases land under their cell.  Retries, watchdog timeouts,
requeues and quarantines appear as zero-duration ``event`` spans.

Spans are the repository's one timing primitive: ``--profile`` prints
:func:`phase_wall_table` over a recorder's ``phase`` spans, and ledger
records carry :func:`phase_totals` of each cell's phases.  A worker
process records into its own :class:`SpanRecorder` and ships the
finished spans back via :meth:`SpanRecorder.export_state`; the parent
folds them in with :meth:`SpanRecorder.merge_state` in deterministic
job order.  Persisted next to the sweep journal as ``spans.jsonl``
(one record per finished span, schema :data:`SPAN_SCHEMA_VERSION`),
the file shares the journal's robustness contract: a torn final line
is tolerated on read, earlier corruption raises.

Span identity is deterministic: ids derive from the trace id, the
parent id, the category/name and an occurrence counter — so the same
sweep records the same ids run over run (given the same trace id), and
a parallel sweep's *canonical* span set (see :func:`canonical_key`)
equals the serial one even when chaos kills a worker mid-cell.

Timestamps are wall-anchored monotonic seconds: each recorder captures
``time.time()`` / ``time.perf_counter()`` once at creation and stamps
``anchor_wall + (perf_counter() - anchor_mono)`` — monotonic within a
process, comparable across the parent and its workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ReproError

#: spans.jsonl record layout version.
SPAN_SCHEMA_VERSION = 1

#: Span categories emitted by the scheduler and runner.  ``event``
#: spans are zero-duration instants (retry, timeout, requeue, ...).
SPAN_CATEGORIES = ("sweep", "job", "phase", "event")

#: Attribute keys excluded from :func:`canonical_key` — they vary
#: between otherwise-identical runs (which attempt succeeded, which
#: process executed the cell, how many workers the pool had) and must
#: not break determinism checks.
VOLATILE_ATTRS = frozenset(
    {"attempt", "pid", "worker", "workers", "wall_time_s"}
)

#: Categories compared by determinism checks; ``event`` spans are an
#: incident log (a retry happens or not), not durable structure.
DURABLE_CATEGORIES = ("sweep", "job", "phase")


@dataclass
class Span:
    """One finished span: identity, bracket and attributes."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    category: str
    start_s: float
    end_s: float
    pid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Wall seconds the span covered (0 for instant events)."""
        return max(0.0, self.end_s - self.start_s)

    def to_dict(self) -> dict:
        """The spans.jsonl record payload (version-stamped)."""
        return {
            "v": SPAN_SCHEMA_VERSION,
            "trace": self.trace_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "start": self.start_s,
            "end": self.end_s,
            "pid": self.pid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """Rebuild a span from its :meth:`to_dict` payload."""
        try:
            return cls(
                trace_id=str(record["trace"]),
                span_id=str(record["id"]),
                parent_id=(
                    str(record["parent"])
                    if record.get("parent") is not None else None
                ),
                name=str(record["name"]),
                category=str(record["cat"]),
                start_s=float(record["start"]),
                end_s=float(record["end"]),
                pid=int(record["pid"]),
                attrs=dict(record.get("attrs") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"bad span record: {exc}") from exc


def new_trace_id() -> str:
    """A fresh sweep-unique trace id (``t<hex>``)."""
    return f"t{os.urandom(8).hex()}"


def canonical_key(span: Span) -> tuple:
    """Timestamp- and process-independent identity of one span.

    Two runs of the same sweep — serial or parallel, with or without
    mid-run worker deaths — record the same multiset of canonical keys
    over the :data:`DURABLE_CATEGORIES`; only timings, pids and attempt
    numbers differ.
    """
    stable_attrs = tuple(sorted(
        (key, str(value))
        for key, value in span.attrs.items()
        if key not in VOLATILE_ATTRS
    ))
    return (span.category, span.name, stable_attrs)


def canonical_span_set(spans: list[Span]) -> list[tuple]:
    """Sorted canonical keys of the durable spans (for equality checks)."""
    return sorted(
        canonical_key(span) for span in spans
        if span.category in DURABLE_CATEGORIES
    )


@dataclass
class OpenSpan:
    """An in-flight span: its id exists, its end does not yet."""

    span_id: str
    parent_id: str | None
    name: str
    category: str
    start_s: float
    attrs: dict


class _NullSpan:
    """Shared no-op context manager for disabled recorders."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class SpanRecorder:
    """Collects finished spans; the process-local half of the span layer.

    Args:
        trace_id: the sweep's shared trace id (fresh one when omitted).
        sink: optional callable receiving each finished :class:`Span`
            as it completes — how the scheduler streams spans to the
            ``spans.jsonl`` writer while the sweep is still running.
        enabled: a disabled recorder records nothing and its
            :meth:`span` context manager is a shared no-op (the
            :data:`DISABLED_SPANS` singleton pattern: a phase bracket
            costs one ``enabled`` check when nobody is recording).
    """

    def __init__(
        self,
        *,
        trace_id: str | None = None,
        sink=None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.trace_id = trace_id or (new_trace_id() if enabled else "")
        self.sink = sink
        self.spans: list[Span] = []
        #: Context stack: (parent span id, stamped attrs) frames pushed
        #: by :meth:`scope` and by open :meth:`span` blocks.
        self._stack: list[tuple[str | None, dict]] = []
        #: (parent_id, category, name) -> occurrence counter, the
        #: deterministic discriminator inside one recorder.
        self._occurrences: dict[tuple, int] = {}
        self._anchor_wall = time.time()
        self._anchor_mono = time.perf_counter()

    # -- time ----------------------------------------------------------------

    def now(self) -> float:
        """Wall-anchored monotonic seconds (the span timestamp base)."""
        return self._anchor_wall + (time.perf_counter() - self._anchor_mono)

    # -- identity ------------------------------------------------------------

    def _next_id(self, parent_id: str | None, category: str, name: str) -> str:
        key = (parent_id, category, name)
        occurrence = self._occurrences.get(key, 0)
        self._occurrences[key] = occurrence + 1
        digest = hashlib.sha256(
            f"{self.trace_id}|{parent_id or ''}|{category}|{name}|{occurrence}"
            .encode()
        ).hexdigest()
        return digest[:16]

    def _context(self) -> tuple[str | None, dict]:
        if self._stack:
            return self._stack[-1]
        return None, {}

    # -- recording -----------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str = "phase",
        *,
        parent_id: str | None = None,
        **attrs,
    ) -> OpenSpan:
        """Open a span explicitly (id assigned now, end recorded later)."""
        ctx_parent, ctx_attrs = self._context()
        if parent_id is None:
            parent_id = ctx_parent
        merged = {**ctx_attrs, **attrs}
        return OpenSpan(
            span_id=self._next_id(parent_id, category, name),
            parent_id=parent_id,
            name=name,
            category=category,
            start_s=self.now(),
            attrs=merged,
        )

    def end(self, open_span: OpenSpan, **attrs) -> Span:
        """Close an explicitly opened span and record it."""
        span = Span(
            trace_id=self.trace_id,
            span_id=open_span.span_id,
            parent_id=open_span.parent_id,
            name=open_span.name,
            category=open_span.category,
            start_s=open_span.start_s,
            end_s=self.now(),
            pid=os.getpid(),
            attrs={**open_span.attrs, **attrs},
        )
        self._record(span)
        return span

    def event(
        self,
        name: str,
        *,
        parent_id: str | None = None,
        **attrs,
    ) -> Span | None:
        """Record a zero-duration instant span (category ``event``)."""
        if not self.enabled:
            return None
        ctx_parent, ctx_attrs = self._context()
        if parent_id is None:
            parent_id = ctx_parent
        now = self.now()
        span = Span(
            trace_id=self.trace_id,
            span_id=self._next_id(parent_id, "event", name),
            parent_id=parent_id,
            name=name,
            category="event",
            start_s=now,
            end_s=now,
            pid=os.getpid(),
            attrs={**ctx_attrs, **attrs},
        )
        self._record(span)
        return span

    def span(self, name: str, category: str = "phase", **attrs):
        """Context manager recording one nested span."""
        if not self.enabled:
            return _NULL
        return self._timed(name, category, attrs)

    @contextmanager
    def _timed(self, name: str, category: str, attrs: dict):
        open_span = self.begin(name, category, **attrs)
        self._stack.append((open_span.span_id, dict(open_span.attrs)))
        try:
            yield open_span
        finally:
            self._stack.pop()
            self.end(open_span)

    @contextmanager
    def scope(self, *, parent_id: str | None = None, **attrs):
        """Push a parent/attribute frame without recording a span.

        The sweep scheduler brackets each cell's ``run_workload`` call
        this way: phases recorded inside parent to the cell's ``job``
        span and inherit its workload/scheme attributes.
        """
        if not self.enabled:
            yield
            return
        ctx_parent, ctx_attrs = self._context()
        self._stack.append((
            parent_id if parent_id is not None else ctx_parent,
            {**ctx_attrs, **attrs},
        ))
        try:
            yield
        finally:
            self._stack.pop()

    def _record(self, span: Span) -> None:
        if not self.enabled:
            return
        self.spans.append(span)
        if self.sink is not None:
            self.sink(span)

    # -- cross-process merging ----------------------------------------------

    def export_state(self) -> list[dict]:
        """Picklable span dump for parent-side merging (job order)."""
        return [span.to_dict() for span in self.spans]

    def merge_state(self, state: list[dict], extra: dict | None = None) -> None:
        """Fold a worker's :meth:`export_state` into this recorder.

        ``extra`` attributes are stamped onto every merged span (the
        scheduler adds workload/scheme context the worker may lack).
        Merged spans keep their worker-assigned ids and flow to the
        sink like locally recorded ones.
        """
        if not self.enabled:
            return
        for record in state:
            span = Span.from_dict(record)
            if extra:
                span.attrs = {**extra, **span.attrs}
            self._record(span)


#: Shared disabled recorder: span blocks cost one ``enabled`` check.
DISABLED_SPANS = SpanRecorder(enabled=False)


class SpanObserver:
    """Folds the scheduler's :class:`~repro.obs.progress.JobEvent`
    stream into job spans and instant events.

    Chained after the user observer by ``run_jobs``: ``dispatch`` opens
    a cell's ``job`` span (covering every attempt), ``done`` and
    ``failed`` close it, ``cache``/``resumed`` record instants under
    the sweep root, and ``retry``/``timeout``/``requeue`` record
    instants under the open job span — the incident trail the Perfetto
    export renders as track markers.
    """

    def __init__(self, recorder: SpanRecorder, *, parent_id: str | None = None) -> None:
        self.recorder = recorder
        self.parent_id = parent_id
        self._open: dict[int, OpenSpan] = {}

    def open_span_id(self, index: int) -> str | None:
        """The in-flight ``job`` span id for one cell (None when closed)."""
        open_span = self._open.get(index)
        return open_span.span_id if open_span is not None else None

    def __call__(self, event) -> None:
        kind = event.kind
        if kind == "dispatch":
            self._open[event.index] = self.recorder.begin(
                event.label, "job",
                parent_id=self.parent_id,
                label=event.label, index=event.index,
            )
        elif kind in ("done", "failed"):
            open_span = self._open.pop(event.index, None)
            if open_span is not None:
                self.recorder.end(open_span, status=(
                    "failed" if kind == "failed" else "ok"
                ))
            elif kind == "failed":
                # A serial ReproError can fail a cell it never
                # dispatched a span for (no-retry path): record the
                # incident even without a bracket.
                self.recorder.event(
                    "failed", parent_id=self.parent_id,
                    label=event.label, index=event.index,
                )
        elif kind in ("cache", "resumed"):
            self.recorder.event(
                kind, parent_id=self.parent_id,
                label=event.label, index=event.index,
            )
        elif kind in ("retry", "timeout", "requeue"):
            self.recorder.event(
                kind,
                parent_id=self.open_span_id(event.index) or self.parent_id,
                label=event.label, index=event.index,
            )


# -- persistence -------------------------------------------------------------


class SpanWriter:
    """Append-only ``spans.jsonl`` writer (one record per finished span).

    Shares the sweep journal's robustness contract: records are flushed
    as they are appended, a torn final line (an interrupted append) is
    tolerated by :func:`load_spans`.  Unlike the journal, records are
    *not* fsynced — spans are diagnostics; losing the last one in a
    crash never loses completed work.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None

    def open(self, *, truncate: bool = False) -> None:
        """Open the backing file (``truncate=True`` starts fresh)."""
        if self._fh is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fh = open(
                self.path, "w" if truncate else "a", encoding="utf-8"
            )
        except OSError as exc:
            raise ReproError(
                f"cannot open span file {self.path}: {exc}"
            ) from exc

    def record(self, span: Span) -> None:
        """Append one finished span (flushed immediately)."""
        if self._fh is None:
            self.open()
        self._fh.write(json.dumps(span.to_dict()) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def load_spans(path: str | Path) -> list[Span]:
    """All spans from a ``spans.jsonl`` file, in append order.

    A torn final line (interrupted append — or simply a span file of a
    sweep still running) is ignored; malformed records before the final
    one and unknown schema versions raise
    :class:`~repro.common.errors.ReproError`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise ReproError(f"cannot read span file {path}: {exc}") from exc
    spans: list[Span] = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                # Torn final append: the span is lost, nothing else is.
                break
            raise ReproError(
                f"{path}:{lineno}: malformed span record: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ReproError(f"{path}:{lineno}: span record is not an object")
        if record.get("v") != SPAN_SCHEMA_VERSION:
            raise ReproError(
                f"{path}:{lineno}: unsupported span schema "
                f"{record.get('v')!r} (expected {SPAN_SCHEMA_VERSION})"
            )
        try:
            spans.append(Span.from_dict(record))
        except ReproError as exc:
            raise ReproError(f"{path}:{lineno}: {exc}") from exc
    return spans


def phase_wall_table(spans) -> list[tuple[str, int, float, float]]:
    """Per-phase wall-time rows from a span set: (name, calls, total, mean).

    Covers ``phase``-category spans (the runner's stage1/warm-up/
    measure/reduce brackets), sorted by descending total — the table
    ``--profile`` and ``repro stats --from-spans`` print.
    """
    totals: dict[str, tuple[int, float]] = {}
    for span in spans:
        if span.category != "phase":
            continue
        calls, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, seconds + span.duration_s)
    rows = [
        (name, calls, seconds, seconds / calls if calls else 0.0)
        for name, (calls, seconds) in totals.items()
    ]
    rows.sort(key=lambda row: -row[2])
    return rows


def phase_totals(spans) -> dict[str, float]:
    """Total wall seconds per phase name (a ledger record's ``profile``)."""
    return {name: total for name, _calls, total, _mean
            in phase_wall_table(spans)}
