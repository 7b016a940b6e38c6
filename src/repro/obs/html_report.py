"""Self-contained HTML reports (``repro report --html``).

One call — :func:`render_html_report` — turns a
:class:`~repro.sim.metrics.MatrixResult` (plus, optionally, the run
ledger behind it) into a **single HTML file with zero external
references**: styles are one inline ``<style>`` block, every chart is
inline SVG, there are no scripts, no fonts, no images and no URLs to
fetch.  The file can be archived as a CI artifact or mailed around and
will render identically forever.

Sections, in order: headline stat tiles, scheme-comparison bars against
the paper's targets (Re-NUCA: +42 % raw minimum lifetime over R-NUCA at
within-0.5 % IPC), per-cell wear heatmaps over time (interval series
when recorded, end-of-run totals otherwise), interval write timelines,
the phase-timing table and the ledger run history.  Every chart has a
table twin in the markup, so the numbers are never color-alone.

Colors follow the dataviz palette contract: categorical slots in fixed
order for schemes (identity), a single-hue blue ramp for the heatmap
(magnitude), text in ink tokens — with a selected dark mode via
``prefers-color-scheme``, not an automatic flip.
"""

from __future__ import annotations

import html
import time
from collections.abc import Sequence

from repro.common.errors import ReproError
from repro.sim.metrics import MatrixResult, WorkloadSchemeResult

#: Fixed categorical slot order (light, dark) — identity colors for
#: schemes, assigned by first appearance, never cycled.  Slots 1-3
#: (blue/orange/aqua) validate all-pairs; past slot 3 the report leans
#: on direct labels and the table twins.
_SERIES = (
    ("#2a78d6", "#3987e5"),   # 1 blue
    ("#eb6834", "#d95926"),   # 2 orange
    ("#1baf7a", "#199e70"),   # 3 aqua
    ("#eda100", "#c98500"),   # 4 yellow
    ("#e87ba4", "#d55181"),   # 5 magenta
    ("#008300", "#008300"),   # 6 green
    ("#4a3aa7", "#9085e9"),   # 7 violet
    ("#e34948", "#e66767"),   # 8 red
)

#: Single-hue sequential ramp (blue 100..700) for the wear heatmap.
_HEAT_LIGHT = ("#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5",
               "#2a78d6", "#1c5cab", "#104281", "#0d366b")
_HEAT_DARK = ("#0d366b", "#104281", "#184f95", "#1c5cab",
              "#256abf", "#2a78d6", "#3987e5", "#5598e7")

#: Wear heatmaps rendered at most (the grid grows as workloads x schemes).
MAX_HEATMAPS = 6

#: Ledger rows shown in the history table.
MAX_LEDGER_ROWS = 30


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


# -- SVG building blocks -----------------------------------------------------


def _svg_open(width: int, height: int, label: str) -> str:
    return (
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'style="max-width:{width}px" role="img" '
        f'aria-label="{_esc(label)}">'
    )


def _hbar_chart(
    rows: Sequence[tuple[str, float, int]],
    *,
    label: str,
    unit: str = "",
    targets: Sequence[tuple[float, str]] = (),
    digits: int = 2,
) -> str:
    """Horizontal bar chart: (label, value, series slot) rows.

    Values may be negative (the zero baseline is drawn where it falls);
    ``targets`` draws labelled reference ticks at given values.
    """
    if not rows:
        return '<p class="note">(no data)</p>'
    bar_h, gap, left, right, top = 18, 8, 150, 70, 8
    width = 640
    plot_w = width - left - right
    height = top * 2 + len(rows) * (bar_h + gap)
    values = [v for _, v, _ in rows]
    lo = min(0.0, min(values), *(t for t, _ in targets)) if targets else min(0.0, min(values))
    hi = max(0.0, max(values), *(t for t, _ in targets)) if targets else max(0.0, max(values))
    span = (hi - lo) or 1.0

    def x_of(value: float) -> float:
        return left + (value - lo) / span * plot_w

    parts = [_svg_open(width, height, label)]
    zero_x = x_of(0.0)
    parts.append(
        f'<line class="baseline" x1="{zero_x:.1f}" y1="{top}" '
        f'x2="{zero_x:.1f}" y2="{height - top}"/>'
    )
    for i, (name, value, slot) in enumerate(rows):
        y = top + i * (bar_h + gap)
        x0, x1 = sorted((zero_x, x_of(value)))
        bar_w = max(1.0, x1 - x0)
        mid = y + bar_h / 2 + 4
        parts.append(
            f'<text class="lbl" x="{left - 8}" y="{mid:.1f}" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
        parts.append(
            f'<rect class="s{slot % len(_SERIES)}" x="{x0:.1f}" y="{y}" '
            f'width="{bar_w:.1f}" height="{bar_h}" rx="4">'
            f"<title>{_esc(name)}: {_fmt(value, digits)}{_esc(unit)}</title>"
            f"</rect>"
        )
        anchor_x = x1 + 6 if value >= 0 else x0 - 6
        anchor = "start" if value >= 0 else "end"
        parts.append(
            f'<text class="val" x="{anchor_x:.1f}" y="{mid:.1f}" '
            f'text-anchor="{anchor}">{_fmt(value, digits)}{_esc(unit)}</text>'
        )
    for t_value, t_label in targets:
        tx = x_of(t_value)
        parts.append(
            f'<line class="target" x1="{tx:.1f}" y1="{top - 4}" '
            f'x2="{tx:.1f}" y2="{height - top}"/>'
            f'<text class="lbl" x="{tx:.1f}" y="{top - 8}" '
            f'text-anchor="middle">{_esc(t_label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _heatmap(
    matrix: Sequence[Sequence[float]],
    *,
    label: str,
    row_name: str = "bank",
    col_name: str = "interval",
) -> str:
    """Banks x intervals heat grid on the sequential ramp."""
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        return '<p class="note">(no data)</p>'
    n_rows, n_cols = len(rows), len(rows[0])
    cell_w = max(6, min(22, 440 // n_cols))
    cell_h = 12
    left, top, pad = 54, 6, 2
    width = left + n_cols * cell_w + 10
    height = top + n_rows * cell_h + 24
    peak = max((v for row in rows for v in row), default=0.0) or 1.0
    parts = [_svg_open(width, height, label)]
    for r, row in enumerate(rows):
        y = top + r * cell_h
        if n_rows <= 16 or r % 2 == 0:
            parts.append(
                f'<text class="lbl" x="{left - 6}" y="{y + cell_h - 2}" '
                f'text-anchor="end">{_esc(row_name)}{r}</text>'
            )
        for c, value in enumerate(row):
            shade = min(7, int(value / peak * 7.999))
            parts.append(
                f'<rect class="h{shade}" x="{left + c * cell_w}" y="{y}" '
                f'width="{cell_w - pad}" height="{cell_h - pad}">'
                f"<title>{_esc(row_name)}{r}, {_esc(col_name)}{c}: "
                f"{value:.0f}</title></rect>"
            )
    parts.append(
        f'<text class="lbl" x="{left}" y="{height - 6}">'
        f"{n_cols} {_esc(col_name)}s &#8594; (peak {peak:.0f} writes/cell)</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _timeline(
    series: dict[str, list[float]],
    slots: dict[str, int],
    *,
    label: str,
    y_label: str,
) -> str:
    """Multi-series line chart on a shared x (interval index) axis."""
    series = {k: v for k, v in series.items() if v}
    if not series:
        return '<p class="note">(no data)</p>'
    width, height, left, top = 640, 200, 56, 14
    plot_w, plot_h = width - left - 16, height - top - 30
    n = max(len(v) for v in series.values())
    peak = max((v for vals in series.values() for v in vals), default=0.0) or 1.0
    parts = [_svg_open(width, height, label)]
    for frac in (0.0, 0.5, 1.0):
        gy = top + plot_h * (1 - frac)
        parts.append(
            f'<line class="grid" x1="{left}" y1="{gy:.1f}" '
            f'x2="{left + plot_w}" y2="{gy:.1f}"/>'
            f'<text class="lbl" x="{left - 6}" y="{gy + 4:.1f}" '
            f'text-anchor="end">{frac * peak:.0f}</text>'
        )
    for name, values in series.items():
        slot = slots.get(name, 0) % len(_SERIES)
        points = []
        for i, value in enumerate(values):
            x = left + (i / max(1, n - 1)) * plot_w
            y = top + plot_h * (1 - value / peak)
            points.append(f"{x:.1f},{y:.1f}")
        parts.append(
            f'<polyline class="l{slot}" points="{" ".join(points)}">'
            f"<title>{_esc(name)}</title></polyline>"
        )
        end_x, end_y = points[-1].split(",")
        parts.append(
            f'<circle class="s{slot}" cx="{end_x}" cy="{end_y}" r="3"/>'
            f'<text class="lbl" x="{float(end_x) - 4:.1f}" '
            f'y="{float(end_y) - 7:.1f}" text-anchor="end">{_esc(name)}</text>'
        )
    parts.append(
        f'<text class="lbl" x="{left}" y="{height - 6}">'
        f"{_esc(y_label)} per interval &#8594; {n} intervals</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _scatter_chart(
    points: Sequence[tuple],
    *,
    label: str,
    x_label: str,
    y_label: str,
) -> str:
    """Scatter of (x, y, css class, tooltip) points with padded axes.

    Classes: ``pt-front`` (frontier, full color), ``pt-dim`` (dominated,
    faded), ``pt-ref`` (reference marker, ringed and labelled); overlay
    charts use the sequential ``h0``–``h7`` ramp instead.  A point may
    carry an optional fifth element — an internal ``#fragment`` href —
    and renders as a clickable marker (the history report's per-point
    ledger drill-down).
    """
    if not points:
        return '<p class="note">(no data)</p>'
    width, height, left, top = 640, 300, 64, 16
    plot_w, plot_h = width - left - 24, height - top - 44
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.08 or abs(x_hi) * 0.05 or 1.0
    y_pad = (y_hi - y_lo) * 0.08 or abs(y_hi) * 0.05 or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(value: float) -> float:
        return left + (value - x_lo) / (x_hi - x_lo) * plot_w

    def sy(value: float) -> float:
        return top + plot_h * (1 - (value - y_lo) / (y_hi - y_lo))

    parts = [_svg_open(width, height, label)]
    for frac in (0.0, 0.5, 1.0):
        gx = x_lo + frac * (x_hi - x_lo)
        gy = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<line class="grid" x1="{left}" y1="{sy(gy):.1f}" '
            f'x2="{left + plot_w}" y2="{sy(gy):.1f}"/>'
            f'<text class="lbl" x="{left - 6}" y="{sy(gy) + 4:.1f}" '
            f'text-anchor="end">{gy:.2f}</text>'
            f'<line class="grid" x1="{sx(gx):.1f}" y1="{top}" '
            f'x2="{sx(gx):.1f}" y2="{top + plot_h}"/>'
            f'<text class="lbl" x="{sx(gx):.1f}" '
            f'y="{top + plot_h + 14}" text-anchor="middle">{gx:.2f}</text>'
        )
    # Dominated points first so the frontier and reference draw on top.
    ordered = sorted(points, key=lambda p: ("pt-dim" not in p[2], "pt-ref" in p[2]))
    for point in ordered:
        x, y, cls, name = point[0], point[1], point[2], point[3]
        href = point[4] if len(point) > 4 else None
        r = 6 if "pt-ref" in cls else 4
        circle = (
            f'<circle class="{_esc(cls)}" cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
            f'r="{r}"><title>{_esc(name)}</title></circle>'
        )
        if href:
            circle = f'<a href="{_esc(href)}">{circle}</a>'
        parts.append(circle)
        if "pt-ref" in cls:
            parts.append(
                f'<text class="lbl" x="{sx(x) + 9:.1f}" y="{sy(y) - 7:.1f}">'
                f"{_esc(name.split(chr(10))[0])}</text>"
            )
    parts.append(
        f'<text class="lbl" x="{left + plot_w}" y="{height - 6}" '
        f'text-anchor="end">{_esc(x_label)} &#8594;</text>'
        f'<text class="lbl" x="{left}" y="{top - 4}">{_esc(y_label)} &#8593;</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _sparkline(
    values: Sequence[float],
    *,
    label: str,
    digits: int = 3,
    width: int = 170,
    height: int = 34,
) -> str:
    """Tiny inline trend line with the latest value spelled out.

    Sparklines trade axes for density, so the numeric endpoints ride
    along: the last value is printed and the full range lives in the
    tooltip — the chart is never color- or shape-alone.
    """
    values = [float(v) for v in values]
    if not values:
        return '<p class="note">(no samples)</p>'
    pad, right = 4, 56
    plot_w, plot_h = width - pad - right, height - 2 * pad
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    tooltip = (
        f"{label}: {len(values)} samples, "
        f"min {lo:.{digits}g}, max {hi:.{digits}g}"
    )
    parts = [_svg_open(width, height, label)]
    coords = []
    for i, value in enumerate(values):
        x = pad + (i / max(1, len(values) - 1)) * plot_w
        y = pad + plot_h * (1 - (value - lo) / span)
        coords.append(f"{x:.1f},{y:.1f}")
    if len(coords) > 1:
        parts.append(
            f'<polyline class="l0" points="{" ".join(coords)}">'
            f"<title>{_esc(tooltip)}</title></polyline>"
        )
    end_x, end_y = coords[-1].split(",")
    parts.append(
        f'<circle class="s0" cx="{end_x}" cy="{end_y}" r="2.5">'
        f"<title>{_esc(tooltip)}</title></circle>"
    )
    parts.append(
        f'<text class="val" x="{width - pad}" y="{float(end_y) + 4:.1f}" '
        f'text-anchor="end">{values[-1]:.{digits}g}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _legend(slots: dict[str, int]) -> str:
    chips = "".join(
        f'<span class="chip"><span class="swatch s{slot % len(_SERIES)}">'
        f"</span>{_esc(name)}</span>"
        for name, slot in slots.items()
    )
    return f'<div class="legend">{chips}</div>'


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


# -- the report --------------------------------------------------------------

_STYLE = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
  }
}
body { margin: 0 auto; max-width: 980px; padding: 24px 20px 60px;
       background: var(--page); color: var(--ink);
       font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 22px; margin: 0 0 2px; }
h2 { font-size: 16px; margin: 34px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.note { color: var(--muted); font-size: 13px; }
.bad { color: #b3261e; }
section.card { background: var(--surface); border: 1px solid var(--border);
               border-radius: 8px; padding: 14px 16px; margin: 14px 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--surface); border: 1px solid var(--border);
        border-radius: 8px; padding: 10px 16px; min-width: 150px; }
.tile .k { color: var(--ink-2); font-size: 12px; }
.tile .v { font-size: 24px; }
.tile .d { color: var(--muted); font-size: 12px; }
table { border-collapse: collapse; margin: 8px 0; font-size: 13px; }
th, td { text-align: right; padding: 3px 10px;
         font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600;
     border-bottom: 1px solid var(--axis); }
th:first-child, td:first-child { text-align: left; }
tbody tr:nth-child(even) { background: color-mix(in srgb, var(--grid) 35%, transparent); }
.legend { margin: 4px 0 8px; }
.chip { margin-right: 14px; color: var(--ink-2); font-size: 13px; }
.swatch { display: inline-block; width: 10px; height: 10px;
          border-radius: 2px; margin-right: 5px; }
svg { display: block; margin: 6px 0; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .lbl { fill: var(--muted); }
svg .val { fill: var(--ink-2); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .baseline { stroke: var(--axis); stroke-width: 1; }
svg .target { stroke: var(--ink-2); stroke-width: 1;
              stroke-dasharray: 3 3; }
svg polyline { fill: none; stroke-width: 2; stroke-linejoin: round; }
svg .pt-front { fill: #2a78d6; }
svg .pt-dim { fill: var(--muted); opacity: 0.4; }
svg .pt-ref { fill: #eb6834; stroke: var(--ink); stroke-width: 1.5; }
svg a circle { stroke: var(--ink-2); stroke-width: 0.8; cursor: pointer; }
tr:target { outline: 2px solid #eb6834; }
details summary { cursor: pointer; color: var(--ink-2); font-size: 13px; }
"""


def _series_css() -> str:
    lines = []
    for i, (light, dark) in enumerate(_SERIES):
        lines.append(f"svg .s{i}, .swatch.s{i} {{ fill: {light}; background: {light}; }}")
        lines.append(f"svg .l{i} {{ stroke: {light}; }}")
    for i, shade in enumerate(_HEAT_LIGHT):
        lines.append(
            f"svg .h{i}, .swatch.h{i} {{ fill: {shade}; background: {shade}; }}"
        )
    dark_lines = []
    for i, (light, dark) in enumerate(_SERIES):
        dark_lines.append(
            f"svg .s{i}, .swatch.s{i} {{ fill: {dark}; background: {dark}; }}"
        )
        dark_lines.append(f"svg .l{i} {{ stroke: {dark}; }}")
    for i, shade in enumerate(_HEAT_DARK):
        dark_lines.append(
            f"svg .h{i}, .swatch.h{i} {{ fill: {shade}; background: {shade}; }}"
        )
    return (
        "\n".join(lines)
        + "\n@media (prefers-color-scheme: dark) {\n"
        + "\n".join(dark_lines)
        + "\n}"
    )


def _first_intervals(
    matrix: MatrixResult,
) -> list[tuple[str, str, WorkloadSchemeResult]]:
    """Cells that carry an interval series, in matrix order."""
    out = []
    for workload in matrix.workloads:
        for scheme in matrix.schemes:
            result = matrix.results.get((workload, scheme))
            if result is not None and result.intervals is not None \
                    and len(result.intervals):
                out.append((workload, scheme, result))
    return out


def render_html_report(
    matrix: MatrixResult,
    *,
    ledger_records: Sequence | None = None,
    title: str = "Re-NUCA result report",
) -> str:
    """Render the full single-file report; returns the HTML text."""
    slots = {scheme: i for i, scheme in enumerate(matrix.schemes)}
    chunks: list[str] = []
    generated = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime())
    sha = None
    if ledger_records:
        for record in reversed(list(ledger_records)):
            if record.git_sha:
                sha = record.git_sha
                break
    chunks.append(f"<h1>{_esc(title)}</h1>")
    failed_cells = matrix.failed_cells
    failed_schemes = {r.scheme for r in failed_cells}
    chunks.append(
        f'<p class="sub">matrix <b>{_esc(matrix.label)}</b> &#183; '
        f"{len(matrix.workloads)} workloads &#215; "
        f"{len(matrix.schemes)} schemes &#183; generated {generated} UTC"
        + (f" &#183; commit {_esc(sha[:12])}" if sha else "")
        + (
            f' &#183; <b class="bad">{len(failed_cells)} FAILED cells</b>'
            if failed_cells else ""
        )
        + "</p>"
    )

    # Quarantined cells first: a FAILED placeholder means every scheme
    # aggregate below it is partial, so the reader sees the caveat
    # before the numbers.
    if failed_cells:
        chunks.append(
            '<section class="card"><h2>Failed cells (quarantined)</h2>'
            '<p class="note">These cells are zeroed placeholders from a '
            "--keep-going sweep, not measurements; scheme aggregates "
            "involving them are suppressed below.</p>"
        )
        chunks.append(_table(
            ["workload", "scheme", "reason"],
            [(r.workload, r.scheme, r.failure_reason) for r in failed_cells],
        ))
        chunks.append("</section>")

    # Headline tiles.
    tiles = []
    for scheme in matrix.schemes:
        live = [
            matrix.get(wl, scheme) for wl in matrix.workloads
            if not matrix.get(wl, scheme).failed
        ]
        mean_ipc = sum(r.ipc for r in live) / len(live) if live else 0.0
        mean_energy = (
            sum(r.energy_mj for r in live) / len(live) if live else 0.0
        )
        if scheme in failed_schemes:
            life = "n/a (FAILED cells)"
        else:
            life = f"{matrix.raw_min_lifetime(scheme):.2f} y"
        tiles.append(
            '<div class="tile">'
            f'<div class="k">{_esc(scheme)}</div>'
            f'<div class="v">{mean_ipc:.2f}</div>'
            f'<div class="d">mean IPC &#183; raw min life '
            f"{life} &#183; energy {mean_energy:.2f} mJ</div></div>"
        )
    chunks.append(f'<div class="tiles">{"".join(tiles)}</div>')

    # Scheme comparison vs paper targets.
    chunks.append('<section class="card"><h2>Scheme comparison vs paper targets</h2>')
    baseline = "S-NUCA" if "S-NUCA" in matrix.schemes else matrix.schemes[0]
    others = [s for s in matrix.schemes if s != baseline]
    if others:
        rows = []
        suppressed = []
        for scheme in others:
            try:
                improvement = matrix.mean_ipc_improvement(scheme, baseline)
            except ReproError:
                # A FAILED cell in the scheme or the baseline zeroes an
                # IPC the ratio needs; the bar would be a lie.
                suppressed.append(scheme)
                continue
            rows.append((
                f"{scheme} IPC vs {baseline}", improvement, slots[scheme],
            ))
        if rows:
            chunks.append(_legend({s: slots[s] for s in others}))
            chunks.append(_hbar_chart(
                rows, label="Mean IPC improvement", unit="%",
            ))
            chunks.append(
                '<p class="note">Paper bar: Re-NUCA holds IPC within '
                "&#177;0.5 % of R-NUCA.</p>"
            )
        if suppressed:
            chunks.append(
                '<p class="note">IPC-improvement bars suppressed for '
                f"{_esc(', '.join(suppressed))}: FAILED cells in the "
                "comparison.</p>"
            )
    life_rows = [
        (scheme, matrix.raw_min_lifetime(scheme), slots[scheme])
        for scheme in matrix.schemes
        if scheme not in failed_schemes
    ]
    life_targets = []
    if "R-NUCA" in matrix.schemes and "R-NUCA" not in failed_schemes:
        life_targets.append(
            (1.42 * matrix.raw_min_lifetime("R-NUCA"), "+42% vs R-NUCA")
        )
    if life_rows:
        chunks.append(_hbar_chart(
            life_rows, label="Raw minimum lifetime", unit=" y",
            targets=life_targets,
        ))
    metric_rows = []
    for workload in matrix.workloads:
        for scheme in matrix.schemes:
            r = matrix.get(workload, scheme)
            if r.failed:
                metric_rows.append((
                    workload, scheme, "FAILED", "—", "—", "—",
                    r.failure_reason,
                ))
                continue
            metric_rows.append((
                workload, scheme, _fmt(r.ipc), _fmt(r.min_lifetime),
                _fmt(r.wear_cov, 3), _fmt(100 * r.llc_fetch_hit_rate, 1) + "%",
                _fmt(r.energy_mj),
            ))
    chunks.append("<details><summary>table view: all cells</summary>")
    chunks.append(_table(
        ["workload", "scheme", "IPC", "min life [y]", "wear CoV", "LLC hit",
         "energy [mJ]"],
        metric_rows,
    ))
    chunks.append("</details></section>")

    # Wear heatmaps over time.
    chunks.append('<section class="card"><h2>Wear heatmaps</h2>')
    with_intervals = _first_intervals(matrix)
    if with_intervals:
        shown = with_intervals[:MAX_HEATMAPS]
        for workload, scheme, result in shown:
            try:
                grid = result.intervals.bank_write_matrix().T
            except Exception:
                continue
            chunks.append(f"<h3>{_esc(workload)} / {_esc(scheme)}</h3>")
            chunks.append(_heatmap(
                grid.tolist(),
                label=f"bank writes over intervals, {workload}/{scheme}",
            ))
        if len(with_intervals) > len(shown):
            chunks.append(
                f'<p class="note">showing {len(shown)} of '
                f"{len(with_intervals)} cells with interval series.</p>"
            )
    else:
        chunks.append(
            '<p class="note">No interval series recorded (run with '
            "telemetry interval dumps for the over-time view); showing "
            "end-of-run totals.</p>"
        )
        for scheme in matrix.schemes:
            totals = [
                [float(matrix.get(wl, scheme).bank_writes[b])
                 for wl in matrix.workloads]
                for b in range(len(matrix.get(
                    matrix.workloads[0], scheme).bank_writes))
            ]
            chunks.append(f"<h3>{_esc(scheme)}</h3>")
            chunks.append(_heatmap(
                totals, col_name="workload",
                label=f"total bank writes per workload, {scheme}",
            ))
    chunks.append("</section>")

    # Interval timelines.
    chunks.append('<section class="card"><h2>Interval write timelines</h2>')
    if with_intervals:
        workload = with_intervals[0][0]
        lines: dict[str, list[float]] = {}
        for wl, scheme, result in with_intervals:
            if wl != workload or scheme in lines:
                continue
            try:
                lines[scheme] = [
                    float(v)
                    for v in result.intervals.bank_write_matrix().sum(axis=1)
                ]
            except Exception:
                continue
        chunks.append(_legend({s: slots.get(s, 0) for s in lines}))
        chunks.append(_timeline(
            lines, slots,
            label=f"LLC writes per interval, {workload}",
            y_label=f"{workload}: LLC writes",
        ))
    else:
        chunks.append('<p class="note">(needs interval series)</p>')
    chunks.append("</section>")

    # Phase timings (from the ledger).
    chunks.append('<section class="card"><h2>Phase timings</h2>')
    phase_totals: dict[str, float] = {}
    profiled = 0
    for record in ledger_records or ():
        if record.profile:
            profiled += 1
            for phase, seconds in record.profile.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
    if phase_totals:
        total = sum(phase_totals.values()) or 1.0
        chunks.append(_table(
            ["phase", "seconds", "share"],
            [
                (phase, _fmt(seconds, 3),
                 _fmt(100 * seconds / total, 1) + "%")
                for phase, seconds in sorted(phase_totals.items())
            ],
        ))
        chunks.append(
            f'<p class="note">aggregated over {profiled} profiled '
            "ledger runs.</p>"
        )
    else:
        chunks.append(
            '<p class="note">No profiled runs in the ledger '
            "(run with --profile --ledger).</p>"
        )
    chunks.append("</section>")

    # Ledger history.
    chunks.append('<section class="card"><h2>Run ledger history</h2>')
    records = list(ledger_records or ())
    if records:
        recent = records[-MAX_LEDGER_ROWS:]
        rows = []
        for record in reversed(recent):
            when = time.strftime(
                "%Y-%m-%d %H:%M", time.gmtime(record.timestamp)
            ) if record.timestamp else "-"
            rows.append((
                record.run_id, when,
                f"{record.workload}/{record.scheme}", record.source,
                _fmt(record.metrics.get("ipc", 0.0)),
                _fmt(record.metrics.get("min_lifetime", 0.0)),
                f"{record.wall_time_s:.2f}s",
                (record.git_sha or "untracked")[:10],
            ))
        chunks.append(_table(
            ["run", "when (UTC)", "cell", "source", "IPC",
             "min life [y]", "wall", "commit"],
            rows,
        ))
        if len(records) > len(recent):
            chunks.append(
                f'<p class="note">showing the most recent {len(recent)} '
                f"of {len(records)} ledger records.</p>"
            )
    else:
        chunks.append(
            '<p class="note">No ledger supplied (pass --ledger to include '
            "run history).</p>"
        )
    chunks.append("</section>")

    body = "\n".join(chunks)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}\n{_series_css()}</style>\n"
        "</head>\n<body>\n"
        f"{body}\n"
        "</body>\n</html>\n"
    )


# -- design-space search report ----------------------------------------------


def _point_tooltip(evaluation) -> str:
    knobs = ", ".join(
        f"{k}={v}" for k, v in sorted(evaluation.values.items())
        if not k.startswith("__")
    )
    metrics = ", ".join(
        f"{k}={v:.3g}" for k, v in sorted(evaluation.metrics.items())
    )
    head = "Re-NUCA default" if evaluation.reference else evaluation.scheme
    return f"{head}\n{knobs}\n{metrics}"


def render_search_report(
    outcome,
    *,
    title: str = "Re-NUCA design-space search",
) -> str:
    """Render a :class:`~repro.search.drivers.SearchOutcome` to HTML.

    Same zero-external-reference contract as :func:`render_html_report`.
    The centrepiece is the Pareto scatter over the paper's trade-off
    (IPC vs raw minimum lifetime): dominated points dimmed, frontier
    points full-color, the Re-NUCA default marked and labelled.
    """
    chunks: list[str] = []
    generated = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime())
    final = outcome.final_evaluations()
    front_ids = {e.point_id for e in outcome.frontier}
    chunks.append(f"<h1>{_esc(title)}</h1>")
    chunks.append(
        f'<p class="sub">driver <b>{_esc(outcome.driver)}</b> &#183; '
        f"{outcome.report.get('points', len(final))} points &#183; budgets "
        f"{_esc(' &#8594; '.join(str(b) for b in outcome.budget_schedule))} "
        f"instr &#183; objectives {_esc(', '.join(outcome.objectives))} "
        f"&#183; generated {generated} UTC</p>"
    )

    # Headline tiles: frontier size and hypervolume.
    chunks.append(
        '<div class="tiles">'
        '<div class="tile"><div class="k">Pareto frontier</div>'
        f'<div class="v">{len(outcome.frontier)}</div>'
        f'<div class="d">of {len(final)} full-budget points</div></div>'
        '<div class="tile"><div class="k">hypervolume</div>'
        f'<div class="v">{outcome.hypervolume:.4g}</div>'
        f'<div class="d">vs per-axis-worst reference</div></div>'
        '<div class="tile"><div class="k">evaluations</div>'
        f'<div class="v">{outcome.report.get("evals_total", 0)}</div>'
        f'<div class="d">{outcome.report.get("evals_resumed", 0)} resumed '
        f'&#183; {outcome.report.get("jobs_cache_hits", 0)} sim cache hits'
        "</div></div></div>"
    )

    # Pareto scatter on the paper's trade-off axes.
    chunks.append(
        '<section class="card"><h2>Pareto frontier: IPC vs lifetime</h2>'
    )
    points = []
    for e in final:
        if e.reference:
            cls = "pt-ref"
        elif e.point_id in front_ids:
            cls = "pt-front"
        else:
            cls = "pt-dim"
        points.append((
            float(e.metrics["ipc"]), float(e.metrics["lifetime"]),
            cls, _point_tooltip(e),
        ))
    chunks.append(_scatter_chart(
        points,
        label="search points, IPC vs raw minimum lifetime",
        x_label="mean IPC", y_label="min lifetime [y]",
    ))
    chunks.append(
        '<p class="note">full-color: non-dominated '
        f"({_esc(', '.join(outcome.objectives))}); faded: dominated; "
        "ringed orange: the paper's Re-NUCA default.</p>"
    )

    # Frontier table, frontier-first then dominated.
    rows = []
    for e in sorted(final, key=lambda e: (e.point_id not in front_ids, e.point_id)):
        knobs = ", ".join(
            f"{k.split('.')[-1]}={v}"
            for k, v in sorted(e.values.items()) if not k.startswith("__")
        )
        rows.append((
            e.point_id,
            ("&#9733; " if e.point_id in front_ids else "")
            + ("Re-NUCA default" if e.reference else e.scheme),
            knobs or "—",
            _fmt(e.metrics["ipc"]),
            _fmt(e.metrics["lifetime"]),
            _fmt(e.metrics["energy"], 4),
            _fmt(e.metrics["wear_cov"], 3),
        ))
    table = _table(
        ["point", "scheme", "knobs", "IPC", "min life [y]",
         "energy [mJ]", "wear CoV"],
        rows,
    )
    # The scheme cell carries a pre-escaped frontier star.
    chunks.append(table.replace("&amp;#9733;", "&#9733;"))
    chunks.append("</section>")

    # Rung trajectory and engine accounting.
    chunks.append('<section class="card"><h2>Search accounting</h2>')
    per_rung: dict[int, int] = {}
    for e in outcome.evaluations:
        per_rung[e.rung] = per_rung.get(e.rung, 0) + 1
    chunks.append(_table(
        ["rung", "budget [instr]", "points evaluated"],
        [
            (r, outcome.budget_schedule[r], n)
            for r, n in sorted(per_rung.items())
        ],
    ))
    chunks.append(_table(
        ["counter", "value"],
        sorted(outcome.report.items()),
    ))
    chunks.append("</section>")

    body = "\n".join(chunks)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}\n{_series_css()}</style>\n"
        "</head>\n<body>\n"
        f"{body}\n"
        "</body>\n</html>\n"
    )


# -- longitudinal history report ----------------------------------------------

#: Metric-trajectory sparkline tiles rendered at most.
MAX_TRAJECTORY_TILES = 24


def _when(timestamp: float | None) -> str:
    if not timestamp:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M", time.gmtime(timestamp))


def _anchored_ledger_table(records) -> str:
    """Ledger table whose rows carry ``id="run-<run_id>"`` anchors.

    The anchors are the targets of the frontier-overlay drill-down
    links, so every row a frontier point resolves to must be in here.
    """
    headers = ("run", "when (UTC)", "cell", "source", "IPC",
               "min life [y]", "wall", "commit", "fingerprint")
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = []
    for record in records:
        cells = (
            record.run_id,
            _when(record.timestamp),
            f"{record.workload}/{record.scheme}",
            record.source,
            _fmt(record.metrics.get("ipc", 0.0)),
            _fmt(record.metrics.get("min_lifetime", 0.0)),
            f"{record.wall_time_s:.2f}s",
            (record.git_sha or "untracked")[:10],
            (record.fingerprint or "-")[:12],
        )
        body.append(
            f'<tr id="run-{_esc(record.run_id)}">'
            + "".join(f"<td>{_esc(c)}</td>" for c in cells)
            + "</tr>"
        )
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def render_history_report(
    index,
    *,
    last: int = 5,
    rules=None,
    window: int = 3,
    sustain: int = 1,
    title: str = "Re-NUCA longitudinal history",
) -> str:
    """Render a :class:`~repro.obs.history.RunIndex` timeline to HTML.

    Same zero-external-reference contract as :func:`render_html_report`.
    Sections: provenance tiles, the frontier-evolution overlay (last
    ``last`` recorded search frontiers on the recency color ramp, every
    point whose fingerprints resolve through the index hyperlinked to
    its run-ledger row), hypervolume/frontier-size sparklines,
    per-scheme metric-trajectory sparklines, the sliding-window
    trajectory gate (same ``rules``/``window``/``sustain`` semantics as
    ``repro history check``) and the anchored run-index table.
    """
    from repro.obs.trajectory import (
        gate_trajectories,
        metric_trajectories,
        render_trajectory_findings,  # noqa: F401  (re-export convenience)
    )

    chunks: list[str] = []
    generated = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime())
    commits = index.commits()
    chunks.append(f"<h1>{_esc(title)}</h1>")
    chunks.append(
        f'<p class="sub">{len(index.records)} ledger runs &#183; '
        f"{len(index.bench_points)} bench points &#183; "
        f"{len(index.searches)} search outcomes &#183; "
        f"{len(commits)} commits &#183; generated {generated} UTC</p>"
    )
    if index.is_empty():
        chunks.append(
            '<p class="note">Nothing indexed — point the history layer '
            "at a directory holding run ledgers, BENCH_*.json files or "
            "saved search outcomes.</p>"
        )
        return _history_document(title, chunks)

    tiles = (
        ("ledger runs", str(len(index.records)),
         f"{len(index.sources)} files indexed"),
        ("bench points", str(len(index.bench_points)),
         "matrix / throughput / search flavours"),
        ("search outcomes", str(len(index.searches)),
         f"overlaying the last {min(last, len(index.searches))}"),
        ("commits", str(len(commits)),
         "untracked runs count as one" if None in commits
         else "all runs tracked"),
    )
    chunks.append('<div class="tiles">' + "".join(
        f'<div class="tile"><div class="k">{_esc(k)}</div>'
        f'<div class="v">{_esc(v)}</div>'
        f'<div class="d">{_esc(d)}</div></div>'
        for k, v, d in tiles
    ) + "</div>")

    # Frontier evolution: the last K search frontiers, oldest lightest.
    chunks.append('<section class="card"><h2>Frontier evolution</h2>')
    searches = index.searches_by_age()
    shown = searches[-last:] if last > 0 else searches
    linked_ids: set = set()
    if shown:
        overlay: list = []
        resolved = unresolved = 0
        chips = []
        for i, search in enumerate(shown):
            shade = 1 + round(i / (len(shown) - 1) * 6) if len(shown) > 1 \
                else 7
            chips.append(
                f'<span class="chip"><span class="swatch h{shade}"></span>'
                f"{_esc(search.label)}</span>"
            )
            for e in search.outcome.frontier:
                records = index.linked_records(e)
                if records:
                    resolved += 1
                    linked_ids.update(r.run_id for r in records)
                    runs = "runs: " + ", ".join(r.run_id for r in records)
                else:
                    unresolved += 1
                    runs = "(no matching ledger record indexed)"
                tooltip = f"{search.label}\n{_point_tooltip(e)}\n{runs}"
                overlay.append((
                    float(e.metrics["ipc"]),
                    float(e.metrics["lifetime"]),
                    f"h{shade}",
                    tooltip,
                    f"#run-{records[0].run_id}" if records else None,
                ))
        chunks.append(f'<div class="legend">{"".join(chips)}</div>')
        chunks.append(_scatter_chart(
            overlay,
            label=f"Pareto frontiers of the last {len(shown)} searches",
            x_label="mean IPC", y_label="min lifetime [y]",
        ))
        chunks.append(
            f'<p class="note">darker = more recent; {resolved} frontier '
            f"point(s) hyperlinked to their run-ledger records"
            + (
                f', <span class="bad">{unresolved} unresolved</span> '
                "(pre-linkage journal or ledger not indexed)"
                if unresolved else ""
            )
            + ".</p>"
        )
        hv = [s.outcome.hypervolume for s in searches]
        chunks.append(
            '<div class="tiles">'
            '<div class="tile"><div class="k">hypervolume</div>'
            + _sparkline(hv, label="hypervolume over searches", digits=4)
            + f'<div class="d">{len(hv)} searches</div></div>'
            '<div class="tile"><div class="k">frontier size</div>'
            + _sparkline(
                [len(s.outcome.frontier) for s in searches],
                label="frontier size over searches", digits=2,
            )
            + f'<div class="d">{len(hv)} searches</div></div></div>'
        )
        chunks.append("<details><summary>table view: searches</summary>")
        chunks.append(_table(
            ["when (UTC)", "commit", "driver", "points", "frontier",
             "hypervolume", "file"],
            [
                (
                    _when(s.created_at),
                    (s.git_sha or "untracked")[:10],
                    s.outcome.driver,
                    s.outcome.report.get("points", "-"),
                    len(s.outcome.frontier),
                    f"{s.outcome.hypervolume:.4g}",
                    s.path,
                )
                for s in reversed(shown)
            ],
        ))
        chunks.append("</details>")
    else:
        chunks.append(
            '<p class="note">No search outcomes indexed (save one with '
            "repro search --out, or record BENCH search points).</p>"
        )
    chunks.append("</section>")

    # Metric trajectories.
    chunks.append('<section class="card"><h2>Metric trajectories</h2>')
    series = metric_trajectories(index)
    if series:
        keys = sorted(series)
        shown_keys = keys[:MAX_TRAJECTORY_TILES]
        tiles_html = []
        for key in shown_keys:
            source, scheme, metric = key
            points = series[key]
            shas = {p.git_sha for p in points}
            tiles_html.append(
                '<div class="tile">'
                f'<div class="k">{_esc(scheme)} &#183; {_esc(metric)} '
                f"({_esc(source)})</div>"
                + _sparkline(
                    [p.value for p in points],
                    label=f"{scheme} {metric} ({source})",
                )
                + f'<div class="d">{len(points)} samples &#183; '
                f"{len(shas)} commit(s)</div></div>"
            )
        chunks.append(f'<div class="tiles">{"".join(tiles_html)}</div>')
        if len(keys) > len(shown_keys):
            chunks.append(
                f'<p class="note">showing {len(shown_keys)} of '
                f"{len(keys)} series.</p>"
            )
    else:
        chunks.append('<p class="note">(no trajectory series)</p>')
    chunks.append("</section>")

    # Trajectory gate.
    chunks.append(
        '<section class="card"><h2>Trajectory gate '
        f"(window {window}, sustain {sustain})</h2>"
    )
    findings = gate_trajectories(
        series, rules, window=window, sustain=sustain
    )
    gated = sum(1 for points in series.values() if len(points) >= 2)
    if findings:
        chunks.append(_table(
            ["source", "scheme", "metric", "first sha", "when (UTC)",
             "baseline", "current", "note"],
            [
                (
                    f.source, f.scheme, f.metric,
                    (f.git_sha or "untracked")[:10],
                    _when(f.timestamp),
                    f"{f.baseline:.4f}", f"{f.current:.4f}", f.note,
                )
                for f in findings
            ],
        ))
        chunks.append(
            f'<p class="note"><span class="bad">{len(findings)} sustained '
            f"drift finding(s)</span> across {gated} gated series.</p>"
        )
    else:
        chunks.append(
            f'<p class="note">{gated} series gated, no sustained '
            "drift.</p>"
        )
    chunks.append("</section>")

    # Run index (the drill-down targets).
    chunks.append('<section class="card"><h2>Run index</h2>')
    if index.records:
        recent_ids = {r.run_id for r in index.records[-MAX_LEDGER_ROWS:]}
        keep = recent_ids | linked_ids
        rows = [r for r in index.records if r.run_id in keep]
        chunks.append(_anchored_ledger_table(list(reversed(rows))))
        if len(rows) < len(index.records):
            chunks.append(
                f'<p class="note">showing {len(rows)} of '
                f"{len(index.records)} ledger records (most recent plus "
                "all frontier-linked).</p>"
            )
    else:
        chunks.append('<p class="note">No run ledgers indexed.</p>')
    chunks.append("</section>")

    # Sources and scan warnings.
    chunks.append('<section class="card"><h2>Indexed sources</h2>')
    chunks.append(_table(
        ["file"], [(source,) for source in index.sources]
    ))
    if index.warnings:
        chunks.append(
            '<p class="note bad">'
            + f"{len(index.warnings)} warning(s):</p>"
        )
        chunks.append(_table(
            ["warning"], [(w,) for w in index.warnings]
        ))
    chunks.append("</section>")

    return _history_document(title, chunks)


def _history_document(title: str, chunks: list[str]) -> str:
    body = "\n".join(chunks)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}\n{_series_css()}</style>\n"
        "</head>\n<body>\n"
        f"{body}\n"
        "</body>\n</html>\n"
    )
