"""Self-contained HTML evaluation dashboard (``psi-eval report --html``).

One file, inline CSS and SVG only — no scripts, no external fonts,
images or stylesheets — so the artifact CI uploads renders anywhere,
forever, offline (under test: the parsed document must contain zero
external ``src=``/``href=`` references).  Sections:

* a fidelity **scorecard** — the overall score as the hero figure plus
  one stat tile per table (score, cells in band, status chip);
* per table, **paper-vs-measured bar pairs** for the worst-drifting
  cells, with the full cell set behind a table view;
* the **Figure 1 cache sweep** as a line chart with the paper's
  saturation capacity marked.

Charts follow fixed mark specs (thin bars with rounded data-ends, 2px
lines, hairline solid gridlines, 2px surface gaps/rings, a legend for
the two series, selective direct labels) and a colorblind-validated
palette declared once as CSS custom properties with a dark-mode
variant; every plotted value is also reachable through the table
views, so color and hover are never the only channel.

The palette, document skeleton and shared marks live in
:mod:`repro.eval.htmlbase` (also used by the time-travel debug
explorer, :mod:`repro.eval.debughtml`); this module keeps only the
dashboard-specific sections.  The extraction is behavior-preserving —
dashboard bytes are pinned by ``tests/eval/test_htmlbase.py``.
"""

from __future__ import annotations

from repro.eval.htmlbase import (
    BASE_CSS as _CSS,
    esc as _esc,
    fmt as _fmt,
    legend as _base_legend,
    page as _page,
    round_bar as _round_bar,
)


def _status(score: float) -> tuple[str, str, str]:
    """(css class, glyph, label) for a fidelity score — icon + label so
    the state never rides on color alone."""
    if score >= 80.0:
        return "good", "&#9679;", "in band"
    if score >= 50.0:
        return "warning", "&#9650;", "drifting"
    return "critical", "&#10007;", "off paper"


def _legend() -> str:
    return _base_legend((("measured", "var(--measured)"),
                         ("paper", "var(--paper)")))


def _table_section(table) -> str:
    """One fidelity table: paired bars for the worst cells + full table."""
    cells = sorted(table.cells, key=lambda c: -c.drift)
    shown = cells[:12]
    label_w, bar_w, row_h = 210, 380, 32
    height = len(shown) * row_h + 8
    peak = max((max(c.measured, c.paper) for c in shown), default=1.0)
    peak = peak or 1.0
    scale = bar_w / (peak * 1.08)
    parts = [f'<svg role="img" width="640" height="{height}" '
             f'viewBox="0 0 640 {height}" '
             f'aria-label="{_esc(table.name)} paper vs measured">']
    for i, cell in enumerate(shown):
        y = i * row_h + 6
        name = f"{cell.row} · {cell.col}"
        parts.append(f'<text x="{label_w - 8}" y="{y + 14}" '
                     f'text-anchor="end" font-size="12" '
                     f'fill="var(--ink-2)">{_esc(name)}</text>')
        # 2px surface gap between the pair: 10px bars, 2px apart.
        parts.append(_round_bar(label_w, y, cell.measured * scale, 10,
                                "var(--measured)",
                                f"{name} measured {cell.measured:g}"))
        parts.append(_round_bar(label_w, y + 12, cell.paper * scale, 10,
                                "var(--paper)",
                                f"{name} paper {cell.paper:g}"))
        tip = label_w + cell.measured * scale + 6
        parts.append(f'<text x="{tip:.1f}" y="{y + 9}" font-size="11" '
                     f'fill="var(--ink-2)">{_fmt(cell.measured)}</text>')
        parts.append(f'<line x1="{label_w}" y1="{y + 24}" x2="630" '
                     f'y2="{y + 24}" stroke="var(--grid)" '
                     f'stroke-width="1"/>' if i < len(shown) - 1 else "")
    parts.append(f'<line x1="{label_w}" y1="2" x2="{label_w}" '
                 f'y2="{height - 4}" stroke="var(--axis)" '
                 f'stroke-width="1"/>')
    parts.append("</svg>")

    note = (f"showing the {len(shown)} worst-drifting of "
            f"{len(cells)} cells" if len(cells) > len(shown)
            else f"all {len(cells)} cells, worst drift first")
    rows = "".join(
        f'<tr class="{"" if c.within else "out-of-band"}">'
        f"<td>{_esc(c.row)}</td><td>{_esc(c.col)}</td>"
        f"<td>{c.paper:g}</td><td>{c.measured:g}</td>"
        f"<td>{c.error:.3f}</td><td>{c.drift:.2f}</td>"
        f"<td>{'yes' if c.within else 'NO'}</td></tr>"
        for c in cells)
    status_class, glyph, label = _status(table.score)
    return (
        f'<div class="card"><h2 style="margin-top:0">{_esc(table.name)}'
        f' &mdash; score {table.score:.1f}'
        f' <span class="chip {status_class}">{glyph} {label}</span></h2>'
        f'<p class="sub">{table.kind} band, tolerance {table.tolerance:g};'
        f" {table.within}/{len(table.cells)} cells in band; {note}</p>"
        f"{_legend()}{''.join(parts)}"
        f"<details><summary>table view (every cell)</summary>"
        f'<table class="cells"><tr><th>row</th><th>col</th><th>paper</th>'
        f"<th>measured</th><th>error</th><th>drift</th><th>in band</th></tr>"
        f"{rows}</table></details></div>")


def _figure1_section(result, paper_saturation: int) -> str:
    points = result.points
    if not points:
        return ""
    width, height, pad_l, pad_b, pad_t = 640, 240, 56, 36, 14
    plot_w, plot_h = width - pad_l - 12, height - pad_b - pad_t
    peak = max(p.improvement_percent for p in points) or 1.0
    top = peak * 1.1
    step = plot_w / max(len(points) - 1, 1)

    def xy(i: int, value: float) -> tuple[float, float]:
        return pad_l + i * step, pad_t + plot_h * (1 - value / top)

    parts = [f'<svg role="img" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" '
             f'aria-label="Figure 1 cache sweep">']
    for frac in (0.25, 0.5, 0.75, 1.0):
        y = pad_t + plot_h * (1 - frac)
        parts.append(f'<line x1="{pad_l}" y1="{y:.1f}" '
                     f'x2="{width - 12}" y2="{y:.1f}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
        parts.append(f'<text x="{pad_l - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-size="11" '
                     f'fill="var(--muted)">{top * frac:.0f}</text>')
    for i, point in enumerate(points):
        x, _ = xy(i, 0)
        parts.append(f'<text x="{x:.1f}" y="{height - 18}" '
                     f'text-anchor="middle" font-size="11" '
                     f'fill="var(--muted)">{point.capacity_words}</text>')
        if point.capacity_words == paper_saturation:
            parts.append(f'<line x1="{x:.1f}" y1="{pad_t}" x2="{x:.1f}" '
                         f'y2="{pad_t + plot_h}" stroke="var(--axis)" '
                         f'stroke-width="1"/>')
            parts.append(f'<text x="{x + 4:.1f}" y="{pad_t + 12}" '
                         f'font-size="11" fill="var(--ink-2)">paper '
                         f"saturation</text>")
    coords = [xy(i, p.improvement_percent) for i, p in enumerate(points)]
    polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    parts.append(f'<polyline points="{polyline}" fill="none" '
                 f'stroke="var(--measured)" stroke-width="2" '
                 f'stroke-linejoin="round" stroke-linecap="round"/>')
    for (x, y), point in zip(coords, points):
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                     f'fill="var(--measured)" stroke="var(--surface-1)" '
                     f'stroke-width="2"><title>{point.capacity_words} words: '
                     f"{point.improvement_percent:.1f}% improvement, "
                     f"{point.hit_ratio:.1f}% hit ratio</title></circle>")
    x_end, y_end = coords[-1]
    parts.append(f'<text x="{x_end - 6:.1f}" y="{y_end - 10:.1f}" '
                 f'text-anchor="end" font-size="11" fill="var(--ink-2)">'
                 f"{points[-1].improvement_percent:.1f}%</text>")
    parts.append(f'<line x1="{pad_l}" y1="{pad_t + plot_h}" '
                 f'x2="{width - 12}" y2="{pad_t + plot_h}" '
                 f'stroke="var(--axis)" stroke-width="1"/>')
    parts.append(f'<text x="{width - 12}" y="{height - 2}" '
                 f'text-anchor="end" font-size="11" fill="var(--muted)">'
                 f"cache capacity (words)</text>")
    parts.append("</svg>")
    rows = "".join(
        f"<tr><td>{p.capacity_words}</td><td>{p.hit_ratio:.1f}</td>"
        f"<td>{p.improvement_percent:.1f}</td></tr>" for p in points)
    return (
        f'<div class="card"><h2 style="margin-top:0">Figure 1 &mdash; '
        f"improvement vs cache capacity (WINDOW)</h2>"
        f'<p class="sub">measured sweep; saturates at '
        f"~{result.saturation_capacity} words (paper: near "
        f"{paper_saturation})</p>{''.join(parts)}"
        f"<details><summary>table view</summary>"
        f'<table class="cells"><tr><th>capacity (words)</th>'
        f"<th>hit ratio %</th><th>improvement %</th></tr>{rows}</table>"
        f"</details></div>")


def build_dashboard(report, figure1_result=None,
                    generated: str | None = None) -> str:
    """Assemble the full dashboard document as one HTML string."""
    from repro.eval import paper_data

    tiles = []
    for table in report.tables:
        status_class, glyph, label = _status(table.score)
        tiles.append(
            f'<div class="tile"><div class="label">{_esc(table.name)}</div>'
            f'<div class="value">{table.score:.0f}</div>'
            f'<div class="detail">{table.within}/{len(table.cells)} cells '
            f"in band</div>"
            f'<div class="chip {status_class}">{glyph} {label}</div></div>')
    verdict_class, verdict_glyph, _ = _status(report.overall_score)
    verdict = ("PASS" if report.passed else "FAIL")
    sections = [
        f'<div class="card hero-row"><div class="hero">'
        f'<div class="label">overall fidelity score</div>'
        f'<div class="value">{report.overall_score:.1f}</div>'
        f'<div class="detail sub">{report.total_within}/{report.total_cells} '
        f"cells in band &middot; drift {report.overall_drift:.1f} vs "
        f"threshold {report.threshold:g} &middot; "
        f'<span class="chip {verdict_class}">{verdict_glyph} {verdict}'
        f"</span></div></div>"
        f'<div class="tiles">{"".join(tiles)}</div></div>']
    for table in report.tables:
        sections.append(_table_section(table))
    if figure1_result is not None:
        sections.append(_figure1_section(
            figure1_result, paper_data.FIGURE1_SATURATION_WORDS))
    stamp = f" &middot; generated {_esc(generated)}" if generated else ""
    body = (
        f"<h1>PSI reproduction &mdash; fidelity dashboard</h1>"
        f'<p class="sub">measured vs the paper\'s Tables 1&ndash;7 and '
        f"Figure 1; score = percent of published cells the reproduction "
        f"lands inside the tolerance band{stamp}</p>"
        f"{''.join(sections)}"
        f"<footer>self-contained artifact: inline CSS/SVG only, no "
        f"scripts, no external references.</footer>")
    return _page("PSI reproduction fidelity", body)
