"""Shared helpers for self-contained HTML artifacts.

Both HTML artifacts the harness emits — the fidelity dashboard
(:mod:`repro.eval.htmlreport`) and the time-travel debug explorer
(:mod:`repro.eval.debughtml`) — follow the same discipline: **one
file, inline CSS and SVG only** — no external fonts, images,
stylesheets or script sources — so the artifact CI uploads renders
anywhere, forever, offline.  The dashboard additionally forbids
scripts entirely; the explorer may carry *inline* ``<script>`` blocks
(scrubbing needs them) but still zero external references.  Both
properties are enforced by the test suites
(``tests/eval/test_htmlreport.py``, ``tests/eval/test_debug_html.py``).

This module holds the pieces both builders share so the palette,
typography and document skeleton stay in lockstep:

* :data:`BASE_CSS` — the page scaffolding and the colorblind-validated
  palette (light + dark variants) declared once as CSS custom
  properties;
* :func:`page` — the document skeleton (doctype, head, inline style,
  ``viz-root`` body wrapper);
* :func:`esc` / :func:`fmt` — HTML escaping and compact number
  rendering;
* :func:`round_bar` — the horizontal bar mark (square baseline,
  rounded data-end, native ``<title>`` tooltip);
* :func:`legend` — the series legend strip.

Extracted from :mod:`repro.eval.htmlreport` verbatim; the dashboard's
output is byte-identical to the pre-extraction builder (pinned by
``tests/eval/test_htmlbase.py``).
"""

from __future__ import annotations

import html as _html

#: Page scaffolding + palette.  Measured and paper series take
#: categorical slots 1 and 2 (the pair is CVD-validated in both
#: modes); status colors are the reserved palette and never reused for
#: series.  Declared once here so every artifact shares one system.
BASE_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --measured: #2a78d6; --paper: #eb6834;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
  max-width: 980px; margin: 0 auto;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --measured: #3987e5; --paper: #d95926;
  }
  :root:where(:not([data-theme="light"])) body { background: #0d0d0d; }
}
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 8px; }
.sub { color: var(--ink-2); font-size: 13px; margin: 0 0 16px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 12px 0;
}
.hero-row { display: flex; gap: 16px; align-items: stretch; flex-wrap: wrap; }
.hero { flex: 1 1 220px; }
.hero .value { font-size: 52px; font-weight: 600; line-height: 1.1; }
.hero .label, .tile .label {
  color: var(--ink-2); font-size: 13px; margin-bottom: 4px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; min-width: 120px;
}
.tile .value { font-size: 24px; font-weight: 600; }
.tile .detail { color: var(--muted); font-size: 12px; margin-top: 2px; }
.chip { font-size: 12px; margin-top: 6px; }
.chip.good    { color: var(--status-good); }
.chip.warning { color: var(--status-warning); }
.chip.serious { color: var(--status-serious); }
.chip.critical{ color: var(--status-critical); }
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--ink-2);
          margin: 4px 0 8px; }
.legend .key { display: inline-block; width: 10px; height: 10px;
               border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
details { margin-top: 8px; }
summary { color: var(--ink-2); font-size: 12px; cursor: pointer; }
table.cells { border-collapse: collapse; font-size: 12px; margin-top: 8px; }
table.cells th, table.cells td {
  padding: 3px 10px; text-align: right;
  font-variant-numeric: tabular-nums;
  border-bottom: 1px solid var(--grid);
}
table.cells th { color: var(--ink-2); font-weight: 600; }
table.cells td:first-child, table.cells th:first-child,
table.cells td:nth-child(2), table.cells th:nth-child(2) { text-align: left; }
.out-of-band td { color: var(--status-critical); }
svg text { font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
footer { color: var(--muted); font-size: 12px; margin-top: 24px; }
"""


def esc(value) -> str:
    """HTML-escape ``value`` (rendered via ``str``)."""
    return _html.escape(str(value))


def fmt(value: float) -> str:
    """Compact numeric label: ints bare, small floats 2dp, large 1dp."""
    if value == int(value) and abs(value) < 10000:
        return str(int(value))
    return f"{value:.2f}" if abs(value) < 10 else f"{value:.1f}"


def page(title: str, body: str, *, extra_css: str = "",
         script: str = "") -> str:
    """The self-contained document skeleton.

    ``body`` lands inside the ``viz-root`` wrapper; ``extra_css`` is
    appended after :data:`BASE_CSS` inside the single inline
    ``<style>`` block; ``script`` (explorer only — the dashboard must
    pass none) is embedded as one inline ``<script>`` before
    ``</body>``.  Nothing here may ever emit an external reference.
    """
    script_block = f"<script>{script}</script>" if script else ""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<title>{esc(title)}</title>"
        f"<style>{BASE_CSS}{extra_css}</style></head>"
        f'<body><div class="viz-root">'
        f"{body}"
        f"</div>{script_block}</body></html>\n")


def round_bar(x: float, y: float, width: float, height: float,
              fill: str, title: str) -> str:
    """Horizontal bar: square at the baseline (left), 3px rounded
    data-end (right); a <title> child is the native hover tooltip."""
    r = min(3.0, width / 2, height / 2)
    d = (f"M{x:.1f},{y:.1f} h{max(width - r, 0):.1f} "
         f"q{r:.1f},0 {r:.1f},{r:.1f} v{max(height - 2 * r, 0):.1f} "
         f"q0,{r:.1f} -{r:.1f},{r:.1f} h-{max(width - r, 0):.1f} z")
    return (f'<path d="{d}" fill="{fill}">'
            f'<title>{esc(title)}</title></path>')


def legend(entries) -> str:
    """Series legend: ``entries`` is ``[(label, css_color), ...]``."""
    keys = "".join(
        f'<span><span class="key" style="background:{color}">'
        f"</span>{esc(label)}</span>" for label, color in entries)
    return f'<div class="legend">{keys}</div>'
