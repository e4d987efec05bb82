"""The time-travel debug explorer: one self-contained HTML file.

``psi-eval debug <workload>`` renders a reconstructed run
(:class:`repro.obs.timetravel.TraceExplorer`) as a single HTML page
with **zero external references** — inline CSS, inline SVG, and (the
one liberty the dashboard does not take) one inline ``<script>`` block
for step scrubbing.  The page works scriptless too: every chart and
the final state panel are static server-rendered markup; the script
only animates the scrubber.

Page anatomy:

* hero tiles — microsteps, backtracks, cache hit ratio, peak
  choicepoint depth;
* cache timeline — misses per bucket (bars) under the running hit
  ratio (line);
* memory-pressure timeline — per-area top-of-area extents over time;
* choicepoint timeline — control depth with backtrack burst markers,
  each a scrubber jump target;
* the scrubber — a range input over the embedded checkpoint states
  (capped at :data:`MAX_SCRUB_STATES` so the page stays small), a
  register/area/cache state panel, and per-area memory heatmaps
  re-rendered per position;
* answer marks — each solution's emission microstep, jumpable.

``psi-eval debug --diff`` instead renders :func:`build_diff`: the two
engines' answer sequences side by side with the first divergence
highlighted and the reconstructed PSI state at the microstep where the
diverging answer was emitted.

Self-containment and script budget are enforced by
``tests/eval/test_debug_html.py``.
"""

from __future__ import annotations

import json

from repro.core.memory import AREA_REGISTERS, AREAS
from repro.eval.htmlbase import esc, fmt, legend, page
from repro.obs.timetravel import HEAT_BUCKET_WORDS, ReplayState, TraceExplorer

#: Upper bound on the number of checkpoint states embedded in the page
#: (the scrubber's positions).  Heat maps dominate the payload — one
#: dense per-area bucket array per position — so the cap, not the trace
#: length, bounds the artifact size.
MAX_SCRUB_STATES = 64

#: Categorical colors for the five areas (kept off the reserved status
#: palette; adjacent pairs differ in lightness as well as hue).
AREA_COLORS = ("#2a78d6", "#eb6834", "#7a5fd0", "#0f9d8f", "#c23f80")

_EXTRA_CSS = """
.scrub-row { display: flex; gap: 12px; align-items: center; }
.scrub-row input[type=range] { flex: 1; }
.scrub-step { font-variant-numeric: tabular-nums; min-width: 170px;
              text-align: right; color: var(--ink-2); font-size: 13px; }
table.state { border-collapse: collapse; font-size: 12px; width: 100%; }
table.state th, table.state td {
  padding: 3px 10px; text-align: right;
  font-variant-numeric: tabular-nums;
  border-bottom: 1px solid var(--grid);
}
table.state th { color: var(--ink-2); font-weight: 600; }
table.state td:first-child, table.state th:first-child { text-align: left; }
.heat-label { font-size: 12px; color: var(--ink-2); margin: 8px 0 2px; }
.heat-row { display: flex; height: 14px; border-radius: 3px;
            overflow: hidden; background: var(--grid); }
.heat-row span { flex: 1 1 0; min-width: 1px; }
.jump { display: inline-block; margin: 2px 6px 2px 0; padding: 2px 8px;
        font-size: 12px; border: 1px solid var(--border); border-radius: 10px;
        background: var(--surface-1); color: var(--ink); cursor: pointer; }
.jump:hover { border-color: var(--measured); }
.diff-row { display: flex; gap: 16px; flex-wrap: wrap; }
.diff-row .card { flex: 1 1 320px; margin: 0; }
.diverged { color: var(--status-critical); font-weight: 600; }
.answer-ok td { color: var(--ink-2); }
code { font-size: 12px; }
"""

_SCRIPT = """
'use strict';
var DATA = JSON.parse(document.getElementById('tt-data').textContent);
var scrub = document.getElementById('scrub');
var label = document.getElementById('scrub-step');

function cell(value) { return '<td>' + value + '</td>'; }

function renderState(s) {
  var rows = '';
  for (var i = 0; i < DATA.areas.length; i++) {
    var a = s.areas[i];
    rows += '<tr><td>' + DATA.areas[i] + '</td>'
      + cell(DATA.registers[i] + '=' + a.top) + cell(a.high)
      + cell(a.reads) + cell(a.writes) + cell(a.stack_writes)
      + cell(a.reclaims) + '</tr>';
  }
  document.getElementById('state-areas').innerHTML = rows;
  var extra = 'choicepoints ' + s.depth + ' · backtracks ' + s.backtracks;
  if (s.cache) {
    extra += ' · cache ' + s.cache.hits + ' hits / ' + s.cache.misses
      + ' misses (' + s.cache.ratio.toFixed(2) + '%) · '
      + s.cache.resident + ' resident blocks';
  }
  document.getElementById('state-extra').textContent = extra;
}

function renderHeat(s) {
  for (var i = 0; i < DATA.areas.length; i++) {
    var row = document.getElementById('heat-' + i);
    if (!row) continue;   // untouched area: no heat strip was rendered
    var heat = s.heat[i];
    var max = DATA.maxheat[i] || 1;
    var cells = row.children;
    for (var b = 0; b < cells.length; b++) {
      var v = heat[b] || 0;
      var alpha = v ? 0.15 + 0.85 * Math.log(1 + v) / Math.log(1 + max) : 0;
      cells[b].style.background = v
        ? 'rgba(42,120,214,' + alpha.toFixed(3) + ')' : 'transparent';
    }
  }
}

function show(i) {
  var s = DATA.states[i];
  label.textContent = 'microstep ' + s.step + ' / ' + DATA.entries;
  renderState(s);
  renderHeat(s);
}

function jumpTo(step) {
  var best = 0;
  for (var i = 0; i < DATA.states.length; i++) {
    if (Math.abs(DATA.states[i].step - step)
        < Math.abs(DATA.states[best].step - step)) best = i;
  }
  scrub.value = best;
  show(best);
  scrub.focus();
}

scrub.addEventListener('input', function () { show(+scrub.value); });
var jumps = document.querySelectorAll('[data-jump]');
for (var j = 0; j < jumps.length; j++) {
  jumps[j].addEventListener('click', function () {
    jumpTo(+this.getAttribute('data-jump'));
  });
}
show(DATA.states.length - 1);
scrub.value = DATA.states.length - 1;
"""


def _scrub_steps(explorer: TraceExplorer) -> list[int]:
    """The microsteps whose states the page embeds: checkpoint steps
    thinned to :data:`MAX_SCRUB_STATES`, always ending on the final."""
    steps = explorer.checkpoint_steps
    if len(steps) > MAX_SCRUB_STATES:
        stride = -(-len(steps) // MAX_SCRUB_STATES)
        steps = steps[::stride]
    if steps[-1] != explorer.n_steps:
        steps = [*steps, explorer.n_steps]
    return steps


def _heat_arrays(state: ReplayState, widths: list[int]) -> list[list[int]]:
    """Per-area dense heat-bucket arrays of the given widths."""
    rows = []
    for area in AREAS:
        heat = state.areas[area].heat
        rows.append([heat.get(b, 0) for b in range(widths[area])])
    return rows


def _state_payload(state: ReplayState) -> dict:
    payload = {
        "step": state.step,
        "depth": state.control_depth,
        "backtracks": state.backtracks,
        "areas": [{"top": a.top, "high": a.high_water, "reads": a.reads,
                   "writes": a.writes, "stack_writes": a.stack_writes,
                   "reclaims": a.reclaims}
                  for a in state.areas],
        "cache": None,
    }
    if state.cache is not None:
        stats = state.cache.stats
        payload["cache"] = {"hits": stats.hits, "misses": stats.misses,
                            "ratio": stats.hit_ratio,
                            "resident": state.cache.resident_blocks}
    return payload


def _embed_json(data: dict) -> str:
    """The data island: ``<`` escaped so no payload can close the tag."""
    return json.dumps(data, separators=(",", ":")).replace("<", "\\u003c")


def _polyline(points, width, height, pad, y_of, color, title) -> str:
    if len(points) < 2:
        return ""
    step = (width - 2 * pad) / (len(points) - 1)
    coords = " ".join(f"{pad + i * step:.1f},{y_of(v):.1f}"
                      for i, v in enumerate(points))
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" stroke-linejoin="round">'
            f"<title>{esc(title)}</title></polyline>")


def _timeline_cache_svg(explorer: TraceExplorer) -> str:
    """Misses per bucket (bars) under the running hit ratio (line)."""
    points = explorer.timeline
    if not points:
        return '<p class="sub">empty trace — no cache timeline</p>'
    width, height, pad = 940, 120, 8
    max_miss = max((p.misses for p in points), default=0) or 1
    bar_w = (width - 2 * pad) / len(points)
    bars = []
    hits = misses = 0
    ratios = []
    for i, p in enumerate(points):
        hits += p.hits
        misses += p.misses
        ratios.append(100.0 * hits / (hits + misses) if hits + misses else 100.0)
        if p.misses:
            h = (height - 2 * pad) * p.misses / max_miss
            bars.append(
                f'<rect x="{pad + i * bar_w:.1f}" y="{height - pad - h:.1f}" '
                f'width="{max(bar_w - 0.5, 0.5):.1f}" height="{h:.1f}" '
                f'fill="var(--paper)" opacity="0.8">'
                f"<title>steps ≤{p.step}: {p.misses} misses, "
                f"{p.hits} hits</title></rect>")

    def ratio_y(value: float) -> float:
        return pad + (height - 2 * pad) * (1 - value / 100.0)

    line = _polyline(ratios, width, height, pad, ratio_y, "var(--measured)",
                     "running cache hit ratio (%)")
    return (f'<svg role="img" width="100%" viewBox="0 0 {width} {height}" '
            f'aria-label="cache misses and hit ratio over microsteps">'
            f"{''.join(bars)}{line}</svg>")


def _timeline_areas_svg(explorer: TraceExplorer) -> str:
    """Per-area top-of-area extents over time (memory pressure)."""
    points = explorer.timeline
    if not points:
        return ""
    width, height, pad = 940, 120, 8
    max_top = max((max(p.area_tops) for p in points), default=0) or 1

    def top_y(value: int) -> float:
        return pad + (height - 2 * pad) * (1 - value / max_top)

    lines = []
    for area in AREAS:
        tops = [p.area_tops[area] for p in points]
        lines.append(_polyline(tops, width, height, pad, top_y,
                               AREA_COLORS[area],
                               f"{area.label} top (peak {max(tops)})"))
    return (f'<svg role="img" width="100%" viewBox="0 0 {width} {height}" '
            f'aria-label="per-area stack extents over microsteps">'
            f"{''.join(lines)}</svg>")


def _timeline_control_svg(explorer: TraceExplorer) -> str:
    """Choicepoint depth over time; backtrack bursts as markers."""
    points = explorer.timeline
    if not points:
        return ""
    width, height, pad = 940, 90, 8
    max_depth = max((p.control_depth for p in points), default=0) or 1

    def depth_y(value: int) -> float:
        return pad + (height - 2 * pad) * (1 - value / max_depth)

    line = _polyline([p.control_depth for p in points], width, height, pad,
                     depth_y, AREA_COLORS[3], "choicepoint depth")
    step_x = (width - 2 * pad) / max(len(points) - 1, 1)
    marks = "".join(
        f'<circle cx="{pad + i * step_x:.1f}" '
        f'cy="{depth_y(p.control_depth):.1f}" r="2.5" '
        f'fill="var(--status-serious)">'
        f"<title>{p.backtracks} backtrack(s) by step {p.step}</title>"
        f"</circle>"
        for i, p in enumerate(points) if p.backtracks)
    return (f'<svg role="img" width="100%" viewBox="0 0 {width} {height}" '
            f'aria-label="choicepoint depth and backtracks over microsteps">'
            f"{line}{marks}</svg>")


def _state_table(state: ReplayState) -> str:
    """Server-rendered state panel (scriptless view; JS rewrites tbody)."""
    rows = []
    for area in AREAS:
        a = state.areas[area]
        rows.append(
            f"<tr><td>{esc(area.label)}</td>"
            f"<td>{AREA_REGISTERS[area]}={a.top}</td><td>{a.high_water}</td>"
            f"<td>{a.reads}</td><td>{a.writes}</td><td>{a.stack_writes}</td>"
            f"<td>{a.reclaims}</td></tr>")
    extra = (f"choicepoints {state.control_depth} · "
             f"backtracks {state.backtracks}")
    if state.cache is not None:
        stats = state.cache.stats
        extra += (f" · cache {stats.hits} hits / {stats.misses} misses "
                  f"({stats.hit_ratio:.2f}%) · "
                  f"{state.cache.resident_blocks} resident blocks")
    return (
        '<table class="state"><thead><tr><th>area</th><th>top register</th>'
        "<th>high water</th><th>reads</th><th>writes</th><th>write-stacks</th>"
        "<th>reclaims</th></tr></thead>"
        f'<tbody id="state-areas">{"".join(rows)}</tbody></table>'
        f'<p class="sub" id="state-extra">{esc(extra)}</p>')


def _heat_rows(widths: list[int]) -> str:
    """Empty heat strips (one cell per bucket); JS paints them."""
    parts = []
    for area in AREAS:
        n = widths[area]
        if not n:
            continue
        parts.append(
            f'<div class="heat-label">{esc(area.label)} — '
            f"{n} × {HEAT_BUCKET_WORDS}-word buckets</div>"
            f'<div class="heat-row" id="heat-{int(area)}">'
            + "<span></span>" * n + "</div>")
    return "".join(parts)


def _hero(label: str, value: str, detail: str = "") -> str:
    detail_html = f'<div class="detail">{esc(detail)}</div>' if detail else ""
    return (f'<div class="tile"><div class="label">{esc(label)}</div>'
            f'<div class="value">{esc(value)}</div>{detail_html}</div>')


def build_explorer(name: str, run, explorer: TraceExplorer, *,
                   generated: str = "") -> str:
    """The full explorer page for one collected run."""
    final = explorer.final
    steps = _scrub_steps(explorer)
    states = [explorer.state_at(step) for step in steps[:-1]] + [final]
    widths = [-(-final.areas[area].high_water // HEAT_BUCKET_WORDS)
              for area in AREAS]
    payloads = []
    maxheat = [0] * len(AREAS)
    for state in states:
        payload = _state_payload(state)
        payload["heat"] = _heat_arrays(state, widths)
        for area in AREAS:
            if payload["heat"][area]:
                maxheat[area] = max(maxheat[area],
                                    max(payload["heat"][area]))
        payloads.append(payload)
    data = {
        "entries": explorer.n_steps,
        "areas": [area.label for area in AREAS],
        "registers": [AREA_REGISTERS[area] for area in AREAS],
        "maxheat": maxheat,
        "states": payloads,
    }

    cache_ratio = (f"{final.cache.stats.hit_ratio:.2f}%"
                   if final.cache is not None else "n/a")
    peak_depth = max((p.control_depth for p in explorer.timeline), default=0)
    # Clause-selection counters exist only on runs collected under
    # MachineConfig(indexed=True) (psi-eval debug --spec indexed); a
    # faithful run carries all-zero stats and gets no tile.
    index_stats = getattr(run, "index_stats", None) or {}
    index_tile = ""
    index_note = ""
    if any(index_stats.values()):
        hits = index_stats.get("index_hits", 0)
        misses = index_stats.get("index_misses", 0)
        avoided = index_stats.get("choicepoints_avoided", 0)
        index_tile = _hero("choicepoints avoided", fmt(avoided),
                           f"clause indexing: {fmt(hits)} hits / "
                           f"{fmt(misses)} misses")
        index_note = (
            f'<p class="sub">clause-indexed configuration — first-argument '
            f"selection answered {fmt(hits)} call(s) from the index "
            f"({fmt(misses)} full scans) and skipped choicepoint creation "
            f"{fmt(avoided)} time(s); the depth curve above is "
            "correspondingly narrower than the faithful replay.</p>")
    marks = getattr(run, "answer_marks", ()) or ()
    jump_answers = "".join(
        f'<button type="button" class="jump" data-jump="{mark}">'
        f"answer #{i + 1} @ {mark}</button>"
        for i, mark in enumerate(marks))
    backtrack_points = [p for p in explorer.timeline if p.backtracks]
    backtrack_points.sort(key=lambda p: -p.backtracks)
    jump_backtracks = "".join(
        f'<button type="button" class="jump" data-jump="{p.step}">'
        f"{p.backtracks} backtracks by {p.step}</button>"
        for p in sorted(backtrack_points[:12], key=lambda p: p.step))

    body = (
        f"<h1>PSI time-travel explorer — {esc(name)}</h1>"
        f'<p class="sub">goal <code>{esc(run.goal)}</code> · '
        f"{explorer.n_steps} memory microsteps · checkpoint stride "
        f"{explorer.stride} ({len(explorer.checkpoint_steps)} checkpoints, "
        f"{len(states)} embedded scrub positions)</p>"
        '<div class="tiles">'
        + _hero("microsteps", fmt(explorer.n_steps))
        + _hero("backtracks", fmt(final.backtracks),
                f"{final.areas[3].reclaimed_words} control words reclaimed")
        + _hero("cache hit ratio", cache_ratio,
                f"{final.cache.stats.misses} misses"
                if final.cache is not None else "")
        + _hero("peak choicepoints", fmt(peak_depth),
                f"{final.control_depth} live at end")
        + index_tile
        + "</div>"
        "<h2>Cache timeline</h2>"
        + legend((("misses per bucket", "var(--paper)"),
                  ("running hit ratio", "var(--measured)")))
        + f'<div class="card">{_timeline_cache_svg(explorer)}</div>'
        "<h2>Memory pressure</h2>"
        + legend(tuple((area.label, AREA_COLORS[area]) for area in AREAS))
        + f'<div class="card">{_timeline_areas_svg(explorer)}</div>'
        "<h2>Choicepoints and backtracking</h2>"
        + f'<div class="card">{_timeline_control_svg(explorer)}{index_note}'
          '</div>'
        + (f'<div class="card"><div class="heat-label">jump to a backtrack '
           f"burst</div>{jump_backtracks}</div>" if jump_backtracks else "")
        + "<h2>State scrubber</h2>"
        '<div class="card">'
        '<div class="scrub-row">'
        f'<input type="range" id="scrub" min="0" '
        f'max="{len(states) - 1}" value="{len(states) - 1}" step="1">'
        f'<span class="scrub-step" id="scrub-step">microstep '
        f"{explorer.n_steps} / {explorer.n_steps}</span></div>"
        + _state_table(final)
        + _heat_rows(widths)
        + "</div>"
        + (f"<h2>Answers</h2><div class='card'>{jump_answers}</div>"
           if jump_answers else "")
        + (f"<footer>generated {esc(generated)} · self-contained — "
           "inline CSS/SVG/script only</footer>" if generated else
           "<footer>self-contained — inline CSS/SVG/script only</footer>")
        + f'<script type="application/json" id="tt-data">'
          f"{_embed_json(data)}</script>"
    )
    return page(f"PSI debug — {name}", body, extra_css=_EXTRA_CSS,
                script=_SCRIPT)


def _answer_table(divergence, psi_rendered, other_rendered) -> str:
    rows = []
    count = max(len(psi_rendered), len(other_rendered))
    first = max(0, divergence.index - 3)
    for i in range(first, min(count, divergence.index + 4)):
        mine = psi_rendered[i] if i < len(psi_rendered) else "— exhausted —"
        theirs = (other_rendered[i] if i < len(other_rendered)
                  else "— exhausted —")
        css = ' class="diverged"' if i == divergence.index \
            else ' class="answer-ok"'
        rows.append(f"<tr{css}><td>#{i + 1}</td><td>{esc(mine)}</td>"
                    f"<td>{esc(theirs)}</td></tr>")
    if first:
        rows.insert(0, f'<tr class="answer-ok"><td colspan="3">… {first} '
                       "matching answer(s) elided …</td></tr>")
    return ('<table class="state"><thead><tr><th>answer</th><th>PSI</th>'
            f"<th>{esc(divergence.other_label)}</th></tr></thead><tbody>"
            + "".join(rows) + "</tbody></table>")


def build_diff(name: str, divergence, psi_run, other_answers,
               explorer: TraceExplorer, *, generated: str = "") -> str:
    """Side-by-side first-divergence page (``psi-eval debug --diff``)."""
    from repro.engine.answers import render_answer

    psi_rendered = [render_answer(a) for a in psi_run.answers]
    other_rendered = [render_answer(a) for a in other_answers]

    if divergence is None:
        verdict = (f'<div class="card"><p class="sub">the engines agree: '
                   f"{len(psi_rendered)} answer(s), identical order and "
                   "content — nothing to bisect</p></div>")
        state_panel = ""
    else:
        step = min(divergence.microstep, explorer.n_steps)
        state = explorer.state_at(step)
        verdict = (
            f'<div class="card"><p class="diverged">{esc(divergence.describe())}'
            "</p>" + _answer_table(divergence, psi_rendered, other_rendered)
            + "</div>")
        state_panel = (
            f"<h2>PSI state at the diverging microstep ({step})</h2>"
            f'<div class="card">{_state_table(state)}</div>')

    body = (
        f"<h1>First-divergence report — {esc(name)}</h1>"
        f'<p class="sub">goal <code>{esc(psi_run.goal)}</code> · '
        f"PSI {len(psi_rendered)} answer(s) over {explorer.n_steps} "
        f"microsteps · {esc('baseline' if divergence is None else divergence.other_label)} "
        f"{len(other_rendered)} answer(s)</p>"
        + verdict + state_panel
        + (f"<footer>generated {esc(generated)} · self-contained — "
           "inline CSS/SVG only</footer>" if generated else
           "<footer>self-contained — inline CSS/SVG only</footer>"))
    return page(f"PSI diff — {name}", body, extra_css=_EXTRA_CSS)
