"""``repro dash``: the run ledger and bench history as one HTML file.

:func:`build_dashboard` aggregates the two append-only stores this
repository keeps — the :mod:`repro.obs.ledger` run records and the
:mod:`repro.obs.regress` bench history — into a **self-contained** HTML
dashboard: inline CSS, inline SVG charts, a few lines of inline
filtering JS, zero external fetches.  The file can be attached to a bug
report or archived as a CI artifact (``make dash``) and will render
identically forever.

Sections, top to bottom:

* stat tiles — run counts, outcome split, the latest walkthrough
  speedup;
* the regression banner — the two most recent bench runs of each suite
  pushed through :func:`repro.obs.regress.diff_runs`; green when cycle
  counts are identical, red with the drifted fields when not;
* cycle-count and wall-clock trend charts per bench suite (inline SVG
  line charts: baseline list scheduler in blue, the paper's sync-aware
  scheduler in orange);
* the run table — every ledger record, filterable by command, outcome
  and free text;
* per-run detail blocks — deterministic metrics counters, quarantined
  failures, artifact paths, and any recorded ASCII timelines;
* the Fig. 4 walkthrough timelines (:func:`walkthrough_timelines`), so
  the dashboard always carries at least one synchronization timeline
  even when the ledger holds only sweep runs.

Charts follow the house dataviz rules: categorical hues in fixed order
(blue then orange), text in ink tokens never series color, one y-axis,
a legend whenever two series share a plot, hairline gridlines, dark
mode derived via CSS custom properties rather than inverted.
"""

from __future__ import annotations

import html as _html
import json
import time
from typing import Any, Iterable, Sequence

from repro.obs.ledger import RunRecord
from repro.obs.prof import Profile, flamegraph_svg
from repro.obs.regress import BenchRun, diff_runs

__all__ = ["build_dashboard", "build_live_dashboard", "walkthrough_timelines"]

# Categorical palette, fixed assignment: slot 1 (blue) is the baseline
# list scheduler, slot 2 (orange) is the paper's sync-aware scheduler.
# Status colors are reserved for the regression banner and never reused
# as series hues.
_SERIES_LIST = "var(--series-1)"
_SERIES_NEW = "var(--series-2)"

_CSS = """
:root {
  --bg: #fcfcfb; --panel: #ffffff; --ink: #1a1a19; --ink-2: #54524d;
  --ink-muted: #7c7a74; --grid: #e1e0d9; --border: #d8d6cf;
  --series-1: #2a78d6; --series-2: #eb6834;
  --good-bg: #e5f3e5; --good-ink: #0a6b0a; --good: #0ca30c;
  --bad-bg: #fbe7e7; --bad-ink: #8f2424; --bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --bg: #1a1a19; --panel: #242422; --ink: #ecebe6; --ink-2: #b3b1aa;
    --ink-muted: #8c8a83; --grid: #3a3936; --border: #44423e;
    --series-1: #5d9ce3; --series-2: #f08a5e;
    --good-bg: #16301b; --good-ink: #7fd28a; --good: #35b94c;
    --bad-bg: #3a1d1d; --bad-ink: #eb9a9a; --bad: #e06060;
  }
}
* { box-sizing: border-box; }
body { font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
       margin: 0; padding: 1.25rem 1.5rem 3rem; background: var(--bg);
       color: var(--ink); }
h1 { font-size: 1.25rem; margin: 0 0 0.2rem; }
h2 { font-size: 1rem; margin: 2rem 0 0.6rem; }
.sub { color: var(--ink-muted); font-size: 0.8rem; margin-bottom: 1.2rem; }
.tiles { display: flex; flex-wrap: wrap; gap: 0.75rem; }
.tile { background: var(--panel); border: 1px solid var(--border);
        border-radius: 8px; padding: 0.7rem 1rem; min-width: 9rem; }
.tile .v { font-size: 1.5rem; font-weight: 600; }
.tile .k { font-size: 0.72rem; color: var(--ink-muted);
           text-transform: uppercase; letter-spacing: 0.04em; }
.banner { border-radius: 8px; padding: 0.7rem 1rem; margin: 1rem 0;
          font-size: 0.9rem; border: 1px solid var(--border); }
.banner.good { background: var(--good-bg); color: var(--good-ink); }
.banner.bad { background: var(--bad-bg); color: var(--bad-ink); }
.banner .icon { font-weight: 700; margin-right: 0.4rem; }
.banner pre { margin: 0.5rem 0 0; font-size: 0.75rem; overflow-x: auto; }
.chart { background: var(--panel); border: 1px solid var(--border);
         border-radius: 8px; padding: 0.75rem; display: inline-block;
         margin: 0 0.75rem 0.75rem 0; vertical-align: top; }
.chart .t { font-size: 0.82rem; font-weight: 600; margin-bottom: 0.3rem; }
.legend { font-size: 0.75rem; color: var(--ink-2); margin-top: 0.25rem; }
.legend .swatch { display: inline-block; width: 0.7rem; height: 0.7rem;
                  border-radius: 3px; margin: 0 0.3rem 0 0.9rem;
                  vertical-align: -1px; }
.filters { display: flex; gap: 0.6rem; margin: 0.6rem 0; flex-wrap: wrap; }
.filters select, .filters input { background: var(--panel); color: var(--ink);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 0.3rem 0.5rem; font-size: 0.8rem; }
table.runs { border-collapse: collapse; font-size: 0.8rem; width: 100%;
             background: var(--panel); }
table.runs th, table.runs td { border: 1px solid var(--border);
  padding: 0.3rem 0.55rem; text-align: left; }
table.runs th { background: var(--bg); color: var(--ink-2);
  font-size: 0.72rem; text-transform: uppercase; letter-spacing: 0.04em; }
td.mono, .mono { font-family: ui-monospace, Menlo, Consolas, monospace; }
.outcome { padding: 0.05rem 0.45rem; border-radius: 9px; font-size: 0.72rem;
           border: 1px solid var(--border); white-space: nowrap; }
.outcome.ok { background: var(--good-bg); color: var(--good-ink); }
.outcome.notok { background: var(--bad-bg); color: var(--bad-ink); }
details { background: var(--panel); border: 1px solid var(--border);
          border-radius: 8px; padding: 0.4rem 0.8rem; margin: 0.4rem 0; }
details summary { cursor: pointer; font-size: 0.85rem; }
details pre { font-size: 0.72rem; overflow-x: auto; color: var(--ink-2); }
svg text { fill: var(--ink-2); }
.empty { color: var(--ink-muted); font-size: 0.85rem; }
""".strip()

# The run-table filter: three controls in one row above the table, each
# row tagged with data-* attributes the filter reads back.
_JS = """
function applyFilters() {
  const cmd = document.getElementById('f-command').value;
  const out = document.getElementById('f-outcome').value;
  const q = document.getElementById('f-text').value.toLowerCase();
  document.querySelectorAll('tr[data-run]').forEach(function (row) {
    const show = (cmd === 'all' || row.dataset.command === cmd)
      && (out === 'all' || row.dataset.outcome === out)
      && (!q || row.dataset.text.indexOf(q) !== -1);
    row.style.display = show ? '' : 'none';
  });
}
document.querySelectorAll('#f-command,#f-outcome').forEach(
  function (el) { el.addEventListener('change', applyFilters); });
document.getElementById('f-text').addEventListener('input', applyFilters);
""".strip()


def _esc(value: Any) -> str:
    return _html.escape(str(value))


# -- inline SVG line chart -----------------------------------------------------


def _line_chart(
    series: Sequence[tuple[str, str, Sequence[float]]],
    x_labels: Sequence[str],
    width: int = 420,
    height: int = 180,
    y_format: str = "{:g}",
) -> str:
    """A minimal inline-SVG line chart.

    ``series`` is ``(label, css_color, values)`` per line; all series
    share one y-axis (house rule: never a dual axis).  Points carry
    native ``<title>`` tooltips — the right interaction budget for a
    generated, dependency-free artifact.
    """
    pad_l, pad_r, pad_t, pad_b = 46, 10, 8, 22
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    points = max((len(values) for _, _, values in series), default=0)
    all_values = [v for _, _, values in series for v in values]
    if not all_values or points == 0:
        return '<svg width="120" height="40"><text x="4" y="24" font-size="11">no data</text></svg>'
    lo, hi = min(all_values), max(all_values)
    if lo == hi:  # flat series still deserves a visible band
        lo, hi = lo - 1, hi + 1
    span = hi - lo

    def x(i: int) -> float:
        return pad_l + (plot_w * i / max(points - 1, 1) if points > 1 else plot_w / 2)

    def y(v: float) -> float:
        return pad_t + plot_h * (1 - (v - lo) / span)

    parts = [
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg" role="img">'
    ]
    # hairline gridlines + y tick labels (4 divisions)
    for tick in range(5):
        v = lo + span * tick / 4
        ty = y(v)
        parts.append(
            f'<line x1="{pad_l}" y1="{ty:.1f}" x2="{width - pad_r}" y2="{ty:.1f}" '
            'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{pad_l - 6}" y="{ty + 3.5:.1f}" font-size="10" '
            f'text-anchor="end">{_esc(y_format.format(v))}</text>'
        )
    # x labels: first and last only (recessive axes; the tooltip has the rest)
    for i in (0, points - 1):
        if 0 <= i < len(x_labels):
            anchor = "start" if i == 0 else "end"
            parts.append(
                f'<text x="{x(i):.1f}" y="{height - 6}" font-size="10" '
                f'text-anchor="{anchor}">{_esc(x_labels[i])}</text>'
            )
    for label, color, values in series:
        if not values:
            continue
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{x(i):.1f},{y(v):.1f}"
            for i, v in enumerate(values)
        )
        parts.append(
            f'<path d="{path}" fill="none" stroke="{color}" stroke-width="2" '
            'stroke-linejoin="round"/>'
        )
        for i, v in enumerate(values):
            tip = x_labels[i] if i < len(x_labels) else f"#{i + 1}"
            parts.append(
                f'<circle cx="{x(i):.1f}" cy="{y(v):.1f}" r="4" fill="{color}">'
                f"<title>{_esc(label)} @ {_esc(tip)}: {_esc(y_format.format(v))}"
                "</title></circle>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _chart_panel(title: str, svg: str, legend: Sequence[tuple[str, str]]) -> str:
    swatches = "".join(
        f'<span class="swatch" style="background:{color}"></span>{_esc(label)}'
        for label, color in legend
    )
    legend_html = f'<div class="legend">{swatches}</div>' if len(legend) >= 2 else ""
    return f'<div class="chart"><div class="t">{_esc(title)}</div>{svg}{legend_html}</div>'


# -- sections ------------------------------------------------------------------


def _stat_tiles(runs: Sequence[RunRecord], bench_runs: Sequence[BenchRun]) -> str:
    ok = sum(1 for r in runs if r.ok)
    quarantined = sum(1 for r in runs if r.outcome == "quarantined")
    failed = len(runs) - ok - quarantined
    tiles = [
        (str(len(runs)), "ledger runs"),
        (str(ok), "ok"),
        (str(quarantined), "quarantined"),
        (str(failed), "failed"),
    ]
    latest_fig = next(
        (b for b in reversed(list(bench_runs)) if b.suite == "fig" and b.points), None
    )
    if latest_fig is not None:
        p = latest_fig.points[0]
        if p.t_new:
            tiles.append((f"{p.t_list / p.t_new:.2f}×", "latest fig speedup"))
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>'
        for v, k in tiles
    ) + "</div>"


def _regression_banner(bench_runs: Sequence[BenchRun]) -> str:
    """``bench diff`` verdicts for the two latest runs of each suite."""
    by_suite: dict[str, list[BenchRun]] = {}
    for run in bench_runs:
        by_suite.setdefault(run.suite, []).append(run)
    banners = []
    for suite in sorted(by_suite):
        history = by_suite[suite]
        if len(history) < 2:
            continue
        diff = diff_runs(history[-2], history[-1])
        if diff.cycle_drift:
            drifted = [
                f"{pd.name}: {key} {a} -> {b}"
                for pd in diff.point_diffs
                for key, (a, b) in sorted(pd.field_deltas.items())
            ]
            drifted += [f"{name}: missing from latest run" for name in diff.missing]
            drifted += [f"{name}: new point" for name in diff.added]
            banners.append(
                f'<div class="banner bad"><span class="icon">&#10007;</span>'
                f"<strong>REGRESSION</strong> &mdash; suite <code>{_esc(suite)}</code>: "
                f"cycle counts drifted between {_esc(history[-2].run_id)} and "
                f"{_esc(history[-1].run_id)}"
                f"<pre>{_esc(chr(10).join(drifted))}</pre></div>"
            )
        else:
            banners.append(
                f'<div class="banner good"><span class="icon">&#10003;</span>'
                f"<strong>OK</strong> &mdash; suite <code>{_esc(suite)}</code>: "
                f"cycle counts identical across the two latest runs "
                f"({len(diff.new.points)} point(s), "
                f"{_esc(history[-2].run_id)} vs {_esc(history[-1].run_id)})</div>"
            )
    if not banners:
        return (
            '<p class="empty">Fewer than two bench runs per suite &mdash; '
            "no regression verdict yet (run <code>repro bench record</code>).</p>"
        )
    return "".join(banners)


def _trend_charts(bench_runs: Sequence[BenchRun]) -> str:
    by_suite: dict[str, list[BenchRun]] = {}
    for run in bench_runs:
        by_suite.setdefault(run.suite, []).append(run)
    panels = []
    for suite in sorted(by_suite):
        history = by_suite[suite]
        labels = [f"{r.run_id[:6]} ({r.git_sha[:7]})" for r in history]
        t_list = [float(sum(p.t_list for p in r.points)) for r in history]
        t_new = [float(sum(p.t_new for p in r.points)) for r in history]
        panels.append(
            _chart_panel(
                f"suite {suite}: simulated cycles per run",
                _line_chart(
                    [("list scheduler", _SERIES_LIST, t_list),
                     ("sync-aware scheduler", _SERIES_NEW, t_new)],
                    labels,
                ),
                [("list scheduler", _SERIES_LIST),
                 ("sync-aware scheduler", _SERIES_NEW)],
            )
        )
        wall = [r.wall_s for r in history]
        panels.append(
            _chart_panel(
                f"suite {suite}: wall-clock per run (s)",
                _line_chart(
                    [("wall-clock", _SERIES_LIST, wall)], labels, y_format="{:.3f}"
                ),
                [("wall-clock", _SERIES_LIST)],
            )
        )
    if not panels:
        return '<p class="empty">No bench history found.</p>'
    return "".join(panels)


def _outcome_chip(outcome: str) -> str:
    cls = "ok" if outcome == "ok" else "notok"
    icon = "&#10003; " if outcome == "ok" else "&#10007; "
    return f'<span class="outcome {cls}">{icon}{_esc(outcome)}</span>'


def _run_table(runs: Sequence[RunRecord]) -> str:
    if not runs:
        return (
            '<p class="empty">The ledger is empty &mdash; record a run with '
            "<code>repro sweep --ledger .repro/ledger.jsonl</code>.</p>"
        )
    commands = sorted({r.command for r in runs})
    outcomes = sorted({r.outcome for r in runs})
    filters = (
        '<div class="filters">'
        '<select id="f-command"><option value="all">all commands</option>'
        + "".join(f'<option value="{_esc(c)}">{_esc(c)}</option>' for c in commands)
        + "</select>"
        '<select id="f-outcome"><option value="all">all outcomes</option>'
        + "".join(f'<option value="{_esc(o)}">{_esc(o)}</option>' for o in outcomes)
        + "</select>"
        '<input id="f-text" type="search" placeholder="filter: argv, hash, sha&hellip;">'
        "</div>"
    )
    rows = [
        "<tr><th>run</th><th>when</th><th>command</th><th>outcome</th>"
        "<th>wall</th><th>mode</th><th>options</th><th>git</th><th>argv</th></tr>"
    ]
    for record in reversed(list(runs)):  # newest first
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(record.timestamp))
        haystack = " ".join(
            [record.run_id, record.command, record.outcome, record.git_sha,
             record.options_hash or "", record.mode or "", *record.argv]
        ).lower()
        rows.append(
            f'<tr data-run="1" data-command="{_esc(record.command)}" '
            f'data-outcome="{_esc(record.outcome)}" data-text="{_esc(haystack)}">'
            f'<td class="mono"><a href="#run-{_esc(record.run_id)}">'
            f"{_esc(record.run_id)}</a></td>"
            f"<td>{_esc(when)}</td><td>{_esc(record.command)}</td>"
            f"<td>{_outcome_chip(record.outcome)}</td>"
            f"<td>{record.wall_s:.3f}s</td><td>{_esc(record.mode or '&mdash;') if record.mode else '&mdash;'}</td>"
            f'<td class="mono">{_esc(record.options_hash or "&mdash;") if record.options_hash else "&mdash;"}</td>'
            f'<td class="mono">{_esc(record.git_sha[:10])}</td>'
            f'<td class="mono">{_esc(" ".join(record.argv))}</td></tr>'
        )
    return filters + '<table class="runs">' + "".join(rows) + "</table>"


def _run_details(runs: Sequence[RunRecord]) -> str:
    blocks = []
    for record in reversed(list(runs)):
        body = []
        if record.error:
            body.append(f"<p><strong>error:</strong> {_esc(record.error)}</p>")
        if record.failures:
            items = "".join(
                f"<li>{_esc(f.get('kind'))} <code>{_esc(f.get('name'))}"
                f"[{_esc(f.get('index'))}]</code>: {_esc(f.get('error_type'))}: "
                f"{_esc(f.get('message'))}</li>"
                for f in record.failures
            )
            body.append(f"<p><strong>quarantined:</strong></p><ul>{items}</ul>")
        if record.artifacts:
            items = "".join(
                f"<li><code>{_esc(a)}</code></li>" for a in record.artifacts
            )
            body.append(f"<p><strong>artifacts:</strong></p><ul>{items}</ul>")
        deterministic = (record.metrics or {}).get("deterministic", {})
        counters = deterministic.get("counters", {})
        if counters:
            body.append(
                "<p><strong>deterministic counters:</strong></p><pre>"
                + _esc(json.dumps(counters, indent=1, sort_keys=True))
                + "</pre>"
            )
        for label in sorted(record.timelines):
            body.append(
                f"<p><strong>timeline &mdash; {_esc(label)}:</strong></p>"
                f"<pre>{_esc(record.timelines[label])}</pre>"
            )
        if not body:
            body.append('<p class="empty">no extra detail recorded</p>')
        blocks.append(
            f'<details id="run-{_esc(record.run_id)}">'
            f'<summary><span class="mono">{_esc(record.run_id)}</span> '
            f"&mdash; {_esc(record.command)} {_outcome_chip(record.outcome)} "
            f"({record.wall_s:.3f}s)</summary>{''.join(body)}</details>"
        )
    return "".join(blocks)


def walkthrough_timelines(n: int = 8) -> dict[str, str]:
    """The Fig. 4 walkthrough's timelines, generated fresh.

    Keys: ``"sync (list scheduler)"`` / ``"sync (sync-aware scheduler)"``
    (ASCII, :func:`repro.sched.sync_timeline`), ``"execution"`` (ASCII,
    :func:`repro.sched.execution_timeline` for the sync-aware schedule)
    and ``"execution_svg"`` (an inline ``<svg>`` fragment).  Imported at
    function level: ``obs`` must not pull the pipeline in at module
    import time.
    """
    from repro.obs.regress import _FIG1A_SOURCE
    from repro.options import EvalOptions
    from repro.pipeline import compile_loop, evaluate_loop
    from repro.sched import (
        execution_timeline,
        figure4_machine,
        sync_timeline,
        timeline_svg,
    )

    options = EvalOptions()
    compiled = compile_loop(_FIG1A_SOURCE, options)
    evaluation = evaluate_loop(compiled, figure4_machine(), n=100, options=options)
    return {
        "sync (list scheduler)": sync_timeline(evaluation.schedule_list),
        "sync (sync-aware scheduler)": sync_timeline(evaluation.schedule_new),
        "execution": execution_timeline(evaluation.schedule_new, n=n),
        "execution_svg": timeline_svg(evaluation.schedule_new, n=n),
    }


def _walkthrough_section(timelines: dict[str, str] | None) -> str:
    if not timelines:
        return ""
    parts = ['<h2>Fig. 4 walkthrough (generated at dashboard build time)</h2>']
    svg = timelines.get("execution_svg")
    if svg:
        parts.append(
            '<div class="chart"><div class="t">cross-iteration execution '
            "(sync-aware scheduler)</div>" + svg + "</div>"
        )
    for label in sorted(k for k in timelines if k != "execution_svg"):
        parts.append(
            f"<details open><summary>{_esc(label)}</summary>"
            f"<pre>{_esc(timelines[label])}</pre></details>"
        )
    return "".join(parts)


def _profile_section(profiles: Sequence[Profile]) -> str:
    """The latest recorded CPU profile as an inline flame graph, plus
    its stage attribution; empty string when no profile was recorded."""
    if not profiles:
        return ""
    latest = max(profiles, key=lambda p: p.timestamp)
    stage_rows = "".join(
        f'<tr><td>{_esc(stage)}</td><td class="mono">{count}</td>'
        f'<td class="mono">{100.0 * count / max(latest.samples, 1):.1f}%</td></tr>'
        for stage, count in sorted(
            latest.stages.items(), key=lambda item: -item[1]
        )
    )
    stage_table = (
        '<table class="runs"><tr><th>stage</th><th>samples</th><th>share</th>'
        "</tr>" + stage_rows + "</table>"
        if stage_rows
        else '<p class="empty">no stage attribution recorded</p>'
    )
    return (
        "<h2>CPU profile (latest recorded)</h2>"
        f'<p class="sub">profile <code>{_esc(latest.profile_id)}</code>'
        f" &middot; suite {_esc(latest.suite or '-')}"
        f" &middot; {latest.samples} sample(s) at {latest.hz:g} hz</p>"
        f'<div class="chart">{flamegraph_svg(latest)}</div>'
        "<h3>Stage attribution</h3>" + stage_table
    )


def build_dashboard(
    runs: Iterable[RunRecord],
    bench_runs: Iterable[BenchRun] = (),
    walkthrough: dict[str, str] | None = None,
    title: str = "repro dashboard",
    profiles: Sequence[Profile] = (),
) -> str:
    """Render the dashboard; returns the complete HTML document."""
    runs = list(runs)
    bench_runs = list(bench_runs)
    built = time.strftime("%Y-%m-%d %H:%M:%S")
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_CSS}</style></head>
<body>
<h1>{_esc(title)}</h1>
<p class="sub">built {_esc(built)} &middot; {len(runs)} ledger run(s) &middot;
{len(bench_runs)} bench run(s) &middot; self-contained: no external resources</p>
{_stat_tiles(runs, bench_runs)}
<h2>Regression gate</h2>
{_regression_banner(bench_runs)}
<h2>Bench trends</h2>
{_trend_charts(bench_runs)}
<h2>Run ledger</h2>
{_run_table(runs)}
<h2>Run details</h2>
{_run_details(runs) or '<p class="empty">no runs recorded</p>'}
{_profile_section(profiles)}
{_walkthrough_section(walkthrough)}
<script>{_JS}</script>
</body></html>
"""


# -- the live service dashboard (repro dash --live URL) -------------------------

# Client-side renderer: polls GET /v1/metrics (the server sends
# Access-Control-Allow-Origin so a file:// page may read it), repaints
# the tiles / histograms / flight table, and accumulates a rolling
# latency sparkline from successive polls.  Everything the script
# renders is also rendered server-side into the initial document, so
# the file is a faithful snapshot even with JS disabled (CI artifact).
_LIVE_JS = """
const HISTORY = {p50: [], p95: [], p99: []};
const MAX_POINTS = 120;

function fmtMs(s) { return (s * 1000).toFixed(2) + ' ms'; }

function setTile(id, value) {
  const el = document.getElementById(id);
  if (el) el.textContent = value;
}

function sparkline(values, width, height) {
  if (values.length < 2) return '';
  const hi = Math.max.apply(null, values) || 1;
  const pts = values.map(function (v, i) {
    const x = width * i / (values.length - 1);
    const y = height - 2 - (height - 4) * (v / hi);
    return x.toFixed(1) + ',' + y.toFixed(1);
  }).join(' ');
  return '<svg width="' + width + '" height="' + height + '">' +
    '<polyline points="' + pts + '" fill="none" ' +
    'stroke="var(--series-1)" stroke-width="1.5"/></svg>';
}

function histRows(dist) {
  if (!dist) return '<p class="empty">no samples yet</p>';
  const buckets = dist.buckets || {};
  const keys = Object.keys(buckets);
  const total = dist.count || 1;
  return '<table class="runs">' + keys.map(function (k) {
    const n = buckets[k];
    const pct = 100 * n / total;
    return '<tr><td class="mono">&le; ' + k + '</td>' +
      '<td style="width:60%"><div class="bar" style="width:' +
      pct.toFixed(1) + '%"></div></td><td class="mono">' + n + '</td></tr>';
  }).join('') + '</table>';
}

function flightRows(flight) {
  const recent = (flight && flight.recent) || [];
  if (!recent.length) return '<p class="empty">no requests retained yet</p>';
  let rows = '<tr><th>request</th><th>op</th><th>status</th><th>outcome</th>' +
    '<th>latency</th><th>coalesced</th><th>spans</th><th>error</th></tr>';
  recent.slice().reverse().forEach(function (t) {
    const cls = t.status < 400 ? 'ok' : 'notok';
    rows += '<tr><td class="mono"><a href="' + SOURCE + '/v1/trace/' +
      t.request_id + '">' + t.request_id + '</a></td>' +
      '<td>' + t.op + '</td>' +
      '<td><span class="outcome ' + cls + '">' + t.status + '</span></td>' +
      '<td>' + t.outcome + '</td><td class="mono">' + t.wall_ms + ' ms</td>' +
      '<td>' + t.coalesced + '</td><td>' + t.spans + '</td>' +
      '<td>' + (t.error || '&mdash;') + '</td></tr>';
  });
  return '<table class="runs">' + rows + '</table>';
}

function render(s) {
  const counters = (s.metrics && s.metrics.counters) || {};
  const dists = (s.metrics && s.metrics.distributions) || {};
  const gauges = (s.metrics && s.metrics.gauges) || {};
  const lat = s.latency || {};
  setTile('t-uptime', (s.uptime_s || 0).toFixed(0) + 's');
  setTile('t-requests', counters['service.request.count'] || 0);
  setTile('t-errors', counters['service.request.errors'] || 0);
  setTile('t-inflight', s.inflight || 0);
  const queue = gauges['service.queue.depth'];
  setTile('t-queue', queue ? queue.value : 0);
  setTile('t-shed', counters['service.request.shed'] || 0);
  const breaker = gauges['service.breaker.state'];
  setTile('t-breaker',
    ['closed', 'half-open', 'open'][breaker ? breaker.value : 0] || 'closed');
  setTile('t-p50', fmtMs(lat.p50 || 0));
  setTile('t-p95', fmtMs(lat.p95 || 0));
  setTile('t-p99', fmtMs(lat.p99 || 0));
  ['p50', 'p95', 'p99'].forEach(function (q) {
    HISTORY[q].push((lat[q] || 0) * 1000);
    if (HISTORY[q].length > MAX_POINTS) HISTORY[q].shift();
  });
  document.getElementById('spark-p95').innerHTML =
    sparkline(HISTORY.p95, 220, 36);
  document.getElementById('latency-hist').innerHTML =
    histRows(dists['service.request.latency']);
  document.getElementById('coalesce-hist').innerHTML =
    histRows(dists['service.batch.coalesce_window_occupancy']);
  document.getElementById('flight-table').innerHTML = flightRows(s.flight);
}

async function pollFlame() {
  try {
    const response = await fetch(SOURCE + '/v1/profile?format=svg');
    if (response.ok) {
      document.getElementById('flame').innerHTML = await response.text();
    }
  } catch (err) {
    /* profiling off or service unreachable: keep the static render */
  }
}

async function poll() {
  const status = document.getElementById('live-status');
  try {
    const response = await fetch(SOURCE + '/v1/metrics');
    render(await response.json());
    status.textContent = 'live \\u00b7 polling every ' +
      (REFRESH_MS / 1000) + 's';
    status.className = 'outcome ok';
    pollFlame();
  } catch (err) {
    status.textContent = 'offline: ' + err;
    status.className = 'outcome notok';
  }
}
poll();
setInterval(poll, REFRESH_MS);
""".strip()

_LIVE_CSS = """
.bar { background: var(--series-1); height: 0.8rem; border-radius: 2px;
       min-width: 1px; }
#live-status { margin-left: 0.5rem; }
""".strip()


def _live_hist_table(dist: dict[str, Any] | None) -> str:
    """Server-side render of one fixed-bucket distribution (the JS
    repaints the same structure on every poll)."""
    if not dist:
        return '<p class="empty">no samples yet</p>'
    buckets: dict[str, int] = dist.get("buckets", {})
    total = dist.get("count") or 1
    rows = []
    for key, count in buckets.items():
        pct = 100.0 * count / total
        rows.append(
            f'<tr><td class="mono">&le; {_esc(key)}</td>'
            f'<td style="width:60%"><div class="bar" '
            f'style="width:{pct:.1f}%"></div></td>'
            f'<td class="mono">{count}</td></tr>'
        )
    return '<table class="runs">' + "".join(rows) + "</table>"


def _live_flight_table(flight: dict[str, Any] | None) -> str:
    recent = (flight or {}).get("recent") or []
    if not recent:
        return '<p class="empty">no requests retained yet</p>'
    rows = [
        "<tr><th>request</th><th>op</th><th>status</th><th>outcome</th>"
        "<th>latency</th><th>coalesced</th><th>spans</th><th>error</th></tr>"
    ]
    for trace in reversed(recent):  # newest first
        cls = "ok" if trace.get("status", 0) < 400 else "notok"
        rows.append(
            f'<tr><td class="mono">{_esc(trace.get("request_id"))}</td>'
            f"<td>{_esc(trace.get('op'))}</td>"
            f'<td><span class="outcome {cls}">{_esc(trace.get("status"))}</span></td>'
            f"<td>{_esc(trace.get('outcome'))}</td>"
            f'<td class="mono">{_esc(trace.get("wall_ms"))} ms</td>'
            f"<td>{_esc(trace.get('coalesced'))}</td>"
            f"<td>{_esc(trace.get('spans'))}</td>"
            f"<td>{_esc(trace.get('error') or '&mdash;')}</td></tr>"
        )
    return '<table class="runs">' + "".join(rows) + "</table>"


def build_live_dashboard(
    snapshot: dict[str, Any],
    source: str = "",
    refresh_s: float = 2.0,
    title: str = "repro live service",
    profile_svg: str | None = None,
) -> str:
    """Render the live-service dashboard from one ``/v1/metrics`` snapshot.

    The document is a faithful static render of ``snapshot`` (so the
    file doubles as a point-in-time CI artifact), plus a polling script
    that repaints it from ``source + /v1/metrics`` every ``refresh_s``
    seconds and accumulates a p95 latency sparkline across polls.
    ``source`` is the service base URL (e.g. ``http://127.0.0.1:8757``);
    empty means same-origin.
    """
    counters = snapshot.get("metrics", {}).get("counters", {})
    dists = snapshot.get("metrics", {}).get("distributions", {})
    gauges = snapshot.get("metrics", {}).get("gauges", {})
    latency = snapshot.get("latency", {})
    queue = gauges.get("service.queue.depth", {}).get("value", 0)
    breaker_state = int(gauges.get("service.breaker.state", {}).get("value", 0))
    breaker_names = {0: "closed", 1: "half-open", 2: "open"}
    tiles = [
        ("t-uptime", f"{snapshot.get('uptime_s', 0):.0f}s", "uptime"),
        ("t-requests", str(counters.get("service.request.count", 0)), "workload requests"),
        ("t-errors", str(counters.get("service.request.errors", 0)), "errors"),
        ("t-inflight", str(snapshot.get("inflight", 0)), "in flight"),
        ("t-queue", str(queue), "queue depth"),
        ("t-shed", str(counters.get("service.request.shed", 0)), "shed (429)"),
        ("t-breaker", breaker_names.get(breaker_state, "closed"), "breaker"),
        ("t-p50", f"{latency.get('p50', 0.0) * 1000:.2f} ms", "latency p50"),
        ("t-p95", f"{latency.get('p95', 0.0) * 1000:.2f} ms", "latency p95"),
        ("t-p99", f"{latency.get('p99', 0.0) * 1000:.2f} ms", "latency p99"),
    ]
    tiles_html = '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="v" id="{tile_id}">{_esc(value)}</div>'
        f'<div class="k">{_esc(label)}</div></div>'
        for tile_id, value, label in tiles
    ) + "</div>"
    built = time.strftime("%Y-%m-%d %H:%M:%S")
    config = (
        f"const SOURCE = {json.dumps(source.rstrip('/'))};\n"
        f"const REFRESH_MS = {max(int(refresh_s * 1000), 250)};\n"
    )
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_CSS}
{_LIVE_CSS}</style></head>
<body>
<h1>{_esc(title)}
<span class="outcome" id="live-status">snapshot of {_esc(built)}</span></h1>
<p class="sub">source {_esc(source or "same origin")} &middot;
schema v{_esc(snapshot.get("schema_version", "?"))} &middot;
polls <code>/v1/metrics</code> every {refresh_s:g}s when served live</p>
{tiles_html}
<h2>Latency p95 over polls</h2>
<div class="chart" id="spark-p95"><span class="empty">collecting&hellip;</span></div>
<h2>Request latency distribution</h2>
<div id="latency-hist">{_live_hist_table(dists.get("service.request.latency"))}</div>
<h2>Coalesced group size</h2>
<div id="coalesce-hist">{_live_hist_table(dists.get("service.batch.coalesce_window_occupancy"))}</div>
<h2>Flight recorder (most recent requests)</h2>
<div id="flight-table">{_live_flight_table(snapshot.get("flight"))}</div>
<h2>CPU flame graph</h2>
<div class="chart" id="flame">{profile_svg if profile_svg else
    '<p class="empty">profiling off &mdash; start the service with '
    '<code>repro serve --profile-hz 97</code> to light this up</p>'}</div>
<script>{config}{_LIVE_JS}</script>
</body></html>
"""
