"""Schedule visualizations: Gantt occupancy, sync timelines, HTML export.

Three complementary views of a :class:`repro.sched.Schedule`:

* :func:`gantt` — one row per function-unit instance; multi-cycle
  operations stretch across their latency, and an idle unit is visibly
  idle.
* :func:`sync_timeline` — the Fig. 4a/4b view: one row per issue cycle
  with the bundle and one column per synchronization pair marking the
  Wait (``W``), the Send (``S``) and the span between them (``|``) —
  the stretch the paper's scheduler exists to shrink.
* :func:`execution_timeline` — the cross-iteration DOACROSS view: one
  row per iteration on its own processor, with stall cycles (``~``)
  where a Wait blocks until the producer iteration's Send becomes
  visible.  Uses a local event walk (same model as
  :mod:`repro.sim.multiproc`, kept here so ``sched`` stays independent
  of ``sim``).
* :func:`timeline_html` — both views in one self-contained HTML
  document (inline CSS + SVG, no external resources) for sharing.

Example (Fig. 1 loop on the 4-issue paper machine)::

    cycle        1    5    10   15
    load/store   .335668...
    integer      122..........
    multiplier   ....77777....
    ...
"""

from __future__ import annotations

import html as _html

from repro.sched.schedule import Schedule


def gantt(schedule: Schedule, width: int | None = None) -> str:
    """Render the occupancy chart.

    Cells show the last digit of the occupying instruction id (``#`` for a
    collision, which a valid schedule never has); ``.`` is idle.  ``width``
    truncates long schedules for display.
    """
    machine = schedule.machine
    unit_of = schedule.lowered.units(machine)
    length = schedule.length if width is None else min(schedule.length, width)

    # rows per unit instance
    rows: dict[str, list[list[str]]] = {
        unit.name: [["."] * length for _ in range(unit.count)] for unit in machine.units
    }
    # greedy instance packing per unit, in issue order (matches the
    # interval-count admission rule of ResourceTable)
    instance_free: dict[str, list[int]] = {
        unit.name: [1] * unit.count for unit in machine.units
    }
    for iid, cycle in sorted(schedule.cycle_of.items(), key=lambda kv: (kv[1], kv[0])):
        unit = unit_of[iid]
        busy = 1 if unit.pipelined else unit.latency
        frees = instance_free[unit.name]
        instance = 0
        for i in range(unit.count):
            if frees[i] <= cycle:
                instance = i
                break
        frees[instance] = cycle + busy
        for c in range(cycle, min(cycle + busy, length + 1)):
            if c <= length:
                cell = rows[unit.name][instance][c - 1]
                rows[unit.name][instance][c - 1] = "#" if cell != "." else str(iid % 10)

    label_width = max(len(u.name) for u in machine.units) + 3
    ruler = " " * label_width + "".join(
        "|" if (c % 5 == 0 or c == 1) else " " for c in range(1, length + 1)
    )
    lines = [ruler]
    for unit in machine.units:
        for instance, cells in enumerate(rows[unit.name]):
            label = unit.name if unit.count == 1 else f"{unit.name}[{instance}]"
            lines.append(f"{label:<{label_width}}" + "".join(cells))
    return "\n".join(lines)


# -- synchronization-pair timeline (the Fig. 4a/4b view) ------------------------


def sync_timeline(schedule: Schedule) -> str:
    """Bundle table with one marker column per synchronization pair.

    Each row is an issue cycle with its bundle (as in
    :meth:`Schedule.format`); each pair column marks the Wait (``W``),
    the Send (``S``) and fills the cycles in between with ``|`` when the
    span is positive — the region whose height is the paper's ``i-j+1``
    per-hop penalty.  A column where ``S`` sits *above* ``W`` is the
    run-time LFD placement: that pair never stalls.
    """
    lowered = schedule.lowered
    pairs = lowered.synced.pairs
    width = schedule.machine.issue_width
    bundles = schedule.bundles()
    bundle_text = [
        f"({', '.join([str(i) for i in bundle] + ['-'] * (width - len(bundle)))})"
        for bundle in bundles
    ]
    bundle_width = max((len(t) for t in bundle_text), default=0)

    header = f"{'cycle':<5} {'bundle':<{bundle_width}}"
    for pair in pairs:
        header += f"  P{pair.pair_id}"
    lines = [header]
    for cycle, text in enumerate(bundle_text, start=1):
        row = f"c{cycle:<4} {text:<{bundle_width}}"
        for pair in pairs:
            wait, send = schedule.wait_cycle(pair.pair_id), schedule.send_cycle(pair.pair_id)
            if cycle == wait and cycle == send:
                mark = "X"  # degenerate: same bundle
            elif cycle == wait:
                mark = "W"
            elif cycle == send:
                mark = "S"
            elif wait < cycle < send:
                mark = "|"
            else:
                mark = "."
            row += f"  {mark} "
        lines.append(row.rstrip())
    for pair in pairs:
        span = schedule.span(pair.pair_id)
        wait, send = schedule.wait_cycle(pair.pair_id), schedule.send_cycle(pair.pair_id)
        kind = f"span {span}" if span > 0 else f"span {span} (run-time LFD, never stalls)"
        lines.append(f"P{pair.pair_id}: W@c{wait} -> S@c{send}, d={pair.distance}, {kind}")
    return "\n".join(lines)


# -- cross-iteration execution timeline ----------------------------------------


def _iteration_walk(
    schedule: Schedule, n: int, signal_latency: int
) -> list[tuple[list[int], list[int], int]]:
    """Per-iteration ``(wait_cycles, cumulative_stall, finish)`` under the
    one-iteration-per-processor DOACROSS model — the same event walk as
    :func:`repro.sim.multiproc.simulate_doacross`, duplicated locally so
    the renderer does not pull ``sim`` into the ``sched`` layer."""
    import bisect

    lowered = schedule.lowered
    length = schedule.length
    waits = sorted(
        (
            schedule.wait_cycle(pair.pair_id),
            pair.distance,
            schedule.send_cycle(pair.pair_id),
            pair.pair_id,
        )
        for pair in lowered.synced.pairs
    )
    out: list[tuple[list[int], list[int], int]] = []

    def abs_cycle(iteration: int, cycle: int) -> int:
        wait_cycles, cumulative, _ = out[iteration - 1]
        pos = bisect.bisect_right(wait_cycles, cycle)
        return cycle + (cumulative[pos - 1] if pos else 0)

    for k in range(1, n + 1):
        stall = 0
        wait_cycles: list[int] = []
        cumulative: list[int] = []
        for wait_cycle, distance, send_cycle, _pair_id in waits:
            producer = k - distance
            if producer >= 1:
                needed = abs_cycle(producer, send_cycle) + signal_latency
                if needed > wait_cycle + stall:
                    stall = needed - wait_cycle
            wait_cycles.append(wait_cycle)
            cumulative.append(stall)
        out.append((wait_cycles, cumulative, length + stall))
    return out


def execution_timeline(
    schedule: Schedule, n: int = 6, signal_latency: int = 1
) -> str:
    """Cross-iteration view: one row per iteration (own processor).

    ``=`` is an executing cycle, ``~`` a stall cycle spent blocked at a
    Wait, ``W``/``S`` the issue cycles of the synchronization operations
    (lower-case when several coincide).  The staircase of ``~`` runs is
    the compounding LBD penalty — each iteration inherits its producer's
    delay and adds the wait→send span on top.
    """
    import bisect

    lowered = schedule.lowered
    length = schedule.length
    walk = _iteration_walk(schedule, n, signal_latency)
    wait_c = {p.pair_id: schedule.wait_cycle(p.pair_id) for p in lowered.synced.pairs}
    send_c = {p.pair_id: schedule.send_cycle(p.pair_id) for p in lowered.synced.pairs}
    total_width = max((finish for _, _, finish in walk), default=0)

    lines = [f"iteration rows, absolute cycles 1..{total_width} "
             f"(= execute, ~ stall, W wait, S send)"]
    for k, (wait_cycles, cumulative, finish) in enumerate(walk, start=1):
        row = [" "] * total_width

        def stall_at(cycle: int) -> int:
            pos = bisect.bisect_right(wait_cycles, cycle)
            return cumulative[pos - 1] if pos else 0

        for c in range(1, length + 1):
            row[c + stall_at(c) - 1] = "="
        # stall gaps sit immediately before their wait's issue position
        prev = 0
        for w, cum in zip(wait_cycles, cumulative):
            delta = cum - prev
            if delta > 0:
                for pos in range(w + prev, w + cum):
                    row[pos - 1] = "~"
            prev = cum
        for pid, c in wait_c.items():
            pos = c + stall_at(c) - 1
            row[pos] = "W" if row[pos] in "=~" else "w"
        for pid, c in send_c.items():
            pos = c + stall_at(c) - 1
            row[pos] = "S" if row[pos] in "=~" else "s"
        lines.append(f"iter {k:<3} |{''.join(row)}|  finish c{finish}")
    lines.append(
        f"parallel time T = {max((f for *_, f in walk), default=0)} "
        f"for n={n} (l = {length}, signal latency {signal_latency})"
    )
    return "\n".join(lines)


# -- self-contained HTML export ------------------------------------------------

_HTML_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1.5rem;
       background: #fcfcfc; color: #1a1a1a; }
h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin-top: 1.5rem; }
table { border-collapse: collapse; font-size: 0.8rem; }
td, th { border: 1px solid #ccc; padding: 0.15rem 0.45rem; text-align: left; }
th { background: #eee; }
td.sync { background: #fde9c8; font-weight: bold; }
td.wait { background: #f8d0d0; font-weight: bold; }
td.send { background: #cfe8cf; font-weight: bold; }
td.span { background: #f3e6f8; text-align: center; }
td.idle { color: #bbb; }
.legend { font-size: 0.78rem; color: #555; margin: 0.4rem 0 1rem; }
svg { background: #fff; border: 1px solid #ddd; margin-top: 0.5rem; }
""".strip()


def timeline_svg(
    schedule: Schedule,
    n: int = 8,
    signal_latency: int = 1,
) -> str:
    """The cross-iteration execution view as a bare ``<svg>`` fragment.

    One row per iteration on its own processor: blue execution segments,
    amber stall gaps, red/green Wait/Send ticks, and a dashed arrow from
    each Wait back to the producer iteration's Send.  Embeddable as-is —
    :func:`timeline_html` wraps it with the bundle table, and
    :mod:`repro.obs.dash` inlines it per run in the dashboard.
    """
    pairs = schedule.lowered.synced.pairs
    walk = _iteration_walk(schedule, n, signal_latency)
    length = schedule.length
    total = max((finish for *_, finish in walk), default=1)
    scale, row_h, left = (max(4, min(18, 900 // max(total, 1))), 26, 70)
    svg_w, svg_h = left + total * scale + 20, n * row_h + 40
    parts = [
        f'<svg width="{svg_w}" height="{svg_h}" viewBox="0 0 {svg_w} {svg_h}" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    import bisect as _bisect

    def abs_pos(iteration: int, cycle: int) -> int:
        wait_cycles, cumulative, _ = walk[iteration - 1]
        pos = _bisect.bisect_right(wait_cycles, cycle)
        return cycle + (cumulative[pos - 1] if pos else 0)

    for k, (wait_cycles, cumulative, finish) in enumerate(walk, start=1):
        y = 20 + (k - 1) * row_h
        parts.append(
            f'<text x="4" y="{y + 14}" font-size="11" '
            f'font-family="monospace">iter {k}</text>'
        )
        # execution segments between stall gaps
        prev_cum = 0
        seg_start = 1
        for w, cum in zip(wait_cycles + [length + 1], list(cumulative) + [None]):
            cum_here = prev_cum if cum is None else cum
            if cum is not None and cum > prev_cum:
                # segment before the gap, then the amber stall block
                x0 = left + (seg_start + prev_cum - 1) * scale
                x1 = left + (w + prev_cum - 1) * scale
                if x1 > x0:
                    parts.append(
                        f'<rect x="{x0}" y="{y}" width="{x1 - x0}" '
                        f'height="18" fill="#9ecae1"/>'
                    )
                gx1 = left + (w + cum - 1) * scale
                parts.append(
                    f'<rect x="{x1}" y="{y}" width="{gx1 - x1}" height="18" '
                    f'fill="#fdd49e"><title>iter {k} stalls {cum - prev_cum} '
                    f"cycle(s) at wait c{w}</title></rect>"
                )
                seg_start = w
                prev_cum = cum
        x0 = left + (seg_start + prev_cum - 1) * scale
        x1 = left + (length + prev_cum) * scale
        if x1 > x0:
            parts.append(
                f'<rect x="{x0}" y="{y}" width="{x1 - x0}" height="18" '
                f'fill="#9ecae1"/>'
            )
        # wait/send ticks + producer arrows
        for pair in pairs:
            wc, sc = schedule.wait_cycle(pair.pair_id), schedule.send_cycle(pair.pair_id)
            wx = left + (abs_pos(k, wc) - 1) * scale
            sx = left + (abs_pos(k, sc) - 1) * scale
            parts.append(
                f'<rect x="{wx}" y="{y}" width="{max(scale, 2)}" height="18" '
                f'fill="#de2d26"><title>W P{pair.pair_id} iter {k}</title></rect>'
            )
            parts.append(
                f'<rect x="{sx}" y="{y}" width="{max(scale, 2)}" height="18" '
                f'fill="#31a354"><title>S P{pair.pair_id} iter {k}</title></rect>'
            )
            producer = k - pair.distance
            if producer >= 1:
                px = left + (abs_pos(producer, sc) - 1) * scale
                py = 20 + (producer - 1) * row_h + 18
                parts.append(
                    f'<line x1="{px}" y1="{py}" x2="{wx}" y2="{y}" '
                    f'stroke="#888" stroke-dasharray="3,2"/>'
                )
    parts.append("</svg>")
    return "".join(parts)


def timeline_html(
    schedule: Schedule,
    n: int = 8,
    signal_latency: int = 1,
    title: str | None = None,
) -> str:
    """Both timeline views as one self-contained HTML document.

    The per-cycle table shows every bundle with rendered instruction
    text (synchronization operations highlighted, one span column per
    pair); the SVG below (:func:`timeline_svg`) shows ``n`` iterations
    executing on their own processors, stall gaps in amber, and an arrow
    per stalled Wait from the producer's Send.  No external resources —
    the file can be attached to a bug report as-is.
    """
    from repro.codegen.isa import render_instruction

    lowered = schedule.lowered
    pairs = lowered.synced.pairs
    length = schedule.length
    name = title or f"{schedule.scheduler_name} on {schedule.machine.name}"
    esc = _html.escape

    # -- bundle table
    head = "<tr><th>cycle</th><th>bundle</th>"
    for pair in pairs:
        head += f"<th>P{pair.pair_id} (d={pair.distance})</th>"
    head += "</tr>"
    rows = [head]
    for cycle, bundle in enumerate(schedule.bundles(), start=1):
        texts = []
        for iid in bundle:
            instr = lowered.instruction(iid)
            cls = "sync" if instr.sync is not None else ""
            texts.append(
                f'<span class="{cls}">{iid}: {esc(render_instruction(instr))}</span>'
            )
        cells = f"<tr><td>c{cycle}</td><td>{'<br>'.join(texts) or '&mdash;'}</td>"
        for pair in pairs:
            wait = schedule.wait_cycle(pair.pair_id)
            send = schedule.send_cycle(pair.pair_id)
            if cycle == wait:
                cells += '<td class="wait">W</td>'
            elif cycle == send:
                cells += '<td class="send">S</td>'
            elif wait < cycle < send:
                cells += '<td class="span">&#9474;</td>'
            else:
                cells += '<td class="idle">&middot;</td>'
        rows.append(cells + "</tr>")
    spans = "; ".join(
        f"P{p.pair_id}: span {schedule.span(p.pair_id)}"
        + (" (run-time LFD)" if schedule.span(p.pair_id) <= 0 else "")
        for p in pairs
    )

    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{esc(name)}</title>
<style>{_HTML_CSS}</style></head>
<body>
<h1>{esc(name)}</h1>
<p class="legend">iteration length l = {length}; {esc(spans)}</p>
<h2>Per-cycle schedule (Fig. 4 view)</h2>
<table>{''.join(rows)}</table>
<p class="legend">W = Wait_Signal issue, S = Send_Signal issue,
&#9474; = wait&rarr;send span (per-hop LBD penalty = span + signal latency
&minus; 1 per crossing).</p>
<h2>Cross-iteration execution (n = {n}, one processor per iteration)</h2>
{timeline_svg(schedule, n, signal_latency)}
<p class="legend">blue = executing, amber = stalled at a Wait, red tick = Wait
issue, green tick = Send issue; dashed lines connect each Wait to the
producer iteration's Send that releases it.</p>
</body></html>
"""
