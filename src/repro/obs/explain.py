"""Decision provenance: *why* every instruction sits where it does.

PR 2's metrics say *what* happened (a Wait→Send span of 12, 1188 stall
cycles on pair 1); this module records *why*.  Three record kinds:

* :class:`Decision` — one per placed instruction, emitted by both
  schedulers: the cycle chosen, the dependence-ready cycle, the
  scheduler phase and placement rule that chose it, the critical
  predecessor that gated it, the resource delay it absorbed, the sync
  rule bound that constrained it, and (for the list scheduler) the
  competing candidates it was prioritized against.
* :class:`StallLink` — one per stalled Wait in the DOACROSS simulation:
  iteration ``k`` stalled ``s`` cycles at pair ``p``'s wait because
  iteration ``k − d`` issued the paired send at absolute cycle ``a``.
  Both the event walk and the analytic fast path emit **identical**
  chains (the closed form materializes the same links), so explain
  output never depends on the dispatch strategy.
* :class:`DecisionJournal` — the append-only collector.  Like tracers
  and metrics registries, recording costs **one module-global read when
  no journal is installed**, so instrumented schedulers and simulators
  are exactly as fast as before in production.

The query half (:func:`explain_op`, :func:`explain_pair`,
:func:`explain_summary`) walks a journal back to the source statements
and renders the answers ``repro explain`` prints — e.g. for the paper's
Fig. 4(a) it names the greedy list-scheduler decision that hoisted
``Wait_Signal`` 12 cycles ahead of its send, and for Fig. 4(b) it shows
the span restored to the synchronization-path dependence bound.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.schema import SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.dfg.graph import DataFlowGraph
    from repro.sched.schedule import Schedule
    from repro.sim.multiproc import SimulationResult

__all__ = [
    "Decision",
    "DecisionJournal",
    "StallLink",
    "active_journal",
    "disable_journal",
    "enable_journal",
    "explain_op",
    "explain_pair",
    "explain_summary",
    "journal_scope",
    "pair_span_bound",
]


@dataclass(frozen=True)
class Decision:
    """Why one instruction was placed at one cycle.

    ``ready_cycle`` is the earliest dependence-legal issue cycle at
    placement time; ``min_cycle`` is the synchronization-rule lower bound
    actually applied (e.g. "a wait goes after its already-placed send");
    ``resource_delay`` is how many cycles busy resources pushed the
    instruction past ``max(ready_cycle, min_cycle)``.  ``rule`` names the
    placement rule (``greedy``, ``sp_contiguous``, ``sp_ancestor_alap``,
    ``send_deadline``, ``wait_after_send``, ``lfd_send_hoist``,
    ``asap``); ``phase`` names the scheduler phase that ran it.
    """

    scheduler: str
    iid: int
    cycle: int
    phase: str
    rule: str
    ready_cycle: int
    min_cycle: int = 1
    resource_delay: int = 0
    critical_pred: int | None = None
    pair_id: int | None = None
    competing: tuple[int, ...] = ()
    note: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "iid": self.iid,
            "cycle": self.cycle,
            "phase": self.phase,
            "rule": self.rule,
            "ready_cycle": self.ready_cycle,
            "min_cycle": self.min_cycle,
            "resource_delay": self.resource_delay,
            "critical_pred": self.critical_pred,
            "pair_id": self.pair_id,
            "competing": list(self.competing),
            "note": self.note,
        }


@dataclass(frozen=True)
class StallLink:
    """One link of a cross-iteration stall chain: iteration ``iteration``
    stalled ``stall`` cycles at pair ``pair_id``'s wait (local cycle
    ``wait_cycle``) until ``producer_iteration``'s send, issued at
    absolute cycle ``send_abs``, became visible."""

    pair_id: int
    iteration: int
    producer_iteration: int
    wait_cycle: int
    send_abs: int
    stall: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "pair_id": self.pair_id,
            "iteration": self.iteration,
            "producer_iteration": self.producer_iteration,
            "wait_cycle": self.wait_cycle,
            "send_abs": self.send_abs,
            "stall": self.stall,
        }


class DecisionJournal:
    """Append-only collector of :class:`Decision` and :class:`StallLink`
    records for one or more scheduling/simulation runs."""

    def __init__(self) -> None:
        self.decisions: list[Decision] = []
        self.stalls: list[StallLink] = []

    # -- recording -----------------------------------------------------------

    def record_decision(self, decision: Decision) -> None:
        self.decisions.append(decision)

    def record_stall(self, link: StallLink) -> None:
        self.stalls.append(link)

    # -- queries -------------------------------------------------------------

    def decision_for(self, iid: int, scheduler: str | None = None) -> Decision | None:
        """The last recorded decision for ``iid`` (optionally restricted
        to one scheduler's run — journals may hold several)."""
        for decision in reversed(self.decisions):
            if decision.iid == iid and (
                scheduler is None or decision.scheduler == scheduler
            ):
                return decision
        return None

    def decisions_for(self, scheduler: str) -> list[Decision]:
        return [d for d in self.decisions if d.scheduler == scheduler]

    def stalls_for(self, pair_id: int) -> list[StallLink]:
        return [s for s in self.stalls if s.pair_id == pair_id]

    # -- lifecycle / export --------------------------------------------------

    def clear(self) -> None:
        self.decisions.clear()
        self.stalls.clear()

    def __bool__(self) -> bool:
        return bool(self.decisions or self.stalls)

    def __len__(self) -> int:
        return len(self.decisions) + len(self.stalls)

    def as_dict(self) -> dict[str, Any]:
        """Stable-ordered snapshot (the report's ``explain`` block)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "decisions": [d.as_dict() for d in self.decisions],
            "stalls": [s.as_dict() for s in self.stalls],
        }


# The active journal.  One module-global read when disabled — the same
# discipline as repro.obs.trace / repro.obs.metrics.
_ACTIVE: DecisionJournal | None = None


def enable_journal(journal: DecisionJournal | None = None) -> DecisionJournal:
    """Install ``journal`` (or a fresh one) as the active collector."""
    global _ACTIVE
    _ACTIVE = journal if journal is not None else DecisionJournal()
    return _ACTIVE


def disable_journal() -> DecisionJournal | None:
    """Deactivate and return the previously active journal, if any."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    return previous


def active_journal() -> DecisionJournal | None:
    return _ACTIVE


@contextmanager
def journal_scope(journal: DecisionJournal | None) -> Iterator[None]:
    """Install ``journal`` for the duration of a block, restoring the
    previously active journal afterwards.  ``None`` is a no-op scope."""
    if journal is None:
        yield
        return
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = journal
    try:
        yield
    finally:
        _ACTIVE = previous


# -- query engine ---------------------------------------------------------


def pair_span_bound(schedule: "Schedule", graph: "DataFlowGraph", pair_id: int) -> int | None:
    """The dependence lower bound on pair ``pair_id``'s inclusive
    Wait→Send span: the longest latency-weighted path from the wait to
    its send, plus one (the :meth:`~repro.sched.schedule.Schedule.span`
    convention).  ``None`` when the send is not reachable from the wait —
    the pair has no synchronization path and a scheduler may issue the
    send first (span ``<= 0``, run-time LFD)."""
    lowered = schedule.lowered
    wait = lowered.wait_iids[pair_id]
    send = lowered.send_iids[pair_id]
    units = lowered.units(schedule.machine)
    dist: dict[int, int] = {wait: 0}
    for node in graph.facts(lowered).topo:
        if node not in dist:
            continue
        latency = units[node].latency
        for edge in graph.succ[node]:
            candidate = dist[node] + latency
            if candidate > dist.get(edge.dst, -1):
                dist[edge.dst] = candidate
    if send not in dist:
        return None
    return dist[send] + 1


def _render(schedule: "Schedule", iid: int) -> str:
    from repro.codegen.isa import render_instruction

    return render_instruction(schedule.lowered.instruction(iid))


def _source_line(schedule: "Schedule", iid: int) -> str | None:
    """The synchronized-body source statement ``iid`` was lowered from."""
    instr = schedule.lowered.instruction(iid)
    if instr.stmt_pos is None:
        return None
    from repro.ir.printer import format_stmt

    body = schedule.lowered.synced.loop.body
    if not (0 <= instr.stmt_pos < len(body)):
        return None
    return f"stmt {instr.stmt_pos}: {format_stmt(body[instr.stmt_pos])}"


def _ready_chain(
    schedule: "Schedule", journal: DecisionJournal, decision: Decision, limit: int = 12
) -> list[str]:
    """Walk critical predecessors back toward the cycle-1 frontier."""
    lines: list[str] = []
    seen: set[int] = {decision.iid}
    current = decision
    while current.critical_pred is not None and len(lines) < limit:
        pred = current.critical_pred
        pred_decision = journal.decision_for(pred, current.scheduler)
        pred_cycle = schedule.cycle_of.get(pred)
        lines.append(
            f"ready-gated by op {pred} "
            f"({_render(schedule, pred)}) issued c{pred_cycle}"
        )
        if pred in seen or pred_decision is None:
            break
        seen.add(pred)
        current = pred_decision
    return lines


def explain_op(
    schedule: "Schedule", journal: DecisionJournal, iid: int
) -> str:
    """Answer "why is op ``iid`` at cycle ``c``" from the journal."""
    lowered = schedule.lowered
    if iid not in schedule.cycle_of:
        return f"op {iid}: not in this schedule"
    cycle = schedule.cycle_of[iid]
    lines = [f"op {iid}: {_render(schedule, iid)}   [cycle {cycle}]"]
    source = _source_line(schedule, iid)
    if source is not None:
        lines.append(f"  source: {source}")
    decision = journal.decision_for(iid, schedule.scheduler_name)
    if decision is None:
        lines.append(
            f"  no decision recorded by {schedule.scheduler_name or 'the scheduler'}"
            " (was the journal installed during scheduling?)"
        )
        return "\n".join(lines)
    lines.append(
        f"  placed by {decision.scheduler} in phase '{decision.phase}' "
        f"(rule: {decision.rule})"
    )
    lines.append(f"  dependence-ready at c{decision.ready_cycle}")
    for chain_line in _ready_chain(schedule, journal, decision):
        lines.append(f"    {chain_line}")
    if decision.min_cycle > decision.ready_cycle:
        pair = f" (pair {decision.pair_id})" if decision.pair_id is not None else ""
        lines.append(
            f"  sync rule raised the floor to c{decision.min_cycle}{pair}"
        )
    if decision.resource_delay > 0:
        fu = lowered.instruction(iid).fu.value
        lines.append(
            f"  delayed {decision.resource_delay} cycle(s) past its floor "
            f"waiting for a free slot/{fu} unit"
        )
    if decision.competing:
        shown = ", ".join(str(c) for c in decision.competing[:8])
        more = "" if len(decision.competing) <= 8 else ", ..."
        lines.append(f"  competed with ready ops: {shown}{more}")
    if decision.note:
        lines.append(f"  note: {decision.note}")
    return "\n".join(lines)


def _pair_verdict(
    schedule: "Schedule",
    journal: DecisionJournal,
    pair_id: int,
    span: int,
    bound: int | None,
) -> list[str]:
    """The one human sentence the paper's argument turns on."""
    lowered = schedule.lowered
    wait_iid = lowered.wait_iids[pair_id]
    wait_decision = journal.decision_for(wait_iid, schedule.scheduler_name)
    if span <= 0:
        return [
            "  verdict: send issues before the wait (run-time LFD) — "
            "this pair never stalls any iteration."
        ]
    if bound is not None and span <= bound:
        rule = wait_decision.rule if wait_decision is not None else "?"
        return [
            f"  verdict: span {span} equals the dependence bound {bound} — the "
            f"synchronization path is packed to its minimum (rule: {rule}); "
            "no schedule can do better for this pair."
        ]
    stretch = span - (bound if bound is not None else 0)
    lines = []
    if wait_decision is not None and wait_decision.rule == "greedy":
        lines.append(
            f"  verdict: the {wait_decision.scheduler} scheduler's greedy "
            f"decision placed Wait_Signal (op {wait_iid}) at "
            f"c{wait_decision.cycle} — its dependence-ready cycle — ignoring "
            "where the paired send could issue; the wait was hoisted "
            f"{stretch} cycle(s) beyond the pair's "
            + (f"dependence bound {bound}" if bound is not None else "LFD placement")
            + ", and every cross-iteration hop pays that stretch."
        )
    else:
        rule = wait_decision.rule if wait_decision is not None else "?"
        lines.append(
            f"  verdict: span {span} exceeds the "
            + (f"dependence bound {bound}" if bound is not None else "LFD bound 0")
            + f" by {stretch} cycle(s) (wait placed by rule: {rule})."
        )
    return lines


def explain_pair(
    schedule: "Schedule",
    journal: DecisionJournal,
    graph: "DataFlowGraph",
    pair_id: int,
    sim: "SimulationResult | None" = None,
) -> str:
    """Answer "why is the Wait→Send span for pair ``pair_id`` equal to
    ``k``" — and what that span costs at run time."""
    lowered = schedule.lowered
    pair = lowered.synced.pair(pair_id)
    wait_iid = lowered.wait_iids[pair_id]
    send_iid = lowered.send_iids[pair_id]
    span = schedule.span(pair_id)
    bound = pair_span_bound(schedule, graph, pair_id)
    kind = "LBD" if pair.is_lexically_backward else "LFD"
    lines = [
        f"pair {pair_id}: {pair.source_label}@{pair.source_pos} -> "
        f"S@{pair.sink_pos} (d={pair.distance}, lexically {kind})  "
        f"[{schedule.scheduler_name}]",
        f"  wait  op {wait_iid:>3} at c{schedule.wait_cycle(pair_id):<3} "
        f"{_render(schedule, wait_iid)}",
        f"  send  op {send_iid:>3} at c{schedule.send_cycle(pair_id):<3} "
        f"{_render(schedule, send_iid)}",
        f"  span (inclusive wait->send) = {span}"
        + (
            f"; dependence bound along the synchronization path = {bound}"
            if bound is not None
            else "; no dependence path wait->send (LFD placement possible)"
        ),
    ]
    for iid, role in ((wait_iid, "wait"), (send_iid, "send")):
        decision = journal.decision_for(iid, schedule.scheduler_name)
        if decision is None:
            continue
        delay = (
            f", +{decision.resource_delay} resource"
            if decision.resource_delay
            else ""
        )
        floor = (
            f", sync floor c{decision.min_cycle}"
            if decision.min_cycle > decision.ready_cycle
            else ""
        )
        lines.append(
            f"  {role} decision: phase '{decision.phase}', rule {decision.rule} "
            f"(ready c{decision.ready_cycle}{floor}{delay})"
        )
    lines.extend(_pair_verdict(schedule, journal, pair_id, span, bound))

    # Run-time cost: the Section 2 closed form plus the observed chain.
    if span > 0:
        from repro.sim.analytic import lbd_hops, lbd_parallel_time

        n = sim.n if sim is not None else 100
        latency = sim.signal_latency if sim is not None else 1
        per_hop = span - 1 + latency
        hops = lbd_hops(n, pair.distance)
        lines.append(
            f"  cost model (n={n}): per-hop penalty i-j+{latency} = {per_hop}, "
            f"hops floor((n-1)/{pair.distance}) = {hops}, "
            f"T = {hops}*{per_hop} + {schedule.length} = "
            f"{lbd_parallel_time(n, pair.distance, span, schedule.length, latency)}"
        )
    if sim is not None:
        stalled = sim.stall_by_pair.get(pair_id, 0)
        lines.append(
            f"  simulated: {stalled} stall cycle(s) attributed to this pair "
            f"(of {sim.total_stall} total, dispatch: {sim.dispatch})"
        )
    chain = journal.stalls_for(pair_id)
    if chain:
        lines.append("  stall chain (first links):")
        for link in chain[:4]:
            lines.append(
                f"    iter {link.iteration} stalled {link.stall} cycle(s) at "
                f"wait c{link.wait_cycle} until iter {link.producer_iteration}'s "
                f"send (issued abs c{link.send_abs}) became visible"
            )
        if len(chain) > 4:
            lines.append(f"    ... {len(chain) - 4} more link(s)")
    return "\n".join(lines)


def explain_summary(
    schedule: "Schedule",
    journal: DecisionJournal,
    graph: "DataFlowGraph",
    sim: "SimulationResult | None" = None,
) -> str:
    """Per-pair overview: spans, bounds, stalls, and the dominant pair."""
    lowered = schedule.lowered
    lines = [
        f"schedule: {schedule.scheduler_name} on {schedule.machine.name}, "
        f"length l = {schedule.length}"
    ]
    if sim is not None:
        lines.append(
            f"simulated: n={sim.n}, parallel time {sim.parallel_time}, "
            f"total stall {sim.total_stall} (dispatch: {sim.dispatch})"
        )
    worst: tuple[int, int] | None = None
    for pair in lowered.synced.pairs:
        span = schedule.span(pair.pair_id)
        bound = pair_span_bound(schedule, graph, pair.pair_id)
        stall = sim.stall_by_pair.get(pair.pair_id, 0) if sim is not None else 0
        status = (
            "runtime LFD (never stalls)"
            if span <= 0
            else (
                "at dependence bound"
                if bound is not None and span <= bound
                else f"stretched +{span - (bound or 0)} over bound "
                f"{bound if bound is not None else 0}"
            )
        )
        lines.append(
            f"  pair {pair.pair_id}: d={pair.distance}, span {span:>3}, "
            f"stall {stall:>5}  -- {status}"
        )
        if span > 0 and (worst is None or stall > worst[1]):
            worst = (pair.pair_id, stall)
    if worst is not None and worst[1] > 0:
        lines.append(
            f"dominant stall source: pair {worst[0]} "
            f"(run `repro explain ... --pair {worst[0]}` for the provenance)"
        )
    recorded = len(journal.decisions_for(schedule.scheduler_name))
    lines.append(f"decisions journaled: {recorded} of {len(schedule.cycle_of)} placements")
    return "\n".join(lines)
