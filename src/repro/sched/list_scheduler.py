"""Baseline list scheduler (the paper's comparison point).

Greedy cycle-by-cycle scheduling: at each cycle, the ready instructions
(all predecessors scheduled and their latencies elapsed) are considered in
priority order and issued while slots and function units allow.
Synchronization operations are ordinary nodes — a wait has no predecessors
beyond its own arcs, so list scheduling happily hoists it to the first
cycles, which is precisely the behaviour the paper criticizes (it
stretches the wait→send span and multiplies the LBD penalty).

Two priorities are provided:

* ``PROGRAM_ORDER`` — lowest instruction id first.  This reproduces the
  paper's Fig. 4(a) schedule bundle-for-bundle and is the experiments'
  baseline.
* ``CRITICAL_PATH`` — classic latency-weighted height, ties by id; used by
  the ablation benches.
"""

from __future__ import annotations

import enum

from repro.codegen.lower import LoweredLoop
from repro.dfg.graph import DataFlowGraph
from repro.obs.explain import Decision, active_journal
from repro.obs.metrics import observe as metric_observe
from repro.obs.trace import span
from repro.sched.machine import MachineConfig
from repro.sched.resources import ResourceTable
from repro.sched.schedule import Schedule


class Priority(enum.Enum):
    """Candidate ordering for the list scheduler (see module docs)."""

    PROGRAM_ORDER = "program_order"
    CRITICAL_PATH = "critical_path"


def critical_path_heights(
    graph: DataFlowGraph, lowered: LoweredLoop, machine: MachineConfig
) -> dict[int, int]:
    """Latency-weighted height of each node (its own latency included)."""
    units = lowered.units(machine)
    heights: dict[int, int] = {}
    for node in reversed(graph.facts(lowered).topo):
        below = max((heights[e.dst] for e in graph.succ[node]), default=0)
        heights[node] = units[node].latency + below
    return heights


def list_schedule(
    lowered: LoweredLoop,
    graph: DataFlowGraph,
    machine: MachineConfig,
    priority: Priority = Priority.PROGRAM_ORDER,
) -> Schedule:
    """Schedule every instruction with greedy list scheduling."""
    sort_key = None  # program order: by iid
    if priority is Priority.CRITICAL_PATH:
        heights = critical_path_heights(graph, lowered, machine)

        def sort_key(iid: int) -> tuple:
            return (-heights[iid], iid)

    name = f"list/{priority.value}"
    resources = ResourceTable(machine)
    units = lowered.units(machine)
    cycle_of: dict[int, int] = {}
    # earliest cycle each node may issue, updated as predecessors schedule
    ready_cycle = {n: 1 for n in graph.nodes}
    pending_preds = {n: graph.in_degree(n) for n in graph.nodes}
    # unscheduled nodes whose predecessors are all scheduled
    released = {n for n, count in pending_preds.items() if count == 0}
    journal = active_journal()
    # predecessor that last raised a node's ready cycle (provenance)
    critical_pred: dict[int, int] = {}

    with span("schedule.list"):
        cycle = 1
        while len(cycle_of) < len(pending_preds):
            candidates = sorted(
                (n for n in released if ready_cycle[n] <= cycle), key=sort_key
            )
            metric_observe("sched_pass.list.ready_len", len(candidates))
            placed_any = False
            for iid in candidates:
                unit = units[iid]
                if resources.can_place(unit, cycle):
                    resources.place(unit, cycle)
                    cycle_of[iid] = cycle
                    released.discard(iid)
                    placed_any = True
                    if journal is not None:
                        instr = lowered.instruction(iid)
                        journal.record_decision(
                            Decision(
                                scheduler=name,
                                iid=iid,
                                cycle=cycle,
                                phase="list",
                                rule="greedy",
                                ready_cycle=ready_cycle[iid],
                                min_cycle=ready_cycle[iid],
                                resource_delay=cycle - ready_cycle[iid],
                                critical_pred=critical_pred.get(iid),
                                pair_id=(
                                    instr.sync.pair_ids[0]
                                    if instr.sync is not None and instr.sync.pair_ids
                                    else None
                                ),
                                competing=tuple(c for c in candidates if c != iid),
                            )
                        )
                    latency = unit.latency
                    for edge in graph.succ[iid]:
                        dst = edge.dst
                        pending_preds[dst] -= 1
                        if pending_preds[dst] == 0:
                            released.add(dst)
                        if cycle + latency > ready_cycle[dst]:
                            ready_cycle[dst] = cycle + latency
                            critical_pred[dst] = iid
            cycle += 1
            if not placed_any and not candidates and cycle > 2 * len(graph.nodes) * 8 + 64:
                raise RuntimeError("list scheduler failed to make progress")  # pragma: no cover
    return Schedule(machine=machine, lowered=lowered, cycle_of=cycle_of, scheduler_name=name)
