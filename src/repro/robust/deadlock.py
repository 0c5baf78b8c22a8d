"""Structured deadlock detection and diagnosis.

The pre-robustness simulator could only say ``"exceeded max_cycles
(deadlock?)"`` after walking millions of useless cycles.  This module
replaces that with a wait-for-graph detector: the semantic executor
(:func:`repro.sim.executor.execute_parallel`) fires it the moment no
processor has a pending event — every non-finished processor is parked
in a ``Wait_Signal`` whose signal is unsent or dropped — and the timing
walk (:func:`repro.sim.multiproc.simulate_doacross`) fires it the moment
a wait depends on a delivery the :class:`~repro.robust.faults.FaultPlan`
dropped.

The result is a :class:`DeadlockError` carrying one :class:`BlockedWait`
per stuck processor, the orphaned ``(signal, producer-iteration)`` pairs
(deliveries that can never arrive: dropped, or owed by a producer that
finished without sending), and any wait-for cycles among live
processors.  :meth:`DeadlockError.render` draws the blocking state on
the schedule through :func:`repro.sched.gantt.sync_timeline` — the same
Fig. 4a/4b view ``repro explain`` uses — so a hang reads like a
diagnosis, not a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.schedule import Schedule

__all__ = ["BlockedWait", "DeadlockError", "find_waitfor_cycles"]


@dataclass(frozen=True)
class BlockedWait:
    """One stuck processor: who waits, at which wait, for whose signal.

    ``orphaned`` is True when the awaited delivery can never arrive — the
    fault plan dropped it, or the producer iteration completed without
    its send becoming visible.  A non-orphaned blocked wait is stuck on a
    *live* producer; those participate in wait-for cycles.
    """

    processor: int  # processor rank (0-based)
    iteration: int  # the iteration blocked at the wait
    pair_id: int
    source_label: str
    producer_iteration: int
    wait_cycle: int  # local issue cycle of the blocked Wait_Signal
    orphaned: bool = False
    reason: str = ""

    def describe(self) -> str:
        state = "orphaned" if self.orphaned else "pending"
        line = (
            f"proc {self.processor}: iteration {self.iteration} blocked at "
            f"pair {self.pair_id}'s Wait_Signal (local c{self.wait_cycle}) for "
            f"signal ({self.source_label}, {self.producer_iteration}) [{state}]"
        )
        if self.reason:
            line += f" — {self.reason}"
        return line


class DeadlockError(RuntimeError):
    """All non-finished processors are blocked in ``Wait_Signal``.

    Structured: ``blocked`` lists every stuck processor, ``orphaned`` the
    subset whose awaited ``(signal, producer-iteration)`` delivery can
    never arrive, and ``cycles`` the wait-for cycles among live
    processors (processor-rank tuples).  ``at_cycle`` is the global cycle
    at which the detector fired (``None`` for the timing walk, which
    proves the hang without advancing a clock).
    """

    def __init__(
        self,
        blocked: tuple[BlockedWait, ...],
        at_cycle: int | None = None,
        plan_label: str = "",
    ) -> None:
        self.blocked = tuple(blocked)
        self.orphaned = tuple(b for b in self.blocked if b.orphaned)
        self.cycles = find_waitfor_cycles(self.blocked)
        self.at_cycle = at_cycle
        self.plan_label = plan_label
        super().__init__(self._message())

    def orphaned_signals(self) -> list[tuple[str, int]]:
        """The lost deliveries, as ``(signal label, producer iteration)``."""
        return [(b.source_label, b.producer_iteration) for b in self.orphaned]

    def _message(self) -> str:
        where = f" at cycle {self.at_cycle}" if self.at_cycle is not None else ""
        label = f" [{self.plan_label}]" if self.plan_label else ""
        head = (
            f"deadlock{where}{label}: {len(self.blocked)} processor(s) blocked "
            "in Wait_Signal"
        )
        lines = [head]
        for b in self.blocked:
            lines.append("  " + b.describe())
        for cycle in self.cycles:
            lines.append(
                "  wait-for cycle among processors: "
                + " -> ".join(str(rank) for rank in cycle + (cycle[0],))
            )
        if self.orphaned:
            pairs = ", ".join(
                f"({label}, {it})" for label, it in self.orphaned_signals()
            )
            lines.append(f"  orphaned signal(s): {pairs} — these can never arrive")
        return "\n".join(lines)

    def render(self, schedule: "Schedule") -> str:
        """The diagnosis plus the schedule's sync-pair timeline, with the
        blocked waits called out — the Fig. 4a view of the hang."""
        from repro.sched.gantt import sync_timeline

        lines = [str(self), "", sync_timeline(schedule)]
        for b in self.blocked:
            lines.append(
                f"blocked: P{b.pair_id} column, W row c{b.wait_cycle} — iteration "
                f"{b.iteration} holds here forever"
                + (
                    f" (producer iteration {b.producer_iteration}'s send was lost)"
                    if b.orphaned
                    else ""
                )
            )
        return "\n".join(lines)


def find_waitfor_cycles(
    blocked: tuple[BlockedWait, ...] | list[BlockedWait],
) -> tuple[tuple[int, ...], ...]:
    """Cycles in the wait-for graph over processor ranks.

    Each non-orphaned blocked wait is an edge ``waiter → owner`` where
    ``owner`` is the blocked processor running (or scheduled to run) the
    producer iteration, when that processor is itself blocked.  In a
    legal DOACROSS schedule signals only flow from lower to higher
    iterations, so a cycle means the schedule (or the executor) is
    broken — the detector reports it rather than assuming it away.
    """
    owner_of: dict[int, int] = {b.iteration: b.processor for b in blocked}
    edges: dict[int, int] = {}
    for b in blocked:
        if b.orphaned:
            continue
        owner = owner_of.get(b.producer_iteration)
        if owner is not None:
            edges[b.processor] = owner
    cycles: list[tuple[int, ...]] = []
    claimed: set[int] = set()
    for start in sorted(edges):
        if start in claimed:
            continue
        path: list[int] = []
        seen_at: dict[int, int] = {}
        node = start
        while node in edges and node not in claimed:
            if node in seen_at:
                cycle = tuple(path[seen_at[node] :])
                cycles.append(cycle)
                claimed.update(cycle)
                break
            seen_at[node] = len(path)
            path.append(node)
            node = edges[node]
        claimed.update(path)
    return tuple(cycles)
