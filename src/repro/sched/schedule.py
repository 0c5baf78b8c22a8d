"""The schedule result type: cycle assignments and derived quantities."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.codegen.lower import LoweredLoop
from repro.sched.machine import MachineConfig


@dataclass(frozen=True)
class Schedule:
    """A cycle assignment for every instruction of a lowered loop.

    ``cycle_of`` maps instruction id → issue cycle (1-based).  ``length``
    is the iteration time ``l`` in cycles: the last *completion* cycle
    (issue cycle + unit latency - 1), which equals the bundle count when
    all latencies are one, as in the paper's Fig. 4 (13 cycles).

    A schedule is an immutable value: ``cycle_of`` is a read-only
    mapping, and ``length`` and ``issue_cycles`` are computed once, when
    it is built.  Derive a changed schedule with ``dataclasses.replace``.
    """

    machine: MachineConfig
    lowered: LoweredLoop
    cycle_of: Mapping[int, int] = field(default_factory=dict)
    scheduler_name: str = ""
    length: int = field(init=False, compare=False)
    issue_cycles: int = field(init=False, compare=False)
    """Number of the last issue cycle (bundle count upper bound)."""

    def __post_init__(self) -> None:
        cycle_of = MappingProxyType(dict(self.cycle_of))
        units = self.lowered.units(self.machine)
        known = len(units)  # an iid outside the loop is the verifier's to report
        length = max(
            (c + (units[i].latency if 0 < i < known else 1) - 1 for i, c in cycle_of.items()),
            default=0,
        )
        object.__setattr__(self, "cycle_of", cycle_of)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "issue_cycles", max(cycle_of.values(), default=0))

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild from a dict
        return Schedule, (self.machine, self.lowered, dict(self.cycle_of), self.scheduler_name)

    def bundles(self) -> list[list[int]]:
        """Instruction ids per cycle, 1..issue_cycles, ids ascending."""
        table: list[list[int]] = [[] for _ in range(self.issue_cycles)]
        for iid, cycle in sorted(self.cycle_of.items()):
            table[cycle - 1].append(iid)
        return table

    # -- synchronization geometry --------------------------------------------

    def wait_cycle(self, pair_id: int) -> int:
        return self.cycle_of[self.lowered.wait_iids[pair_id]]

    def send_cycle(self, pair_id: int) -> int:
        return self.cycle_of[self.lowered.send_iids[pair_id]]

    def span(self, pair_id: int) -> int:
        """The paper's ``i - j`` instruction span, inclusive: the number of
        cycles from the wait to its send.  Positive spans are the LBD
        penalty multiplier; a non-positive span means the send is issued
        before the wait — the LFD (no-stall) situation."""
        return self.send_cycle(pair_id) - self.wait_cycle(pair_id) + 1

    def runtime_lbd_pairs(self) -> list[int]:
        """Pairs whose *scheduled* send does not precede their wait — these
        stall at runtime regardless of the textual LFD/LBD classification."""
        return [p.pair_id for p in self.lowered.synced.pairs if self.span(p.pair_id) > 0]

    def format(self) -> str:
        """Fig. 4-style bundle table, e.g. ``(1, 2, 3, -)`` per cycle."""
        width = self.machine.issue_width
        lines = []
        for cycle, bundle in enumerate(self.bundles(), start=1):
            slots = [str(i) for i in bundle] + ["-"] * (width - len(bundle))
            lines.append(f"c{cycle:<3} ({', '.join(slots)})")
        return "\n".join(lines)
