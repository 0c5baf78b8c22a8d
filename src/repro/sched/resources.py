"""Per-cycle resource reservation: issue slots and function units.

Occupancy is tracked as a per-cycle count against capacity.  For
non-pipelined multi-cycle units this count-based test is exact: all
reservations of a unit kind are intervals of the same length, and a set of
intervals fits on ``count`` instances iff no cycle's overlap exceeds
``count`` (interval-graph coloring).

Every method takes the :class:`~repro.sched.machine.UnitSpec` an operation
occupies: a scheduler resolves each instruction's unit once per schedule,
not on every probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sched.machine import MachineConfig, UnitSpec


@dataclass
class ResourceTable:
    """Mutable reservation state for one schedule under construction."""

    machine: MachineConfig
    issue_used: dict[int, int] = field(default_factory=dict)
    unit_used: dict[str, dict[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.unit_used = {unit.name: {} for unit in self.machine.units}

    def can_place(self, unit: UnitSpec, cycle: int) -> bool:
        """Is there a free issue slot at ``cycle`` and a free instance of
        ``unit`` for its full occupancy interval?"""
        if cycle < 1 or self.issue_used.get(cycle, 0) >= self.machine.issue_width:
            return False
        used = self.unit_used[unit.name]
        if unit.pipelined or unit.latency == 1:
            return used.get(cycle, 0) < unit.count
        return all(used.get(c, 0) < unit.count for c in range(cycle, cycle + unit.latency))

    def place(self, unit: UnitSpec, cycle: int) -> None:
        if not self.can_place(unit, cycle):
            raise ValueError(f"cannot place on {unit.name!r} at cycle {cycle}")
        self._reserve(unit, cycle, 1)

    def remove(self, unit: UnitSpec, cycle: int) -> None:
        """Undo a placement (used by the sync scheduler's retry search)."""
        self._reserve(unit, cycle, -1)

    def _reserve(self, unit: UnitSpec, cycle: int, delta: int) -> None:
        self.issue_used[cycle] = self.issue_used.get(cycle, 0) + delta
        used = self.unit_used[unit.name]
        for c in range(cycle, cycle + (1 if unit.pipelined else unit.latency)):
            used[c] = used.get(c, 0) + delta

    def earliest(self, unit: UnitSpec, min_cycle: int) -> int:
        """First cycle ``>= min_cycle`` where ``unit`` can be placed.

        Always terminates: beyond the current horizon everything is free.
        """
        cycle = max(1, min_cycle)
        while not self.can_place(unit, cycle):
            cycle += 1
        return cycle

    def latest_at_most(self, unit: UnitSpec, deadline: int, min_cycle: int) -> int | None:
        """Last cycle in ``[min_cycle, deadline]`` where ``unit`` fits, or None."""
        for cycle in range(deadline, max(1, min_cycle) - 1, -1):
            if self.can_place(unit, cycle):
                return cycle
        return None
