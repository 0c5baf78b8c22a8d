"""Schedule statistics: issue-slot and function-unit utilization.

The paper's discussion leans on resource pressure (the adder conflicts in
the Fig. 4 walkthrough, the 2-vs-4-issue behaviour); these helpers make
that pressure measurable for any schedule.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class UnitUtilization:
    name: str
    busy_cycles: int  # instance-cycles occupied
    capacity_cycles: int  # instances * schedule length

    @property
    def utilization(self) -> float:
        return self.busy_cycles / self.capacity_cycles if self.capacity_cycles else 0.0


@dataclass(frozen=True)
class ScheduleStats:
    length: int
    instructions: int
    issue_slots_used: int
    issue_slots_total: int
    units: tuple[UnitUtilization, ...]

    @property
    def issue_utilization(self) -> float:
        return self.issue_slots_used / self.issue_slots_total if self.issue_slots_total else 0.0

    @property
    def ipc(self) -> float:
        """Instructions per cycle actually achieved."""
        return self.instructions / self.length if self.length else 0.0

    def format(self) -> str:
        lines = [
            f"length {self.length} cycles, {self.instructions} instructions, "
            f"IPC {self.ipc:.2f}, issue slots {self.issue_utilization:.0%} used"
        ]
        for unit in self.units:
            lines.append(
                f"  {unit.name:12s} {unit.busy_cycles:4d}/{unit.capacity_cycles:<4d}"
                f" ({unit.utilization:.0%})"
            )
        return "\n".join(lines)


def schedule_stats(schedule: Schedule) -> ScheduleStats:
    """Compute utilization figures for ``schedule``."""
    machine = schedule.machine
    length = schedule.length
    unit_of = schedule.lowered.units(machine)
    busy: dict[str, int] = defaultdict(int)
    for iid in schedule.cycle_of:
        unit = unit_of[iid]
        busy[unit.name] += 1 if unit.pipelined else unit.latency
    units = tuple(
        UnitUtilization(
            name=unit.name,
            busy_cycles=busy.get(unit.name, 0),
            capacity_cycles=unit.count * length,
        )
        for unit in machine.units
    )
    n_instr = len(schedule.cycle_of)
    return ScheduleStats(
        length=length,
        instructions=n_instr,
        issue_slots_used=n_instr,
        issue_slots_total=machine.issue_width * length,
        units=units,
    )
