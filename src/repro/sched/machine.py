"""Superscalar machine configurations.

A machine is an issue width plus a set of function units.  Each *unit spec*
serves one or more architectural :class:`~repro.codegen.isa.FuClass`\\ es
with some number of identical physical instances and a fixed latency;
multi-cycle units are non-pipelined (an instance is busy for its full
latency), matching the era's DLX-style FP units.

Two families are provided:

* :func:`figure4_machine` — the Section 3 walkthrough machine: 4-issue;
  load/store, a single *adder* serving both integer and FP adds, shifter,
  multiplier and divider; all unit latency (the walkthrough counts every
  instruction as one cycle).
* :func:`paper_machine` — the Section 4 experiment machines: 2- or 4-issue;
  separate load/store, integer, floating-point, multiplier (3 cycles),
  divider (6 cycles) and shifter units, each with 1 or 2 instances.

Both have a single synchronization port (one ``Wait``/``Send`` per cycle),
which is what the paper's Fig. 4 bundles exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.codegen.isa import FuClass


@dataclass(frozen=True)
class UnitSpec:
    """One kind of physical function unit."""

    name: str
    classes: frozenset[FuClass]
    count: int
    latency: int = 1
    pipelined: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("unit count must be >= 1")
        if self.latency < 1:
            raise ValueError("unit latency must be >= 1")


@dataclass(frozen=True)
class MachineConfig:
    """Issue width plus function units; every FuClass must be served by
    exactly one unit spec, and unit names are unique (occupancy is counted
    per unit name)."""

    name: str
    issue_width: int
    units: tuple[UnitSpec, ...]

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue width must be >= 1")
        names = [unit.name for unit in self.units]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(f"duplicate unit names: {duplicates}")
        missing = [cls for cls in FuClass if cls not in self._unit_of]
        if missing:
            raise ValueError(f"function unit classes not served: {missing}")

    @cached_property
    def _unit_of(self) -> dict[FuClass, UnitSpec]:
        """FuClass -> its unit.  Built by ``__post_init__``; cached in the
        instance, so a machine unpickled from a file written before the map
        existed rebuilds it on first use."""
        served: dict[FuClass, UnitSpec] = {}
        for unit in self.units:
            for cls in unit.classes:
                if cls in served:
                    raise ValueError(
                        f"{cls} served by both {served[cls].name!r} and {unit.name!r}"
                    )
                served[cls] = unit
        return served

    def unit_for(self, fu: FuClass) -> UnitSpec:
        return self._unit_of[fu]

    def latency(self, fu: FuClass) -> int:
        return self._unit_of[fu].latency


def figure4_machine() -> MachineConfig:
    """The Section 3 walkthrough machine (paper Fig. 4): 4-issue, one unit
    of each, a shared int/FP adder, unit latencies."""
    return MachineConfig(
        name="fig4-4issue",
        issue_width=4,
        units=(
            UnitSpec("load/store", frozenset({FuClass.LOAD_STORE}), 1),
            UnitSpec("adder", frozenset({FuClass.INT_ALU, FuClass.FP_ALU}), 1),
            UnitSpec("shifter", frozenset({FuClass.SHIFTER}), 1),
            UnitSpec("multiplier", frozenset({FuClass.MULTIPLIER}), 1),
            UnitSpec("divider", frozenset({FuClass.DIVIDER}), 1),
            UnitSpec("sync", frozenset({FuClass.SYNC}), 1),
        ),
    )


def paper_machine(issue_width: int, fu_count: int, pipelined: bool = False) -> MachineConfig:
    """A Section 4 experiment machine.

    ``issue_width`` in {2, 4} and ``fu_count`` in {1, 2} give the paper's
    four cases; other positive values are accepted for sweeps.  Multiplier
    and divider take 3 and 6 cycles, other units one cycle; the sync port
    is always single.  ``pipelined`` makes the multi-cycle units accept a
    new operation every cycle (latency unchanged) — an extension knob; the
    paper's units are non-pipelined.
    """
    suffix = "-pipe" if pipelined else ""
    return MachineConfig(
        name=f"paper-{issue_width}issue-fu{fu_count}{suffix}",
        issue_width=issue_width,
        units=(
            UnitSpec("load/store", frozenset({FuClass.LOAD_STORE}), fu_count),
            UnitSpec("integer", frozenset({FuClass.INT_ALU}), fu_count),
            UnitSpec("float", frozenset({FuClass.FP_ALU}), fu_count),
            UnitSpec(
                "multiplier",
                frozenset({FuClass.MULTIPLIER}),
                fu_count,
                latency=3,
                pipelined=pipelined,
            ),
            UnitSpec(
                "divider",
                frozenset({FuClass.DIVIDER}),
                fu_count,
                latency=6,
                pipelined=pipelined,
            ),
            UnitSpec("shifter", frozenset({FuClass.SHIFTER}), fu_count),
            UnitSpec("sync", frozenset({FuClass.SYNC}), 1),
        ),
    )


def paper_cases() -> list[MachineConfig]:
    """The four Section 4 machine cases, in the paper's table order."""
    return [
        paper_machine(2, 1),
        paper_machine(2, 2),
        paper_machine(4, 1),
        paper_machine(4, 2),
    ]
