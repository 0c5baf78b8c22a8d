"""Property-based tests of the resource reservation table."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.codegen.isa import FuClass
from repro.sched import ResourceTable, figure4_machine, paper_machine

_fus = st.sampled_from(
    [
        FuClass.LOAD_STORE,
        FuClass.INT_ALU,
        FuClass.FP_ALU,
        FuClass.MULTIPLIER,
        FuClass.DIVIDER,
        FuClass.SHIFTER,
        FuClass.SYNC,
    ]
)
_machines = st.sampled_from(
    [
        paper_machine(2, 1),
        paper_machine(4, 2),
        figure4_machine(),
        paper_machine(2, 1, pipelined=True),
    ]
)


@given(machine=_machines, ops=st.lists(st.tuples(_fus, st.integers(1, 12)), max_size=30))
@settings(max_examples=80)
def test_placements_never_exceed_capacity(machine, ops):
    """Greedily place every op at its earliest slot; recount occupancy and
    verify no cycle exceeds issue width or unit capacity."""
    table = ResourceTable(machine)
    placed = []
    for fu, min_cycle in ops:
        unit = machine.unit_for(fu)
        cycle = table.earliest(unit, min_cycle)
        assert cycle >= min_cycle
        table.place(unit, cycle)
        placed.append((fu, cycle))

    # independent recount
    from collections import defaultdict

    issue = defaultdict(int)
    unit_busy = defaultdict(int)
    for fu, cycle in placed:
        issue[cycle] += 1
        unit = machine.unit_for(fu)
        span = 1 if unit.pipelined else unit.latency
        for c in range(cycle, cycle + span):
            unit_busy[(unit.name, c)] += 1
    for cycle, used in issue.items():
        assert used <= machine.issue_width
    for (unit_name, _), used in unit_busy.items():
        unit = next(u for u in machine.units if u.name == unit_name)
        assert used <= unit.count


@given(machine=_machines, ops=st.lists(st.tuples(_fus, st.integers(1, 10)), max_size=20))
@settings(max_examples=60)
def test_remove_is_exact_inverse(machine, ops):
    table = ResourceTable(machine)
    placements = []
    for fu, min_cycle in ops:
        unit = machine.unit_for(fu)
        cycle = table.earliest(unit, min_cycle)
        table.place(unit, cycle)
        placements.append((unit, cycle))
    for unit, cycle in reversed(placements):
        table.remove(unit, cycle)
    # the table is empty again: everything is placeable at cycle 1
    for fu in (FuClass.LOAD_STORE, FuClass.SYNC, FuClass.DIVIDER):
        assert table.can_place(machine.unit_for(fu), 1)
    assert all(v == 0 for v in table.issue_used.values())


@given(machine=_machines, fu=_fus, min_cycle=st.integers(1, 20))
@settings(max_examples=60)
def test_earliest_is_minimal(machine, fu, min_cycle):
    table = ResourceTable(machine)
    unit = machine.unit_for(fu)
    # congest the early cycles a bit
    for c in range(1, 4):
        while table.can_place(unit, c):
            table.place(unit, c)
    found = table.earliest(unit, min_cycle)
    assert table.can_place(unit, found)
    for cycle in range(min_cycle, found):
        assert not table.can_place(unit, cycle)
