"""Resource reservation table tests."""

import pytest

from repro.codegen.isa import FuClass
from repro.sched import ResourceTable, figure4_machine, paper_machine

FIG4 = figure4_machine()
PAPER_4_1 = paper_machine(4, 1)
PAPER_4_2 = paper_machine(4, 2)


class TestIssueSlots:
    def test_issue_width_enforced(self):
        table = ResourceTable(FIG4)  # 4-issue
        for fu in (FuClass.LOAD_STORE, FuClass.INT_ALU, FuClass.SHIFTER, FuClass.SYNC):
            table.place(FIG4.unit_for(fu), 1)
        assert not table.can_place(FIG4.unit_for(FuClass.MULTIPLIER), 1)

    def test_cycle_zero_unplaceable(self):
        table = ResourceTable(FIG4)
        assert not table.can_place(FIG4.unit_for(FuClass.INT_ALU), 0)


class TestUnits:
    def test_single_unit_exclusion(self):
        table = ResourceTable(FIG4)
        adder = FIG4.unit_for(FuClass.INT_ALU)
        table.place(adder, 1)
        assert not table.can_place(adder, 1)
        assert table.can_place(adder, 2)

    def test_shared_adder_classes_conflict(self):
        table = ResourceTable(FIG4)
        table.place(FIG4.unit_for(FuClass.INT_ALU), 1)
        assert not table.can_place(FIG4.unit_for(FuClass.FP_ALU), 1)

    def test_two_unit_machine_allows_two(self):
        table = ResourceTable(PAPER_4_2)
        integer = PAPER_4_2.unit_for(FuClass.INT_ALU)
        table.place(integer, 1)
        assert table.can_place(integer, 1)
        table.place(integer, 1)
        assert not table.can_place(integer, 1)

    def test_multicycle_unit_busy_for_latency(self):
        table = ResourceTable(PAPER_4_1)
        multiplier = PAPER_4_1.unit_for(FuClass.MULTIPLIER)
        table.place(multiplier, 1)  # 3 cycles: busy 1,2,3
        assert not table.can_place(multiplier, 2)
        assert not table.can_place(multiplier, 3)
        assert table.can_place(multiplier, 4)

    def test_multicycle_blocks_backward_overlap(self):
        table = ResourceTable(PAPER_4_1)
        divider = PAPER_4_1.unit_for(FuClass.DIVIDER)
        table.place(divider, 5)  # busy 5..10
        assert not table.can_place(divider, 3)  # 3..8 overlaps
        assert table.can_place(divider, 11)


class TestSearch:
    def test_earliest_skips_busy_cycles(self):
        table = ResourceTable(FIG4)
        sync = FIG4.unit_for(FuClass.SYNC)
        table.place(sync, 1)
        table.place(sync, 2)
        assert table.earliest(sync, 1) == 3

    def test_latest_at_most(self):
        table = ResourceTable(FIG4)
        sync = FIG4.unit_for(FuClass.SYNC)
        table.place(sync, 3)
        assert table.latest_at_most(sync, 3, 1) == 2
        table.place(sync, 2)
        table.place(sync, 1)
        assert table.latest_at_most(sync, 3, 1) is None

    def test_remove_restores_capacity(self):
        table = ResourceTable(FIG4)
        adder = FIG4.unit_for(FuClass.INT_ALU)
        table.place(adder, 1)
        table.remove(adder, 1)
        assert table.can_place(adder, 1)

    def test_place_raises_on_conflict(self):
        table = ResourceTable(FIG4)
        table.place(FIG4.unit_for(FuClass.INT_ALU), 1)
        with pytest.raises(ValueError):
            table.place(FIG4.unit_for(FuClass.FP_ALU), 1)
