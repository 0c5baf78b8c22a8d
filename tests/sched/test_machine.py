"""Machine configuration tests."""

import pickle

import pytest

from repro.codegen.isa import FuClass
from repro.sched import MachineConfig, UnitSpec, figure4_machine, paper_machine
from repro.sched.machine import paper_cases


class TestPaperMachines:
    def test_four_cases(self):
        cases = paper_cases()
        assert [(m.issue_width, m.unit_for(FuClass.INT_ALU).count) for m in cases] == [
            (2, 1),
            (2, 2),
            (4, 1),
            (4, 2),
        ]

    def test_latencies(self):
        m = paper_machine(4, 1)
        assert m.latency(FuClass.MULTIPLIER) == 3
        assert m.latency(FuClass.DIVIDER) == 6
        assert m.latency(FuClass.INT_ALU) == 1
        assert m.latency(FuClass.LOAD_STORE) == 1

    def test_single_sync_port_always(self):
        for fu_count in (1, 2):
            assert paper_machine(2, fu_count).unit_for(FuClass.SYNC).count == 1

    def test_separate_int_fp_units(self):
        m = paper_machine(2, 1)
        assert m.unit_for(FuClass.INT_ALU).name != m.unit_for(FuClass.FP_ALU).name

    def test_unpickled_without_unit_map(self):
        # Compile caches saved before the FuClass -> unit map existed hold
        # machines whose pickled state has only the dataclass fields.
        m = paper_machine(4, 1)
        old = pickle.loads(pickle.dumps(m))
        del old.__dict__["_unit_of"]
        assert old.unit_for(FuClass.MULTIPLIER) is old.units[3]
        assert old.latency(FuClass.DIVIDER) == 6
        assert old == m and hash(old) == hash(m)


class TestFigure4Machine:
    def test_shared_adder(self):
        m = figure4_machine()
        assert m.unit_for(FuClass.INT_ALU) is m.unit_for(FuClass.FP_ALU)

    def test_unit_latencies_all_one(self):
        m = figure4_machine()
        assert all(u.latency == 1 for u in m.units)

    def test_issue_width(self):
        assert figure4_machine().issue_width == 4


class TestValidation:
    def test_unserved_class_rejected(self):
        with pytest.raises(ValueError, match="not served"):
            MachineConfig(
                name="bad",
                issue_width=2,
                units=(UnitSpec("ls", frozenset({FuClass.LOAD_STORE}), 1),),
            )

    def test_double_served_class_rejected(self):
        units = list(figure4_machine().units) + [
            UnitSpec("extra", frozenset({FuClass.SHIFTER}), 1)
        ]
        with pytest.raises(ValueError, match="served by both"):
            MachineConfig(name="bad", issue_width=2, units=tuple(units))

    def test_duplicate_unit_names_rejected(self):
        # Occupancy is counted per unit name: two "alu" units would share
        # one counter and be checked against one count.
        units = [u for u in paper_machine(2, 1).units if u.name not in ("integer", "float")]
        units += [
            UnitSpec("alu", frozenset({FuClass.INT_ALU}), 1),
            UnitSpec("alu", frozenset({FuClass.FP_ALU}), 2),
        ]
        with pytest.raises(ValueError, match="duplicate unit names: \\['alu'\\]"):
            MachineConfig(name="bad", issue_width=2, units=tuple(units))

    def test_bad_issue_width(self):
        with pytest.raises(ValueError):
            MachineConfig(name="bad", issue_width=0, units=figure4_machine().units)

    def test_bad_unit_count(self):
        with pytest.raises(ValueError):
            UnitSpec("x", frozenset({FuClass.SYNC}), 0)

    def test_bad_latency(self):
        with pytest.raises(ValueError):
            UnitSpec("x", frozenset({FuClass.SYNC}), 1, latency=0)
