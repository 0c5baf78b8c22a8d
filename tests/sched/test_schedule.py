"""Schedule result type tests."""

import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.sched import Schedule, list_schedule, paper_machine


class TestDerivedQuantities:
    def test_length_includes_trailing_latency(self, fig1_lowered, fig1_dfg):
        machine = paper_machine(4, 1)
        schedule = list_schedule(fig1_lowered, fig1_dfg, machine)
        # If the last issue is a 1-cycle op, length == issue_cycles; a
        # trailing multiply would extend it.
        assert schedule.length >= schedule.issue_cycles

    def test_bundles_partition_instructions(self, fig1_lowered, fig1_dfg, fig4_machine):
        schedule = list_schedule(fig1_lowered, fig1_dfg, fig4_machine)
        flat = [iid for bundle in schedule.bundles() for iid in bundle]
        assert sorted(flat) == [i.iid for i in fig1_lowered.instructions]

    def test_bundles_respect_cycles(self, fig1_lowered, fig1_dfg, fig4_machine):
        schedule = list_schedule(fig1_lowered, fig1_dfg, fig4_machine)
        for cycle, bundle in enumerate(schedule.bundles(), start=1):
            for iid in bundle:
                assert schedule.cycle_of[iid] == cycle

    def test_span_sign_conventions(self, fig1_lowered, fig1_dfg, fig4_machine):
        schedule = list_schedule(fig1_lowered, fig1_dfg, fig4_machine)
        for pair in fig1_lowered.synced.pairs:
            expected = schedule.send_cycle(pair.pair_id) - schedule.wait_cycle(pair.pair_id) + 1
            assert schedule.span(pair.pair_id) == expected

    def test_format_shows_empty_slots(self, fig1_lowered, fig1_dfg, fig4_machine):
        schedule = list_schedule(fig1_lowered, fig1_dfg, fig4_machine)
        text = schedule.format()
        assert "(1, 2, 3, -)" in text
        assert text.count("\n") + 1 == schedule.issue_cycles

    def test_empty_schedule(self, fig1_lowered, fig4_machine):
        empty = Schedule(machine=fig4_machine, lowered=fig1_lowered)
        assert empty.length == 0 and empty.bundles() == []


class TestValue:
    """A schedule is an immutable value whose derived numbers are fixed
    when it is built."""

    def test_cycle_of_is_read_only(self, fig1_lowered, fig1_dfg, fig4_machine):
        schedule = list_schedule(fig1_lowered, fig1_dfg, fig4_machine)
        with pytest.raises(TypeError):
            schedule.cycle_of[1] = 2

    def test_attributes_cannot_be_assigned(self, fig1_lowered, fig1_dfg, fig4_machine):
        schedule = list_schedule(fig1_lowered, fig1_dfg, fig4_machine)
        with pytest.raises(FrozenInstanceError):
            schedule.scheduler_name = "renamed"
        with pytest.raises(FrozenInstanceError):
            schedule.length = 1

    def test_replace_recomputes_length(self, fig1_lowered, fig1_dfg):
        machine = paper_machine(4, 1)
        schedule = list_schedule(fig1_lowered, fig1_dfg, machine)
        multiply = next(
            i.iid for i in fig1_lowered.instructions if machine.latency(i.fu) == 3
        )
        late = schedule.length + 10
        moved = replace(schedule, cycle_of={**schedule.cycle_of, multiply: late})
        assert moved.length == late + 2
        assert moved.issue_cycles == late
        assert schedule.cycle_of[multiply] != late  # the original is untouched

    def test_built_from_a_copy(self, fig1_lowered, fig4_machine):
        cycle_of = {i.iid: i.iid for i in fig1_lowered.instructions}
        schedule = Schedule(machine=fig4_machine, lowered=fig1_lowered, cycle_of=cycle_of)
        cycle_of[1] = 99
        assert schedule.cycle_of[1] == 1
        assert schedule.length == len(fig1_lowered.instructions)

    def test_pickle_round_trip(self, fig1_lowered, fig1_dfg, fig4_machine):
        schedule = list_schedule(fig1_lowered, fig1_dfg, fig4_machine)
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone.machine == schedule.machine
        assert dict(clone.cycle_of) == dict(schedule.cycle_of)
        assert (clone.length, clone.issue_cycles, clone.scheduler_name) == (
            schedule.length,
            schedule.issue_cycles,
            schedule.scheduler_name,
        )
        with pytest.raises(TypeError):
            clone.cycle_of[1] = 2
