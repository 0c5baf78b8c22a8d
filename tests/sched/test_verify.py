"""Schedule verifier tests: each violation class is actually caught."""

from dataclasses import replace

import pytest

from repro.sched import assert_valid, list_schedule, verify_schedule


@pytest.fixture
def valid_schedule(fig1_lowered, fig1_dfg, fig4_machine):
    return list_schedule(fig1_lowered, fig1_dfg, fig4_machine)


def moved(schedule, moves):
    """A copy of ``schedule`` with the instructions ``moves`` names moved
    to the cycles it gives."""
    return replace(schedule, cycle_of={**schedule.cycle_of, **moves})


class TestDetection:
    def test_valid_schedule_clean(self, valid_schedule, fig1_dfg):
        assert verify_schedule(valid_schedule, fig1_dfg) == []

    def test_missing_instruction(self, valid_schedule, fig1_dfg):
        cycle_of = dict(valid_schedule.cycle_of)
        del cycle_of[5]
        violations = verify_schedule(replace(valid_schedule, cycle_of=cycle_of), fig1_dfg)
        assert any("not scheduled" in v for v in violations)

    def test_unknown_instruction(self, valid_schedule, fig1_dfg):
        violations = verify_schedule(moved(valid_schedule, {999: 1}), fig1_dfg)
        assert any("unknown" in v for v in violations)

    def test_nonpositive_cycle(self, valid_schedule, fig1_dfg):
        violations = verify_schedule(moved(valid_schedule, {1: 0}), fig1_dfg)
        assert any("< 1" in v for v in violations)

    def test_dependence_violation(self, valid_schedule, fig1_dfg):
        # node 9 consumes node 5's load; same cycle breaks the latency
        broken = moved(valid_schedule, {9: valid_schedule.cycle_of[5]})
        violations = verify_schedule(broken, fig1_dfg)
        assert any("edge" in v for v in violations)

    def test_issue_width_violation(self, valid_schedule, fig1_dfg):
        # five instructions in cycle 1 on a 4-issue machine
        broken = moved(valid_schedule, {23: 1, 24: 1})
        violations = verify_schedule(broken, fig1_dfg)
        assert any("width" in v for v in violations)

    def test_unit_conflict_violation(self, valid_schedule, fig1_dfg):
        # two loads in one cycle with a single load/store unit
        broken = moved(valid_schedule, {25: valid_schedule.cycle_of[19]})
        violations = verify_schedule(broken, fig1_dfg)
        assert any("unit" in v for v in violations)

    def test_sync_condition_send_before_source(self, valid_schedule, fig1_dfg):
        # hoist the send before its source store (26)
        broken = moved(valid_schedule, {27: valid_schedule.cycle_of[26]})
        violations = verify_schedule(broken, fig1_dfg)
        assert any("send" in v and "source" in v for v in violations)

    def test_sync_condition_wait_after_sink(self, valid_schedule, fig1_dfg):
        broken = moved(valid_schedule, {1: valid_schedule.cycle_of[5] + 1})
        violations = verify_schedule(broken, fig1_dfg)
        assert any("wait" in v and "sink" in v for v in violations)

    def test_assert_valid_raises_with_details(self, valid_schedule, fig1_dfg):
        with pytest.raises(AssertionError, match="invalid schedule"):
            assert_valid(moved(valid_schedule, {1: 99}), fig1_dfg)
