"""Semantic parallel execution tests: memory equivalence with serial
execution and timing agreement with the analytic simulator."""

from dataclasses import replace

import pytest

from repro.pipeline import compile_loop
from repro.sched import figure4_machine, list_schedule, paper_machine, sync_schedule
from repro.sim import MemoryImage, execute_parallel, run_serial, simulate_doacross


def both_schedules(source, machine=None):
    compiled = compile_loop(source)
    machine = machine or figure4_machine()
    return compiled, [
        list_schedule(compiled.lowered, compiled.graph, machine),
        sync_schedule(compiled.lowered, compiled.graph, machine),
    ]


SOURCES = [
    "DO I = 1, 40\n A(I) = A(I-1) + X(I)\nENDDO",
    "DO I = 1, 40\n A(I) = A(I-2) * X(I)\nENDDO",
    "DO I = 1, 40\n B(I) = A(I-1)\n A(I) = X(I) + Y(I)\nENDDO",
    """
    DO I = 1, 40
      S1: B(I) = A(I-2) + E(I+1)
      S2: G(I-3) = A(I-1) * E(I+2)
      S3: A(I) = B(I) + C(I+3)
    ENDDO
    """,
    "DO I = 1, 40\n T = X(I) * Y(I)\n A(I) = T + A(I-1)\nENDDO",
]


class TestSemanticEquivalence:
    @pytest.mark.parametrize("source", SOURCES)
    def test_matches_serial_memory(self, source):
        compiled, schedules = both_schedules(source)
        reference = run_serial(compiled.synced.loop, MemoryImage())
        for schedule in schedules:
            result = execute_parallel(schedule, MemoryImage())
            assert result.memory == reference, result.memory.diff(reference)[:3]

    @pytest.mark.parametrize("source", SOURCES)
    def test_timing_matches_simulation(self, source):
        _, schedules = both_schedules(source)
        for schedule in schedules:
            sim = simulate_doacross(schedule)
            result = execute_parallel(schedule, MemoryImage())
            assert result.parallel_time == sim.parallel_time
            assert result.finish_times == sim.finish_times

    def test_multicycle_machine(self):
        compiled, schedules = both_schedules(SOURCES[3], paper_machine(2, 1))
        reference = run_serial(compiled.synced.loop, MemoryImage())
        for schedule in schedules:
            result = execute_parallel(schedule, MemoryImage())
            assert result.memory == reference
            assert result.parallel_time == simulate_doacross(schedule).parallel_time


class TestFailureInjection:
    def test_broken_schedule_reads_stale_data(self):
        """Violating the synchronization condition (hoisting a sink load
        before its wait at runtime by swapping the wait away) must produce
        a memory difference — proving the checker can actually fail."""
        compiled, [schedule, _] = both_schedules("DO I = 1, 40\n A(I) = A(I-1) + X(I)\nENDDO")
        # Sabotage: move the wait after everything, so the sink load no
        # longer blocks on the previous iteration.
        wait_iid = compiled.lowered.wait_iids[0]
        cycle_of = {**schedule.cycle_of, wait_iid: max(schedule.cycle_of.values()) + 5}
        result = execute_parallel(replace(schedule, cycle_of=cycle_of), MemoryImage())
        reference = run_serial(compiled.synced.loop, MemoryImage())
        assert result.memory != reference

    def test_max_cycles_backstop(self):
        _, [schedule, _] = both_schedules("DO I = 1, 10\n A(I) = A(I-1)\nENDDO")
        with pytest.raises(RuntimeError, match="exceeded 3 cycles"):
            execute_parallel(schedule, MemoryImage(), max_cycles=3)


class TestDeterminism:
    def test_two_runs_identical(self):
        _, schedules = both_schedules(SOURCES[0])
        a = execute_parallel(schedules[0], MemoryImage())
        b = execute_parallel(schedules[0], MemoryImage())
        assert a.memory == b.memory and a.parallel_time == b.parallel_time
