"""Limited-processor (folded) and signal-latency simulation tests."""

import pytest

from repro.pipeline import compile_loop
from repro.sched import figure4_machine, list_schedule, paper_machine, sync_schedule
from repro.sim import MemoryImage, execute_parallel, run_serial, simulate_doacross


def schedule_for(source, scheduler=sync_schedule, machine=None):
    compiled = compile_loop(source)
    return compiled, scheduler(compiled.lowered, compiled.graph, machine or figure4_machine())


class TestFolding:
    def test_one_processor_is_serial(self):
        _, schedule = schedule_for("DO I = 1, 20\n A(I) = X(I) + Y(I)\nENDDO")
        sim = simulate_doacross(schedule, processors=1)
        assert sim.parallel_time == 20 * schedule.length

    def test_full_processors_matches_default(self):
        _, schedule = schedule_for("DO I = 1, 20\n A(I) = A(I-1) + X(I)\nENDDO")
        default = simulate_doacross(schedule)
        explicit = simulate_doacross(schedule, processors=20)
        oversized = simulate_doacross(schedule, processors=64)
        assert default.parallel_time == explicit.parallel_time == oversized.parallel_time

    def test_monotone_in_processors(self):
        _, schedule = schedule_for("DO I = 1, 40\n A(I) = A(I-2) + X(I) * Y(I)\nENDDO")
        times = [
            simulate_doacross(schedule, processors=p).parallel_time
            for p in (1, 2, 4, 8, 16, 40)
        ]
        assert times == sorted(times, reverse=True)

    def test_doall_perfect_scaling(self):
        _, schedule = schedule_for("DO I = 1, 40\n A(I) = X(I) + Y(I)\nENDDO")
        l = schedule.length
        for p in (1, 2, 4, 5, 8):
            sim = simulate_doacross(schedule, processors=p)
            # ceil(40/p) back-to-back iterations on the busiest processor
            assert sim.parallel_time == -(-40 // p) * l

    def test_executor_agrees_when_folded(self):
        compiled, schedule = schedule_for(
            "DO I = 1, 30\n A(I) = A(I-1) + X(I)\n B(I) = A(I-2) * Y(I)\nENDDO",
            machine=paper_machine(2, 1),
        )
        reference = run_serial(compiled.synced.loop, MemoryImage())
        for p in (1, 3, 8, 30):
            sim = simulate_doacross(schedule, processors=p)
            result = execute_parallel(schedule, MemoryImage(), processors=p)
            assert result.parallel_time == sim.parallel_time
            assert result.finish_times == sim.finish_times
            assert result.memory == reference

    def test_invalid_processor_count(self):
        _, schedule = schedule_for("DO I = 1, 10\n A(I) = X(I)\nENDDO")
        with pytest.raises(ValueError):
            simulate_doacross(schedule, processors=0)


class TestSignalLatency:
    def test_latency_increases_lbd_cost(self):
        _, schedule = schedule_for(
            "DO I = 1, 40\n A(I) = A(I-1) + X(I)\nENDDO", scheduler=list_schedule
        )
        t1 = simulate_doacross(schedule, signal_latency=1).parallel_time
        t5 = simulate_doacross(schedule, signal_latency=5).parallel_time
        span = schedule.span(0)
        assert t5 == t1 + 39 * 4  # each of the 39 hops pays 4 extra cycles
        assert t1 == 39 * span + schedule.length

    def test_latency_zero_allows_same_cycle(self):
        _, schedule = schedule_for("DO I = 1, 10\n A(I) = A(I-1)\nENDDO")
        t0 = simulate_doacross(schedule, signal_latency=0).parallel_time
        t1 = simulate_doacross(schedule, signal_latency=1).parallel_time
        assert t0 < t1

    def test_lfd_schedule_tolerates_small_latency(self):
        compiled, schedule = schedule_for(
            "DO I = 1, 40\n B(I) = A(I-1)\n A(I) = X(I)\nENDDO"
        )
        [pair] = compiled.synced.pairs
        slack = schedule.wait_cycle(pair.pair_id) - schedule.send_cycle(pair.pair_id)
        assert slack >= 1
        no_stall = simulate_doacross(schedule, signal_latency=slack)
        assert no_stall.parallel_time == schedule.length

    def test_executor_agrees_on_latency(self):
        compiled, schedule = schedule_for("DO I = 1, 20\n A(I) = A(I-1) + X(I)\nENDDO")
        reference = run_serial(compiled.synced.loop, MemoryImage())
        for processors in (None, 7, 3, 2):
            for latency in (0, 1, 3, 7):
                sim = simulate_doacross(
                    schedule, processors=processors, signal_latency=latency
                )
                result = execute_parallel(
                    schedule, MemoryImage(), processors=processors, signal_latency=latency
                )
                assert result.parallel_time == sim.parallel_time, (processors, latency)
                assert result.finish_times == sim.finish_times, (processors, latency)
                assert result.memory == reference, (processors, latency)

    def test_negative_latency_rejected(self):
        _, schedule = schedule_for("DO I = 1, 10\n A(I) = X(I)\nENDDO")
        with pytest.raises(ValueError):
            simulate_doacross(schedule, signal_latency=-1)
        with pytest.raises(ValueError):
            execute_parallel(schedule, MemoryImage(), signal_latency=-1)

    def test_executor_rejects_what_the_walk_rejects(self):
        _, schedule = schedule_for("DO I = 1, 10\n A(I) = X(I)\nENDDO")
        for kwargs, message in (
            ({"processors": 0}, "need at least one processor"),
            ({"n": -1}, "n must be non-negative"),
        ):
            with pytest.raises(ValueError, match=message):
                simulate_doacross(schedule, **kwargs)
            with pytest.raises(ValueError, match=message):
                execute_parallel(schedule, MemoryImage(), **kwargs)
