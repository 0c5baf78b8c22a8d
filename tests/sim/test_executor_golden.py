"""Semantic executor golden: every outcome, not just the parallel time.

The differential tests compare the executor with the timing walk on a
handful of loops.  This test pins what the executor itself returns over a
seeded corpus: generated loops on the four paper machines, the Fig. 4
machine and a pipelined machine; both schedulers; no fault plan, a random
non-halting plan (delays, stalls, jitter) and a drop plan; one processor
per iteration and ``n/2``, 3 and 1 processors under cyclic and block
mapping; signal latencies 1 and 2 (and 0 with one processor per
iteration); tight ``max_cycles`` budgets; and a few Perfect loops at
``n = 100``.  Each case stores the first 16 hex digits of the sha256 of
one outcome:

* a completed run: ``parallel_time``, ``finish_times`` and the sorted
  memory cells;
* a :class:`DeadlockError`: ``at_cycle``, the ``BlockedWait`` tuples and
  ``plan_label``;
* any other ``RuntimeError`` (the ``max_cycles`` backstop): its message.

Regenerate (only when an outcome change is intentional) with::

    PYTHONPATH=src python tests/sim/test_executor_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.pipeline import compile_loop
from repro.robust import DeadlockError, FaultPlan
from repro.robust.faults import LatencyJitter, ProcessorStall, SignalDelay, SignalDrop
from repro.sched import figure4_machine, list_schedule, paper_machine, sync_schedule
from repro.sched.machine import paper_cases
from repro.sim import MemoryImage, execute_parallel, simulate_doacross
from repro.workloads import GeneratorConfig, PlantedDep, generate_loop, perfect_suite

GOLDEN = Path(__file__).parent / "golden" / "executor.json"

MACHINES = [*paper_cases(), figure4_machine(), paper_machine(4, 1, pipelined=True)]
SCHEDULERS = {"list": list_schedule, "sync": sync_schedule}
LOOPS = 24  # generated loops, each scheduled on two machines
CONFIGS_PER_PLAN = 2  # (processors, mapping, latency) draws per schedule and plan
PERFECT = [("FLQ52", 0), ("MDG", 1), ("TRACK", 0), ("ADM", 2)]


def generated_config(rng: random.Random) -> GeneratorConfig:
    statements = rng.randint(1, 3)
    deps = {}
    for _ in range(rng.randint(1, 3)):
        source, sink = rng.randrange(statements), rng.randrange(statements)
        deps[source, sink] = PlantedDep(
            source, sink, rng.randint(1, 3), chained=source >= sink and rng.random() < 0.5
        )
    return GeneratorConfig(
        statements=statements,
        deps=tuple(deps.values()),
        trip_count=rng.choice([10, 12, 14]),
        noise_reads=(0, 2),
        temp_scalars=rng.randint(0, 1),
        guard_prob=rng.choice([0.0, 0.5]),
        seed=rng.randrange(1_000_000),
    )


def random_plan(rng: random.Random, pair_ids: list[int], n: int) -> FaultPlan:
    """Delays, stalls and jitter: a plan under which every run completes."""
    delays = tuple(
        SignalDelay(
            extra=rng.randint(1, 4),
            pair_id=rng.choice(pair_ids) if rng.random() < 0.7 else None,
            iteration=rng.randint(1, n) if rng.random() < 0.5 else None,
        )
        for _ in range(rng.randint(1, 2))
    )
    stalls = tuple(
        ProcessorStall(
            iteration=rng.randint(1, n), at_cycle=rng.randint(1, 6), cycles=rng.randint(1, 5)
        )
        for _ in range(rng.randint(0, 2))
    )
    jitter = LatencyJitter(seed=rng.randrange(1_000_000), max_extra=3, prob=0.4)
    return FaultPlan(delays=delays, stalls=stalls, jitter=jitter, label="golden")


def drop_plan(rng: random.Random, pairs: list, n: int) -> FaultPlan | None:
    """One dropped delivery that some iteration waits for, plus a delay."""
    droppable = [pair for pair in pairs if pair.distance < n]
    if not droppable:
        return None
    victim = rng.choice(droppable)
    return FaultPlan(
        drops=(SignalDrop(victim.pair_id, rng.randint(1, n - victim.distance)),),
        delays=(SignalDelay(extra=rng.randint(1, 3)),),
        label="golden-drop",
    )


def folding_grid(n: int) -> list[dict]:
    """Every (processors, mapping, signal_latency) setting of one schedule."""
    grid = [{"signal_latency": latency} for latency in (0, 1, 2)]
    for processors in (n // 2, 3, 1):
        for mapping in ("cyclic", "block") if processors > 1 else ("cyclic",):
            for latency in (1, 2):
                grid.append(
                    {"processors": processors, "mapping": mapping, "signal_latency": latency}
                )
    return grid


def outcome(schedule, **kwargs) -> str:
    """``kind:digest`` of one execution's outcome."""
    try:
        result = execute_parallel(schedule, MemoryImage(), **kwargs)
    except DeadlockError as err:
        kind = "deadlock"
        record = [err.at_cycle, [astuple(b) for b in err.blocked], err.plan_label]
    except RuntimeError as err:
        kind, record = "runaway", [str(err)]
    else:
        cells = sorted(
            json.dumps([name, index, value])
            for (name, index), value in result.memory.cells.items()
        )
        kind, record = "ok", [result.parallel_time, result.finish_times, cells]
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]
    return f"{kind}:{digest}"


def cases() -> list[tuple[str, object, dict]]:
    """(label, schedule, execute_parallel keyword arguments) of the corpus."""
    corpus = []
    built = 0
    seed = 0
    while built < LOOPS:
        rng = random.Random(f"executor-golden:{seed}")
        seed += 1
        try:
            compiled = compile_loop(generate_loop(generated_config(rng)))
        except ValueError:  # SERIAL after restructuring: nothing to execute
            continue
        n = int(compiled.synced.loop.upper.value)
        pairs = list(compiled.synced.pairs)
        pair_ids = [pair.pair_id for pair in pairs] or [0]
        for machine in (MACHINES[built % 6], MACHINES[(built + 3) % 6]):
            for name, scheduler in SCHEDULERS.items():
                schedule = scheduler(compiled.lowered, compiled.graph, machine)
                where = f"gen{seed - 1}/{machine.name}/{name}"
                plans = {"none": None, "random": random_plan(rng, pair_ids, n)}
                plans["drop"] = drop_plan(rng, pairs, n)
                for plan_name, plan in plans.items():
                    if plan_name == "drop" and plan is None:
                        continue
                    for setting in rng.sample(folding_grid(n), CONFIGS_PER_PLAN):
                        label = f"{where}/{plan_name}/" + ",".join(
                            f"{key}={value}" for key, value in setting.items()
                        )
                        corpus.append((label, schedule, {"faults": plan, **setting}))
                if built % 6 == 0:
                    walk = simulate_doacross(schedule, n).parallel_time
                    for budget in sorted({3, walk - 1, walk}):
                        corpus.append(
                            (f"{where}/none/max_cycles={budget}", schedule, {"max_cycles": budget})
                        )
                    if plans["drop"] is not None:
                        corpus.append(
                            (
                                f"{where}/drop/max_cycles={walk}",
                                schedule,
                                {"faults": plans["drop"], "max_cycles": walk},
                            )
                        )
        built += 1
    suite = perfect_suite()
    for corpus_name, index in PERFECT:
        compiled = compile_loop(suite[corpus_name][index])
        for name, scheduler in SCHEDULERS.items():
            schedule = scheduler(compiled.lowered, compiled.graph, figure4_machine())
            corpus.append((f"{corpus_name}[{index}]/{name}/n=100", schedule, {"n": 100}))
    return corpus


def outcomes() -> dict[str, str]:
    return {label: outcome(schedule, **kwargs) for label, schedule, kwargs in cases()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_outcomes_match_golden(golden):
    actual = outcomes()
    assert list(actual) == list(golden)
    changed = [label for label, got in actual.items() if got != golden[label]]
    assert not changed, f"{len(changed)} executor outcomes changed: {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outcomes(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
