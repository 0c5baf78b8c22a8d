"""Seeded differential fuzzing of the simulators under fault injection.

The standing correctness tool behind ``make fuzz-smoke`` and ``repro
fuzz``: generate random DOACROSS loops (:mod:`repro.workloads`'s planted
-dependence generator) and random :class:`~repro.robust.faults.FaultPlan`
instances, then cross-check every implementation we have:

* the **analytic fast path** against the **exact event walk** with no
  faults (they must agree bit-for-bit whenever the fast path answers);
* the event walk **with faults** against the **semantic executor** with
  the same faults (identical ``parallel_time`` and ``finish_times``, and
  the executor's memory must still equal serial execution — injected
  *timing* faults must never corrupt *values*);
* a fault plan that **drops** a depended-upon delivery must raise
  :class:`~repro.robust.deadlock.DeadlockError` from *both* simulators,
  and the walk's orphaned ``(signal, producer-iteration)`` pair must be
  among the executor's;
* a non-empty plan must record an explicit ``fallback_reason`` instead of
  silently using the closed form.

Everything is a pure function of ``(seed, case index)``, so a CI failure
reproduces locally with the same seed, and
:attr:`FuzzFailure.reproduce` prints the exact case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.obs.metrics import count as metric_count
from repro.robust.deadlock import DeadlockError
from repro.robust.faults import (
    FaultPlan,
    LatencyJitter,
    ProcessorStall,
    SignalDelay,
    SignalDrop,
)

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz"]


@dataclass(frozen=True)
class FuzzFailure:
    """One disagreement, with everything needed to replay it."""

    case: int
    kind: str
    detail: str
    reproduce: str

    def describe(self) -> str:
        return f"case {self.case} [{self.kind}]: {self.detail}\n  replay: {self.reproduce}"


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` run."""

    seed: int
    cases: int = 0
    skipped: int = 0  # generated loops that were SERIAL (nothing to check)
    fast_path_agreements: int = 0
    fault_fallbacks: int = 0  # non-empty plans with recorded fallback_reason
    deadlock_cases: int = 0
    executor_checks: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.cases} cases "
            f"({self.skipped} serial-skipped), "
            f"{self.fast_path_agreements} fast-path agreements, "
            f"{self.fault_fallbacks} recorded fault fallbacks, "
            f"{self.deadlock_cases} injected deadlocks diagnosed, "
            f"{self.executor_checks} executor differentials",
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        lines.append("PASS" if self.ok else f"FAIL ({len(self.failures)} disagreement(s))")
        return "\n".join(lines)


def _random_config(rng: random.Random):
    from repro.workloads import GeneratorConfig, PlantedDep

    statements = rng.randint(1, 3)
    deps = []
    used = set()
    for _ in range(rng.randint(0, 2)):
        source = rng.randrange(statements)
        sink = rng.randrange(statements)
        if (source, sink) in used:
            continue
        used.add((source, sink))
        deps.append(
            PlantedDep(
                source,
                sink,
                rng.randint(1, 3),
                chained=source >= sink and rng.random() < 0.5,
            )
        )
    return GeneratorConfig(
        statements=statements,
        deps=tuple(deps),
        trip_count=rng.choice([10, 12, 14]),
        noise_reads=(0, 2),
        temp_scalars=rng.randint(0, 1),
        reductions=0,
        guard_prob=rng.choice([0.0, 0.5]),
        seed=rng.randrange(1_000_000),
    )


def _random_plan(rng: random.Random, pair_ids: list[int], n: int) -> FaultPlan:
    """A random *non-halting* plan: delays, stalls, jitter — no drops."""
    delays = tuple(
        SignalDelay(
            extra=rng.randint(1, 4),
            pair_id=rng.choice(pair_ids) if pair_ids and rng.random() < 0.7 else None,
            iteration=rng.randint(1, n) if rng.random() < 0.5 else None,
        )
        for _ in range(rng.randint(0, 2))
    )
    stalls = tuple(
        ProcessorStall(
            iteration=rng.randint(1, n),
            at_cycle=rng.randint(1, 6),
            cycles=rng.randint(1, 5),
        )
        for _ in range(rng.randint(0, 2))
    )
    jitter = (
        LatencyJitter(seed=rng.randrange(1_000_000), max_extra=rng.randint(1, 3), prob=0.4)
        if rng.random() < 0.5
        else None
    )
    return FaultPlan(delays=delays, stalls=stalls, jitter=jitter, label="fuzz")


def run_fuzz(
    cases: int = 200,
    seed: int = 0,
    executor_every: int = 1,
) -> FuzzReport:
    """Run ``cases`` random (loop, machine, scheduler, FaultPlan) cases.

    Deterministic in ``(cases, seed, executor_every)``.  The semantic
    executor (the expensive oracle) runs on every ``executor_every``-th
    case and on every drop case; the timing differentials run on all of
    them.  At the generator's trip counts ``repro fuzz --cases 200`` (the
    executor on every case) takes ~0.75 s of wall time on a 2-core host.
    """
    from repro.pipeline import compile_loop
    from repro.sched import figure4_machine, list_schedule, paper_machine, sync_schedule
    from repro.sim import MemoryImage, execute_parallel, run_serial, simulate_doacross
    from repro.workloads import generate_loop

    report = FuzzReport(seed=seed)
    machines = [paper_machine(2, 1), paper_machine(4, 2), figure4_machine()]
    schedulers = [list_schedule, sync_schedule]
    for index in range(cases):
        rng = random.Random(f"{seed}:{index}")
        config = _random_config(rng)
        replay = f"run_fuzz(cases=1, seed={seed}) at index {index}; config={config!r}"
        try:
            compiled = compile_loop(generate_loop(config))
        except ValueError:
            report.skipped += 1
            report.cases += 1
            continue
        machine = rng.choice(machines)
        scheduler = rng.choice(schedulers)
        schedule = scheduler(compiled.lowered, compiled.graph, machine)
        n = int(compiled.synced.loop.upper.value)
        pairs = list(compiled.synced.pairs)
        pair_ids = [pair.pair_id for pair in pairs]
        report.cases += 1
        metric_count("robust.fuzz.cases")

        def fail(kind: str, detail: str) -> None:
            report.failures.append(FuzzFailure(index, kind, detail, replay))

        # 1. fast path vs exact walk, no faults.
        fast = simulate_doacross(schedule, n)
        walk = simulate_doacross(schedule, n, exact_simulation=True)
        if (fast.parallel_time, fast.finish_times) != (
            walk.parallel_time,
            walk.finish_times,
        ):
            fail(
                "fastpath",
                f"dispatch={fast.dispatch}: {fast.parallel_time} != {walk.parallel_time}",
            )
            continue
        if fast.dispatch == "fast_path":
            report.fast_path_agreements += 1

        # 2. timing walk vs semantic executor under a non-halting plan.
        plan = _random_plan(rng, pair_ids, n)
        sim = simulate_doacross(schedule, n, faults=plan)
        if plan and sim.fallback_reason is None:
            fail("fallback", "non-empty plan but no fallback_reason recorded")
        if plan:
            report.fault_fallbacks += 1
        run_executor = index % executor_every == 0
        if run_executor:
            report.executor_checks += 1
            result = execute_parallel(schedule, MemoryImage(), n, faults=plan)
            if (result.parallel_time, result.finish_times) != (
                sim.parallel_time,
                sim.finish_times,
            ):
                fail(
                    "executor",
                    f"plan={plan!r}: executor {result.parallel_time} != "
                    f"walk {sim.parallel_time}",
                )
                continue
            reference = run_serial(compiled.synced.loop, MemoryImage())
            if result.memory != reference:
                fail(
                    "memory",
                    f"plan={plan!r}: timing faults corrupted memory: "
                    f"{result.memory.diff(reference)[:3]}",
                )
                continue

        # 3. a dropped depended-upon delivery must deadlock both simulators.
        droppable = [pair for pair in pairs if pair.distance < n]
        if not droppable:
            continue
        victim = rng.choice(droppable)
        producer = rng.randint(1, n - victim.distance)
        drop_plan = FaultPlan(
            drops=(SignalDrop(pair_id=victim.pair_id, iteration=producer),),
            label="fuzz-drop",
        )
        report.deadlock_cases += 1
        try:
            simulate_doacross(schedule, n, faults=drop_plan)
            fail("deadlock", f"walk completed despite dropped {victim.pair_id}/{producer}")
            continue
        except DeadlockError as err:
            walk_orphans = set(err.orphaned_signals())
        try:
            execute_parallel(schedule, MemoryImage(), n, faults=drop_plan)
            fail(
                "deadlock",
                f"executor completed despite dropped {victim.pair_id}/{producer}",
            )
            continue
        except DeadlockError as err:
            if not walk_orphans & set(err.orphaned_signals()):
                fail(
                    "deadlock",
                    f"orphan mismatch: walk {sorted(walk_orphans)} vs executor "
                    f"{sorted(err.orphaned_signals())}",
                )
    return report
