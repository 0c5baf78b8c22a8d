"""Timing simulation of the DOACROSS execution.

The model (matching the paper's):

* ``n`` iterations run on ``p`` processors (the paper's setting is
  ``p = n``, one iteration per processor — the default).  With ``p < n``,
  iterations are mapped cyclically (iteration ``k`` on processor
  ``(k-1) mod p``) and a processor starts its next iteration the cycle
  after finishing the previous one, the standard DOACROSS folding.
* A ``Wait_Signal`` with distance ``d`` in iteration ``k`` blocks until
  ``signal_latency`` cycles after iteration ``k-d`` issues the paired
  ``Send_Signal`` (iterations before the first need nothing and never
  stall).  The paper's signals are visible the next cycle
  (``signal_latency = 1``); larger values model slower interconnects.
* A stall at a wait delays that wait's bundle and everything after it by
  the stall amount; earlier bundles are unaffected (in-order issue).
* The loop's parallel execution time is the last iteration's completion.

Because signals only flow from lower to higher iterations and same-
processor predecessors are lower iterations too, iterations can be
resolved in increasing order in a single pass — the simulation is exact
and costs ``O(n · waits)``.

When at most one synchronization pair can stall, the Section 2 closed
form (:mod:`repro.sim.analytic`) gives the same answer without walking
iterations: :func:`simulate_doacross` detects that case in ``O(pairs)``
and returns the analytic result directly (the per-iteration stall is
``floor((k-1)/d) · per_hop``, so even the finish times are a closed
form).  Pass ``exact_simulation=True`` to force the full event walk —
the fast path is only taken when it is provably exact, so the results
are identical either way; the flag exists as an escape hatch and for
differential testing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.obs.explain import StallLink, active_journal
from repro.obs.metrics import count as metric_count
from repro.obs.trace import span
from repro.robust.deadlock import BlockedWait, DeadlockError
from repro.robust.faults import FaultPlan
from repro.sched.schedule import Schedule
from repro.sim.analytic import (
    ClosedFormPlan,
    ScheduleSignature,
    chain_finish_times,
    chain_total_stall,
    closed_form_plan,
)


@dataclass
class _IterationTiming:
    """Timing profile of one iteration: an absolute start offset plus the
    waits in cycle order with the cumulative stall in effect after each."""

    start: int = 0
    wait_cycles: list[int] = field(default_factory=list)
    cumulative_stall: list[int] = field(default_factory=list)

    def stall_at(self, cycle: int) -> int:
        """Cumulative stall affecting an instruction issued at local
        ``cycle`` (stalls from waits at cycles <= cycle apply)."""
        pos = bisect.bisect_right(self.wait_cycles, cycle)
        return self.cumulative_stall[pos - 1] if pos else 0

    def abs_cycle(self, cycle: int) -> int:
        """Absolute issue time of the bundle at local ``cycle``."""
        return self.start + cycle + self.stall_at(cycle)

    def final_stall(self) -> int:
        return self.cumulative_stall[-1] if self.cumulative_stall else 0


@dataclass
class SimulationResult:
    """Outcome of a DOACROSS timing simulation."""

    schedule: Schedule
    n: int
    parallel_time: int
    finish_times: list[int]  # absolute completion per iteration, in order
    total_stall: int
    processors: int = 0  # 0 = one per iteration (the paper's setting)
    signal_latency: int = 1
    dispatch: str = "event_walk"  # "fast_path" when the closed form answered
    stall_by_pair: dict[int, int] = field(default_factory=dict)
    """Total wait-stall cycles attributed to each sync pair (pair_id →
    cycles, summed over iterations); zero entries are included so the
    keys always cover every pair of the loop."""
    fallback_reason: str | None = None
    """Why the analytic fast path was *not* even attempted (``None`` when
    it was eligible): currently only fault injection — a non-empty
    :class:`~repro.robust.faults.FaultPlan` would make the closed form
    wrong, so the exact event walk answers instead."""

    @property
    def iteration_length(self) -> int:
        return self.schedule.length

    @property
    def serial_time(self) -> int:
        return self.n * self.schedule.length

    @property
    def speedup(self) -> float:
        return self.serial_time / self.parallel_time if self.parallel_time else 0.0


def _dropped(
    lowered, faults: FaultPlan, rank_of_iter: dict[int, int], k: int, wait: tuple
) -> DeadlockError:
    """The deadlock of iteration ``k`` at ``wait``, whose delivery the plan
    drops."""
    wait_cycle, distance, _send_cycle, pair_id = wait
    return DeadlockError(
        (
            BlockedWait(
                processor=rank_of_iter.get(k, k - 1),
                iteration=k,
                pair_id=pair_id,
                source_label=lowered.synced.pair(pair_id).source_label,
                producer_iteration=k - distance,
                wait_cycle=wait_cycle,
                orphaned=True,
                reason="Send_Signal delivery dropped by fault plan",
            ),
        ),
        plan_label=faults.label,
    )


def iteration_mapping(n: int, processors: int, mapping: str) -> list[list[int]]:
    """Iterations (1-based) per processor rank under cyclic or block mapping.

    ``cyclic``: iteration k on processor (k-1) mod p — consecutive
    iterations on different processors, the standard DOACROSS choice (the
    cross-iteration pipeline keeps flowing).
    ``block``: contiguous chunks of ceil(n/p) — better locality, but a
    carried dependence of distance < chunk runs *within* a processor and
    serializes the block pipeline at the chunk boundaries.
    """
    if mapping == "cyclic":
        return [list(range(rank + 1, n + 1, processors)) for rank in range(processors)]
    if mapping == "block":
        chunk = -(-n // processors)
        return [
            list(range(rank * chunk + 1, min((rank + 1) * chunk, n) + 1))
            for rank in range(processors)
        ]
    raise ValueError(f"unknown mapping {mapping!r}; use 'cyclic' or 'block'")


def fast_path_result(
    schedule: Schedule,
    plan: ClosedFormPlan,
    n: int,
    signal_latency: int = 1,
) -> SimulationResult:
    """Materialize a closed-form plan as a full :class:`SimulationResult`
    (finish times, stall attribution, journal chain) — byte-identical to
    what the event walk would produce for an eligible schedule."""
    stall_by_pair = {pair.pair_id: 0 for pair in schedule.lowered.synced.pairs}
    culprit = plan.stalling
    # No stalling pair is a chain with no per-hop cost: every iteration takes l.
    per_hop = culprit.per_hop(signal_latency) if culprit is not None else 0
    distance = culprit.distance if culprit is not None else 1
    finish_times = chain_finish_times(n, distance, per_hop, schedule.length)
    total_stall = chain_total_stall(n, distance, per_hop)
    if culprit is not None:
        stall_by_pair[culprit.pair_id] = total_stall
    journal = active_journal()
    if journal is not None and culprit is not None:
        # Materialize the same stall chain the event walk would emit: the
        # producer's send is delayed by its own cumulative stall, so its
        # absolute issue is a closed form too (kept out of the default path
        # to preserve the O(pairs) cost when no journal is installed).
        for k in range(distance + 1, n + 1):
            producer = k - distance
            journal.record_stall(
                StallLink(
                    pair_id=culprit.pair_id,
                    iteration=k,
                    producer_iteration=producer,
                    wait_cycle=culprit.wait,
                    send_abs=culprit.send + ((producer - 1) // distance) * per_hop,
                    stall=((k - 1) // distance) * per_hop,
                )
            )
    return SimulationResult(
        schedule=schedule,
        n=n,
        parallel_time=finish_times[-1] if n else 0,
        finish_times=finish_times,
        total_stall=total_stall,
        processors=n,
        signal_latency=signal_latency,
        dispatch="fast_path",
        stall_by_pair=stall_by_pair,
    )


def analytic_fast_path(
    schedule: Schedule,
    n: int,
    signal_latency: int = 1,
) -> SimulationResult | None:
    """The closed-form result when it is provably exact, else ``None``.

    Eligibility is decided by :func:`repro.sim.analytic.closed_form_plan`
    over the schedule's :class:`~repro.sim.analytic.ScheduleSignature`
    (see its docstring for the precise preconditions) — the single source
    of truth shared with the batch engine
    (:class:`repro.perf.batch.BatchEvaluator`), so the per-loop and batch
    paths cannot diverge.  Detection is ``O(pairs)``; materializing the
    per-iteration finish times is a closed-form fill with no per-wait
    inner loop.
    """
    plan = closed_form_plan(ScheduleSignature.of(schedule), signal_latency)
    if plan is None:
        return None
    return fast_path_result(schedule, plan, n, signal_latency)


def simulate_doacross(
    schedule: Schedule,
    n: int | None = None,
    processors: int | None = None,
    signal_latency: int = 1,
    mapping: str = "cyclic",
    exact_simulation: bool = False,
    faults: FaultPlan | None = None,
) -> SimulationResult:
    """Simulate ``n`` iterations (default: the loop's constant trip count).

    ``processors`` defaults to ``n`` (the paper's one-iteration-per-
    processor setting); smaller values fold iterations per ``mapping``
    (see :func:`iteration_mapping`).  ``signal_latency`` is the cycles
    between a send's issue and the signal becoming visible to a waiting
    processor (paper: 1).  ``exact_simulation=True`` forces the full
    ``O(n · waits)`` event walk even when the ``O(pairs)`` analytic fast
    path (:func:`analytic_fast_path`) would be exact.

    ``faults`` injects deliberate mis-synchronization (see
    :mod:`repro.robust.faults`).  A non-empty plan disqualifies the fast
    path — the closed form cannot model dropped/late deliveries — so the
    exact walk runs and the result records ``fallback_reason``.  A
    dropped delivery raises :class:`~repro.robust.deadlock.
    DeadlockError` naming the orphaned ``(signal, producer-iteration)``
    pair; delays and stalls complete, visible in ``stall_by_pair`` /
    ``finish_times``.
    """
    lowered = schedule.lowered
    if n is None:
        n = lowered.synced.loop.trip_count
        if n is None:
            raise ValueError("symbolic loop bounds require an explicit n")
    if n < 0:
        raise ValueError("n must be non-negative")
    if processors is None or processors >= n:
        processors = n
    if n > 0 and processors < 1:
        raise ValueError("need at least one processor")
    if signal_latency < 0:
        raise ValueError("signal latency must be non-negative")

    fallback_reason: str | None = None
    if faults:
        # The closed form has no notion of dropped or late deliveries;
        # returning it here would be *wrong*, not just stale — so the
        # exact walk answers and the result says why.
        fallback_reason = "fault injection active: analytic fast path rejected"
        metric_count("robust.faults.fastpath_fallback")
    elif not exact_simulation and processors >= n:
        fast = analytic_fast_path(schedule, n, signal_latency)
        if fast is not None:
            metric_count("sim.dispatch.fast_path")
            return fast

    metric_count("sim.dispatch.event_walk")
    journal = active_journal()
    with span("sim.event_walk"):
        # Waits of the schedule in issue-cycle order as (cycle, 1, (cycle,
        # distance, send cycle, pair id)) events; ties keep pair-id order.
        # An injected stall is a (cycle, 0, (extra,)) event: it sorts first
        # at its cycle, since the processor is already late when it checks.
        waits: list[tuple[int, int, tuple]] = []
        for pair in lowered.synced.pairs:
            wait_cycle = schedule.wait_cycle(pair.pair_id)
            wait = (wait_cycle, pair.distance, schedule.send_cycle(pair.pair_id), pair.pair_id)
            waits.append((wait_cycle, 1, wait))
        waits.sort()

        length = schedule.length
        issue_cycles = schedule.issue_cycles
        timings: list[_IterationTiming] = []
        finish_times: list[int] = []
        total_stall = 0
        stall_by_pair = {pair.pair_id: 0 for pair in lowered.synced.pairs}

        # Predecessor of each iteration on its own processor, if any.
        prev_on_proc: dict[int, int] = {}
        rank_of_iter: dict[int, int] = {}
        for rank, assigned in enumerate(iteration_mapping(n, processors, mapping)):
            for a, b in zip(assigned, assigned[1:]):
                prev_on_proc[b] = a
            if faults:
                for iteration in assigned:
                    rank_of_iter[iteration] = rank

        for k in range(1, n + 1):  # iteration numbers relative to the lower bound
            # The processor resumes after its previous iteration (if any).
            prev = prev_on_proc.get(k)
            start = finish_times[prev - 1] if prev is not None else 0
            timing = _IterationTiming(start=start)
            stall = 0
            events = waits
            if faults:
                # Injected stalls land on *issue* cycles only (the semantic
                # executor has nothing to freeze after the last bundle).
                events = list(waits)
                for at_cycle, extra in faults.injected_stalls(k, issue_cycles):
                    if at_cycle <= issue_cycles:
                        events.append((at_cycle, 0, (extra,)))
                        metric_count("robust.faults.injected_stalls")
                events.sort()
            for cycle, kind, payload in events:
                if kind == 0:
                    stall += payload[0]
                else:
                    wait_cycle, distance, send_cycle, pair_id = payload
                    producer = k - distance
                    if producer >= 1:
                        latency = signal_latency
                        if faults:
                            if faults.drops_signal(pair_id, producer):
                                metric_count("robust.deadlock.detected")
                                raise _dropped(lowered, faults, rank_of_iter, k, payload)
                            extra_latency = faults.signal_delay(pair_id, producer)
                            if extra_latency:
                                metric_count("robust.faults.delayed_signals")
                            latency += extra_latency
                        send_abs = timings[producer - 1].abs_cycle(send_cycle)
                        needed = send_abs + latency
                        current = start + wait_cycle + stall
                        if needed > current:
                            stall_by_pair[pair_id] += needed - current
                            if journal is not None:
                                journal.record_stall(
                                    StallLink(
                                        pair_id=pair_id,
                                        iteration=k,
                                        producer_iteration=producer,
                                        wait_cycle=wait_cycle,
                                        send_abs=send_abs,
                                        stall=needed - current,
                                    )
                                )
                            stall = needed - start - wait_cycle
                timing.wait_cycles.append(cycle)
                timing.cumulative_stall.append(stall)
            timings.append(timing)
            finish_times.append(start + length + stall)
            total_stall += stall

        parallel_time = max(finish_times, default=0)
        return SimulationResult(
            schedule=schedule,
            n=n,
            parallel_time=parallel_time,
            finish_times=finish_times,
            total_stall=total_stall,
            processors=processors,
            signal_latency=signal_latency,
            dispatch="event_walk",
            stall_by_pair=stall_by_pair,
            fallback_reason=fallback_reason,
        )
