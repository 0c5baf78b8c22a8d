"""Semantic parallel execution of a scheduled DOACROSS loop.

This is the ground-truth machine: every processor executes its iteration's
scheduled bundles against *real shared memory*, blocking at waits until the
signal is visible.  Its two outputs cross-check the rest of the system:

* the final :class:`~repro.sim.memory.MemoryImage` must equal the serial
  interpreter's (a stale-data read — the bug the synchronization conditions
  exist to prevent — makes them differ);
* the measured completion times must equal the analytic timing simulation
  (:mod:`repro.sim.multiproc`) exactly.

Every cycle is modeled, but only cycles in which some processor can issue
are visited.  The schedule is decoded once into a per-cycle table that all
processors share, and a heap of ``(cycle, rank)`` events says who acts
next: a processor re-enters after an injected stall, at the cycle the
signal it waits for becomes visible, or — parked on a signal not yet sent —
when the producer's ``Send_Signal`` issues.  A signal sent at cycle ``t`` is
visible to every processor from ``t + signal_latency`` (plus any injected
delay), whatever their ranks.

Within one global cycle all loads read memory as of the cycle start and all
stores commit at the end, in rank order, so a (schedule-bug) same-cycle
read/write race is resolved deterministically — and flagged by the memory
comparison.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.codegen.isa import Instruction, Opcode, WORD_SIZE
from repro.ir.ast_nodes import Const
from repro.ir.symbols import VarType
from repro.obs.metrics import count as metric_count
from repro.robust.deadlock import BlockedWait, DeadlockError
from repro.robust.faults import FaultPlan
from repro.sched.schedule import Schedule
from repro.sim.memory import MemoryImage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.dataflow import DataFlowGraph


def default_max_cycles(
    schedule: Schedule,
    n: int,
    signal_latency: int = 1,
    faults: FaultPlan | None = None,
    graph: "DataFlowGraph | None" = None,
) -> int:
    """The derived runaway bound used when ``max_cycles`` is not given
    (configurable through ``EvalOptions(max_cycles=...)``).

    With the wait-for-graph detector a true deadlock is reported the
    moment it happens, so this only has to catch *runaway* executions
    (an executor bug, not a hang), and can afford to be generous while
    staying finite.  The bound:

    ``n * (l + 1 + signal_latency + P) + B + 1024``

    where ``l`` is the schedule length, ``P`` sums each pair's worst
    per-hop penalty ``max(0, span - 1 + signal_latency)`` (a wait can
    stall at most that much per hop of the cross-iteration chain, and
    the chain has fewer than ``n`` hops — see the LBD theorem's
    ``(n/d)(i-j) + l``), and ``B`` is the fault plan's
    :meth:`~repro.robust.faults.FaultPlan.worst_case_budget`.  When the
    dataflow ``graph`` is available, each pair's span is floored by
    :func:`repro.obs.explain.pair_span_bound` — a schedule that somehow
    reports a span below its dependence lower bound is still budgeted
    for the legal minimum.
    """
    per_hop_total = 0
    for pair in schedule.lowered.synced.pairs:
        span = schedule.span(pair.pair_id)
        if graph is not None:
            from repro.obs.explain import pair_span_bound

            bound = pair_span_bound(schedule, graph, pair.pair_id)
            if bound is not None:
                span = max(span, bound)
        per_hop_total += max(0, span - 1 + signal_latency)
    budget = faults.worst_case_budget(n) if faults else 0
    return n * (schedule.length + 1 + signal_latency + per_hop_total) + budget + 1024


@dataclass
class ExecutionResult:
    memory: MemoryImage
    parallel_time: int
    finish_times: list[int]


# Decoded operations: (kind, ...) tuples, see _decode_op.
_ALU, _NEG, _LOAD, _STORE, _SEND = range(5)
# Where a load or store goes: processor-private stack, scalar or array cell.
_PRIVATE, _SCALAR, _ARRAY = range(3)

_BINARY = {
    Opcode.IADD: operator.add,
    Opcode.FADD: operator.add,
    Opcode.ISUB: operator.sub,
    Opcode.FSUB: operator.sub,
    Opcode.SHIFT: operator.mul,
    Opcode.IMUL: operator.mul,
    Opcode.FMUL: operator.mul,
    Opcode.IDIV: operator.floordiv,
    Opcode.FDIV: operator.truediv,
}
_COMPARE = {
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
}


def _decode_op(instr: Instruction) -> tuple:
    """One non-wait instruction as a dispatch tuple:

    * ``(_ALU, dest, fn, a, b)`` — arithmetic and compares;
    * ``(_NEG, dest, a)``;
    * ``(_LOAD, dest, variable, address, where)``;
    * ``(_STORE, pred, fn, a, b, variable, address, where)`` — ``fn`` is
      the fused operator of a ``STORE_OP``, ``None`` for a plain store;
    * ``(_SEND, source_label)``.
    """
    opcode = instr.opcode
    if opcode is Opcode.SEND:
        assert instr.sync is not None
        return (_SEND, instr.sync.source_label)
    mem = instr.mem
    if mem is not None:
        where = _PRIVATE if mem.private else _SCALAR if mem.is_scalar else _ARRAY
        if opcode is Opcode.LOAD:
            return (_LOAD, instr.dest, mem.variable, mem.address, where)
        if opcode is Opcode.STORE:
            return (_STORE, instr.pred, None, instr.srcs[0], None, mem.variable, mem.address, where)
        assert instr.fused is not None
        a, b = instr.srcs
        return (_STORE, instr.pred, _BINARY[instr.fused], a, b, mem.variable, mem.address, where)
    if opcode in (Opcode.INEG, Opcode.FNEG):
        return (_NEG, instr.dest, instr.srcs[0])
    a, b = instr.srcs
    if opcode in (Opcode.ICMP, Opcode.FCMP):
        assert instr.cmp is not None
        return (_ALU, instr.dest, _COMPARE[instr.cmp], a, b)
    return (_ALU, instr.dest, _BINARY[opcode], a, b)


def _decode(schedule: Schedule) -> list[tuple[int, tuple, tuple]]:
    """Per local cycle: the bundle's tail (its largest unit latency minus
    1), its waits as ``(pair_id, source_label, distance)``, and its other
    instructions in iid order as :func:`_decode_op` tuples."""
    lowered = schedule.lowered
    units = lowered.units(schedule.machine)
    table = []
    for iids in schedule.bundles():
        bundle = [lowered.instruction(iid) for iid in iids]
        waits = []
        for instr in bundle:
            if instr.opcode is Opcode.WAIT:
                assert instr.sync is not None and instr.sync.distance is not None
                waits.append((instr.sync.pair_ids[0], instr.sync.source_label, instr.sync.distance))
        table.append(
            (
                max((units[iid].latency for iid in iids), default=1) - 1,
                tuple(waits),
                tuple(_decode_op(instr) for instr in bundle if instr.opcode is not Opcode.WAIT),
            )
        )
    return table


class _Registers(dict):
    """One iteration's register file.  A miss is an immediate operand, or
    a loop-invariant scalar register loaded from memory on first use."""

    __slots__ = ("memory", "symbols")

    def __missing__(self, op):
        if not isinstance(op, str):
            return op
        value = self.memory.read_scalar(op)
        if op in self.symbols and self.symbols[op].var_type is VarType.INT:
            value = int(value)
        self[op] = value
        return value


@dataclass(slots=True)
class _Processor:
    """Execution state of one processor, running its assigned iterations
    back to back (a single iteration in the paper's setting)."""

    rank: int
    iterations: list[int]
    slot: int = 0  # index into iterations
    iteration: int = 0  # iterations[slot]
    local: int = 1  # next local cycle to issue
    finish: int = 0  # completion time of the current iteration so far
    regs: _Registers = field(default_factory=_Registers)
    stack: dict = field(default_factory=dict)  # processor-private (spill) cells
    stalls: dict = field(default_factory=dict)  # local cycle -> injected stall
    # The wait it is parked at: (pair_id, label, producer, rel, dropped),
    # and that signal's injected delay.
    blocked_on: tuple = ()
    delay: int = 0


def _blocked_waits(
    procs: list[_Processor], finishes: dict[int, int], lower: int
) -> tuple[BlockedWait, ...]:
    """The diagnosis of a hang: one entry per unfinished processor, each
    parked at a wait whose signal is unsent or dropped."""
    blocked = []
    for p in procs:
        if p.slot >= len(p.iterations):
            continue
        pair_id, label, producer, rel, dropped = p.blocked_on
        orphaned = dropped or producer in finishes
        if dropped:
            reason = "Send_Signal delivery dropped by fault plan"
        elif orphaned:
            reason = "producer iteration finished without a visible Send_Signal"
        else:
            reason = ""
        blocked.append(
            BlockedWait(
                processor=p.rank,
                iteration=p.iteration - lower + 1,
                pair_id=pair_id,
                source_label=label,
                producer_iteration=rel,
                wait_cycle=p.local,
                orphaned=orphaned,
                reason=reason,
            )
        )
    return tuple(blocked)


def execute_parallel(
    schedule: Schedule,
    memory: MemoryImage,
    n: int | None = None,
    max_cycles: int | None = None,
    processors: int | None = None,
    signal_latency: int = 1,
    mapping: str = "cyclic",
    faults: FaultPlan | None = None,
    graph: "DataFlowGraph | None" = None,
) -> ExecutionResult:
    """Run ``n`` iterations on ``processors`` processors (default one per
    iteration), mutating ``memory``.

    Iterations are numbered from the loop's lower bound (which must be a
    constant, as DOACROSS iteration numbering is absolute) and mapped to
    processors per ``mapping`` ("cyclic" or "block"), matching
    :func:`repro.sim.multiproc.simulate_doacross`, which also sets the
    argument checks.

    A hang is detected the moment no processor has a pending event —
    every non-finished processor is parked in a ``Wait_Signal`` whose
    signal is unsent or dropped — and raised as a structured
    :class:`~repro.robust.deadlock.DeadlockError`; ``max_cycles`` (default
    :func:`default_max_cycles`) remains only as a runaway backstop.
    ``faults`` injects deliberate mis-synchronization (see
    :mod:`repro.robust.faults`; fault iteration numbers are 1-based
    relative to the loop's lower bound, matching the timing walk).
    ``graph`` only sharpens the default ``max_cycles`` bound.
    """
    lowered = schedule.lowered
    loop = lowered.synced.loop
    symbols = lowered.symbols
    if not isinstance(loop.lower, Const):
        raise ValueError("parallel execution requires a constant lower bound")
    lower = int(loop.lower.value)
    if n is None:
        n = loop.trip_count
        if n is None:
            raise ValueError("symbolic loop bounds require an explicit n")
    if n < 0:
        raise ValueError("n must be non-negative")
    if processors is None or processors >= n:
        processors = max(n, 1)
    if n > 0 and processors < 1:
        raise ValueError("need at least one processor")
    if signal_latency < 0:
        raise ValueError("signal latency must be non-negative")

    from repro.sim.multiproc import iteration_mapping

    procs = [
        _Processor(rank, [lower + k - 1 for k in assigned])
        for rank, assigned in enumerate(iteration_mapping(n, processors, mapping))
    ]
    if max_cycles is None:
        max_cycles = default_max_cycles(
            schedule, n, signal_latency, faults=faults, graph=graph
        )
    table = _decode(schedule)
    last = len(table)
    index = loop.index
    faulty = bool(faults)
    if faulty and table:
        # Walk-consistent completion under faults: the timing model's
        # finish is start + length + (the final bundle's issue delay).
        _, waits, ops = table[-1]
        table[-1] = (schedule.length - last, waits, ops)

    def start(p: _Processor, at: int) -> None:
        """Load ``p``'s current iteration and queue its first bundle at ``at``."""
        p.iteration = p.iterations[p.slot]
        p.local = 1
        p.finish = 0
        p.regs = _Registers({index: p.iteration})
        p.regs.memory = memory
        p.regs.symbols = symbols
        p.stack = {}
        if faulty:
            stalls: dict[int, int] = {}
            for cycle, extra in faults.injected_stalls(p.iteration - lower + 1, last):
                if cycle <= last:
                    stalls[cycle] = stalls.get(cycle, 0) + extra
            p.stalls = stalls
        heappush(heap, (at, p.rank))

    @functools.cache
    def fault_of(pair_id: int, rel: int) -> tuple[bool, int]:
        """(dropped, extra latency) of one (pair, producer) signal."""
        assert faults is not None
        return faults.drops_signal(pair_id, rel), faults.signal_delay(pair_id, rel)

    def ready(p: _Processor, waits: tuple, t: int) -> bool:
        """Whether every wait of the bundle is satisfied at ``t``; if not,
        park ``p`` or queue it for the cycle the signal becomes visible.
        A bundle containing an unsatisfied wait stalls whole."""
        for pair_id, label, distance in waits:
            producer = p.iteration - distance
            if producer < lower:
                continue
            rel = producer - lower + 1
            dropped, delay = fault_of(pair_id, rel) if faulty else (False, 0)
            sent = signals.get((label, producer))
            if dropped or sent is None:
                p.blocked_on = (pair_id, label, producer, rel, dropped)
                if not dropped:  # a dropped delivery parks it for good
                    p.delay = delay
                    parked.setdefault((label, producer), []).append(p.rank)
                return False
            visible = sent + signal_latency + delay
            if visible > t:
                heappush(heap, (visible, p.rank))
                return False
        return True

    heap: list[tuple[int, int]] = []
    signals: dict[tuple[str, int], int] = {}  # (source label, iteration) -> send cycle
    parked: dict[tuple[str, int], list[int]] = {}  # unsent signal -> waiting ranks
    finishes: dict[int, int] = {}  # iteration -> completion time
    for p in procs:
        if p.iterations:
            start(p, 1)
    t = 0
    while heap:
        t = heap[0][0]
        if t > max_cycles:
            raise RuntimeError(f"parallel execution exceeded {max_cycles} cycles (deadlock?)")
        stores: list[tuple[int, str, int | None, float]] = []
        while heap and heap[0][0] == t:
            rank = heappop(heap)[1]
            p = procs[rank]
            extra = p.stalls.pop(p.local, 0) if p.stalls else 0
            if extra:
                # Injected freeze: applied *before* the bundle (and any
                # wait in it) is considered, matching the timing walk's
                # stall-before-wait event order.
                heappush(heap, (t + extra, rank))
                continue
            tail, waits, ops = table[p.local - 1]
            if waits and not ready(p, waits, t):
                continue
            regs = p.regs
            for op in ops:
                kind = op[0]
                if kind == _ALU:
                    regs[op[1]] = op[2](regs[op[3]], regs[op[4]])
                elif kind == _LOAD:
                    _, dest, variable, address, where = op
                    if where == _PRIVATE:
                        regs[dest] = p.stack[variable]
                    elif where == _SCALAR:
                        regs[dest] = memory.read(variable, None)
                    else:
                        cell = int(regs[address]) // WORD_SIZE
                        regs[dest] = memory.read(variable, cell)
                elif kind == _STORE:
                    _, pred, fn, a, b, variable, address, where = op
                    if pred is not None and not regs[pred]:
                        continue  # predicated off: no memory effect
                    if fn is None:
                        value = float(regs[a])
                    else:
                        value = float(fn(regs[a], regs[b]))
                    if where == _PRIVATE:
                        # processor-local stack slot: no global visibility,
                        # committed immediately (nobody else can race on it)
                        p.stack[variable] = value
                    elif where == _SCALAR:
                        stores.append((rank, variable, None, value))
                    else:
                        cell = int(regs[address]) // WORD_SIZE
                        stores.append((rank, variable, cell, value))
                elif kind == _NEG:
                    regs[op[1]] = -regs[op[2]]
                else:  # _SEND: wake whoever is parked on it
                    key = (op[1], p.iteration)
                    signals[key] = t
                    for waiter in parked.pop(key, ()):
                        heappush(heap, (t + signal_latency + procs[waiter].delay, waiter))
            if t + tail > p.finish:
                p.finish = t + tail
            if p.local < last:
                p.local += 1
                heappush(heap, (t + 1, rank))
                continue
            finishes[p.iteration] = p.finish
            p.slot += 1
            if p.slot < len(p.iterations):
                # the next iteration starts the cycle after completion
                start(p, max(p.finish + 1, t + 1))
        stores.sort(key=operator.itemgetter(0))
        for _, name, cell, value in stores:
            memory.write(name, cell, value)

    if len(finishes) < n:
        metric_count("robust.deadlock.detected")
        raise DeadlockError(
            _blocked_waits(procs, finishes, lower),
            at_cycle=t,
            plan_label=faults.label if faults else "",
        )
    finish_times = [finishes[lower + i] for i in range(n)]
    return ExecutionResult(
        memory=memory,
        parallel_time=max(finish_times, default=0),
        finish_times=finish_times,
    )
