"""Closed-form parallel execution time model (paper Section 2).

With one iteration per processor, all processors starting together, and a
signal visible one cycle after its send issues:

* An LFD-scheduled pair (send issued before the wait, ``span <= 0``) never
  stalls anyone: the parallel time contribution is just ``l``, the length
  of one iteration.
* An LBD-scheduled pair with wait at cycle ``j``, send at cycle ``i >= j``
  and distance ``d`` forms a stall chain: iteration ``k`` resumes one cycle
  after iteration ``k-d``'s send, so each of the ``floor((n-1)/d)`` links of
  the longest chain adds ``span = i - j + 1`` cycles, giving

      T = floor((n-1)/d) * (i - j + 1) + l.

  The paper states this as ``(n/d)(i-j) + l`` — the same quantity up to
  the inclusive-span convention and the exact hop count (its Fig. 4
  discussion counts the span inclusively, e.g. "12 instructions" for
  cycles 2..13).  :func:`paper_lbd_formula` exposes the paper's rounding
  for side-by-side reporting.

With several LBD pairs the chains interact; the closed form below takes the
maximum over pairs, which is exact for a single LBD pair and a lower bound
otherwise (``tests/sim/test_analytic.py`` checks both properties against
the event simulation).

Batch evaluation plane
----------------------

A sweep evaluates thousands of ``(schedule, n)`` cells whose answers are
all instances of the two formulas above.  :class:`ScheduleSignature`
captures everything the closed form needs about a schedule — the
iteration length plus each pair's ``(wait, send, distance)`` geometry —
and :func:`closed_form_plan` decides *once per signature* whether the
closed form is provably exact (the same preconditions
:func:`repro.sim.multiproc.analytic_fast_path` enforces; it now
delegates here).  :func:`batch_closed_form` then evaluates whole tables
of ``(signature, n)`` rows in flat array passes — one dispatch for the
entire grid, no per-loop Python pipeline in between.  This is the
evaluation plane behind :class:`repro.perf.batch.BatchEvaluator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.sched.schedule import Schedule


def lbd_hops(n: int, d: int) -> int:
    """Number of links in the longest stall chain: iterations 1..n, each
    waiting on the one ``d`` back."""
    if n <= 0:
        return 0
    return (n - 1) // d


def lbd_parallel_time(n: int, d: int, span: int, l: int, signal_latency: int = 1) -> int:
    """Exact parallel time of a loop with a single synchronization pair.

    ``span`` is the inclusive wait→send cycle distance computed at the
    paper's unit signal latency (``i - j + 1``); with a slower interconnect
    each hop costs ``i - j + signal_latency`` instead, and a pair stalls
    whenever the send plus latency lands after the wait.
    """
    per_hop = span - 1 + signal_latency  # (i - j) + latency
    if per_hop <= 0:
        return l
    return lbd_hops(n, d) * per_hop + l


def paper_lbd_formula(n: int, d: int, span: int, l: int) -> float:
    """The paper's approximate statement ``(n/d) * span + l`` (span already
    inclusive, as in its Fig. 4 numbers)."""
    if span <= 0:
        return float(l)
    return (n / d) * span + l


def predicted_parallel_time(schedule: Schedule, n: int, signal_latency: int = 1) -> int:
    """Max-over-pairs closed form for a schedule: exact when at most one
    pair stalls, a lower bound otherwise."""
    l = schedule.length
    best = l
    for pair in schedule.lowered.synced.pairs:
        t = lbd_parallel_time(
            n, pair.distance, schedule.span(pair.pair_id), l, signal_latency
        )
        best = max(best, t)
    return best


# -- the batch evaluation plane ------------------------------------------------


@dataclass(frozen=True)
class PairGeometry:
    """One synchronization pair as the closed form sees it."""

    pair_id: int
    wait: int  # wait issue cycle j
    send: int  # send issue cycle i
    distance: int  # dependence distance d

    @property
    def span(self) -> int:
        """The paper's inclusive span ``i - j + 1``."""
        return self.send - self.wait + 1

    def per_hop(self, signal_latency: int = 1) -> int:
        """Stall added per chain link: ``(i - j) + latency``."""
        return self.send - self.wait + signal_latency


@dataclass(frozen=True)
class ScheduleSignature:
    """Everything the closed form needs about one schedule.

    Two schedules with equal signatures have identical analytic results
    for every ``(n, signal_latency)``, so signatures double as memo keys
    for whole-grid evaluation.
    """

    length: int
    pairs: tuple[PairGeometry, ...]

    @classmethod
    def of(cls, schedule: Schedule) -> "ScheduleSignature":
        return cls(
            length=schedule.length,
            pairs=tuple(
                PairGeometry(
                    pair_id=pair.pair_id,
                    wait=schedule.wait_cycle(pair.pair_id),
                    send=schedule.send_cycle(pair.pair_id),
                    distance=pair.distance,
                )
                for pair in schedule.lowered.synced.pairs
            ),
        )


@dataclass(frozen=True)
class ClosedFormPlan:
    """How to answer a signature analytically: no stalls, or one chain.

    ``stalling`` is ``None`` for the no-stall case (parallel time is the
    iteration length ``l``); otherwise it is the single pair whose chain
    the Section 2 formula walks.
    """

    stalling: PairGeometry | None = None


def closed_form_plan(
    signature: ScheduleSignature, signal_latency: int = 1
) -> ClosedFormPlan | None:
    """The plan under which the closed form is *provably exact*, else
    ``None`` (the event walk must answer).

    Preconditions (one iteration per processor, mirrored by
    :func:`repro.sim.multiproc.analytic_fast_path`, which delegates
    here):

    * **No pair stalls** — every pair has ``send + latency <= wait``.
    * **Exactly one pair stalls**, its send does not precede its wait
      (with ``signal_latency > 1`` a pair can have ``per_hop > 0`` yet
      issue its send first, and the chain does not compound), and every
      pair the simulator's wait order processes before it issues its
      send before the stalling pair's wait (so the producer-side stall
      cannot leak into it).
    """
    stalling: list[PairGeometry] = []
    for pair in signature.pairs:
        if pair.per_hop(signal_latency) > 0:
            stalling.append(pair)
    if not stalling:
        return ClosedFormPlan(stalling=None)
    if len(stalling) > 1:
        return None
    culprit = stalling[0]
    if culprit.send < culprit.wait:
        return None  # stall does not compound; not the Section 2 chain
    culprit_key = (culprit.wait, culprit.distance, culprit.send)
    for other in signature.pairs:
        if (other.wait, other.distance, other.send) < culprit_key:
            # Processed before the stalling pair, so its wait sees none of
            # that pair's stall — safe only if its producer-side send is
            # also unaffected (issued before the stalling pair's wait).
            if other.send >= culprit.wait:
                return None
    return ClosedFormPlan(stalling=culprit)


def chain_total_stall(n: int, d: int, per_hop: int) -> int:
    """``sum_k floor((k-1)/d) * per_hop`` for ``k = 1..n`` without the sum:
    the stall chain's total cost in O(1)."""
    if n <= 0 or per_hop <= 0:
        return 0
    q, r = divmod(n, d)
    return per_hop * (d * q * (q - 1) // 2 + r * q)


def chain_finish_times(n: int, d: int, per_hop: int, l: int) -> list[int]:
    """Per-iteration completion times of a single stall chain (the same
    closed-form fill the fast path materializes)."""
    if per_hop <= 0:
        return [l] * n
    return [l + ((k - 1) // d) * per_hop for k in range(1, n + 1)]


def batch_closed_form(
    rows: Iterable[tuple[ScheduleSignature, ClosedFormPlan, int]],
    signal_latency: int = 1,
) -> list[tuple[int, int]]:
    """Evaluate ``(signature, plan, n)`` rows in one flat pass.

    Returns ``(parallel_time, total_stall)`` per row, computed as plain
    array arithmetic — no per-row simulator dispatch.  Callers that need
    per-iteration ``finish_times`` materialize them with
    :func:`chain_finish_times` (kept separate so a million-row grid can
    stay O(rows), not O(rows × n))."""
    out: list[tuple[int, int]] = []
    append = out.append
    for signature, plan, n in rows:
        l = signature.length
        if n <= 0:
            append((0, 0))
            continue
        culprit = plan.stalling
        if culprit is None:
            append((l, 0))
            continue
        per_hop = culprit.per_hop(signal_latency)
        d = culprit.distance
        append(
            (
                l + ((n - 1) // d) * per_hop,
                chain_total_stall(n, d, per_hop),
            )
        )
    return out

