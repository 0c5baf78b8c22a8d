"""BatchEvaluator: differential identity, fallback, memos, order.

The batch engine's contract is *byte-identical results*: everything the
per-loop ``evaluate_corpus`` path produces — summary times, per-iteration
finish times, stall attribution, dispatch labels, quarantine records,
deterministic metrics — must come out of the vectorized path unchanged.
These tests enforce the contract three ways: against the per-loop path on
the real Perfect grid, against the exact event walk on planted-dependence
fuzz loops, and on the declined-options fallback seam.
"""

from __future__ import annotations

import random

import pytest

from repro.obs import DETERMINISTIC_NAMESPACES, disable_metrics, enable_metrics
from repro.options import EvalOptions
from repro.perf import (
    BatchEvaluator,
    BatchIncompatible,
    batch_incompatibility,
    shared_batch_evaluator,
)
from repro.pipeline import evaluate_corpus
from repro.report import corpus_record
from repro.robust import FaultPlan, RobustPolicy, SignalDelay
from repro.sched import paper_machine
from repro.workloads import GeneratorConfig, PlantedDep, generate_loop, perfect_suite


@pytest.fixture(scope="module")
def grid():
    suite = perfect_suite()
    return [
        (name, suite[name], paper_machine(*case))
        for name in ("FLQ52", "QCD", "MDG")
        for case in ((2, 1), (4, 2))
    ]


def _records(results):
    """Comparable per-corpus documents (fallback_reason is routing
    metadata, not result material — strip it)."""
    records = []
    for corpus in results:
        record = corpus_record(corpus)
        record.pop("fallback_reason", None)
        records.append(record)
    return records


def _sim_fields(results):
    """The raw simulation internals corpus_record summarizes away."""
    return [
        (
            ev.sim_list.finish_times,
            ev.sim_new.finish_times,
            ev.sim_list.stall_by_pair,
            ev.sim_new.stall_by_pair,
            ev.sim_list.dispatch,
            ev.sim_new.dispatch,
        )
        for corpus in results
        for ev in corpus.evaluations
    ]


def _fuzz_loops(count: int = 12, seed: int = 7):
    """Compilable planted-dependence loops (fuzz-harness generator)."""
    loops = []
    index = 0
    while len(loops) < count:
        rng = random.Random(f"{seed}:{index}")
        index += 1
        statements = rng.randint(1, 3)
        deps, used = [], set()
        for _ in range(rng.randint(0, 2)):
            source, sink = rng.randrange(statements), rng.randrange(statements)
            if (source, sink) in used:
                continue
            used.add((source, sink))
            deps.append(PlantedDep(source, sink, rng.randint(1, 3)))
        config = GeneratorConfig(
            statements=statements,
            deps=tuple(deps),
            trip_count=rng.choice([10, 12, 14]),
            noise_reads=(0, 2),
            temp_scalars=rng.randint(0, 1),
            seed=rng.randrange(1_000_000),
        )
        loop = generate_loop(config)
        try:
            from repro.pipeline import compile_loop

            compile_loop(loop)
        except ValueError:
            continue  # SERIAL: nothing for either engine to evaluate
        loops.append(loop)
    return loops


class TestDifferential:
    def test_identical_to_per_loop_path_on_the_grid(self, grid):
        batch = BatchEvaluator().evaluate_corpora(grid, n=100)
        per_loop = [
            evaluate_corpus(name, loops, machine, n=100)
            for name, loops, machine in grid
        ]
        assert _records(batch) == _records(per_loop)
        assert _sim_fields(batch) == _sim_fields(per_loop)

    def test_identical_under_exact_simulation(self, grid):
        options = EvalOptions(exact_simulation=True)
        batch = BatchEvaluator().evaluate_corpora(grid[:2], n=60, options=options)
        per_loop = [
            evaluate_corpus(name, loops, machine, n=60, options=options)
            for name, loops, machine in grid[:2]
        ]
        assert _records(batch) == _records(per_loop)
        assert _sim_fields(batch) == _sim_fields(per_loop)

    def test_agrees_with_exact_event_walk_on_fuzz_loops(self):
        """batch ≡ evaluate_corpus ≡ the exact event walk, per loop."""
        loops = _fuzz_loops()
        machine = paper_machine(2, 1)
        batch = BatchEvaluator().evaluate_corpus("fuzz", loops, machine, n=25)
        per_loop = evaluate_corpus("fuzz", loops, machine, n=25)
        exact = evaluate_corpus(
            "fuzz", loops, machine, n=25, options=EvalOptions(exact_simulation=True)
        )
        for b, p, e in zip(
            batch.evaluations, per_loop.evaluations, exact.evaluations
        ):
            assert (b.t_list, b.t_new) == (p.t_list, p.t_new) == (e.t_list, e.t_new)
            assert b.sim_new.finish_times == e.sim_new.finish_times
            assert b.sim_new.total_stall == e.sim_new.total_stall
            assert b.sim_list.finish_times == e.sim_list.finish_times

    def test_deterministic_metrics_match_per_loop(self, grid):
        def deterministic(snapshot):
            return {
                name: value
                for name, value in snapshot.counters.items()
                if name.startswith(DETERMINISTIC_NAMESPACES)
            }

        registry = enable_metrics()
        try:
            BatchEvaluator().evaluate_corpora(grid, n=100)
        finally:
            disable_metrics()
        batch_counters = deterministic(registry)
        registry = enable_metrics()
        try:
            for name, loops, machine in grid:
                evaluate_corpus(name, loops, machine, n=100)
        finally:
            disable_metrics()
        assert batch_counters == deterministic(registry)


class TestInsertionOrder:
    def test_results_keep_job_and_loop_order(self, grid):
        results = BatchEvaluator().evaluate_corpora(grid, n=100)
        assert [(c.name, c.machine.name) for c in results] == [
            (name, machine.name) for name, _loops, machine in grid
        ]
        from repro.perf import loop_key

        for corpus, (_name, loops, _machine) in zip(results, grid):
            assert len(corpus.evaluations) == len(loops)
            # each evaluation slot belongs to the loop at its position
            for ev, loop in zip(corpus.evaluations, loops):
                assert loop_key(ev.compiled.source) == loop_key(loop)

    def test_order_holds_through_the_routed_path(self, grid):
        results = [
            evaluate_corpus(name, loops, machine, 100, EvalOptions(batch=True))
            for name, loops, machine in grid
        ]
        assert [(c.name, c.machine.name) for c in results] == [
            (name, machine.name) for name, _loops, machine in grid
        ]


class TestFallback:
    def test_compatible_options_have_no_reason(self):
        assert batch_incompatibility(EvalOptions()) is None
        assert batch_incompatibility(EvalOptions(exact_simulation=True)) is None

    def test_fault_plan_declines(self):
        plan = FaultPlan(delays=(SignalDelay(extra=2),), label="t")
        assert batch_incompatibility(EvalOptions(faults=plan)) == (
            "fault injection active"
        )

    def test_check_semantics_declines(self):
        assert batch_incompatibility(EvalOptions(check_semantics=True)) == (
            "semantic checking requires per-loop execution"
        )

    def test_engine_raises_on_incompatible_options(self, grid):
        with pytest.raises(BatchIncompatible, match="fault injection active"):
            BatchEvaluator().evaluate_corpora(
                grid[:1],
                n=10,
                options=EvalOptions(
                    faults=FaultPlan(delays=(SignalDelay(extra=1),), label="t")
                ),
            )

    def test_fault_corpus_falls_out_of_batch_with_recorded_reason(self, grid):
        name, loops, machine = grid[0]
        plan = FaultPlan(delays=(SignalDelay(extra=2),), label="t")
        batched = evaluate_corpus(
            name, loops, machine, 20, EvalOptions(batch=True, faults=plan)
        )
        assert batched.fallback_reason == "batch engine declined: fault injection active"
        plain = evaluate_corpus(name, loops, machine, 20, EvalOptions(faults=plan))
        assert times(batched) == times(plain)

    def test_journal_falls_out_of_batch(self, grid):
        from repro.obs import DecisionJournal

        name, loops, machine = grid[0]
        result = evaluate_corpus(
            name, loops, machine, 20,
            EvalOptions(batch=True, journal=DecisionJournal()),
        )
        assert result.fallback_reason == "batch engine declined: decision journal active"


def times(corpus):
    return [(ev.t_list, ev.t_new) for ev in corpus.evaluations]


class TestQuarantine:
    SYMBOLIC = """
DO I = 1, N
  A(I) = A(I-1) + B(I)
ENDDO
"""

    def test_quarantine_parity_with_per_loop_path(self, grid):
        from repro.ir.parser import parse_loop

        name, loops, machine = grid[0]
        poisoned = [loops[0], parse_loop(self.SYMBOLIC), loops[1]]
        options = EvalOptions(robust=RobustPolicy(quarantine=True))
        batch = BatchEvaluator().evaluate_corpus(
            name, poisoned, machine, None, options
        )
        per_loop = evaluate_corpus(name, poisoned, machine, None, options)
        assert len(batch.failures) == len(per_loop.failures) == 1
        assert batch.failures[0].index == per_loop.failures[0].index == 1
        assert batch.failures[0].message == per_loop.failures[0].message
        assert "symbolic loop bounds" in batch.failures[0].message
        assert times(batch) == times(per_loop)

    def test_raises_without_quarantine(self, grid):
        from repro.ir.parser import parse_loop

        name, loops, machine = grid[0]
        with pytest.raises(ValueError, match="symbolic loop bounds"):
            BatchEvaluator().evaluate_corpus(
                name, [parse_loop(self.SYMBOLIC)], machine, None
            )


class TestMemos:
    def test_second_sweep_answers_from_the_evaluation_memo(self, grid):
        engine = BatchEvaluator()
        first = engine.evaluate_corpora(grid, n=100)
        cold_hits = engine.stats.eval_hits
        second = engine.evaluate_corpora(grid, n=100)
        assert engine.stats.eval_hits - cold_hits == sum(
            len(c.evaluations) for c in second
        )
        assert _records(first) == _records(second)
        assert engine.stats.flat_passes >= 1

    def test_distinct_n_is_a_distinct_cell(self, grid):
        engine = BatchEvaluator()
        name, loops, machine = grid[0]
        a = engine.evaluate_corpus(name, loops, machine, n=50)
        b = engine.evaluate_corpus(name, loops, machine, n=100)
        assert [e.n for e in a.evaluations] != [e.n for e in b.evaluations]

    def test_stats_format_mentions_every_counter(self):
        text = BatchEvaluator().stats.format()
        for word in ("cells", "eval hits", "sim hits", "closed-form", "event walks"):
            assert word in text

    def test_second_batch_sweep_compiles_nothing(self, monkeypatch):
        """``repro sweep --batch`` answers a repeat sweep in one process
        from the process-wide engine, compile cache included."""
        import repro.perf.batch as batch_module
        import repro.pipeline as pipeline
        from repro.service.ops import sweep_op

        monkeypatch.setattr(batch_module, "_SHARED", None)
        first = sweep_op(batch=True).stdout
        compiles = []
        original = pipeline.compile_loop

        def counting(*args, **kwargs):
            compiles.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compile_loop", counting)
        assert sweep_op(batch=True).stdout == first
        assert compiles == []

    def test_shared_evaluator_is_a_singleton(self):
        assert shared_batch_evaluator() is shared_batch_evaluator()
