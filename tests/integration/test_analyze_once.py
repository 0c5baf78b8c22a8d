"""Each loop is analyzed once: one dependence analysis per compile, and
the DFG's machine-independent facts once per loop, however many machines
schedule it."""

from __future__ import annotations

import random
import sys

import pytest

from repro.deps import LoopClass, analyze_loop
from repro.dfg import DataFlowGraph, EdgeKind, build_dfg, find_sync_paths, partition
from repro.dfg.facts import LoopFacts
from repro.ir import parse_loop
from repro.ir.printer import format_loop
from repro.pipeline import compile_loop
from repro.robust.fuzz import _random_config
from repro.sched import assert_valid, list_schedule, sync_schedule
from repro.sched.machine import paper_cases
from repro.sync import insert_synchronization
from repro.transforms import restructure
from repro.workloads import generate_loop, livermore_loops, perfect_suite

from tests.conftest import FIG1_SOURCE


def count_calls(monkeypatch, function) -> list:
    """Point every loaded ``repro`` module's binding of ``function`` at a
    wrapper that records its calls; returns the record."""
    calls: list = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, wrapper)
    return calls


def corpus() -> list:
    """The 36 Perfect loops, the 11 Livermore kernels and 200 generated loops."""
    loops = [loop for corpus in perfect_suite().values() for loop in corpus]
    loops += livermore_loops()
    rng = random.Random(0)
    loops += [generate_loop(_random_config(rng)) for _ in range(200)]
    return loops


def same_dependences(reused, fresh) -> None:
    assert len(reused) == len(fresh)
    for a, b in zip(reused, fresh):
        assert a == b
        assert a.source_ref is b.source_ref
        assert a.sink_ref is b.sink_ref


class TestOneDependenceAnalysis:
    def test_compile_loop_analyzes_once(self, monkeypatch):
        calls = count_calls(monkeypatch, analyze_loop)
        compiled = 0
        for loop in [loop for corpus in perfect_suite().values() for loop in corpus]:
            calls.clear()
            try:
                compile_loop(loop)
            except ValueError:
                continue
            assert len(calls) == 1, format_loop(loop)
            compiled += 1
        assert compiled == 36

    def test_reused_graph_equals_a_fresh_analysis(self):
        loops = corpus()
        assert len(loops) == 247
        synchronized = 0
        for loop in loops:
            result = restructure(loop)
            assert result.graph.loop is result.loop
            same_dependences(result.graph.deps, analyze_loop(result.loop).deps)
            if result.classification is LoopClass.SERIAL:
                continue
            reused = insert_synchronization(result.loop, result.graph)
            fresh = insert_synchronization(result.loop)  # analyzes the labelled loop
            assert format_loop(reused.loop) == format_loop(fresh.loop)
            assert len(reused.pairs) == len(fresh.pairs)
            for a, b in zip(reused.pairs, fresh.pairs):
                assert (a.pair_id, a.source_pos, a.sink_pos, a.distance) == (
                    b.pair_id, b.source_pos, b.sink_pos, b.distance,
                )
                same_dependences(a.deps, b.deps)
            synchronized += 1
        assert synchronized > 200

    def test_graph_of_another_loop_is_not_reused(self, monkeypatch):
        loop = parse_loop(FIG1_SOURCE)
        own = analyze_loop(loop)
        other = analyze_loop(parse_loop("DO I = 1, 10\n A(I) = A(I-1) + X(I)\nENDDO"))
        calls = count_calls(monkeypatch, analyze_loop)
        assert len(insert_synchronization(loop, own).pairs) == 2
        assert calls == []
        assert len(insert_synchronization(loop, other).pairs) == 2
        assert len(calls) == 1


class TestFactsOncePerLoop:
    def test_four_machines_compute_the_facts_once(self, monkeypatch):
        compiled = compile_loop(FIG1_SOURCE)
        counted = {
            "partition": count_calls(monkeypatch, partition),
            "find_sync_paths": count_calls(monkeypatch, find_sync_paths),
        }
        topo_calls: list = []
        original = DataFlowGraph.topological_order

        def topological_order(graph):
            topo_calls.append(graph)
            return original(graph)

        monkeypatch.setattr(DataFlowGraph, "topological_order", topological_order)
        for machine in paper_cases():
            for schedule in (
                list_schedule(compiled.lowered, compiled.graph, machine),
                sync_schedule(compiled.lowered, compiled.graph, machine),
            ):
                assert_valid(schedule, compiled.graph)
        assert len(counted["partition"]) == 1
        assert len(counted["find_sync_paths"]) == 1
        assert len(topo_calls) == 1

    def test_add_edge_drops_the_memo(self, fig1_lowered):
        graph = build_dfg(fig1_lowered)
        facts = graph.facts(fig1_lowered)
        assert graph.facts(fig1_lowered) is facts
        # An edge into a root gives it an ancestor the next facts must show.
        root = facts.topo[0]
        assert not facts.ancestor_mask(root)
        source = next(n for n in facts.topo[1:] if n not in graph.descendants(root))
        graph.add_edge(source, root, EdgeKind.REG)
        refreshed = graph.facts(fig1_lowered)
        assert refreshed is not facts
        assert source in refreshed.members(refreshed.ancestor_mask(root))
        assert set(refreshed.members(refreshed.ancestor_mask(root))) == graph.ancestors(root)

    def test_facts_follow_the_lowered_loop_asked_about(self, fig1_lowered, fig1_dfg):
        facts = fig1_dfg.facts(fig1_lowered)
        other = compile_loop(FIG1_SOURCE).lowered
        assert fig1_dfg.facts(other) is not facts
        assert fig1_dfg.facts(other).lowered is other

    @pytest.mark.parametrize(
        "source",
        [FIG1_SOURCE, "DO I = 1, 20\n A(I) = A(I-1) + A(I-2)\nENDDO"],
        ids=["fig1", "two-recurrences"],
    )
    def test_facts_match_the_graph(self, source):
        compiled = compile_loop(source)
        graph, lowered = compiled.graph, compiled.lowered
        facts = LoopFacts.of(graph, lowered)
        assert list(facts.topo) == graph.topological_order()
        for node in graph.nodes:
            assert set(facts.members(facts.ancestor_mask(node))) == graph.ancestors(node)
        assert [kind for kind, _ in facts.components] == [
            c.kind for c in partition(graph, lowered)
        ]
        assert [set(facts.members(mask)) for _, mask in facts.components] == [
            set(c.nodes) for c in partition(graph, lowered)
        ]
        assert list(facts.sync_paths) == find_sync_paths(
            graph, lowered, partition(graph, lowered)
        )
        for pair in lowered.synced.pairs:
            assert facts.sources[pair.pair_id] == lowered.source_iids(pair.pair_id)
            assert facts.sinks[pair.pair_id] == lowered.sink_iids(pair.pair_id)
