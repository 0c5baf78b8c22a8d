"""Tests of the benchmark harness itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from bench.run import compare
from bench.trace import LAYERS, Span, Tracer, layer_metrics, self_times
from bench.workloads import (
    CYCLES,
    MACHINES,
    NOVEL_SHARE,
    WORKLOADS,
    build_requests,
    check_sweep,
    committed_table2_totals,
    corpus_sums,
    table2_cells,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


def _bench(*args: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def _result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_smoke_of_every_workload(trace):
    done = _bench("--quick", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = _result_lines(done.stdout)
    assert len(lines) == len(SPEC["workloads"])
    assert json.loads(done.stdout.splitlines()[-1]) == lines[-1]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == (PER_LAYER if trace == "1" else E2E)
        if trace == "1":
            shares = [v["value"] for k, v in line["metrics"].items() if k.endswith(".share")]
            assert sum(shares) == pytest.approx(1.0, abs=0.01)
    if trace == "1":
        entry = {"table2_cold": "service.ops", "table2_warm": "service.ops",
                 "fuzz": "robust.fuzz", "serve_open": "perf.batch"}
        for workload, line in zip(WORKLOADS, lines):
            assert line["metrics"][f"{entry[workload]}.calls"]["value"] > 0
        cold, warm = lines[0]["metrics"], lines[1]["metrics"]
        sched = ("sched.list", "sched.sync", "sched.verify")
        assert sum(cold[f"{layer}.share"]["value"] for layer in sched) > 0.5
        assert all(warm[f"{layer}.calls"]["value"] == 0 for layer in sched)


def test_benchmark_spec_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert len(E2E) <= 16 and len(PER_LAYER) <= 128
    names = E2E + PER_LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    empty = {"self_s": {}, "inclusive_s": {}, "calls": {}, "root_s": 0.0, "unit_wall_s": 0.0, "counts": {}}
    computed = list(layer_metrics(empty, 1, 1.0))
    assert computed == PER_LAYER[: len(computed)]


def test_tracer_restores_every_original():
    import repro.robust.fuzz  # noqa: F401  -- load the modules the workloads use
    import repro.service.ops
    import repro.service.server  # noqa: F401
    from repro.perf.cache import CompileCache

    def bindings():
        return {
            (name, attr): value
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
            for attr, value in vars(module).items()
        }

    before = bindings()
    compile_method = vars(CompileCache)["compile"]
    tracer = Tracer().install()
    try:
        assert repro.service.ops.list_schedule is not before[("repro.service.ops", "list_schedule")]
        assert vars(CompileCache)["compile"] is not compile_method
        # A module imported while the tracer is installed copies a wrapper.
        late = types.ModuleType("repro._late_import")
        late.list_schedule = repro.service.ops.list_schedule
        sys.modules[late.__name__] = late
    finally:
        tracer.restore()
    try:
        after = bindings()
        assert all(after[key] is value for key, value in before.items())
        assert vars(CompileCache)["compile"] is compile_method
        assert late.list_schedule is before[("repro.service.ops", "list_schedule")]
    finally:
        del sys.modules[late.__name__]


def test_self_time_arithmetic_on_nested_spans():
    spans = [
        Span(0, "a", 0.0, 10.0, -1, 1, 0),
        Span(1, "b", 1.0, 4.0, 0, 1, 0),
        Span(2, "c", 2.0, 3.0, 1, 1, 0),
        Span(3, "b", 5.0, 9.0, 0, 1, 0),
        Span(4, "c", 11.0, 12.0, -1, 1, 0),
    ]
    assert self_times(spans) == {"a": 3.0, "b": 6.0, "c": 2.0}
    totals = {
        "self_s": self_times(spans), "inclusive_s": {}, "calls": {"a": 1, "b": 2, "c": 2},
        "root_s": 11.0, "unit_wall_s": 14.0, "counts": {},
    }
    renamed = {"ir.parse": "a", "sched.list": "b", "sched.sync": "c"}
    totals["self_s"] = {layer: totals["self_s"][span] for layer, span in renamed.items()}
    metrics = layer_metrics(totals, 2, 14.0)
    assert metrics["sched.list.self_ms"][0] == pytest.approx(3000.0)
    assert metrics["unattributed.self_ms"][0] == pytest.approx(1500.0)
    shares = sum(metrics[f"{layer}.share"][0] for layer in LAYERS) + metrics["unattributed.share"][0]
    assert shares == pytest.approx(1.0)


def test_traced_outputs_are_byte_identical():
    from repro.ir import format_loop
    from repro.robust.fuzz import run_fuzz
    from repro.service.ops import evaluate_op, sweep_op
    from repro.workloads import perfect_suite

    source = format_loop(perfect_suite()["ADM"][2])

    def outputs():
        evaluated = evaluate_op(source, 2, 2, 100, as_json=True)
        return (
            sweep_op().stdout,
            run_fuzz(cases=10, seed=5).summary(),
            evaluated.stdout,
            json.dumps(evaluated.data, sort_keys=True),
        )

    plain = outputs()
    with Tracer() as tracer:
        traced = outputs()
    assert tracer.spans and traced == plain


def test_frozen_cells_match_the_committed_table2():
    cells = table2_cells()
    assert len(cells) == 144
    totals = [
        (
            sum(c["t_list"] for c in cells if (c["issue"], c["fu"]) == machine),
            sum(c["t_new"] for c in cells if (c["issue"], c["fu"]) == machine),
        )
        for machine in MACHINES
    ]
    assert totals == committed_table2_totals()
    assert (sum(t for t, _ in totals), sum(t for _, t in totals)) == CYCLES


def test_check_sweep_counts_wrong_cells():
    from repro.service.ops import sweep_op

    sums = corpus_sums(table2_cells())
    stdout = sweep_op(["QCD"]).stdout + sweep_op(["FLQ52", "MDG", "TRACK", "ADM"]).stdout
    assert check_sweep(stdout, sums) == (0, *CYCLES)
    t_list, t_new, loops = sums[("QCD", 0)]
    broken = stdout.replace(f"{t_list}/{t_new}", f"{t_list}/{t_new + 1}", 1)
    assert check_sweep(broken, sums)[0] == loops


def test_served_inputs_follow_the_seed():
    first = build_requests("3", 20, 2.0)
    assert first == build_requests("3", 20, 2.0)
    assert [r.body for r in first] != [r.body for r in build_requests("4", 20, 2.0)]
    assert sum(r.novel for r in first) == round(NOVEL_SHARE * 20)
    assert all(0.0 <= r.due_s <= 2.0 for r in first)


def test_compare_flags_a_regression(tmp_path, capsys):
    def write(path, latency, seconds=20):
        lines = [
            {"workload": "fuzz", "seed": s, "seconds": seconds, "trace": 0,
             "metrics": {"latency_p50_ms": {"value": latency + s * 0.01, "unit": "ms"}}}
            for s in range(5)
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))

    write(tmp_path / "a.jsonl", 100.0)
    write(tmp_path / "b.jsonl", 100.5)
    assert compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")) == 0
    write(tmp_path / "b.jsonl", 150.0)
    assert compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")) == 1
    assert "WORSE" in capsys.readouterr().out
    write(tmp_path / "b.jsonl", 100.5, seconds=1)
    assert compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")) == 2
    assert "one length" in capsys.readouterr().err


def test_run_length_is_fixed_by_the_spec():
    done = _bench("--workload", "fuzz", "--seconds", "1")
    assert done.returncode == 2 and "run_seconds" in done.stderr
    assert not _result_lines(done.stdout)


def test_a_thread_holding_the_gil_in_the_child_shows(tmp_path):
    """The speed calibration runs outside the workload's interpreter, so
    whatever slows that interpreter slows the reported times too."""
    (tmp_path / "sitecustomize.py").write_text(
        "import os, sys, threading\n"
        "if os.path.basename(sys.argv[0]) == 'child.py':\n"
        "    def hog():\n"
        "        while True:\n"
        "            pass\n"
        "    threading.Thread(target=hog, daemon=True).start()\n"
    )

    def p50(env):
        done = _bench("--quick", "--workload", "table2_warm", env=env)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])["metrics"]["latency_p50_ms"]["value"]

    plain = p50(None)
    hogged = p50({**os.environ, "PYTHONPATH": str(tmp_path)})
    assert hogged > 1.5 * plain


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    seconds = str(SPEC["run_seconds"])
    done = _bench("--workload", "fuzz", "--seed", "1", "--seconds", seconds, "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not _result_lines(done.stdout)
