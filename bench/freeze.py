"""Regenerate the frozen references in ``bench/expected/``.

    python bench/freeze.py

Writes the t_list/t_new of all 144 Table 2 cells, after checking their
per-machine totals against the committed
``benchmarks/results/table2_execution_times.txt``, and the ``FuzzReport``
counters of the default seed's first batches.  Run it only for a change
that is meant to alter these results.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import bench as a package: bench/trace.py must not shadow the stdlib
sys.path.insert(1, str(ROOT / "src"))

import json  # noqa: E402

from bench.workloads import (  # noqa: E402
    CYCLES,
    DEFAULT_SEED,
    EXPECTED_DIR,
    FUZZ_CASES,
    MACHINES,
    N,
    batch_seed,
    check_sweep,
    committed_table2_totals,
    corpus_sums,
    fuzz_counters,
)

FUZZ_REFERENCE_BATCHES = 500


def table2() -> list[dict]:
    from repro.sched import paper_machine
    from repro.service.ops import sweep_op, sweep_results
    from repro.workloads import PERFECT_BENCHMARKS

    results, _, _ = sweep_results(list(PERFECT_BENCHMARKS), N, 1, False)
    machines = {paper_machine(*machine).name: machine for machine in MACHINES}
    cells = [
        {
            "corpus": corpus.name,
            "loop": index,
            "issue": machines[corpus.machine.name][0],
            "fu": machines[corpus.machine.name][1],
            "t_list": evaluation.t_list,
            "t_new": evaluation.t_new,
        }
        for corpus in results
        for index, evaluation in enumerate(corpus.evaluations)
    ]
    totals = [
        (
            sum(c["t_list"] for c in cells if (c["issue"], c["fu"]) == machine),
            sum(c["t_new"] for c in cells if (c["issue"], c["fu"]) == machine),
        )
        for machine in MACHINES
    ]
    if totals != committed_table2_totals():
        raise SystemExit(f"cell totals {totals} differ from the committed Table 2")
    wrong, *cycles = check_sweep(sweep_op().stdout, corpus_sums(cells))
    if wrong or tuple(cycles) != CYCLES:
        raise SystemExit(f"sweep_op disagrees with the cells: {wrong} wrong, cycles {cycles}")
    return cells


def fuzz() -> list[dict]:
    from repro.robust.fuzz import run_fuzz

    return [
        fuzz_counters(run_fuzz(cases=FUZZ_CASES, seed=batch_seed(DEFAULT_SEED, batch)))
        for batch in range(FUZZ_REFERENCE_BATCHES)
    ]


def write(name: str, head: dict, key: str, rows: list[dict]) -> None:
    """``head`` plus ``key: rows`` as JSON, one row per line."""
    body = ",\n".join(json.dumps(row) for row in rows)
    fields = "".join(f"{json.dumps(k)}: {json.dumps(v)}, " for k, v in head.items())
    (EXPECTED_DIR / name).write_text(f"{{{fields}{json.dumps(key)}: [\n{body}\n]}}\n")


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    write("table2_cells.json", {"n": N}, "cells", table2())
    write(
        "fuzz_default_seed.json",
        {"seed": DEFAULT_SEED, "cases_per_batch": FUZZ_CASES}, "batches", fuzz(),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
