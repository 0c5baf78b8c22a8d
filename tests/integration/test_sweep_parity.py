"""Full-grid sweep parity: every engine prints the same Table 2.

The CLI goldens sweep small subsets; this runs the default grid (the 5
Perfect corpora x 4 paper machines at n = 100) through the per-loop
path, the batch engine twice in one process (cold, then from its memos)
and the all-accelerators-off path, and checks the sums against the
committed Table 2 results.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro.perf.batch as batch_module
from repro.service.ops import sweep_op

TABLE2 = Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "table2_execution_times.txt"


def committed_totals() -> tuple[int, int]:
    """Σ Ta and Σ Tb over the four machines of the Total row."""
    row = next(line for line in TABLE2.read_text().splitlines() if line.startswith("Total"))
    values = [int(v) for v in row.split()[1:]]
    return sum(values[0::2]), sum(values[1::2])


def test_every_engine_prints_the_same_table(monkeypatch):
    monkeypatch.setattr(batch_module, "_SHARED", None)  # a cold process-wide engine
    outputs = {
        "serial": sweep_op().stdout,
        "batch": sweep_op(batch=True).stdout,
        "batch again": sweep_op(batch=True).stdout,
        "no-cache exact": sweep_op(no_cache=True, exact_sim=True).stdout,
    }
    assert len(set(outputs.values())) == 1, outputs
    cells = [tuple(map(int, m)) for m in re.findall(r"(\d+)/(\d+)", outputs["serial"])]
    assert len(cells) == 20
    assert (sum(t for t, _ in cells), sum(t for _, t in cells)) == committed_totals()
    assert committed_totals() == (202579, 37330)
