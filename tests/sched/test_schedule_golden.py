"""Schedule identity golden: the placements themselves, not just the times.

``make bench-check`` gates the simulated t_list/t_new only, so a scheduler
change that moves an instruction without changing the parallel time would
pass it.  This test pins every placement: for each scheduler variant it
hashes the ``cycle_of`` map of every Perfect-suite loop and every
Livermore kernel that compiles, on the four paper machines, the pipelined
4-issue machine and the Fig. 4 machine, and compares the digests with
``golden/schedules.json``.

Regenerate (only when a placement change is intentional) with::

    PYTHONPATH=src python tests/sched/test_schedule_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.pipeline import compile_loop
from repro.sched import (
    Priority,
    SyncSchedulerOptions,
    figure4_machine,
    list_schedule,
    paper_machine,
    sync_schedule,
)
from repro.sched.machine import paper_cases
from repro.workloads import livermore_kernels, perfect_suite

GOLDEN = Path(__file__).parent / "golden" / "schedules.json"

MACHINES = [*paper_cases(), paper_machine(4, 1, pipelined=True), figure4_machine()]

SYNC_OPTIONS = {
    "sync": SyncSchedulerOptions(),
    "sync/contiguous_sp=False": SyncSchedulerOptions(contiguous_sp=False),
    "sync/sp_order=asc": SyncSchedulerOptions(sp_order="asc"),
    "sync/sp_order=id": SyncSchedulerOptions(sp_order="id"),
    "sync/sends_before_waits=False": SyncSchedulerOptions(sends_before_waits=False),
    "sync/waits_after_sends=False": SyncSchedulerOptions(waits_after_sends=False),
    "sync/trip_count=10": SyncSchedulerOptions(trip_count=10),
    "sync/guard_never_degrade=True": SyncSchedulerOptions(guard_never_degrade=True),
}

VARIANTS = {
    **{
        f"list/{priority.value}": (
            lambda compiled, machine, priority=priority: list_schedule(
                compiled.lowered, compiled.graph, machine, priority
            )
        )
        for priority in Priority
    },
    **{
        name: (
            lambda compiled, machine, options=options: sync_schedule(
                compiled.lowered, compiled.graph, machine, options
            )
        )
        for name, options in SYNC_OPTIONS.items()
    },
}


def compiled_loops() -> list[tuple[str, object]]:
    """(label, compiled loop) for every Perfect loop and compilable kernel."""
    loops = [
        (f"{name}[{index}]", loop)
        for name, corpus in perfect_suite().items()
        for index, loop in enumerate(corpus)
    ]
    loops += [(kernel.name, kernel.loop()) for kernel in livermore_kernels()]
    compiled = []
    for label, loop in loops:
        try:
            compiled.append((label, compile_loop(loop)))
        except ValueError:  # SERIAL after restructuring: nothing to schedule
            continue
    return compiled


def digests(variant: str, loops: list[tuple[str, object]]) -> dict[str, list[str]]:
    """Machine name -> per loop, the first 16 hex digits of the sha256 of
    the schedule's sorted ``cycle_of`` items."""
    schedule = VARIANTS[variant]
    return {
        machine.name: [
            hashlib.sha256(
                json.dumps(sorted(schedule(compiled, machine).cycle_of.items())).encode()
            ).hexdigest()[:16]
            for _, compiled in loops
        ]
        for machine in MACHINES
    }


@pytest.fixture(scope="module")
def loops():
    return compiled_loops()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_placements_match_golden(variant, loops, golden):
    labels = [label for label, _ in loops]
    assert labels == golden["loops"]
    actual = digests(variant, loops)
    assert list(actual) == list(golden[variant])
    for machine, machine_digests in actual.items():
        expected = golden[variant][machine].split()
        moved = [
            label
            for label, got, want in zip(labels, machine_digests, expected)
            if got != want
        ]
        assert not moved, f"{variant} on {machine}: {len(moved)} schedules moved: {moved[:5]}"


if __name__ == "__main__":
    compiled = compiled_loops()
    golden = {"loops": [label for label, _ in compiled]}
    for variant in VARIANTS:
        golden[variant] = {
            machine: " ".join(values) for machine, values in digests(variant, compiled).items()
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
