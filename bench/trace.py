"""Per-layer self time, measured from outside the library.

:class:`Tracer` times the public function of each pipeline layer by
*rebinding* it: for every wrapped function, each attribute of a loaded
``repro.*`` module that ``is`` the original (the defining module, package
re-exports, ``from x import f`` copies) is pointed at a timing wrapper,
and :meth:`Tracer.restore` points every one of them back, including
copies made by modules imported while the tracer was installed.  No file
under ``src/`` changes, so later changes to the library cannot move the
yardstick.  Functions captured before installation in containers,
closures or default arguments are not traced.

Spans (name, start, end, parent, thread, unit) stay in memory and are
written as JSON lines when the run ends.  A layer's self time is its
spans' duration minus the time covered by their direct child spans; time
inside a unit that no span covers is reported as ``(unattributed)``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Any, Iterable

#: Layer name -> the public functions timed for it (``module:qualname``).
LAYERS: dict[str, tuple[str, ...]] = {
    "ir.parse": ("repro.ir.parser:parse_loop",),
    "ir.print": ("repro.ir.printer:format_loop",),
    "deps.analyze": ("repro.deps.analysis:analyze_loop",),
    "transforms.restructure": ("repro.transforms.pipeline:restructure",),
    "sync.insert": ("repro.sync.insertion:insert_synchronization",),
    "codegen.lower": ("repro.codegen.lower:lower_loop",),
    "dfg.build": ("repro.dfg.builder:build_dfg",),
    "workloads.generate": (
        "repro.workloads.generator:generate_loop",
        "repro.workloads.perfect:perfect_suite",
    ),
    "sched.list": ("repro.sched.list_scheduler:list_schedule",),
    "sched.sync": ("repro.sched.sync_scheduler:sync_schedule",),
    "sched.verify": ("repro.sched.verify:assert_valid",),
    "sim.doacross": ("repro.sim.multiproc:simulate_doacross",),
    "sim.closed_form": ("repro.sim.analytic:batch_closed_form",),
    "sim.executor": ("repro.sim.executor:execute_parallel",),
    "sim.interp": ("repro.sim.interp:run_serial",),
    "perf.cache": (
        "repro.perf.cache:CompileCache.compile",
        "repro.perf.cache:CompileCache.schedules",
    ),
    "perf.batch": ("repro.perf.batch:BatchEvaluator.evaluate_corpora",),
    "pipeline.corpus": ("repro.pipeline:evaluate_corpus",),
    "service.ops": ("repro.service.ops:sweep_op",),
    "robust.fuzz": ("repro.robust.fuzz:run_fuzz",),
}

UNATTRIBUTED = "(unattributed)"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # sid of the enclosing span on the same thread; -1 for a root
    thread: int
    unit: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds per span name, each span minus what its direct children cover."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration - covered[span.sid]
    return dict(totals)


# -- counts taken at the layer boundaries ---------------------------------------


def _count_lower(counts: Counter, result: Any) -> None:
    counts["codegen.instrs"] += len(result.instructions)


def _count_dfg(counts: Counter, result: Any) -> None:
    counts["dfg.nodes"] += len(result.nodes)
    counts["dfg.edges"] += len(result.edges)


def _count_sync(counts: Counter, result: Any) -> None:
    counts["sync.pairs"] += len(result.pairs)


def _count_schedule(counts: Counter, result: Any) -> None:
    counts["sched.cycles_scheduled"] += result.length


def _count_simulation(counts: Counter, result: Any) -> None:
    counts["sim.results"] += 1
    if result.dispatch == "fast_path":
        counts["sim.fast_path"] += 1


_COUNTERS = {
    "codegen.lower": _count_lower,
    "dfg.build": _count_dfg,
    "sync.insert": _count_sync,
    "sched.list": _count_schedule,
    "sched.sync": _count_schedule,
    "sim.doacross": _count_simulation,
}

#: Layers whose first argument is a memo object; its hit counters are read
#: when first seen and again at the end, so only the traced calls count.
_WATCHED = frozenset({"perf.cache", "perf.batch"})


def _memo_counters(memo: Any) -> dict[str, int]:
    stats = memo.stats
    if hasattr(stats, "compile_hits"):  # CompileCache
        return {
            "perf.compile_hits": stats.compile_hits,
            "perf.compile_calls": stats.compile_hits + stats.compile_misses,
            "perf.schedule_hits": stats.schedule_hits,
            "perf.schedule_calls": stats.schedule_hits + stats.schedule_misses,
        }
    return {"perf.batch.eval_hits": stats.eval_hits, "perf.batch.cells": stats.cells}


# -- the tracer -----------------------------------------------------------------


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _swap(replacements: dict[int, tuple[Any, Any]]) -> None:
    """Point every ``repro.*`` module attribute that is an old object at its new one."""
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


class Tracer:
    """Records a span around every call into a layer's public functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.units: list[tuple[int, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._unit: int | None = None
        self._watched: dict[int, tuple[Any, dict[str, int]]] = {}
        self._pairs: list[tuple[Any, Any]] = []  # (original, wrapper)
        self._class_attrs: list[tuple[type, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        if self._pairs:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                owner: Any = importlib.import_module(module_name)
                *classes, attr = qualname.split(".")
                for name in classes:
                    owner = getattr(owner, name)
                original = vars(owner)[attr]
                wrapper = self._wrap(layer, original)
                self._pairs.append((original, wrapper))
                if classes:
                    setattr(owner, attr, wrapper)
                    self._class_attrs.append((owner, attr, original))
        _swap({id(old): (old, new) for old, new in self._pairs})
        return self

    def restore(self) -> None:
        """Put every original back, wherever a wrapper was bound."""
        _swap({id(new): (new, old) for old, new in self._pairs})
        for owner, attr, original in self._class_attrs:
            setattr(owner, attr, original)
        self._pairs.clear()
        self._class_attrs.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def _wrap(self, layer: str, fn: Any) -> Any:
        record = self.spans.append
        local = self._local
        ids = self._ids
        count = _COUNTERS.get(layer)
        watch = layer in _WATCHED

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if watch:
                self._watch(args[0])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record(
                    Span(sid, layer, start, end, parent, threading.get_ident(), self._unit)
                )
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def _watch(self, memo: Any) -> None:
        if id(memo) not in self._watched:
            self._watched[id(memo)] = (memo, _memo_counters(memo))

    # -- units and results ---------------------------------------------------

    @contextmanager
    def unit(self, uid: int):
        """Mark one timed unit of work; spans started inside carry its id."""
        self._unit = uid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.units.append((uid, start, time.perf_counter()))
            self._unit = None

    def clear(self) -> None:
        """Forget every span, unit, count and watched memo (wrappers stay)."""
        self.spans.clear()
        self.units.clear()
        self.counts.clear()
        self._watched.clear()

    def _counts(self) -> dict[str, int]:
        counts = Counter(self.counts)
        for memo, before in self._watched.values():
            for key, value in _memo_counters(memo).items():
                counts[key] += value - before[key]
        return dict(counts)

    def export(self) -> dict[str, Any]:
        """Spans, units and counts as JSON-ready data (memo deltas folded in)."""
        return {
            "spans": [astuple(span) for span in self.spans],
            "units": [list(unit) for unit in self.units],
            "counts": self._counts(),
        }

    def absorb(self, data: dict[str, Any]) -> None:
        """Merge another process's :meth:`export`, renumbering its spans."""
        renumber = {fields[0]: next(self._ids) for fields in data["spans"]}
        for sid, name, start, end, parent, thread, unit in data["spans"]:
            self.spans.append(
                Span(renumber[sid], name, start, end, renumber.get(parent, -1), thread, unit)
            )
        self.units.extend(tuple(unit) for unit in data["units"])
        self.counts.update(data["counts"])

    def write(self, path: Path) -> None:
        """One JSON object per span, one per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    def totals(self) -> dict[str, Any]:
        """What the per-layer metrics are computed from (seconds and counts)."""
        inclusive: dict[str, float] = defaultdict(float)
        for span in self.spans:
            inclusive[span.name] += span.duration
        return {
            "self_s": self_times(self.spans),
            "inclusive_s": dict(inclusive),
            "calls": dict(Counter(span.name for span in self.spans)),
            "root_s": sum(span.duration for span in self.spans if span.parent < 0),
            "unit_wall_s": sum(end - start for _, start, end in self.units),
            "counts": self._counts(),
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    totals: dict[str, Any], units: int, wall_s: float, speed: float = 1.0
) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics: name -> (value, unit, base) for ``units`` traced units.

    Times per unit are multiplied by ``speed``, the factor that rescales
    them to reference speed (see ``workloads.at_reference_speed``); shares
    are ratios of raw times.
    """
    count = max(units, 1)
    ms_per_unit = speed * 1e3 / count
    metrics: dict[str, tuple[float, str, str]] = {}
    for layer in LAYERS:
        self_s = totals["self_s"].get(layer, 0.0)
        calls = totals["calls"].get(layer, 0)
        metrics[f"{layer}.self_ms"] = (self_s * ms_per_unit, "ms", f"per unit, {units} units")
        metrics[f"{layer}.calls"] = (calls / count, "count", f"{calls} calls / {units} units")
        metrics[f"{layer}.share"] = (_ratio(self_s, wall_s), "ratio", f"of {wall_s:.3f} s traced")
    unattributed = wall_s - totals["root_s"]
    metrics["unattributed.self_ms"] = (
        unattributed * ms_per_unit, "ms", f"{UNATTRIBUTED}, per unit",
    )
    metrics["unattributed.share"] = (
        _ratio(unattributed, wall_s), "ratio", f"{UNATTRIBUTED} of {wall_s:.3f} s traced",
    )
    counts = totals["counts"]
    for name in ("codegen.instrs", "dfg.nodes", "dfg.edges", "sync.pairs", "sched.cycles_scheduled"):
        total = counts.get(name, 0)
        metrics[name] = (total / count, "count", f"{total} / {units} units")
    for name, part, whole in (
        ("sim.fast_path_ratio", "sim.fast_path", "sim.results"),
        ("perf.compile_hit_ratio", "perf.compile_hits", "perf.compile_calls"),
        ("perf.schedule_hit_ratio", "perf.schedule_hits", "perf.schedule_calls"),
        ("perf.batch.eval_hit_ratio", "perf.batch.eval_hits", "perf.batch.cells"),
    ):
        hits, base = counts.get(part, 0), counts.get(whole, 0)
        metrics[name] = (_ratio(hits, base), "ratio", f"{hits}/{base}")
    return metrics
