"""Content-addressed compile cache and schedule memo for parameter sweeps.

Every sweep in this reproduction (Tables 2/3, the issue-width / register /
unroll / signal-latency studies) evaluates the same loop corpus across many
machine cases.  The front half of the pipeline — parse, dependence
analysis, restructuring, synchronization insertion, lowering, DFG — is
machine-independent, so a sweep only ever needs to run it once per
``(loop, restructuring flags, fuse mode)``.  Likewise a re-run of the same
sweep point needs no second scheduling pass: the schedules are a pure
function of ``(compiled loop, machine, scheduler options)``.

:class:`CompileCache` provides both layers:

* ``compile()`` — content-addressed on the *canonical printed source* of
  the loop (so a ``Loop`` AST and any whitespace variant of its source text
  share an entry) plus the restructuring/fuse flags.  SERIAL loops are
  negatively cached: the ``ValueError`` is replayed without recompiling.
* ``schedules()`` — memoizes the (list, sync) schedule pair per
  ``(lowered-code fingerprint, machine, list priority, sync options)``.
  The fingerprint hashes the three-address listing plus the sync-pair
  distances, so any two compilations of equivalent code share schedules.
  Entries remember whether they have been validated against the DFG, so a
  warm sweep skips re-verification of schedules that already passed.

Keys are sha256 hex digests; ``max_entries`` bounds each layer with LRU
eviction (unbounded by default — a full Perfect-suite sweep is ~40 loops).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.codegen import FuseStore
from repro.ir.ast_nodes import Loop
from repro.ir.printer import format_loop
from repro.obs.metrics import count as metric_count
from repro.obs.trace import span
from repro.sched import MachineConfig, Priority, Schedule, SyncSchedulerOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle: pipeline uses perf.profile
    from repro.pipeline import CompiledLoop

__all__ = ["CacheStats", "CompileCache", "compiled_fingerprint", "loop_key"]

#: On-disk cache file magic; the digit is the format version of the
#: container *and* of the pickled classes (2: frozen ``Schedule``s), so a
#: file written by an older layout loads as a miss.  The payload
#: additionally records ``repro.schema.SCHEMA_VERSION``.
_CACHE_MAGIC = b"RPROCCH2"


def loop_key(loop: Loop | str) -> str:
    """Content hash of a loop: sha256 of its canonical printed form.

    Source text is parsed and re-printed first, so formatting variants of
    the same loop address the same cache entry.  The digest is memoized
    on the ``Loop`` instance (ASTs are immutable by convention), so a
    sweep that revisits the same loop object across hundreds of cells
    prints and hashes it once.
    """
    if isinstance(loop, str):
        from repro.ir.parser import parse_loop

        loop = parse_loop(loop)
    cached = getattr(loop, "_perf_loop_key", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256(format_loop(loop).encode("utf-8")).hexdigest()
    try:
        loop._perf_loop_key = digest
    except AttributeError:  # slotted/frozen AST variants: just recompute
        pass
    return digest


def compiled_fingerprint(compiled: "CompiledLoop") -> str:
    """Content hash of a compiled loop's machine-independent back-half
    inputs: the three-address listing plus the sync-pair distances (which
    weight the sync scheduler's SP ordering).  Memoized on the instance."""
    cached = getattr(compiled, "_perf_fingerprint", None)
    if cached is not None:
        return cached
    from repro.codegen import format_listing

    pairs = ",".join(
        f"{pair.pair_id}:{pair.distance}" for pair in compiled.lowered.synced.pairs
    )
    digest = hashlib.sha256(
        (format_listing(compiled.lowered) + "\n" + pairs).encode("utf-8")
    ).hexdigest()
    compiled._perf_fingerprint = digest
    return digest


@dataclass
class CacheStats:
    """Hit/miss counters for both cache layers."""

    compile_hits: int = 0
    compile_misses: int = 0
    schedule_hits: int = 0
    schedule_misses: int = 0

    def format(self) -> str:
        return (
            f"compile {self.compile_hits} hits / {self.compile_misses} misses, "
            f"schedule {self.schedule_hits} hits / {self.schedule_misses} misses"
        )


class _SerialLoop:
    """Negative-cache sentinel: the loop compiled to SERIAL."""

    def __init__(self, message: str):
        self.message = message


@dataclass
class _ScheduleEntry:
    schedule_list: Schedule
    schedule_new: Schedule
    verified: bool


class CompileCache:
    """Two-layer memo: compiled loops, and schedule pairs per machine."""

    def __init__(self, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._compiled: OrderedDict[tuple, "CompiledLoop | _SerialLoop"] = OrderedDict()
        self._schedules: OrderedDict[tuple, _ScheduleEntry] = OrderedDict()

    # -- compiled-loop layer -------------------------------------------------

    def compile(
        self,
        loop: Loop | str,
        apply_restructuring: bool = True,
        fuse: FuseStore = FuseStore.BEFORE_SEND,
    ) -> "CompiledLoop":
        """Cached :func:`repro.pipeline.compile_loop`.

        Raises the same ``ValueError`` as ``compile_loop`` for SERIAL
        loops, replayed from the negative cache on a repeat.
        """
        key = (loop_key(loop), bool(apply_restructuring), fuse)
        cached = self._compiled.get(key)
        if cached is not None:
            self.stats.compile_hits += 1
            metric_count("cache.compile.hit")
            self._compiled.move_to_end(key)
            if isinstance(cached, _SerialLoop):
                raise ValueError(cached.message)
            return cached
        self.stats.compile_misses += 1
        metric_count("cache.compile.miss")
        from repro.options import EvalOptions
        from repro.pipeline import compile_loop

        try:
            compiled = compile_loop(
                loop,
                EvalOptions(apply_restructuring=bool(apply_restructuring), fuse=fuse),
            )
        except ValueError as err:
            self._store(self._compiled, key, _SerialLoop(str(err)))
            raise
        self._store(self._compiled, key, compiled)
        return compiled

    # -- schedule layer ------------------------------------------------------

    def schedules(
        self,
        compiled: "CompiledLoop",
        machine: MachineConfig,
        list_priority: Priority = Priority.PROGRAM_ORDER,
        sync_options: SyncSchedulerOptions | None = None,
        verify: bool = True,
    ) -> tuple[Schedule, Schedule]:
        """Memoized (list, sync) schedule pair for one sweep point.

        On a hit the stored schedules are returned as-is; when ``verify``
        is requested they are validated at most once per entry (the pair
        is immutable, so one successful check covers every reuse).
        """
        key = (
            compiled_fingerprint(compiled),
            machine,
            list_priority.value,
            sync_options if sync_options is not None else SyncSchedulerOptions(),
        )
        entry = self._schedules.get(key)
        if entry is not None:
            self.stats.schedule_hits += 1
            metric_count("cache.schedule.hit")
            self._schedules.move_to_end(key)
        else:
            self.stats.schedule_misses += 1
            metric_count("cache.schedule.miss")
            from repro.sched import list_schedule, sync_schedule

            entry = _ScheduleEntry(
                schedule_list=list_schedule(
                    compiled.lowered, compiled.graph, machine, list_priority
                ),
                schedule_new=sync_schedule(
                    compiled.lowered, compiled.graph, machine, sync_options
                ),
                verified=False,
            )
            self._store(self._schedules, key, entry)
        if verify and not entry.verified:
            from repro.sched import assert_valid

            with span("verify"):
                assert_valid(entry.schedule_list, compiled.graph)
                assert_valid(entry.schedule_new, compiled.graph)
            entry.verified = True
        return entry.schedule_list, entry.schedule_new

    # -- bookkeeping ---------------------------------------------------------

    def _store(self, table: OrderedDict, key: tuple, value) -> None:
        table[key] = value
        table.move_to_end(key)
        if self.max_entries is not None:
            while len(table) > self.max_entries:
                table.popitem(last=False)

    def clear(self) -> None:
        self._compiled.clear()
        self._schedules.clear()

    def __len__(self) -> int:
        return len(self._compiled) + len(self._schedules)

    # -- disk persistence ----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist both layers to ``path`` (``repro sweep --cache-file``).

        Layout: an 8-byte magic, the sha256 of the body, then the pickled
        body — so :meth:`load` can prove the file intact before trusting a
        single unpickled byte.  Written atomically (temp file + rename): a
        crash mid-save leaves the previous file, not a truncated one.
        """
        from repro.schema import SCHEMA_VERSION

        body = pickle.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "compiled": self._compiled,
                "schedules": self._schedules,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(_CACHE_MAGIC + hashlib.sha256(body).digest() + body)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | Path, max_entries: int | None = None) -> "CompileCache":
        """A cache warmed from ``path`` — or an *empty* one when the file
        is missing, truncated, bit-flipped, unpicklable, or written by a
        different schema version.

        Corruption of any kind is a cache **miss**, never an error: the
        sweep recompiles and overwrites the bad file on its next
        :meth:`save`.  Each rejected file counts ``robust.cache.corrupt``
        (a missing file is a plain cold start and counts nothing).
        """
        from repro.schema import SCHEMA_VERSION

        cache = cls(max_entries=max_entries)
        path = Path(path)
        if not path.exists():
            return cache
        try:
            raw = path.read_bytes()
            magic, digest, body = raw[:8], raw[8:40], raw[40:]
            if magic != _CACHE_MAGIC:
                raise ValueError("bad cache file magic")
            if len(raw) < 41:
                raise ValueError("cache file truncated")
            if hashlib.sha256(body).digest() != digest:
                raise ValueError("cache body does not match its digest")
            payload = pickle.loads(body)
            if payload.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(
                    f"cache schema {payload.get('schema_version')!r} != "
                    f"current {SCHEMA_VERSION}"
                )
            compiled = payload["compiled"]
            schedules = payload["schedules"]
            if not isinstance(compiled, OrderedDict) or not isinstance(
                schedules, OrderedDict
            ):
                raise ValueError("cache payload tables have the wrong type")
        except Exception:
            # Bad pickle, short read, wrong version, flipped bit: all of it
            # is just a miss.  A poisoned file must never kill a sweep.
            metric_count("robust.cache.corrupt")
            return cache
        cache._compiled = compiled
        cache._schedules = schedules
        if max_entries is not None:
            for table in (cache._compiled, cache._schedules):
                while len(table) > max_entries:
                    table.popitem(last=False)
        return cache
