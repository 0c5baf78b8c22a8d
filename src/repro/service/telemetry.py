"""Service telemetry: request ids, the flight recorder, the access log.

The service (PR 7) suppressed HTTP logging and exposed no metrics; this
module (PR 8) is the operational layer ``docs/service.md`` documents
under "Operating the service":

* :func:`new_request_id` — every HTTP request gets a 12-hex id, echoed
  in the response body (``request_id``), the ``X-Request-Id`` header,
  the run-ledger argv, error hints and the access log, so one id
  follows a request through every artifact.
* :class:`ServiceTelemetry` — the server-wide
  :class:`~repro.obs.metrics.MetricsRegistry` (lock-guarded: handler
  threads and the batcher all record into it) holding the
  ``service.*`` namespace — request/latency distributions, queue-depth
  and in-flight gauges, per-op counters, coalesced group sizes —
  plus every ``sim.*``/``sched.*``/``perf.*`` pipeline metric merged in
  from per-request collection.  Served by ``GET /v1/metrics`` (JSON, or
  ``?format=prom`` via :func:`repro.obs.export.prometheus_text`).
* :class:`FlightRecorder` — a bounded ring buffer of
  :class:`RequestTrace` outcomes (the last N requests), with **errors
  pinned in their own ring** so a burst of healthy traffic cannot evict
  the request you are debugging.  Served by
  ``GET /v1/trace/<request_id>``.
* :class:`AccessLog` — the structured JSONL access log behind
  ``repro serve --access-log FILE``: one schema-stamped ``access`` line
  per request (request_id, method, path, status, latency).  Off by
  default; when off the server pays one attribute read per request.

The ``service.*`` namespace is **non-deterministic by design** (like
``robust.*``): latencies, queue depths and coalesce occupancy are
functions of wall clock and client concurrency, not of the workload —
see ``docs/observability.md``.
"""

from __future__ import annotations

import os
import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.schema import dump_line, stamped

__all__ = [
    "AccessLog",
    "COALESCE_OCCUPANCY_BOUNDS",
    "FlightRecorder",
    "RequestTrace",
    "ServiceTelemetry",
    "new_request_id",
]

#: Bucket bounds for ``service.batch.coalesce_window_occupancy``:
#: submissions per batcher group (powers of two up to 256).
COALESCE_OCCUPANCY_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

def new_request_id() -> str:
    """A fresh 12-hex request id (48 random bits — collision-free at
    flight-recorder scale, short enough to read aloud)."""
    return secrets.token_hex(6)


@dataclass(frozen=True)
class RequestTrace:
    """One request's retained outcome: identity, verdict, and the span
    tree from the HTTP root down into the pipeline (``sim.*`` et al.)."""

    request_id: str
    op: str
    method: str
    path: str
    status: int
    outcome: str
    wall_s: float
    timestamp: float
    coalesced: int = 0
    options_hash: str | None = None
    error: str | None = None
    spans: tuple[dict[str, Any], ...] = ()
    #: Profiler samples attributed to this request's handler thread
    #: (v10; 0 unless ``repro serve --profile-hz`` armed the sampler —
    #: links the trace to its slice of ``GET /v1/profile``).
    cpu_samples: int = 0

    @property
    def failed(self) -> bool:
        return self.status >= 400 or self.error is not None

    def as_dict(self) -> dict[str, Any]:
        """The stamped document served by ``GET /v1/trace/<id>``."""
        return stamped(
            None,
            {
                "request_id": self.request_id,
                "op": self.op,
                "method": self.method,
                "path": self.path,
                "status": self.status,
                "outcome": self.outcome,
                "wall_s": round(self.wall_s, 6),
                "timestamp": self.timestamp,
                "coalesced": self.coalesced,
                "options_hash": self.options_hash,
                "error": self.error,
                "cpu_samples": self.cpu_samples,
                "spans": [dict(span) for span in self.spans],
            },
        )


class FlightRecorder:
    """A bounded ring of the last N :class:`RequestTrace` outcomes.

    Two rings: healthy traffic evicts oldest-first from the main ring,
    while failed requests live in their own ``error_capacity`` ring —
    **errors are always pinned** against eviction by later successes.
    Thread-safe; every operation is O(1)-ish under one small lock.
    """

    def __init__(self, capacity: int = 256, error_capacity: int = 64) -> None:
        if capacity < 1 or error_capacity < 1:
            raise ValueError("flight recorder capacities must be >= 1")
        self.capacity = capacity
        self.error_capacity = error_capacity
        self._ok: OrderedDict[str, RequestTrace] = OrderedDict()
        self._errors: OrderedDict[str, RequestTrace] = OrderedDict()
        self._lock = threading.Lock()

    def record(self, trace: RequestTrace) -> None:
        store, cap = (
            (self._errors, self.error_capacity)
            if trace.failed
            else (self._ok, self.capacity)
        )
        with self._lock:
            store[trace.request_id] = trace
            store.move_to_end(trace.request_id)
            while len(store) > cap:
                store.popitem(last=False)

    def get(self, request_id: str) -> RequestTrace | None:
        with self._lock:
            return self._errors.get(request_id) or self._ok.get(request_id)

    def recent(self, limit: int = 50) -> list[RequestTrace]:
        """The most recent retained traces, oldest first, errors included."""
        with self._lock:
            traces = list(self._ok.values()) + list(self._errors.values())
        traces.sort(key=lambda trace: trace.timestamp)
        return traces[-limit:] if limit > 0 else traces

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._ok) + list(self._errors)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ok) + len(self._errors)


class ServiceTelemetry:
    """The server-wide metrics registry plus the flight recorder.

    All mutation goes through one lock: :class:`MetricsRegistry` is not
    thread-safe, and here every handler thread and the batcher write
    into the same instance (unlike the pipeline's per-context
    registries, which merge after the fact).
    """

    def __init__(
        self, flight_capacity: int = 256, error_capacity: int = 64
    ) -> None:
        self.registry = MetricsRegistry()
        self.flight = FlightRecorder(flight_capacity, error_capacity)
        self._lock = threading.Lock()
        self._inflight = 0

    # -- recording (handler threads + batcher) --------------------------------

    def request_started(self) -> None:
        with self._lock:
            self._inflight += 1
            self.registry.set_gauge("service.inflight", self._inflight)

    def request_finished(
        self, op: str, status: int, wall_s: float, workload: bool
    ) -> None:
        """Account one finished request.

        ``workload`` requests (routed POSTs) feed ``service.request.count``
        and the latency distribution; observability GETs (healthz,
        metrics, trace, runs) are counted per-op but kept out of the
        latency histogram — a poll loop must not drown the workload
        distribution in sub-millisecond samples, and the workload count
        must equal the submissions fired.
        """
        with self._lock:
            self._inflight -= 1
            self.registry.set_gauge("service.inflight", self._inflight)
            self.registry.count(f"service.request.ops.{op}")
            if status >= 400:
                self.registry.count("service.request.errors")
            if workload:
                self.registry.count("service.request.count")
                self.registry.record_value("service.request.latency", wall_s)

    def set_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.registry.set_gauge("service.queue.depth", depth)

    def record_shed(self) -> None:
        """Count one submission refused by admission control (429)."""
        with self._lock:
            self.registry.count("service.request.shed")

    def record_deadline(self) -> None:
        """Count one submission abandoned past its deadline (504)."""
        with self._lock:
            self.registry.count("service.request.deadline")

    def record_uncaught(self) -> None:
        """Count one exception that escaped a request handler."""
        with self._lock:
            self.registry.count("service.request.uncaught")

    def record_cpu(self, op: str, samples: int) -> None:
        """Attribute profiler samples to one op (``--profile-hz`` only).

        Sample counts are wall-clock draws and therefore non-deterministic
        (like every ``service.*`` metric) — dashboards divide them by the
        sampling rate for CPU seconds; never gate on them.
        """
        if samples <= 0:
            return
        with self._lock:
            self.registry.count("service.cpu.samples", samples)
            self.registry.count(f"service.cpu.samples.{op}", samples)

    def set_breaker_state(self, state: int) -> None:
        """Publish the circuit breaker state as a gauge
        (0 = closed, 1 = half-open, 2 = open)."""
        with self._lock:
            self.registry.set_gauge("service.breaker.state", state)

    def record_group(self, occupancy: int, collected: MetricsRegistry) -> None:
        """Fold one coalesced batch run in: the submissions in its group
        and the per-request pipeline metrics collected on the batcher thread."""
        with self._lock:
            self.registry.record_value(
                "service.batch.coalesce_window_occupancy",
                occupancy,
                bounds=COALESCE_OCCUPANCY_BOUNDS,
            )
            self.registry.merge(collected)

    def absorb(self, collected: MetricsRegistry) -> None:
        """Merge a per-request registry (handler-thread op execution)."""
        with self._lock:
            self.registry.merge(collected)

    # -- export ----------------------------------------------------------------

    def latency_summary(self) -> dict[str, Any]:
        histogram = self.registry.distributions.get("service.request.latency")
        if histogram is None:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        summary = histogram.summary()
        return {key: summary[key] for key in ("count", "mean", "p50", "p95", "p99")}

    def snapshot(self) -> dict[str, Any]:
        """The telemetry block of ``GET /v1/metrics`` (unstamped; the
        server wraps it in a ``result`` envelope)."""
        with self._lock:
            registry = self.registry.as_dict()
            inflight = self._inflight
        return {
            "inflight": inflight,
            "latency": self.latency_summary(),
            "metrics": registry,
            "flight": {
                "capacity": self.flight.capacity,
                "error_capacity": self.flight.error_capacity,
                "recorded": len(self.flight),
                "request_ids": [t.request_id for t in self.flight.recent(50)],
                "recent": [
                    {
                        "request_id": t.request_id,
                        "op": t.op,
                        "status": t.status,
                        "outcome": t.outcome,
                        "wall_ms": round(t.wall_s * 1e3, 3),
                        "coalesced": t.coalesced,
                        "spans": len(t.spans),
                        "error": t.error,
                    }
                    for t in self.flight.recent(50)
                ],
            },
        }

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition form."""
        from repro.obs.export import prometheus_text

        with self._lock:
            return prometheus_text(self.registry)


@dataclass
class AccessLog:
    """Structured JSONL access log (``repro serve --access-log FILE``).

    One schema-stamped ``access`` line per request.  The handle opens
    lazily on the first line and lines are written whole under a lock
    (the same torn-line discipline as the run ledger).  When no access
    log is configured the server holds ``None`` instead — the off path
    costs one attribute read per request.
    """

    path: str
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _handle: Any = field(default=None, repr=False)

    def write(
        self,
        request_id: str,
        method: str,
        path: str,
        status: int,
        wall_s: float,
        op: str | None = None,
    ) -> None:
        line = dump_line(
            stamped(
                "access",
                {
                    "request_id": request_id,
                    "method": method,
                    "path": path,
                    "status": status,
                    "wall_s": round(wall_s, 6),
                    "op": op,
                    "timestamp": time.time(),
                    "pid": os.getpid(),
                },
            )
        )
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
