"""The long-lived compilation service: HTTP over the op registry.

``repro serve`` runs :class:`ReproService`, a zero-dependency
(stdlib ``http.server``) server whose endpoints are thin clients of the
same :data:`~repro.service.ops.OP_REGISTRY` the CLI is generated from:

* ``POST /v1/evaluate`` — one loop on one machine, both schedulers.
* ``POST /v1/sweep`` — a corpus × machine grid through the batch engine.
* ``POST /v1/op/<name>`` — any registry op as ``{exit_code, stdout,
  stderr, data}`` (the CLI surface over HTTP).
* ``GET /v1/runs`` — the run ledger, every workload request recorded.
* ``GET /v1/healthz`` — uptime, request counts, batch/cache statistics.
* ``GET /v1/metrics`` — the live telemetry snapshot (schema v8):
  ``service.*`` counters/gauges/latency distributions plus the pipeline
  metrics merged in per request; ``?format=prom`` serves the Prometheus
  text exposition instead.
* ``GET /v1/trace/<request_id>`` — the retained flight-recorder trace
  for one request: HTTP root span down through ``evaluate_loop`` /
  ``schedule`` / ``simulate`` / ``sim.*``.

Requests and responses are schema-v8 stamped JSON
(:func:`repro.schema.stamped`, kinds ``result``/``error``).  Every
request is assigned a 12-hex ``request_id``, echoed in the response
body, the ``X-Request-Id`` header, the run-ledger argv and the optional
``--access-log`` JSONL line (see :mod:`repro.service.telemetry`).  The
economics of the service are in the **coalescer**: whatever is queued
when the batcher becomes free forms one group, and the submissions in it
that share ``(n, EvalOptions.stable_hash())`` are merged into a single
:meth:`~repro.perf.batch.BatchEvaluator.evaluate_corpora` grid, so the
flat closed-form pass and the process-wide
:class:`~repro.perf.cache.CompileCache` amortize across clients.  All
evaluation runs on the single batcher thread — handler threads only
parse, enqueue, and wait — which keeps the engine's memos free of
locks.  Per-request pipeline tracing therefore happens *on the batcher
thread*: each coalesced group runs under a context-local
:func:`~repro.obs.trace.tracer_scope` /
:func:`~repro.obs.metrics.metrics_scope`, the collected spans are
fanned back to every submission in the group, and the metrics merge
into the server-wide :class:`~repro.service.telemetry.ServiceTelemetry`
registry.  With ``"stream": true`` a submission's response is chunked
ndjson: ``progress`` lines fanned out from the
:class:`~repro.obs.trace.ProgressSink` seam, then one ``result`` line.

A :class:`~repro.robust.harden.ServicePolicy` arms the resilience layer
(all off by default — an unconfigured server behaves byte-identically to
one built before the layer existed): bounded admission with honest 429
shedding (``Retry-After`` from the live drain rate), per-request
deadlines (504 with a structured ``hint`` naming where the budget went),
a circuit breaker that routes around a failing batch grid via the
per-loop path, and crash-safe in-flight journaling that ``repro serve
--recover`` replays.  A :class:`~repro.robust.chaos.ChaosPlan` injects
failure into all of it on purpose (``repro loadtest --chaos``).  See
``docs/robustness.md``, "Operating under failure".

See ``docs/service.md`` for the wire contract.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import queue
import socket
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.obs.ledger import DEFAULT_LEDGER, RunLedger, RunRecord, unfinished_inflight
from repro.obs.metrics import MetricsRegistry, metrics_scope
from repro.obs.prof import (
    active_sampler,
    flamegraph_svg,
    folded_lines,
    start_sampler,
    stop_sampler,
)
from repro.obs.regress import git_sha, machine_fingerprint
from repro.obs.trace import (
    ProgressSink,
    RecordingTracer,
    add_progress_sink,
    remove_progress_sink,
    tracer_scope,
)
from repro.options import EvalOptions
from repro.perf.batch import BatchEvaluator, batch_incompatibility
from repro.robust.chaos import ChaosKill, ChaosPlan
from repro.robust.harden import ServicePolicy
from repro.schema import SCHEMA_VERSION, stamped
from repro.sched import paper_machine
from repro.service.ops import OP_REGISTRY, OpResult
from repro.service.telemetry import (
    AccessLog,
    RequestTrace,
    ServiceTelemetry,
    new_request_id,
)

__all__ = [
    "ALLOWED_OPTION_KEYS",
    "BREAKER_NAMES",
    "MAX_REQUEST_BYTES",
    "ReproService",
    "ServiceError",
    "service_error",
    "service_result",
    "serve_forever_op",
]

#: Largest accepted request body; anything bigger is rejected with 413
#: before it is read (the corpus grids the service exists for are far
#: smaller — a cap keeps one hostile client from ballooning the heap).
MAX_REQUEST_BYTES = 1 << 20

#: ``options`` keys a request may set: the simple JSON-serializable
#: subset of :class:`~repro.options.EvalOptions`.  Everything else
#: (caches, pools, fault plans, collectors) is owned by the server —
#: requests are keyed by ``EvalOptions.stable_hash()`` so the schema
#: stays forward-compatible as the option surface grows.
ALLOWED_OPTION_KEYS = (
    "apply_restructuring",
    "exact_simulation",
    "verify",
    "check_semantics",
    "max_cycles",
)

#: The paper's machine grid (Table 2/3 columns), shared with the sweep op.
PAPER_CASES = ((2, 1), (2, 2), (4, 1), (4, 2))


class ServiceError(ValueError):
    """A client error carrying its HTTP status (4xx).

    ``headers`` ride on the response (e.g. ``Retry-After`` on a shed
    429); ``extra`` keys land in the stamped ``error`` body (e.g.
    ``retry_after_s``, the deadline ``hint``).
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
        **extra: Any,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        self.extra = extra


def _service_outcome(status: int) -> str:
    """The ledger outcome for a request refused with a 4xx/5xx status."""
    return {429: "shed", 503: "refused", 504: "deadline"}.get(status, "error")


def service_result(op: str, payload: dict[str, Any]) -> dict[str, Any]:
    """A schema-stamped ``result`` line/response body."""
    return stamped("result", {"op": op, **payload})


def service_error(status: int, message: str, **extra: Any) -> dict[str, Any]:
    """A schema-stamped ``error`` response body (always lists the
    registry-derived operations, so clients can't drift on the surface)."""
    return stamped(
        "error",
        {
            "status": status,
            "error": message,
            "operations": [n for n, s in OP_REGISTRY.items() if s.http],
            **extra,
        },
    )


# -- the coalescing batcher ----------------------------------------------------


class _Submission:
    """One client's evaluation request, waiting on the batcher."""

    def __init__(self, op, jobs, n, options, stream=False, deadline_s=None):
        self.op = op
        self.jobs = jobs  # [(name, loops, machine)], the client's slice
        self.n = n
        self.options = options
        self.results = None  # list[CorpusEvaluation], job order
        self.error: BaseException | None = None
        self.coalesced = 0  # submissions sharing the grid (self included)
        self.spans: tuple = ()  # batcher-thread span dicts, for the flight recorder
        self.done = threading.Event()
        self.progress: queue.SimpleQueue | None = (
            queue.SimpleQueue() if stream else None
        )
        # Deadline bookkeeping (None = no deadline): the original budget
        # for the 504 hint, the absolute monotonic expiry the batcher
        # checks, and when admission accepted us (queue-time attribution).
        self.deadline_s = deadline_s
        self.deadline = None if deadline_s is None else time.monotonic() + deadline_s
        self.enqueued_at = time.monotonic()

    def group_key(self) -> tuple:
        return (self.n, self.options.stable_hash())

    @property
    def failures(self):
        return [f for corpus in (self.results or ()) for f in corpus.failures]


class _FanoutSink(ProgressSink):
    """Fans batcher-thread progress events out to streaming submissions."""

    def __init__(self, queues) -> None:
        self.queues = queues

    def emit(self, event) -> None:
        for q in self.queues:
            q.put(event)


#: Breaker states, gauge values and names (``service.breaker.state``).
BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN = 0, 1, 2
BREAKER_NAMES = {
    BREAKER_CLOSED: "closed",
    BREAKER_HALF_OPEN: "half-open",
    BREAKER_OPEN: "open",
}


class _Breaker:
    """Circuit breaker over the batch-grid leg.

    Only the batcher thread mutates it (every grid runs there), so no
    lock: ``threshold`` consecutive grid failures trip it ``open`` — the
    service answers from the degraded per-loop path, which shares no
    pool/grid machinery with whatever is failing — and after
    ``cooldown_s`` it ``half-open``\\ s to let exactly one probe grid
    through; the probe's outcome closes or re-opens it.  Transitions are
    reported through ``on_transition`` (ledger record + gauge).
    """

    def __init__(self, threshold: int, cooldown_s: float, on_transition=None) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.on_transition = on_transition
        self.state = BREAKER_CLOSED
        self.failures = 0  # consecutive grid failures
        self.opened_at = 0.0
        self.transitions: list[tuple[int, int, str]] = []

    def allow_grid(self) -> bool:
        if self.state == BREAKER_OPEN:
            if time.monotonic() - self.opened_at < self.cooldown_s:
                return False
            self._transition(
                BREAKER_HALF_OPEN,
                f"cooldown of {self.cooldown_s:g}s elapsed; probing the grid",
            )
        return True

    def record_success(self) -> None:
        self.failures = 0
        if self.state != BREAKER_CLOSED:
            self._transition(BREAKER_CLOSED, "probe grid succeeded")

    def record_failure(self, error: BaseException) -> None:
        self.failures += 1
        why = f"{type(error).__name__}: {error}"
        if self.state == BREAKER_HALF_OPEN:
            self.opened_at = time.monotonic()
            self._transition(BREAKER_OPEN, f"probe grid failed ({why})")
        elif self.state == BREAKER_CLOSED and self.failures >= self.threshold:
            self.opened_at = time.monotonic()
            self._transition(
                BREAKER_OPEN,
                f"{self.failures} consecutive grid failures (last: {why})",
            )

    def _transition(self, new: int, reason: str) -> None:
        old, self.state = self.state, new
        self.transitions.append((old, new, reason))
        if self.on_transition is not None:
            self.on_transition(old, new, reason)


class _Batcher(threading.Thread):
    """The single evaluation thread: takes what is already queued (it
    never waits for company), coalesces same-options submissions into one
    grid, runs it, slices results back.

    Serializing every evaluation through one thread is what makes the
    shared :class:`BatchEvaluator` (and its compile cache) safe without
    locks on the hot path.  With a :class:`ServicePolicy` it also runs
    the resilience layer: admission control in :meth:`submit` (handler
    threads, under ``_admission_lock``), deadline expiry and the circuit
    breaker in :meth:`_run_group` (this thread only).
    """

    def __init__(
        self,
        engine: BatchEvaluator,
        telemetry: ServiceTelemetry | None = None,
        policy: ServicePolicy | None = None,
        chaos: ChaosPlan | None = None,
        breaker: _Breaker | None = None,
    ) -> None:
        super().__init__(name="repro-batcher", daemon=False)
        self.engine = engine
        self.telemetry = telemetry
        self.policy = policy
        self.chaos = chaos if chaos else None  # an empty plan is no plan
        self.breaker = breaker
        self.queue: queue.Queue = queue.Queue()
        self._closed = threading.Event()
        # Admission state, shared with handler threads.
        self._admission_lock = threading.Lock()
        self._inflight = 0
        # Recent drain history: (monotonic finish time, submissions
        # finished).  Sizes Retry-After on shed responses.
        self._drained: deque = deque(maxlen=64)
        self._group_sequence = 0  # 1-based, drives chaos cadences

    def submit(self, submission: _Submission) -> None:
        if self._closed.is_set():
            raise ServiceError(503, "service is shutting down")
        policy = self.policy
        if policy is not None and (
            policy.max_queue_depth is not None or policy.max_inflight is not None
        ):
            with self._admission_lock:
                depth = self.queue.qsize()
                if (
                    policy.max_queue_depth is not None
                    and depth >= policy.max_queue_depth
                ):
                    raise self._shed(
                        depth,
                        f"queue depth {depth} is at the "
                        f"max_queue_depth={policy.max_queue_depth} limit",
                    )
                if (
                    policy.max_inflight is not None
                    and self._inflight >= policy.max_inflight
                ):
                    raise self._shed(
                        depth,
                        f"{self._inflight} submission(s) in flight is at the "
                        f"max_inflight={policy.max_inflight} limit",
                    )
                self._inflight += 1
        else:
            with self._admission_lock:
                self._inflight += 1
        self.queue.put(submission)
        if self.telemetry is not None:
            self.telemetry.set_queue_depth(self.queue.qsize())

    def _shed(self, depth: int, reason: str) -> ServiceError:
        """Build the honest 429: body + ``Retry-After`` sized from the
        observed drain rate (how long until ``depth`` submissions clear)."""
        retry_after = self.retry_after_estimate(depth)
        if self.telemetry is not None:
            self.telemetry.record_shed()
        return ServiceError(
            429,
            f"submission shed by admission control: {reason}; "
            "retry after the queue drains",
            headers={"Retry-After": str(max(1, math.ceil(retry_after)))},
            retry_after_s=round(retry_after, 3),
        )

    def _note_drained(self, count: int) -> None:
        with self._admission_lock:
            self._inflight -= count
            self._drained.append((time.monotonic(), count))

    def retry_after_estimate(self, depth: int) -> float:
        """Seconds until a queue of ``depth`` clears at the recent drain
        rate, clamped to [1, 60]; 1s with no history (a cold server
        drains its first group almost immediately)."""
        now = time.monotonic()
        window = [(t, c) for t, c in self._drained if now - t <= 30.0]
        total = sum(c for _, c in window)
        if total <= 0:
            return 1.0
        elapsed = max(now - window[0][0], 0.02)
        rate = total / elapsed
        return min(max((depth + 1) / rate, 1.0), 60.0)

    def stop(self) -> None:
        """Refuse new work, drain what's queued, then stop."""
        self._closed.set()
        self.queue.put(None)  # wake the drain loop
        self.join()

    def run(self) -> None:
        while True:
            submission = self.queue.get()
            if submission is None:
                if self._closed.is_set() and self.queue.empty():
                    return
                continue
            batch = [submission]
            stop_after = False  # the coalesce loop may eat stop()'s sentinel
            while True:
                try:
                    extra = self.queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    stop_after = self._closed.is_set()
                    break
                batch.append(extra)
            if self.telemetry is not None:
                self.telemetry.set_queue_depth(self.queue.qsize())
            self._run_batch(batch)
            if stop_after and self.queue.empty():
                return

    def _run_batch(self, batch: list[_Submission]) -> None:
        groups: dict[tuple, list[_Submission]] = {}
        for submission in batch:
            groups.setdefault(submission.group_key(), []).append(submission)
        for group in groups.values():
            self._run_group(group)

    def _expire(self, submission: _Submission, now: float) -> None:
        """Abandon a submission whose deadline passed while it queued:
        504 with a hint naming where the budget went, before any
        evaluation is spent on an answer nobody is waiting for."""
        waited = now - submission.enqueued_at
        submission.error = ServiceError(
            504,
            f"deadline of {submission.deadline_s:g}s expired before "
            "evaluation started",
            hint={
                "stage": "queued",
                "queued_s": round(waited, 3),
                "deadline_s": submission.deadline_s,
            },
        )
        if self.telemetry is not None:
            self.telemetry.record_deadline()
        if submission.progress is not None:
            submission.progress.put(None)
        submission.done.set()

    def _corrupt_cache(self) -> None:
        """Chaos: reload the engine's compile cache from a garbage file.
        The tolerant :meth:`CompileCache.load` turns corruption into an
        empty cache plus a ``robust.cache.corrupt`` count — exactly what
        a bit-flipped on-disk cache does to a real server — and the swap
        is safe here because only this thread touches the engine."""
        import tempfile

        from repro.perf.cache import CompileCache

        fd, path = tempfile.mkstemp(prefix="repro-chaos-cache-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(b"\x00chaos: not a cache file\xff")
            self.engine.cache = CompileCache.load(path)
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _run_group(self, group: list[_Submission]) -> None:
        self._group_sequence += 1
        sequence = self._group_sequence
        total = len(group)
        now = time.monotonic()
        live = [s for s in group if s.deadline is None or s.deadline > now]
        for submission in group:
            if submission not in live:
                self._expire(submission, now)
        if not live:
            self._note_drained(total)
            return
        group = live
        if self.chaos is not None:
            delay = self.chaos.slow_delay(sequence)
            if delay > 0:
                time.sleep(delay)
            if self.chaos.corrupts_cache(sequence):
                self._corrupt_cache()
        options = group[0].options
        n = group[0].n
        jobs = [job for submission in group for job in submission.jobs]
        sink = None
        progress_queues = [s.progress for s in group if s.progress is not None]
        if progress_queues:
            sink = add_progress_sink(_FanoutSink(progress_queues))
        # Evaluation happens on this thread, so the per-request pipeline
        # trace is collected *here* under context-local scopes (handler
        # threads never see these contextvars) and fanned back to every
        # submission the group coalesced.
        tracer = RecordingTracer()
        collected = MetricsRegistry()
        try:
            with tracer_scope(tracer), metrics_scope(collected):
                reason = batch_incompatibility(options)
                use_grid = reason is None
                degraded = False
                if (
                    use_grid
                    and self.breaker is not None
                    and not self.breaker.allow_grid()
                ):
                    use_grid = False
                    degraded = True
                results = None
                if use_grid:
                    try:
                        if self.chaos is not None and self.chaos.kills_grid(
                            sequence
                        ):
                            raise ChaosKill(
                                f"chaos plan killed batch grid #{sequence}"
                            )
                        results = self.engine.evaluate_corpora(
                            jobs, n=n, options=options
                        )
                        if self.breaker is not None:
                            self.breaker.record_success()
                    except BaseException as err:
                        # Without a breaker the failure propagates (the
                        # pre-resilience contract: clients see the 500).
                        # With one, it feeds the breaker and the group
                        # falls through to the degraded per-loop path.
                        if self.breaker is None:
                            raise
                        self.breaker.record_failure(err)
                        degraded = True
                if results is None:
                    # Per-loop leg: exactness over throughput for options
                    # the closed-form plane cannot honour, and the
                    # degraded path while the breaker routes around a
                    # failing grid — still on the shared compile cache.
                    from repro.pipeline import evaluate_corpus

                    per_loop = options.replace(cache=self.engine.cache)
                    if degraded:
                        per_loop = per_loop.replace(batch=False)
                    results = [
                        evaluate_corpus(name, loops, machine, n, per_loop)
                        for name, loops, machine in jobs
                    ]
            index = 0
            for submission in group:
                count = len(submission.jobs)
                submission.results = results[index : index + count]
                index += count
        except BaseException as err:
            for submission in group:
                submission.error = err
        finally:
            if sink is not None:
                remove_progress_sink(sink)
            spans = tuple(event.as_dict() for event in tracer.events)
            if self.telemetry is not None:
                self.telemetry.record_group(len(group), collected)
            for submission in group:
                submission.coalesced = len(group)
                submission.spans = spans
                if submission.progress is not None:
                    submission.progress.put(None)  # stream terminator
                submission.done.set()
            self._note_drained(total)


# -- the server ----------------------------------------------------------------


class ReproService:
    """The long-lived service: one shared engine, one batcher, a ledger.

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    ``start()`` returns immediately; ``shutdown()`` drains in-flight
    submissions before returning (see :meth:`shutdown` for the order).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8757,
        ledger: str = DEFAULT_LEDGER,
        access_log: str | None = None,
        flight_recorder: int = 256,
        policy: ServicePolicy | None = None,
        chaos: ChaosPlan | None = None,
        ledger_durable: bool = False,
        profile_hz: float | None = None,
    ) -> None:
        self.engine = BatchEvaluator()
        self.telemetry = ServiceTelemetry(flight_capacity=flight_recorder)
        # Continuous profiling (docs/observability.md): arm the process
        # sampler for the service's lifetime.  The sampler rides the span
        # seam for stage attribution and its worker-lane profiles merge in
        # through ParallelEvaluator; GET /v1/profile serves snapshots.
        self.profiler = start_sampler(profile_hz) if profile_hz else None
        self.access_log = AccessLog(access_log) if access_log else None
        self.policy = policy
        self.chaos = chaos if chaos else None  # an empty plan is no plan
        self.breaker: _Breaker | None = None
        if policy is not None:
            self.breaker = _Breaker(
                policy.breaker_threshold,
                policy.breaker_cooldown_s,
                self._on_breaker_transition,
            )
            self.telemetry.set_breaker_state(BREAKER_CLOSED)
        self.batcher = _Batcher(
            self.engine,
            self.telemetry,
            policy=policy,
            chaos=self.chaos,
            breaker=self.breaker,
        )
        self.ledger = RunLedger(ledger, durable=ledger_durable)
        self.started_at = time.time()
        self.requests: dict[str, int] = {}
        self._sequence = 0
        self._lock = threading.Lock()  # request counters (RunLedger locks its appends)
        self._op_lock = threading.Lock()  # generic ops mutate global state
        self._closing = threading.Event()
        self._busy = 0
        self._busy_cond = threading.Condition()
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        # Per-process provenance, captured once (git subprocess is too
        # slow to pay per request).
        self._git_sha = git_sha()
        self._machine = machine_fingerprint()
        self.httpd = _Server((host, port), _Handler, self)
        self.host, self.port = self.httpd.server_address[:2]
        self._serve_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ReproService":
        self.batcher.start()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-service",
            kwargs={"poll_interval": 0.05},
        )
        self._serve_thread.start()
        return self

    def shutdown(self) -> None:
        """Graceful stop, in drain order: refuse new work (late requests
        get 503), stop accepting connections, wait for in-flight requests
        to complete (the batcher keeps running so their submissions
        finish), close the now-idle keep-alive sockets so their reader
        threads unblock, join every handler thread, then stop the batcher
        after its queue is empty.  Nothing in flight is orphaned —
        handler threads are non-daemon and joined by ``server_close``."""
        self._closing.set()
        self.httpd.shutdown()
        with self._busy_cond:
            self._busy_cond.wait_for(lambda: self._busy == 0, timeout=60)
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler
        self.httpd.server_close()  # joins handler threads (block_on_close)
        if self.batcher.is_alive():
            self.batcher.stop()
        if self._serve_thread is not None:
            self._serve_thread.join()
        if self.access_log is not None:
            self.access_log.close()
        if self.profiler is not None and self.profiler is active_sampler():
            stop_sampler()
            self.profiler = None

    def _begin_request(self) -> None:
        with self._busy_cond:
            self._busy += 1

    def _end_request(self) -> None:
        with self._busy_cond:
            self._busy -= 1
            self._busy_cond.notify_all()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- request accounting --------------------------------------------------

    def count(self, key: str) -> int:
        with self._lock:
            self.requests[key] = self.requests.get(key, 0) + 1
            self._sequence += 1
            return self._sequence

    def record_request(
        self,
        op: str,
        sequence: int,
        path: str,
        options_hash: str | None,
        outcome: str,
        wall_s: float,
        mode: str | None = None,
        error: str | None = None,
        failures: tuple = (),
        request_id: str | None = None,
    ) -> RunRecord:
        """Append one workload request to the run ledger.

        Built directly (not via :class:`RunRecorder`) because the global
        active-recorder slot is not thread-safe and a per-request metrics
        snapshot would dominate service latency; ``metrics`` is ``None``
        by design on service records.  The request's ``request_id`` rides
        in ``argv`` so a ledger line can be joined back to its flight-
        recorder trace and access-log line.
        """
        timestamp = time.time()
        argv = ("POST", path, f"#{sequence}")
        if request_id is not None:
            argv += (request_id,)
        payload = {
            "command": f"service {op}",
            "argv": list(argv),
            "timestamp": timestamp,
            "options_hash": options_hash,
            "outcome": outcome,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        record = RunRecord(
            run_id=digest[:12],
            timestamp=timestamp,
            command=f"service {op}",
            argv=argv,
            options_hash=options_hash,
            git_sha=self._git_sha,
            machine=self._machine,
            wall_s=wall_s,
            outcome=outcome,
            error=error,
            mode=mode,
            failures=tuple(f.as_dict() for f in failures),
            metrics=None,
        )
        self.ledger.append(record)
        return record

    def _on_breaker_transition(self, old: int, new: int, reason: str) -> None:
        """Publish one breaker transition: a ``command: "service breaker"``
        run record (the durable trail an operator greps for) and the
        ``service.breaker.state`` gauge (the live one)."""
        self.telemetry.set_breaker_state(new)
        timestamp = time.time()
        argv = (BREAKER_NAMES[old], "->", BREAKER_NAMES[new])
        payload = {
            "command": "service breaker",
            "argv": list(argv),
            "timestamp": timestamp,
            "reason": reason,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        record = RunRecord(
            run_id=digest[:12],
            timestamp=timestamp,
            command="service breaker",
            argv=argv,
            options_hash=None,
            git_sha=self._git_sha,
            machine=self._machine,
            wall_s=0.0,
            outcome=BREAKER_NAMES[new],
            error=reason if new != BREAKER_CLOSED else None,
            metrics=None,
        )
        self.ledger.append(record)

    def recover_inflight(self) -> list[RunRecord]:
        """Finalize in-flight work a previous process never finished.

        Scans the ledger for ``outcome: "inflight"`` service records with
        no terminal twin (same ``request_id`` in ``argv[-1]``) and
        appends an ``outcome: "lost"`` finalizer for each, so the ledger
        names exactly what a killed process had accepted but never
        answered.  Returns the finalizers (``repro serve --recover``
        prints them).
        """
        records = self.ledger.load()
        lost: list[RunRecord] = []
        for record in unfinished_inflight(records):
            final = dataclasses.replace(
                record,
                timestamp=time.time(),
                outcome="lost",
                error=(
                    "recovered by --recover: the process serving this "
                    "request exited before it finished"
                ),
            )
            self.ledger.append(final)
            lost.append(final)
        return lost

    # -- request parsing -----------------------------------------------------

    def parse_options(self, raw: Any) -> EvalOptions:
        if raw is None:
            return EvalOptions()
        if not isinstance(raw, dict):
            raise ServiceError(400, "options must be an object")
        unknown = sorted(set(raw) - set(ALLOWED_OPTION_KEYS))
        if unknown:
            raise ServiceError(
                400,
                f"unknown option key(s): {', '.join(unknown)}",
                allowed_options=list(ALLOWED_OPTION_KEYS),
            )
        try:
            return EvalOptions(**raw)
        except (TypeError, ValueError) as err:
            raise ServiceError(400, f"bad options: {err}")

    @staticmethod
    def parse_n(body: dict[str, Any]) -> int:
        n = body.get("n", 100)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ServiceError(400, "n must be a positive integer")
        return n

    def parse_deadline(self, body: dict[str, Any]) -> float | None:
        """The request's deadline budget: its own ``deadline_s`` if set,
        else the :class:`ServicePolicy` default, else none."""
        raw = body.get("deadline_s")
        if raw is None:
            return self.policy.deadline_s if self.policy is not None else None
        if (
            isinstance(raw, bool)
            or not isinstance(raw, (int, float))
            or raw <= 0
        ):
            raise ServiceError(400, "deadline_s must be a positive number")
        return float(raw)

    @staticmethod
    def parse_machine(raw: Any):
        raw = raw or {}
        if not isinstance(raw, dict):
            raise ServiceError(400, "machine must be an object like {\"issue\": 4, \"fu\": 1}")
        issue, fu = raw.get("issue", 4), raw.get("fu", 1)
        for label, value in (("issue", issue), ("fu", fu)):
            if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 64:
                raise ServiceError(400, f"machine.{label} must be an integer in [1, 64]")
        return paper_machine(issue, fu)

    def submission_for_evaluate(self, body: dict[str, Any]) -> _Submission:
        source = body.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ServiceError(400, "source must be a non-empty loop string")
        from repro.ir.parser import parse_loop

        try:
            loop = parse_loop(source)
        except Exception as err:
            raise ServiceError(400, f"loop does not parse: {err}")
        machine = self.parse_machine(body.get("machine"))
        name = body.get("name", "request")
        if not isinstance(name, str):
            raise ServiceError(400, "name must be a string")
        return _Submission(
            "evaluate",
            [(name, [loop], machine)],
            self.parse_n(body),
            self.parse_options(body.get("options")),
            stream=bool(body.get("stream")),
            deadline_s=self.parse_deadline(body),
        )

    def submission_for_sweep(self, body: dict[str, Any]) -> _Submission:
        from repro.workloads import PERFECT_BENCHMARKS, perfect_suite

        suite = perfect_suite()
        names = body.get("benchmarks") or list(PERFECT_BENCHMARKS)
        if not isinstance(names, list) or not all(isinstance(b, str) for b in names):
            raise ServiceError(400, "benchmarks must be a list of corpus names")
        unknown = sorted(set(names) - set(suite))
        if unknown:
            raise ServiceError(
                400,
                f"unknown benchmark(s): {', '.join(unknown)}",
                known_benchmarks=sorted(suite),
            )
        jobs = [
            (name, suite[name], paper_machine(*case))
            for name in names
            for case in PAPER_CASES
        ]
        return _Submission(
            "sweep",
            jobs,
            self.parse_n(body),
            self.parse_options(body.get("options")),
            stream=bool(body.get("stream")),
            deadline_s=self.parse_deadline(body),
        )

    # -- submission execution ------------------------------------------------

    def run_submission(self, submission: _Submission) -> dict[str, Any]:
        """Enqueue, wait, and build the ``result`` payload (the
        non-streaming path; streaming pumps the progress queue itself).

        The wait is bounded by the submission's deadline (plus the
        policy ``chunk_timeout`` as grace for a grid already running),
        or by ``chunk_timeout`` alone when no deadline is set — so a
        wedged grid turns into an honest 504 instead of a handler thread
        parked forever.  The batcher cannot be interrupted; an abandoned
        submission still completes (and is finalized in the ledger) on
        the batcher thread.
        """
        self.batcher.submit(submission)
        timeout = None
        grace = (
            self.policy.chunk_timeout
            if self.policy is not None and self.policy.chunk_timeout is not None
            else None
        )
        if submission.deadline is not None:
            timeout = max(submission.deadline - time.monotonic(), 0.0)
            if grace is not None:
                timeout += grace
        elif grace is not None:
            timeout = grace
        if not submission.done.wait(timeout):
            waited = time.monotonic() - submission.enqueued_at
            budget = (
                f"deadline_s={submission.deadline_s:g}"
                if submission.deadline_s is not None
                else f"chunk_timeout={grace:g}"
            )
            self.telemetry.record_deadline()
            raise ServiceError(
                504,
                f"evaluation did not finish within the request budget "
                f"({budget}); the grid may be wedged",
                hint={
                    "stage": "evaluating",
                    "waited_s": round(waited, 3),
                    "deadline_s": submission.deadline_s,
                    "chunk_timeout_s": grace,
                },
            )
        return self.result_payload(submission)

    def result_payload(self, submission: _Submission) -> dict[str, Any]:
        if submission.error is not None:
            raise submission.error
        from repro.report import corpus_record, evaluation_record

        payload: dict[str, Any] = {
            "n": submission.n,
            "options_hash": submission.options.stable_hash(),
            "coalesced": submission.coalesced,
            "failures": [f.as_dict() for f in submission.failures],
        }
        if submission.op == "evaluate":
            corpus = submission.results[0]
            payload["machine"] = corpus.machine.name
            payload["evaluation"] = (
                evaluation_record(corpus.evaluations[0])
                if corpus.evaluations
                else None
            )
        else:
            payload["benchmarks"] = sorted({name for name, _, _ in submission.jobs})
            payload["cases"] = [list(case) for case in PAPER_CASES]
            payload["corpora"] = [corpus_record(c) for c in submission.results]
        return service_result(submission.op, payload)

    # -- health --------------------------------------------------------------

    def health_payload(self) -> dict[str, Any]:
        with self._lock:
            counts = dict(self.requests)
        return service_result(
            "healthz",
            {
                "status": "ok",
                "uptime_s": round(time.time() - self.started_at, 3),
                "requests": counts,
                "batch": dataclasses.asdict(self.engine.stats),
                "cache": dataclasses.asdict(self.engine.cache.stats),
                "ledger": self.ledger.path,
                "operations": [n for n, s in OP_REGISTRY.items() if s.http],
                "git_sha": self._git_sha,
            },
        )

    def metrics_payload(self) -> dict[str, Any]:
        """The ``GET /v1/metrics`` body: the telemetry snapshot plus the
        request counters ``/v1/healthz`` reports (one poll serves both
        the live dashboard and ``repro top``)."""
        with self._lock:
            counts = dict(self.requests)
        return service_result(
            "metrics",
            {
                "uptime_s": round(time.time() - self.started_at, 3),
                "requests": counts,
                **self.telemetry.snapshot(),
            },
        )

    def profile_payload(self) -> dict[str, Any]:
        """The ``GET /v1/profile`` JSON body: a live sampler snapshot
        (the stamped ``profile`` record inside a ``result`` envelope)."""
        assert self.profiler is not None
        return service_result(
            "profile",
            {
                "armed": True,
                "hz": self.profiler.hz,
                "profile": self.profiler.snapshot(label="service").as_dict(),
            },
        )


class _Server(ThreadingHTTPServer):
    # Handler threads are joined on server_close so shutdown can prove
    # nothing was orphaned (ThreadingHTTPServer defaults to daemonic).
    daemon_threads = False
    block_on_close = True

    def __init__(self, address, handler, service: ReproService) -> None:
        self.service = service
        super().__init__(address, handler)

    def handle_error(self, request, client_address) -> None:
        # Count the escaped exception for /v1/metrics and the chaos gate.
        self.service.telemetry.record_uncaught()
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"repro-service/v{SCHEMA_VERSION}"
    # TCP_NODELAY: a response goes out as headers then body, and Nagle would
    # hold the body for the client's delayed ACK (~40 ms per round trip).
    disable_nagle_algorithm = True

    # Per-request trace state, reset by _telemetry_begin for every request
    # this (keep-alive) handler serves.
    request_id = ""
    _status = 0
    _op: str | None = None
    _outcome = "ok"
    _error: str | None = None
    _options_hash: str | None = None
    _coalesced = 0
    _flight_spans: tuple = ()
    _cpu_mark = 0

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # stderr stays quiet; --access-log writes structured JSONL

    @property
    def service(self) -> ReproService:
        return self.server.service

    def setup(self) -> None:
        super().setup()
        with self.service._conn_lock:
            self.service._connections.add(self.connection)

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except ConnectionError:  # the client hung up: not a handler error
            self.close_connection = True

    def finish(self) -> None:
        with self.service._conn_lock:
            self.service._connections.discard(self.connection)
        super().finish()

    def _refuse_if_closing(self) -> bool:
        """Late requests racing the shutdown get an honest 503."""
        if not self.service._closing.is_set():
            return False
        self.close_connection = True
        try:
            self._send_json(503, service_error(503, "service is shutting down"))
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        return True

    # -- request telemetry -----------------------------------------------------

    def _telemetry_begin(self) -> int:
        """Assign the request id, reset per-request trace state, count the
        request in-flight.  Returns the start ``perf_counter_ns``."""
        self.request_id = new_request_id()
        self._status = 0
        self._op = None
        self._outcome = "ok"
        self._error = None
        self._options_hash = None
        self._coalesced = 0
        self._flight_spans = ()
        profiler = self.service.profiler
        self._cpu_mark = (
            profiler.thread_samples(threading.get_ident()) if profiler else 0
        )
        self.service.telemetry.request_started()
        return time.perf_counter_ns()

    def _telemetry_end(self, started_ns: int) -> None:
        """Account the finished request: latency histogram (workload
        requests only — health probes and the observability surface stay
        out, so counts match submissions), access log, flight recorder."""
        wall_s = (time.perf_counter_ns() - started_ns) / 1e9
        op = self._op or "unrouted"
        workload = self.command == "POST" and self._op is not None
        profiler = self.service.profiler
        cpu_samples = 0
        if profiler is not None:
            # Samples landed on this handler thread while the request ran.
            # Coalesced batch work executes on the batcher thread, so this
            # is handler-side attribution — non-deterministic, like every
            # service.* number.
            cpu_samples = (
                profiler.thread_samples(threading.get_ident()) - self._cpu_mark
            )
            self.service.telemetry.record_cpu(op, cpu_samples)
        self.service.telemetry.request_finished(
            op, self._status, wall_s, workload
        )
        access_log = self.service.access_log
        if access_log is not None:
            access_log.write(
                request_id=self.request_id,
                method=self.command,
                path=self.path,
                status=self._status,
                wall_s=wall_s,
                op=self._op,
            )
        if workload or self._status >= 400:
            root = {
                "name": "http.request",
                "start_ns": started_ns,
                "duration_ns": time.perf_counter_ns() - started_ns,
                "depth": 0,
                "pid": os.getpid(),
                "attrs": {
                    "method": self.command,
                    "path": urlsplit(self.path).path,
                    "status": self._status,
                },
            }
            nested = tuple(
                {**span, "depth": span.get("depth", 0) + 1}
                for span in self._flight_spans
            )
            self.service.telemetry.flight.record(
                RequestTrace(
                    request_id=self.request_id,
                    op=op,
                    method=self.command,
                    path=urlsplit(self.path).path,
                    status=self._status,
                    outcome=self._outcome,
                    wall_s=wall_s,
                    timestamp=time.time(),
                    coalesced=self._coalesced,
                    options_hash=self._options_hash,
                    error=self._error,
                    spans=(root,) + nested,
                    cpu_samples=cpu_samples,
                )
            )

    # -- plumbing ------------------------------------------------------------

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        cors: bool = False,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._status = status
        if self.request_id and "request_id" not in payload:
            payload = {**payload, "request_id": self.request_id}
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        if cors:
            # The live dashboard is a local file:// page polling this
            # loopback endpoint; read-only snapshots are safe to share.
            self.send_header("Access-Control-Allow-Origin", "*")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._status = status
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_body(self, err: ServiceError) -> None:
        self._outcome, self._error = _service_outcome(err.status), str(err)
        self._send_json(
            err.status,
            service_error(err.status, str(err), **err.extra),
            headers=err.headers,
        )

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_REQUEST_BYTES:
            # The oversized body is never read, so the connection cannot
            # be reused (the unread bytes would poison the next request
            # line on this keep-alive socket).
            self.close_connection = True
            raise ServiceError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_REQUEST_BYTES}-byte limit",
            )
        if length <= 0:
            raise ServiceError(400, "request body required (JSON object)")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError as err:
            raise ServiceError(400, f"request body is not valid JSON: {err}")
        if not isinstance(body, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return body

    def _stream_submission(self, submission: _Submission) -> None:
        """Chunked ndjson: progress lines, then the final result line
        (which echoes the ``request_id``, like every response body)."""
        self._status = 200
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        self.end_headers()

        def chunk(record: dict[str, Any]) -> None:
            data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
            self.wfile.flush()

        def terminal(record: dict[str, Any]) -> dict[str, Any]:
            if self.request_id and "request_id" not in record:
                record = {**record, "request_id": self.request_id}
            return record

        try:
            while True:
                event = submission.progress.get()
                if event is None:
                    break
                chunk(event.as_dict())
            submission.done.wait()
            if isinstance(submission.error, ServiceError):
                err = submission.error
                chunk(terminal(service_error(err.status, str(err), **err.extra)))
            elif submission.error is not None:
                chunk(terminal(service_error(
                    500,
                    f"{type(submission.error).__name__}: {submission.error}",
                )))
            else:
                chunk(terminal(self.service.result_payload(submission)))
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            submission.done.wait()  # client left; still finish accounting

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:
        started_ns = self._telemetry_begin()
        try:
            if self._refuse_if_closing():
                self._outcome = "refused"
                return
            self.service._begin_request()
            try:
                self._do_get()
            finally:
                self.service._end_request()
        finally:
            self._telemetry_end(started_ns)

    def _do_get(self) -> None:
        path = urlsplit(self.path).path
        if path == "/v1/healthz":
            self._op = "healthz"
            self.service.count("healthz")
            self._send_json(200, self.service.health_payload())
        elif path == "/v1/metrics":
            self._op = "metrics"
            self.service.count("metrics")
            query = parse_qs(urlsplit(self.path).query)
            if query.get("format", [""])[0] == "prom":
                self._send_text(
                    200,
                    self.service.telemetry.prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._send_json(200, self.service.metrics_payload(), cors=True)
        elif path.startswith("/v1/trace/"):
            self._op = "trace"
            self.service.count("trace")
            wanted = path[len("/v1/trace/"):]
            trace = self.service.telemetry.flight.get(wanted)
            if trace is None:
                self._send_json(
                    404,
                    service_error(
                        404,
                        f"no retained trace for request_id {wanted!r} "
                        "(the flight recorder keeps the most recent "
                        f"{self.service.telemetry.flight.capacity} requests)",
                        known_request_ids=self.service.telemetry.flight.ids()[-20:],
                    ),
                    cors=True,
                )
            else:
                # the envelope op is "trace"; the traced request's own
                # routed op rides along as request_op
                doc = trace.as_dict()
                doc["request_op"] = doc.pop("op")
                self._send_json(
                    200, service_result("trace", doc), cors=True
                )
        elif path == "/v1/profile":
            self._op = "profile"
            self.service.count("profile")
            profiler = self.service.profiler
            if profiler is None:
                self._send_json(
                    404,
                    service_error(
                        404,
                        "profiling is not armed on this server",
                        hint="start the server with repro serve --profile-hz N",
                    ),
                    cors=True,
                )
            else:
                query = parse_qs(urlsplit(self.path).query)
                fmt = query.get("format", ["json"])[0]
                if fmt == "folded":
                    profile = profiler.snapshot(label="service")
                    self._send_text(
                        200,
                        "\n".join(folded_lines(profile)) + "\n",
                        "text/plain; charset=utf-8",
                    )
                elif fmt == "svg":
                    profile = profiler.snapshot(label="service")
                    self._send_text(
                        200,
                        flamegraph_svg(profile, title="repro service CPU profile"),
                        "image/svg+xml; charset=utf-8",
                    )
                else:
                    self._send_json(200, self.service.profile_payload(), cors=True)
        elif path == "/v1/runs":
            self._op = "runs"
            self.service.count("runs")
            query = parse_qs(urlsplit(self.path).query)
            records = self.service.ledger.load()
            limit = int(query.get("limit", ["0"])[0] or 0)
            shown = records[-limit:] if limit > 0 else records
            self._send_json(
                200,
                service_result(
                    "runs",
                    {
                        "count": len(records),
                        "runs": [r.as_dict() for r in shown],
                        "ledger": self.service.ledger.path,
                    },
                ),
            )
        else:
            self._send_json(
                404,
                service_error(
                    404,
                    f"no such endpoint: GET {path}",
                    endpoints=[
                        "GET /v1/healthz",
                        "GET /v1/metrics",
                        "GET /v1/profile?format=folded|svg",
                        "GET /v1/runs",
                        "GET /v1/trace/<request_id>",
                        "POST /v1/evaluate",
                        "POST /v1/sweep",
                        "POST /v1/op/<name>",
                    ],
                ),
            )

    def do_POST(self) -> None:
        started_ns = self._telemetry_begin()
        try:
            if self._refuse_if_closing():
                self._outcome = "refused"
                return
            self.service._begin_request()
            try:
                self._do_post()
            finally:
                self.service._end_request()
        finally:
            self._telemetry_end(started_ns)

    def _do_post(self) -> None:
        path = urlsplit(self.path).path
        started = time.perf_counter()
        try:
            if path == "/v1/evaluate":
                self._handle_submission(
                    path, started, self.service.submission_for_evaluate
                )
            elif path == "/v1/sweep":
                self._handle_submission(
                    path, started, self.service.submission_for_sweep
                )
            elif path.startswith("/v1/op/"):
                self._handle_op(path, started, path[len("/v1/op/"):])
            else:
                raise ServiceError(
                    404,
                    f"no such endpoint: POST {path}",
                    endpoints=["POST /v1/evaluate", "POST /v1/sweep",
                               "POST /v1/op/<name>"],
                )
        except ServiceError as err:
            self._send_error_body(err)
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as err:  # a bug, not a bad request: say so honestly
            self._send_json(
                500, service_error(500, f"{type(err).__name__}: {err}")
            )

    def _handle_submission(self, path, started, build) -> None:
        body = self._read_body()
        submission = build(body)
        self._op = submission.op
        sequence = self.service.count(submission.op)
        options_hash = submission.options.stable_hash()
        self._options_hash = options_hash
        policy = self.service.policy
        if policy is not None and policy.journal_inflight:
            # Crash-safe journaling: the request is on disk as "inflight"
            # before any evaluation, and finalized by the terminal record
            # below (same request_id in argv).  A process killed between
            # the two leaves exactly the records `serve --recover` names.
            self.service.record_request(
                submission.op,
                sequence,
                path,
                options_hash,
                "inflight",
                0.0,
                request_id=self.request_id,
            )
        outcome, error, payload = "ok", None, None
        try:
            if submission.progress is not None:
                self.service.batcher.submit(submission)
                self._stream_submission(submission)
                if isinstance(submission.error, ServiceError):
                    outcome = _service_outcome(submission.error.status)
                    error = str(submission.error)
                elif submission.error is not None:
                    outcome, error = "error", (
                        f"{type(submission.error).__name__}: {submission.error}"
                    )
            else:
                payload = self.service.run_submission(submission)
        except ServiceError as err:
            # An honest refusal (shed 429 / shutdown 503 / deadline 504)
            # still gets its terminal ledger record before the response —
            # "every submission answered or honestly shed" includes the
            # ledger trail.
            self.service.record_request(
                submission.op,
                sequence,
                path,
                options_hash,
                _service_outcome(err.status),
                time.perf_counter() - started,
                error=str(err),
                request_id=self.request_id,
            )
            raise
        except BaseException as err:
            outcome, error = "error", f"{type(err).__name__}: {err}"
        if outcome == "ok" and submission.failures:
            outcome = "quarantined"
        self._outcome, self._error = outcome, error
        self._coalesced = submission.coalesced
        self._flight_spans = submission.spans
        # Ledger first, response second (non-streaming path): a client
        # that has read its 200 must find its run record already on disk.
        self.service.record_request(
            submission.op,
            sequence,
            path,
            options_hash,
            outcome,
            time.perf_counter() - started,
            mode=f"coalesced batch of {submission.coalesced} submission(s)",
            error=error,
            failures=tuple(submission.failures),
            request_id=self.request_id,
        )
        if payload is not None:
            self._send_json(200, payload)
        elif submission.progress is None and error is not None:
            self._send_json(500, service_error(500, error))

    def _handle_op(self, path, started, name) -> None:
        spec = OP_REGISTRY.get(name)
        if spec is None or not spec.http or spec.call is None:
            raise ServiceError(
                404,
                f"no such operation: {name!r}",
            )
        body = self._read_body()
        import inspect

        allowed = set(inspect.signature(spec.call).parameters)
        unknown = sorted(set(body) - allowed)
        if unknown:
            raise ServiceError(
                400,
                f"unknown argument(s) for op {name!r}: {', '.join(unknown)}",
                allowed_arguments=sorted(allowed),
            )
        self._op = f"op:{name}"
        sequence = self.service.count(f"op:{name}")
        outcome, error = "ok", None
        # This op runs on the handler thread, so its pipeline trace is
        # collected here (context-local: concurrent handlers don't mix)
        # and its metrics merge into the server-wide registry.
        tracer = RecordingTracer()
        collected = MetricsRegistry()
        try:
            # Ops may toggle process-global state (metrics registries,
            # decision journals); serialize them.
            with self.service._op_lock:
                with tracer_scope(tracer), metrics_scope(collected):
                    result: OpResult = spec.call(**body)
        except TypeError as err:
            raise ServiceError(400, f"bad arguments for op {name!r}: {err}")
        except BaseException as err:
            outcome, error = "error", f"{type(err).__name__}: {err}"
            self._send_json(500, service_error(500, error))
            result = None
        finally:
            self._flight_spans = tuple(ev.as_dict() for ev in tracer.events)
            self.service.telemetry.absorb(collected)
        if result is not None:
            if result.exit_code != 0:
                outcome = f"exit {result.exit_code}"
            self._send_json(
                200,
                service_result(
                    name,
                    {
                        "exit_code": result.exit_code,
                        "stdout": result.stdout,
                        "stderr": result.stderr,
                        "data": result.data,
                    },
                ),
            )
        self._outcome, self._error = outcome, error
        self.service.record_request(
            f"op {name}",
            sequence,
            path,
            None,
            outcome,
            time.perf_counter() - started,
            error=error,
            request_id=self.request_id,
        )


def serve_forever_op(
    host: str = "127.0.0.1",
    port: int = 8757,
    ledger: str = DEFAULT_LEDGER,
    access_log: str | None = None,
    flight_recorder: int = 256,
    max_queue_depth: int | None = None,
    max_inflight: int | None = None,
    deadline_s: float | None = None,
    chunk_timeout: float | None = None,
    breaker_threshold: int | None = None,
    breaker_cooldown_s: float | None = None,
    recover: bool = False,
    ledger_durable: bool = False,
    profile_hz: float | None = None,
) -> OpResult:
    """``repro serve``: run the service in the foreground until SIGINT.

    Unlike every other op this one writes to the real stderr as it goes —
    it is a long-lived foreground process, and its output (the listening
    line, the shutdown line) is operational, not a result.

    Passing any resilience knob arms a :class:`ServicePolicy`; with none
    of them the server runs exactly the pre-resilience configuration.
    ``recover=True`` finalizes in-flight work a killed predecessor left
    in the ledger before serving.
    """
    import sys

    policy = None
    if any(
        value is not None
        for value in (
            max_queue_depth,
            max_inflight,
            deadline_s,
            chunk_timeout,
            breaker_threshold,
            breaker_cooldown_s,
        )
    ):
        defaults = ServicePolicy()
        policy = ServicePolicy(
            max_queue_depth=max_queue_depth,
            max_inflight=max_inflight,
            deadline_s=deadline_s,
            chunk_timeout=chunk_timeout,
            breaker_threshold=(
                breaker_threshold
                if breaker_threshold is not None
                else defaults.breaker_threshold
            ),
            breaker_cooldown_s=(
                breaker_cooldown_s
                if breaker_cooldown_s is not None
                else defaults.breaker_cooldown_s
            ),
        )
    service = ReproService(
        host=host,
        port=port,
        ledger=ledger,
        access_log=access_log,
        flight_recorder=flight_recorder,
        policy=policy,
        ledger_durable=ledger_durable,
        profile_hz=profile_hz,
    )
    if recover:
        lost = service.recover_inflight()
        if service.ledger.torn_tail:
            print(
                "recover: the ledger's final line was torn (a process died "
                "mid-append); skipped and counted",
                file=sys.stderr,
            )
        if lost:
            print(
                f"recover: finalized {len(lost)} in-flight request(s) a "
                "previous process never finished:",
                file=sys.stderr,
            )
            for record in lost:
                request_id = record.argv[-1] if record.argv else "?"
                print(
                    f"  lost {record.command} request_id={request_id} "
                    f"(run {record.run_id})",
                    file=sys.stderr,
                )
        else:
            print("recover: no unfinished in-flight requests", file=sys.stderr)
    service.start()
    print(
        f"repro service v{SCHEMA_VERSION} on http://{service.host}:{service.port} "
        f"({len([n for n, s in OP_REGISTRY.items() if s.http])} operations, "
        f"ledger {ledger}; Ctrl-C to stop)",
        file=sys.stderr,
        flush=True,
    )
    if profile_hz:
        print(
            f"profiling armed at {profile_hz:g} hz "
            "(GET /v1/profile?format=folded|svg)",
            file=sys.stderr,
            flush=True,
        )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down: draining in-flight submissions...", file=sys.stderr)
        service.shutdown()
        print("service stopped", file=sys.stderr)
    return OpResult()
