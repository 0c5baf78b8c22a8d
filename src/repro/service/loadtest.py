"""``repro loadtest``: fire concurrent submissions at a service, measure.

The service's acceptance bar (docs/service.md): ≥ 1000 concurrent loop
submissions against one server with **zero errors**, **zero
quarantines**, a **cross-request compile-cache hit rate above zero**
(the whole point of the long-lived process), and **every request in the
run ledger**.  Since the telemetry layer (schema v8) it also checks the
server's own observability against the client's ground truth: the
``service.request.count`` counter at ``GET /v1/metrics`` must equal the
submissions fired, the server-side p99 must agree with the client-side
p99, and ``GET /v1/trace/<request_id>`` must return a full span tree
for a request the harness just made.  This harness drives that bar and
records throughput, shared-cache hit rate, and p50/p95/p99 latency into
the ``service`` block of ``BENCH_perf.json`` (``make bench-service``).

By default it boots an in-process :class:`~repro.service.server.
ReproService` on an ephemeral port with a scratch ledger; point
``--url`` at a running server to load-test it instead (the ledger
check is skipped — the harness can't know how many requests the
server had already served).

``--chaos SPEC`` switches to the chaos harness (``make chaos-smoke``):
the in-process server is armed with a :class:`~repro.robust.harden.
ServicePolicy` and the parsed :class:`~repro.robust.chaos.ChaosPlan`,
clients deterministically inject malformed bodies, oversized bodies and
mid-stream disconnects, and the server side injects grid kills, slow
groups and cache corruption.  The acceptance bar flips from "zero
errors" to *honesty under failure*: **zero malformed/unstamped
responses**, every submission answered or honestly shed (429 with
``Retry-After`` / 503 / 504 with a ``hint``), the breaker's transitions
on the ledger, and a complete ledger trail (every admitted submission
journaled and finalized).  The chaos summary is merged as the ``chaos``
sub-block of the ``service`` block in ``BENCH_perf.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from http.client import HTTPConnection
from typing import Any
from urllib.parse import urlsplit

from repro.obs.metrics import percentile
from repro.schema import SCHEMA_VERSION, stamped
from repro.service.ops import OpResult

__all__ = ["loadtest_op"]

#: Distinct loop sources cycled across submissions: few enough that the
#: shared cache pays off across requests, varied enough (distances,
#: statement mixes) that the engine can't answer everything from one
#: compile.
LOOP_SOURCES = tuple(
    f"""
DO I = 1, 100
  S1: B(I) = A(I-{d}) + E(I+1)
  S2: G(I-3) = A(I-{d + 1}) * E(I+2)
  S3: A(I) = B(I) + C(I+{d + 2})
ENDDO
"""
    for d in range(1, 9)
)

#: Machine grid cycled across submissions (the paper's Table 2 columns).
MACHINE_CASES = ((2, 1), (2, 2), (4, 1), (4, 2))


class _Client(threading.Thread):
    """One persistent connection issuing its share of the submissions."""

    def __init__(self, host, port, payloads, take, n):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.payloads = payloads
        self.take = take  # () -> next request index or None
        self.n = n
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.quarantines = 0
        self.coalesced_peak = 1
        self.last_request_id: str | None = None

    def run(self) -> None:
        connection = HTTPConnection(self.host, self.port, timeout=60)
        try:
            while True:
                index = self.take()
                if index is None:
                    return
                body = self.payloads[index % len(self.payloads)]
                started = time.perf_counter()
                try:
                    connection.request(
                        "POST",
                        "/v1/evaluate",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    data = json.loads(response.read())
                except Exception as err:
                    self.errors.append(f"{type(err).__name__}: {err}")
                    connection.close()
                    connection = HTTPConnection(self.host, self.port, timeout=60)
                    continue
                self.latencies.append(time.perf_counter() - started)
                if response.status != 200:
                    self.errors.append(
                        f"HTTP {response.status}: {data.get('error', '?')}"
                    )
                    continue
                if data.get("failures"):
                    self.quarantines += len(data["failures"])
                self.coalesced_peak = max(
                    self.coalesced_peak, data.get("coalesced", 1)
                )
                if data.get("request_id"):
                    self.last_request_id = data["request_id"]
        finally:
            connection.close()


def _get_json(host: str, port: int, path: str) -> dict[str, Any]:
    connection = HTTPConnection(host, port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def _probe_trace(host: str, port: int, n: int) -> tuple[str | None, list[str]]:
    """One cold submission, then its flight-recorder trace's span names.

    The loop source (distance 97) is deliberately outside
    :data:`LOOP_SOURCES`, so the engine cannot answer from its memos and
    the trace must reach the ``sim.*`` spans."""
    probe = json.dumps(
        {
            "source": LOOP_SOURCES[0].replace("I-1", "I-97"),
            "machine": {"issue": 4, "fu": 1},
            "n": n,
            "name": "trace-probe",
        }
    )
    connection = HTTPConnection(host, port, timeout=60)
    try:
        connection.request(
            "POST",
            "/v1/evaluate",
            body=probe,
            headers={"Content-Type": "application/json"},
        )
        data = json.loads(connection.getresponse().read())
    except Exception:
        return None, []
    finally:
        connection.close()
    request_id = data.get("request_id")
    if not request_id:
        return None, []
    # The flight recorder is written after the response bytes are
    # flushed (telemetry never sits on the request path), so poll
    # briefly rather than racing the handler's finally block.
    deadline = time.monotonic() + 2.0
    while True:
        trace = _get_json(host, port, f"/v1/trace/{request_id}")
        spans = [s.get("name", "") for s in trace.get("spans", [])]
        if spans or time.monotonic() >= deadline:
            return request_id, spans
        time.sleep(0.02)


def merge_bench_file(path: str, key: str, block: dict[str, Any]) -> None:
    """Store ``block`` under ``key`` in the JSON file at ``path``, keeping
    every other key (``make bench-perf`` and ``repro loadtest`` share
    ``BENCH_perf.json``)."""
    existing: dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                existing = loaded
        except ValueError:
            pass  # a torn or foreign file must not sink the bench run
    existing["schema_version"] = SCHEMA_VERSION
    existing[key] = block
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- the chaos harness ---------------------------------------------------------


def _is_stamped(data: Any) -> bool:
    """Is this response body an honest schema-stamped document?"""
    return (
        isinstance(data, dict)
        and isinstance(data.get("schema_version"), int)
        and data.get("kind") in ("result", "error")
    )


def _check_response(
    status: int, data: Any, headers: dict[str, str]
) -> str | None:
    """The chaos bar for one response: stamped, and honest about refusals
    (429 carries Retry-After + retry_after_s, 504 carries a hint).
    Returns the defect, or None."""
    if not _is_stamped(data):
        return f"HTTP {status} body is not a stamped result/error: {data!r:.120}"
    if status == 429:
        if "retry-after" not in {k.lower() for k in headers}:
            return "429 without a Retry-After header"
        if "retry_after_s" not in data:
            return "429 body without retry_after_s"
    if status == 504 and "hint" not in data:
        return "504 body without a structured hint"
    return None


class _ChaosClient(threading.Thread):
    """One loadtest client that sometimes turns hostile, per the plan."""

    def __init__(self, host, port, payloads, take, plan):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.payloads = payloads
        self.take = take
        self.plan = plan
        self.outcomes = {
            "answered": 0,  # 200 result
            "shed": 0,  # 429
            "refused": 0,  # 503
            "expired": 0,  # 504
            "server_error": 0,  # 5xx other than 504
            "client_error": 0,  # 4xx answers to injected hostile requests
        }
        self.injected = {"malformed": 0, "oversize": 0, "disconnect": 0}
        self.malformed: list[str] = []  # responses that broke the contract
        self.transport_errors: list[str] = []

    def _account(self, status: int, data: Any, headers: dict[str, str]) -> None:
        defect = _check_response(status, data, headers)
        if defect is not None:
            self.malformed.append(defect)
            return
        if status == 200:
            self.outcomes["answered"] += 1
        elif status == 429:
            self.outcomes["shed"] += 1
        elif status == 503:
            self.outcomes["refused"] += 1
        elif status == 504:
            self.outcomes["expired"] += 1
        elif status >= 500:
            self.outcomes["server_error"] += 1
        else:
            self.outcomes["client_error"] += 1

    def _roundtrip(self, connection, body, headers=None) -> None:
        connection.request(
            "POST",
            "/v1/evaluate",
            body=body,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        raw = response.read()
        try:
            data = json.loads(raw)
        except ValueError:
            data = raw
        self._account(response.status, data, dict(response.getheaders()))

    def _inject_oversize(self) -> None:
        # The server refuses on the Content-Length header alone (it never
        # reads the body) and then hangs up, so claim an oversized body
        # without paying to send one — actually sending it races the 413
        # into a broken pipe.  Own connection: the refused socket cannot
        # be reused.
        from repro.service.server import MAX_REQUEST_BYTES

        connection = HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.putrequest("POST", "/v1/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_REQUEST_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            raw = response.read()
            try:
                data = json.loads(raw)
            except ValueError:
                data = raw
            self._account(response.status, data, dict(response.getheaders()))
        finally:
            connection.close()

    def _inject_disconnect(self, index: int) -> None:
        # A streaming submission abandoned mid-stream: read the response
        # head, then hang up.  The server must neither wedge nor leak —
        # the submission still finishes (and is finalized in the ledger)
        # on the batcher thread.
        body = json.loads(self.payloads[index % len(self.payloads)])
        body["stream"] = True
        connection = HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(
                "POST",
                "/v1/evaluate",
                body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            connection.sock.recv(64)  # the status line, at most
        except Exception:
            pass  # the disconnect is the point; nothing to validate
        finally:
            connection.close()

    def run(self) -> None:
        connection = HTTPConnection(self.host, self.port, timeout=60)
        try:
            while True:
                index = self.take()
                if index is None:
                    return
                fault = self.plan.client_fault(index)
                try:
                    if fault == "malformed":
                        self.injected["malformed"] += 1
                        self._roundtrip(connection, b"{this is not json")
                    elif fault == "oversize":
                        self.injected["oversize"] += 1
                        self._inject_oversize()
                    elif fault == "disconnect":
                        self.injected["disconnect"] += 1
                        self._inject_disconnect(index)
                    else:
                        self._roundtrip(
                            connection,
                            self.payloads[index % len(self.payloads)],
                        )
                except Exception as err:
                    self.transport_errors.append(f"{type(err).__name__}: {err}")
                    connection.close()
                    connection = HTTPConnection(self.host, self.port, timeout=60)
        finally:
            connection.close()


def _chaos_loadtest(
    requests: int,
    concurrency: int,
    n: int,
    out: str,
    specs: list[str],
    seed: int,
) -> OpResult:
    """The chaos harness: a resilient in-process server under a seeded
    :class:`ChaosPlan`, gated on honesty rather than on zero failures."""
    import io

    from repro.robust.chaos import ChaosPlan
    from repro.robust.harden import ServicePolicy
    from repro.service.server import ReproService

    buffer_out, buffer_err = io.StringIO(), io.StringIO()
    try:
        plan = ChaosPlan.parse(specs, seed=seed, label="loadtest --chaos")
    except ValueError as err:
        return OpResult(exit_code=2, stderr=f"{err}\n")
    policy = ServicePolicy(
        max_queue_depth=max(64, concurrency * 8),
        deadline_s=30.0,
        chunk_timeout=60.0,
        breaker_threshold=3,
        breaker_cooldown_s=0.5,
        journal_inflight=True,
    )
    scratch = tempfile.mkdtemp(prefix="repro-chaos-")
    ledger_path = os.path.join(scratch, "ledger.jsonl")
    server = ReproService(
        port=0, ledger=ledger_path, policy=policy, chaos=plan
    ).start()
    host, port = server.host, server.port

    payloads = [
        json.dumps(
            {
                "source": source,
                "machine": {"issue": issue, "fu": fu},
                "n": n,
                "name": f"chaos-{index}",
            }
        )
        for index, (source, (issue, fu)) in enumerate(
            (s, m) for s in LOOP_SOURCES for m in MACHINE_CASES
        )
    ]
    counter = {"next": 0}
    counter_lock = threading.Lock()

    def take() -> int | None:
        with counter_lock:
            if counter["next"] >= requests:
                return None
            counter["next"] += 1
            return counter["next"] - 1

    clients = [
        _ChaosClient(host, port, payloads, take, plan)
        for _ in range(concurrency)
    ]
    started = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    wall = time.perf_counter() - started

    outcomes = {
        key: sum(c.outcomes[key] for c in clients)
        for key in clients[0].outcomes
    }
    injected = {
        key: sum(c.injected[key] for c in clients) for key in clients[0].injected
    }
    malformed = [m for c in clients for m in c.malformed]
    transport_errors = [e for c in clients for e in c.transport_errors]

    telemetry = _get_json(host, port, "/v1/metrics")
    gauges = telemetry.get("metrics", {}).get("gauges", {})
    breaker_gauge = gauges.get("service.breaker.state")
    server.shutdown()
    # Handler threads are joined by now, so the count is final.
    uncaught = server.telemetry.registry.counters.get("service.request.uncaught", 0)

    # The ledger trail, read after a clean shutdown: every submission that
    # reached admission must have an inflight journal line and a terminal
    # twin; nothing may be left unfinished.
    from repro.obs.ledger import RunLedger, unfinished_inflight

    records = RunLedger(ledger_path).load()
    evaluate_records = [r for r in records if r.command == "service evaluate"]
    inflight_journal = [r for r in evaluate_records if r.outcome == "inflight"]
    terminal = [r for r in evaluate_records if r.outcome != "inflight"]
    unfinished = unfinished_inflight(records)
    breaker_records = [r for r in records if r.command == "service breaker"]

    # Submissions that reach admission: everything except the hostile
    # bodies rejected while parsing (malformed / oversize never build a
    # submission).
    admitted = requests - injected["malformed"] - injected["oversize"]
    answered_total = sum(outcomes.values()) + injected["disconnect"]

    block = {
        "plan": list(specs),
        "seed": seed,
        "requests": requests,
        "concurrency": concurrency,
        "wall_s": round(wall, 4),
        "outcomes": outcomes,
        "injected": injected,
        "malformed_responses": len(malformed),
        "transport_errors": len(transport_errors),
        "uncaught_errors": uncaught,
        "breaker_transitions": len(breaker_records),
        "breaker_state": breaker_gauge,
        "ledger_inflight_journal": len(inflight_journal),
        "ledger_terminal": len(terminal),
        "ledger_unfinished": len(unfinished),
    }

    print(
        f"chaos: {requests} submissions x {concurrency} clients in "
        f"{wall:.2f}s under {' '.join(specs)} (seed {seed})",
        file=buffer_out,
    )
    print(
        f"outcomes: {outcomes['answered']} answered, {outcomes['shed']} shed "
        f"(429), {outcomes['refused']} refused (503), {outcomes['expired']} "
        f"expired (504), {outcomes['server_error']} server error(s), "
        f"{outcomes['client_error']} rejected hostile request(s)",
        file=buffer_out,
    )
    print(
        f"injected: {injected['malformed']} malformed, {injected['oversize']} "
        f"oversize, {injected['disconnect']} disconnect(s); "
        f"breaker transitions {len(breaker_records)}",
        file=buffer_out,
    )
    print(
        f"ledger: {len(inflight_journal)} inflight journal line(s), "
        f"{len(terminal)} terminal record(s), {len(unfinished)} unfinished",
        file=buffer_out,
    )

    failed = []
    if malformed:
        failed.append(
            f"{len(malformed)} malformed response(s); first: {malformed[0]}"
        )
    if transport_errors:
        failed.append(
            f"{len(transport_errors)} transport error(s); "
            f"first: {transport_errors[0]}"
        )
    if uncaught:
        failed.append(f"{uncaught} exception(s) escaped a request handler")
    if outcomes["server_error"]:
        failed.append(
            f"{outcomes['server_error']} 5xx response(s): the breaker/"
            "degraded path should have absorbed grid failures"
        )
    if answered_total != requests:
        failed.append(
            f"accounted for {answered_total} of {requests} submission(s)"
        )
    if len(terminal) != admitted:
        failed.append(
            f"ledger has {len(terminal)} terminal record(s) for "
            f"{admitted} admitted submission(s)"
        )
    if len(inflight_journal) != admitted:
        failed.append(
            f"ledger has {len(inflight_journal)} inflight journal line(s) "
            f"for {admitted} admitted submission(s)"
        )
    if unfinished:
        failed.append(
            f"{len(unfinished)} in-flight record(s) left unfinished after a "
            "clean shutdown"
        )
    if breaker_gauge is None:
        failed.append("service.breaker.state gauge missing from /v1/metrics")
    trips = any(
        k.every == 1 and (k.times is None or k.times >= policy.breaker_threshold)
        for k in plan.kills
    )
    if trips and len(breaker_records) < 2:
        failed.append(
            "the kill cadence should have tripped the breaker (open + "
            f"close >= 2 transitions; ledger has {len(breaker_records)})"
        )
    for reason in failed:
        print(f"FAIL: {reason}", file=buffer_err)

    # Ride in BENCH_perf.json without clobbering the standard service
    # block: chaos is a sub-block.
    existing_service: dict[str, Any] = {}
    if os.path.exists(out):
        try:
            with open(out, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict) and isinstance(
                loaded.get("service"), dict
            ):
                existing_service = loaded["service"]
        except ValueError:
            pass
    merge_bench_file(out, "service", {**existing_service, "chaos": block})
    print(f"merged chaos block into {out}", file=buffer_err)

    return OpResult(
        exit_code=1 if failed else 0,
        stdout=buffer_out.getvalue(),
        stderr=buffer_err.getvalue(),
        data=stamped(None, dict(block)),
    )


def loadtest_op(
    requests: int = 1000,
    concurrency: int = 16,
    url: str | None = None,
    n: int = 100,
    out: str = "BENCH_perf.json",
    chaos: list[str] | None = None,
    chaos_seed: int = 0,
) -> OpResult:
    """Fire ``requests`` concurrent ``POST /v1/evaluate`` submissions.

    With ``chaos`` specs the run switches to the chaos harness (own
    resilient server, injected failure, honesty bar) — see the module
    docstring.
    """
    import io

    if chaos:
        if url is not None:
            return OpResult(
                exit_code=2,
                stderr="--chaos boots its own resilient server; "
                "it cannot target --url\n",
            )
        return _chaos_loadtest(requests, concurrency, n, out, list(chaos), chaos_seed)

    buffer_out, buffer_err = io.StringIO(), io.StringIO()
    own_server = None
    scratch = None
    if url is None:
        from repro.service.server import ReproService

        scratch = tempfile.mkdtemp(prefix="repro-loadtest-")
        own_server = ReproService(
            port=0, ledger=os.path.join(scratch, "ledger.jsonl")
        ).start()
        host, port = own_server.host, own_server.port
    else:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        host, port = parts.hostname or "127.0.0.1", parts.port or 80

    payloads = [
        json.dumps(
            {
                "source": source,
                "machine": {"issue": issue, "fu": fu},
                "n": n,
                "name": f"load-{index}",
            }
        )
        for index, (source, (issue, fu)) in enumerate(
            (s, m) for s in LOOP_SOURCES for m in MACHINE_CASES
        )
    ]

    counter = {"next": 0}
    counter_lock = threading.Lock()

    def take() -> int | None:
        with counter_lock:
            if counter["next"] >= requests:
                return None
            counter["next"] += 1
            return counter["next"] - 1

    clients = [
        _Client(host, port, payloads, take, n) for _ in range(concurrency)
    ]
    started = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    wall = time.perf_counter() - started

    latencies = sorted(l for client in clients for l in client.latencies)
    errors = [e for client in clients for e in client.errors]
    quarantines = sum(client.quarantines for client in clients)
    coalesced_peak = max(client.coalesced_peak for client in clients)

    health = _get_json(host, port, "/v1/healthz")
    runs = _get_json(host, port, "/v1/runs?limit=1")
    telemetry = _get_json(host, port, "/v1/metrics")
    if own_server is not None:
        # Request counters are bumped after the response bytes are
        # flushed, so the last responses can race this snapshot — poll
        # until the server has seen every submission (bounded; an
        # external --url server has foreign traffic and never converges
        # on our count, hence own_server only).
        deadline = time.monotonic() + 2.0
        while (
            telemetry.get("metrics", {})
            .get("counters", {})
            .get("service.request.count", 0)
            < requests
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
            telemetry = _get_json(host, port, "/v1/metrics")
    ledger_count = runs.get("count", 0)
    cache = health.get("cache", {})
    batch = health.get("batch", {})
    cache_hits = cache.get("compile_hits", 0) + cache.get("schedule_hits", 0)
    memo_hits = batch.get("eval_hits", 0)

    # The server's own telemetry, checked against client ground truth.
    server_count = (
        telemetry.get("metrics", {})
        .get("counters", {})
        .get("service.request.count", 0)
    )
    server_p99_s = telemetry.get("latency", {}).get("p99", 0.0)
    # Flight-recorder depth check: one probe with a loop the run has NOT
    # warmed (late loadtest requests are all memo hits and legitimately
    # carry no pipeline spans), fetched after the telemetry snapshot so
    # it doesn't perturb the count check above.
    trace_id, trace_spans = _probe_trace(host, port, n)

    if own_server is not None:
        own_server.shutdown()

    block = stamped(
        None,
        {
            "requests": requests,
            "concurrency": concurrency,
            "wall_s": round(wall, 4),
            "throughput_rps": round(requests / wall, 2) if wall else 0.0,
            "latency_p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
            "latency_p95_ms": round(percentile(latencies, 0.95) * 1e3, 3),
            "latency_p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
            "errors": len(errors),
            "quarantines": quarantines,
            "coalesced_peak": coalesced_peak,
            "ledger_count": ledger_count,
            "cache_hits": cache_hits,
            "eval_memo_hits": memo_hits,
            "server_request_count": server_count,
            "server_latency_p99_ms": round(server_p99_s * 1e3, 3),
            "trace_spans": len(trace_spans),
            "cache": cache,
            "batch": batch,
        },
    )
    merge_bench_file(out, "service", block)

    print(
        f"{requests} submissions x {concurrency} clients in {wall:.2f}s "
        f"({block['throughput_rps']} req/s)",
        file=buffer_out,
    )
    print(
        f"latency p50={block['latency_p50_ms']}ms "
        f"p95={block['latency_p95_ms']}ms p99={block['latency_p99_ms']}ms; "
        f"peak coalesce {coalesced_peak}",
        file=buffer_out,
    )
    print(
        f"cache hits {cache_hits} (+{memo_hits} eval-memo), "
        f"errors {len(errors)}, quarantines {quarantines}, "
        f"ledger {ledger_count} record(s)",
        file=buffer_out,
    )
    print(
        f"server telemetry: {server_count} workload request(s), "
        f"p99 {block['server_latency_p99_ms']}ms, "
        f"trace depth {len(trace_spans)} span(s)",
        file=buffer_out,
    )
    print(f"wrote service block to {out}", file=buffer_err)

    failed = []
    if errors:
        failed.append(f"{len(errors)} request error(s); first: {errors[0]}")
    if quarantines:
        failed.append(f"{quarantines} quarantined loop(s)")
    if cache_hits + memo_hits == 0:
        failed.append("no cross-request cache hits")
    if own_server is not None and ledger_count != requests:
        failed.append(
            f"ledger has {ledger_count} record(s) for {requests} request(s)"
        )
    if own_server is not None and server_count != requests:
        failed.append(
            f"server counted {server_count} workload request(s) for "
            f"{requests} submission(s)"
        )
    client_p99_s = percentile(latencies, 0.99)
    # Bucket interpolation vs exact client samples (which also include
    # the network round-trip and accept-queue wait the server never
    # times) can never agree exactly; require the two p99s to be the
    # same order of magnitude or within 25ms.  Below ~50 samples the
    # client "p99" is just the max — one scheduler hiccup on a loaded
    # host inflates it arbitrarily — so the agreement check only gates
    # runs large enough for the percentile to mean something.
    p99_gap = abs(server_p99_s - client_p99_s)
    if len(latencies) >= 50 and not (
        p99_gap <= 0.025 or p99_gap <= 2.5 * min(server_p99_s, client_p99_s)
    ):
        failed.append(
            f"server p99 {server_p99_s * 1e3:.1f}ms disagrees with client "
            f"p99 {client_p99_s * 1e3:.1f}ms"
        )
    if trace_id is not None and (
        "http.request" not in trace_spans
        or not any(name.startswith("sim.") for name in trace_spans)
    ):
        failed.append(
            f"trace {trace_id} lacks the full span tree "
            f"(got {trace_spans[:6]})"
        )
    for reason in failed:
        print(f"FAIL: {reason}", file=buffer_err)
    return OpResult(
        exit_code=1 if failed else 0,
        stdout=buffer_out.getvalue(),
        stderr=buffer_err.getvalue(),
        data=block,
    )
