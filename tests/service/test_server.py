"""The HTTP service: submission handling, validation, ledger, shutdown.

These tests boot a real :class:`repro.service.server.ReproService` on an
ephemeral port with a scratch ledger and drive it over actual sockets —
the same path ``make serve-smoke`` and ``repro loadtest`` exercise
(docs/service.md).
"""

import json
import multiprocessing
import socket
import struct
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.schema import SCHEMA_VERSION
from repro.service.ops import OP_REGISTRY
from repro.service.server import (
    ALLOWED_OPTION_KEYS,
    MAX_REQUEST_BYTES,
    ReproService,
)

FIG1 = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    ledger = tmp_path_factory.mktemp("service") / "ledger.jsonl"
    with ReproService(port=0, ledger=str(ledger)) as running:
        yield running


def _request(service, method, path, body=None, headers=None):
    connection = HTTPConnection(service.host, service.port, timeout=60)
    try:
        payload = json.dumps(body) if isinstance(body, dict) else body
        connection.request(method, path, body=payload, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _evaluate_body(name="loop", n=50, **extra):
    return {
        "source": FIG1,
        "machine": {"issue": 4, "fu": 1},
        "n": n,
        "name": name,
        **extra,
    }


class TestEvaluate:
    def test_returns_stamped_result(self, service):
        status, body = _request(
            service, "POST", "/v1/evaluate", _evaluate_body("stamped")
        )
        assert status == 200
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["kind"] == "result" and body["op"] == "evaluate"
        assert body["machine"] == "paper-4issue-fu1"
        assert body["evaluation"]["t_list"] > body["evaluation"]["t_new"]
        assert body["failures"] == []

    def test_request_lands_in_ledger(self, service):
        status, _ = _request(
            service, "POST", "/v1/evaluate", _evaluate_body("ledgered")
        )
        assert status == 200
        records = [
            r for r in service.ledger.load() if r.command == "service evaluate"
        ]
        assert records and records[-1].outcome == "ok"
        # per-request metrics snapshots are deliberately off (docs/service.md)
        assert records[-1].metrics is None

    def test_concurrent_identical_submissions_coalesce(self, service, hold_grid):
        """jobs=1 ≡ jobs=N: identical requests queued together are
        answered from one grid and all see the same bytes."""
        hold = hold_grid(service)
        blocker = threading.Thread(
            target=_request,
            args=(service, "POST", "/v1/evaluate", _evaluate_body("hold")),
        )
        blocker.start()
        hold.wait_held()
        results, workers = [None] * 8, []

        def submit(index):
            results[index] = _request(
                service, "POST", "/v1/evaluate", _evaluate_body("coalesce")
            )

        for index in range(len(results)):
            worker = threading.Thread(target=submit, args=(index,))
            workers.append(worker)
            worker.start()
        hold.wait_queued(len(results))
        hold.release()
        for worker in workers + [blocker]:
            worker.join()

        assert all(status == 200 for status, _ in results)
        # identical apart from request_id, which is per-request by design
        bodies = [
            json.dumps(
                {k: v for k, v in body.items() if k != "request_id"},
                sort_keys=True,
            )
            for _, body in results
        ]
        assert len(set(bodies)) == 1, "coalesced submissions must be identical"
        assert len({body["request_id"] for _, body in results}) == len(results)
        assert all(body["coalesced"] == len(results) for _, body in results)

    def test_keep_alive_round_trips_have_no_dead_time(self, service):
        """A lone client on one keep-alive connection waits for nobody:
        no batching window, and no Nagle stall holding the response body
        until the client's delayed ACK."""
        body = json.dumps(_evaluate_body("keep-alive"))
        connection = HTTPConnection(service.host, service.port, timeout=60)

        def roundtrip():
            connection.request(
                "POST",
                "/v1/evaluate",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())

        try:
            assert roundtrip()[0] == 200  # warm-up: compiles the loop
            started = time.perf_counter()
            replies = [roundtrip() for _ in range(20)]
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert all(status == 200 for status, _ in replies)
        assert all(reply["coalesced"] == 1 for _, reply in replies)
        assert elapsed < 0.3, f"20 keep-alive round trips took {elapsed:.3f}s"

    def test_streaming_ends_with_result_line(self, service):
        connection = HTTPConnection(service.host, service.port, timeout=60)
        try:
            connection.request(
                "POST",
                "/v1/evaluate",
                body=json.dumps(_evaluate_body("streamed", stream=True)),
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [
                json.loads(line)
                for line in response.read().decode().splitlines()
                if line
            ]
        finally:
            connection.close()
        assert lines, "stream produced no records"
        assert all(r["schema_version"] == SCHEMA_VERSION for r in lines)
        assert lines[-1]["kind"] == "result"
        assert lines[-1]["evaluation"]["t_list"] > 0
        assert all(r["kind"] == "progress" for r in lines[:-1])


class TestSweep:
    def test_named_benchmark_sweep(self, service):
        status, body = _request(
            service, "POST", "/v1/sweep", {"benchmarks": ["FLQ52"], "n": 20}
        )
        assert status == 200
        assert body["kind"] == "result" and body["op"] == "sweep"
        assert body["benchmarks"] == ["FLQ52"]
        assert body["cases"] == [[2, 1], [2, 2], [4, 1], [4, 2]]
        assert len(body["corpora"]) == 4

    def test_unknown_benchmark_is_a_400_with_known_list(self, service):
        status, body = _request(
            service, "POST", "/v1/sweep", {"benchmarks": ["NOPE"]}
        )
        assert status == 400
        assert body["kind"] == "error"
        assert "NOPE" in body["error"]
        assert "FLQ52" in body["known_benchmarks"]


class TestValidation:
    """Malformed and oversized requests get schema-stamped 4xx bodies."""

    def test_bad_json_is_a_400(self, service):
        status, body = _request(
            service,
            "POST",
            "/v1/evaluate",
            body="{not json",
            headers={"Content-Length": "9"},
        )
        assert status == 400
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["kind"] == "error"
        assert "not valid JSON" in body["error"]

    def test_missing_body_is_a_400(self, service):
        status, body = _request(service, "POST", "/v1/evaluate")
        assert status == 400
        assert "body required" in body["error"]

    def test_unparseable_loop_is_a_400(self, service):
        status, body = _request(
            service, "POST", "/v1/evaluate", {"source": "this is not a loop"}
        )
        assert status == 400
        assert "does not parse" in body["error"]

    def test_unknown_option_key_is_a_400_with_allowed_list(self, service):
        status, body = _request(
            service,
            "POST",
            "/v1/evaluate",
            _evaluate_body(options={"bogus": True}),
        )
        assert status == 400
        assert "bogus" in body["error"]
        assert body["allowed_options"] == list(ALLOWED_OPTION_KEYS)

    def test_bad_machine_is_a_400(self, service):
        status, body = _request(
            service,
            "POST",
            "/v1/evaluate",
            _evaluate_body(machine={"issue": 0, "fu": 1}),
        )
        assert status == 400
        assert "machine.issue" in body["error"]

    def test_oversized_body_is_a_413(self, service):
        huge = MAX_REQUEST_BYTES + 1
        status, body = _request(
            service,
            "POST",
            "/v1/evaluate",
            body=None,
            headers={"Content-Length": str(huge)},
        )
        assert status == 413
        assert body["kind"] == "error"
        assert str(MAX_REQUEST_BYTES) in body["error"]

    def test_unknown_endpoint_is_a_404_listing_endpoints(self, service):
        status, body = _request(service, "GET", "/v1/nope")
        assert status == 404
        assert "GET /v1/healthz" in body["endpoints"]
        assert "GET /v1/metrics" in body["endpoints"]
        assert "GET /v1/trace/<request_id>" in body["endpoints"]

    def test_unknown_op_is_a_404(self, service):
        status, body = _request(service, "POST", "/v1/op/nope", {})
        assert status == 404
        assert "nope" in body["error"]

    def test_cli_only_op_is_not_served(self, service):
        # `serve` and `loadtest` are registered but http=False
        status, _ = _request(service, "POST", "/v1/op/serve", {})
        assert status == 404

    def test_unknown_op_argument_is_a_400(self, service):
        status, body = _request(
            service, "POST", "/v1/op/compile", {"sauce": FIG1}
        )
        assert status == 400
        assert "sauce" in body["error"]
        assert "source" in body["allowed_arguments"]


class TestOps:
    def test_generic_op_endpoint_runs_compile(self, service):
        status, body = _request(
            service, "POST", "/v1/op/compile", {"source": FIG1}
        )
        assert status == 200
        assert body["kind"] == "result" and body["op"] == "compile"
        assert "three-address code" in body["stdout"]
        assert body["exit_code"] == 0


class TestHealth:
    def test_healthz_reports_registry_and_counters(self, service):
        status, body = _request(service, "GET", "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["operations"] == [
            n for n, s in OP_REGISTRY.items() if s.http
        ]
        assert body["ledger"] == service.ledger.path
        assert "compile_hits" in body["cache"]

    def test_runs_endpoint_serves_the_ledger(self, service):
        _request(service, "POST", "/v1/evaluate", _evaluate_body("for-runs"))
        status, body = _request(service, "GET", "/v1/runs?limit=2")
        assert status == 200
        assert body["count"] >= 1
        assert len(body["runs"]) <= 2
        assert all(r["kind"] == "run" for r in body["runs"])


def _request_raw(service, method, path, body=None, headers=None):
    """Like _request but returns (status, response headers, raw bytes)."""
    connection = HTTPConnection(service.host, service.port, timeout=60)
    try:
        payload = json.dumps(body) if isinstance(body, dict) else body
        connection.request(method, path, body=payload, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        connection.close()


def _metrics(service):
    status, body = _request(service, "GET", "/v1/metrics")
    assert status == 200
    return body


def _poll(fetch, done, timeout=2.0):
    """Telemetry lands after the response bytes are flushed; poll for it.

    Returns the first ``fetch()`` result ``done`` accepts, or the last
    one when ``timeout`` expires (the caller's assertion then shows it).
    """
    deadline = time.monotonic() + timeout
    while True:
        value = fetch()
        if done(value) or time.monotonic() >= deadline:
            return value
        time.sleep(0.02)


class TestHandlerErrors:
    def test_uncaught_handler_error_is_counted(self, tmp_path, monkeypatch, capsys):
        """An exception that escapes a handler is counted in the
        telemetry registry and still printed the stdlib way."""
        with ReproService(port=0, ledger=str(tmp_path / "l.jsonl")) as fresh:

            def explode():
                raise RuntimeError("injected handler failure")

            monkeypatch.setattr(fresh, "health_payload", explode)
            with pytest.raises(ConnectionError):
                _request(fresh, "GET", "/v1/healthz")
            counters = _poll(
                lambda: dict(fresh.telemetry.registry.counters),
                lambda c: "service.request.uncaught" in c,
            )
            assert counters["service.request.uncaught"] == 1
        assert "injected handler failure" in capsys.readouterr().err

    def test_client_reset_is_not_a_handler_error(self, tmp_path):
        """A client that resets its keep-alive connection with a response
        still unread ends the connection; nothing is counted as escaped."""
        with ReproService(port=0, ledger=str(tmp_path / "l.jsonl")) as fresh:
            client = socket.create_connection((fresh.host, fresh.port))
            # linger 0: close() sends RST instead of FIN
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert client.recv(1)  # the response has begun; the rest is unread
            client.close()
            _poll(lambda: set(fresh._connections), lambda open_: not open_)
            assert not fresh._connections
            counters = fresh.telemetry.registry.counters
            assert "service.request.uncaught" not in counters


class TestRequestIds:
    def test_request_id_echoed_in_body_and_header(self, service):
        status, headers, raw = _request_raw(
            service, "POST", "/v1/evaluate", _evaluate_body("rid")
        )
        body = json.loads(raw)
        assert status == 200
        assert len(body["request_id"]) == 12
        assert headers["X-Request-Id"] == body["request_id"]

    def test_error_responses_carry_a_request_id_too(self, service):
        status, headers, raw = _request_raw(
            service, "POST", "/v1/evaluate", {"source": "this is not a loop"}
        )
        body = json.loads(raw)
        assert status == 400
        assert headers["X-Request-Id"] == body["request_id"]


class TestMetricsEndpoint:
    def test_metrics_is_a_stamped_result(self, service):
        body = _metrics(service)
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["kind"] == "result" and body["op"] == "metrics"
        for key in ("uptime_s", "inflight", "latency", "metrics", "flight"):
            assert key in body, key

    def test_workload_count_tracks_submissions(self, service):
        before = _metrics(service)
        base = before["metrics"]["counters"].get("service.request.count", 0)
        _request(service, "POST", "/v1/evaluate", _evaluate_body("counted"))
        after = _poll(
            lambda: _metrics(service),
            lambda m: m["metrics"]["counters"].get("service.request.count", 0)
            > base,
        )
        delta = after["metrics"]["counters"]["service.request.count"] - base
        assert delta == 1
        assert (
            after["latency"]["count"] - before["latency"]["count"] == 1
        )

    def test_healthz_polls_stay_out_of_the_latency_histogram(self, service):
        before = _metrics(service)
        base = before["metrics"]["counters"].get("service.request.ops.healthz", 0)
        for _ in range(3):
            status, _ = _request(service, "GET", "/v1/healthz")
            assert status == 200
        after = _poll(
            lambda: _metrics(service),
            lambda m: m["metrics"]["counters"].get(
                "service.request.ops.healthz", 0
            )
            >= base + 3,
        )
        # per-op counter moves, the workload distribution does not
        healthz = after["metrics"]["counters"]["service.request.ops.healthz"]
        assert healthz >= base + 3
        assert after["latency"]["count"] == before["latency"]["count"]
        assert after["metrics"]["counters"].get(
            "service.request.count", 0
        ) == before["metrics"]["counters"].get("service.request.count", 0)

    def test_pipeline_metrics_merged_into_the_server_registry(self, service):
        _request(service, "POST", "/v1/evaluate", _evaluate_body("pipeline"))
        counters = _metrics(service)["metrics"]["counters"]
        assert any(name.startswith("sim.") for name in counters)

    def test_prom_format_renders_text_exposition(self, service):
        _request(service, "POST", "/v1/evaluate", _evaluate_body("prom"))
        status, headers, raw = _poll(
            lambda: _request_raw(service, "GET", "/v1/metrics?format=prom"),
            lambda got: b"service_request_count" in got[2],
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        assert "service_request_count" in text
        assert "service_request_latency_bucket" in text

    def test_counts_are_monotone_under_concurrent_load(self, service):
        """/v1/healthz and /v1/metrics polled while workers submit: every
        poll succeeds and the counters never go backwards."""
        stop = threading.Event()
        failures = []

        def submit_loop():
            while not stop.is_set():
                status, _ = _request(
                    service, "POST", "/v1/evaluate", _evaluate_body("monotone")
                )
                if status != 200:
                    failures.append(f"evaluate got {status}")

        workers = [threading.Thread(target=submit_loop) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            samples = []
            for _ in range(10):
                status, _ = _request(service, "GET", "/v1/healthz")
                if status != 200:
                    failures.append(f"healthz got {status}")
                body = _metrics(service)
                samples.append(
                    (
                        body["metrics"]["counters"].get(
                            "service.request.count", 0
                        ),
                        body["metrics"]["counters"].get(
                            "service.request.ops.healthz", 0
                        ),
                    )
                )
        finally:
            stop.set()
            for worker in workers:
                worker.join()
        assert not failures, failures
        assert samples == sorted(samples), "request counts went backwards"
        assert samples[-1][1] - samples[0][1] >= 9


class TestTraceEndpoint:
    def test_trace_returns_the_span_tree(self, service):
        # a loop no other test submits, so the evaluation cannot be a
        # memo hit and the trace must reach the simulator spans
        body = _evaluate_body("traced")
        body["source"] = FIG1.replace("A(I-2)", "A(I-73)")
        status, response = _request(service, "POST", "/v1/evaluate", body)
        assert status == 200
        status, trace = _poll(
            lambda: _request(
                service, "GET", f"/v1/trace/{response['request_id']}"
            ),
            lambda got: got[0] == 200,
        )
        assert status == 200
        assert trace["kind"] == "result" and trace["op"] == "trace"
        assert trace["request_op"] == "evaluate"
        assert trace["request_id"] == response["request_id"]
        assert trace["status"] == 200 and trace["outcome"] == "ok"
        names = [span["name"] for span in trace["spans"]]
        assert names[0] == "http.request"
        assert "batch.evaluate" in names
        assert any(name.startswith("sim.") for name in names)

    def test_unknown_id_is_a_404_with_known_ids(self, service):
        _request(service, "POST", "/v1/evaluate", _evaluate_body("known"))
        status, body = _poll(
            lambda: _request(service, "GET", "/v1/trace/ffffffffffff"),
            lambda got: bool(got[1].get("known_request_ids")),
        )
        assert status == 404
        assert body["kind"] == "error"
        assert "ffffffffffff" in body["error"]
        assert body["known_request_ids"], "flight recorder should not be empty"

    def test_failed_requests_are_retained(self, service):
        status, response = _request(
            service, "POST", "/v1/evaluate", {"source": "this is not a loop"}
        )
        assert status == 400
        status, trace = _poll(
            lambda: _request(
                service, "GET", f"/v1/trace/{response['request_id']}"
            ),
            lambda got: got[0] == 200,
        )
        assert status == 200
        assert trace["status"] == 400
        assert trace["outcome"] == "error"
        assert "does not parse" in trace["error"]


class TestAccessLogWiring:
    def test_every_request_gets_one_stamped_line(self, tmp_path):
        from repro.schema import parse_line

        access = tmp_path / "access.jsonl"
        running = ReproService(
            port=0,
            ledger=str(tmp_path / "ledger.jsonl"),
            access_log=str(access),
        ).start()
        try:
            _, body = _request(
                running, "POST", "/v1/evaluate", _evaluate_body("logged")
            )
            _request(running, "GET", "/v1/healthz")
        finally:
            running.shutdown()
        lines = [parse_line(line) for line in access.read_text().splitlines()]
        assert len(lines) == 2
        assert all(record["kind"] == "access" for record in lines)
        # the lines land in handler-finally order, which can differ from
        # request order — match by method, not position
        post = next(r for r in lines if r["method"] == "POST")
        get = next(r for r in lines if r["method"] == "GET")
        assert post["path"] == "/v1/evaluate"
        assert post["request_id"] == body["request_id"]
        assert post["op"] == "evaluate" and post["status"] == 200
        assert get["path"] == "/v1/healthz" and get["op"] == "healthz"

    def test_no_access_log_by_default(self, service):
        assert service.access_log is None


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_work(self, tmp_path):
        """A submission racing shutdown() completes; nothing is orphaned."""
        threads_before = set(threading.enumerate())
        running = ReproService(
            port=0, ledger=str(tmp_path / "ledger.jsonl")
        ).start()
        outcome = {}

        def submit():
            outcome["response"] = _request(
                running, "POST", "/v1/evaluate", _evaluate_body("drain", n=100)
            )

        worker = threading.Thread(target=submit)
        worker.start()
        # let the request reach the server before pulling the plug
        import time

        time.sleep(0.05)
        running.shutdown()
        worker.join(timeout=60)
        assert not worker.is_alive()

        status, body = outcome["response"]
        assert status == 200, f"in-flight request was dropped: {body}"
        assert body["evaluation"]["t_list"] > 0
        # the drained request still made the ledger
        assert any(
            r.command == "service evaluate" and r.outcome == "ok"
            for r in running.ledger.load()
        )
        # no orphaned handler/batcher threads, no stray worker processes
        leaked = [
            t
            for t in set(threading.enumerate()) - threads_before
            if t.is_alive() and t is not worker
        ]
        assert not leaked, f"shutdown leaked threads: {leaked}"
        assert multiprocessing.active_children() == []

    def test_late_request_gets_an_honest_503(self, tmp_path):
        running = ReproService(
            port=0, ledger=str(tmp_path / "ledger.jsonl")
        ).start()
        running.shutdown()
        with pytest.raises(Exception):
            # socket is closed post-shutdown; any of refused/reset is fine
            _request(running, "GET", "/v1/healthz")

    def test_draining_service_refuses_with_a_stamped_503(self, tmp_path):
        """A request landing in the drain window (closing flag set, the
        listener not yet torn down) gets a schema-stamped 503 body."""
        running = ReproService(
            port=0, ledger=str(tmp_path / "ledger.jsonl")
        ).start()
        try:
            running._closing.set()
            status, headers, raw = _request_raw(
                running, "POST", "/v1/evaluate", _evaluate_body("late")
            )
            body = json.loads(raw)
            assert status == 503
            assert body["schema_version"] == SCHEMA_VERSION
            assert body["kind"] == "error"
            assert "shutting down" in body["error"]
            assert headers["X-Request-Id"] == body["request_id"]
        finally:
            running._closing.clear()
            running.shutdown()
