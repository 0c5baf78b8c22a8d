"""The resilience layer: admission control, deadlines, the breaker,
crash-safe journaling and recovery, shutdown drain under streaming.

Each test boots its own :class:`ReproService` armed with the policy or
chaos plan under test — the resilience knobs change server behaviour, so
the module-scoped shared service of ``test_server.py`` cannot be reused.
"""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.obs.ledger import RunLedger, unfinished_inflight
from repro.robust.chaos import ChaosPlan
from repro.robust.harden import ServicePolicy
from repro.schema import SCHEMA_VERSION
from repro.service.server import ReproService

FIG1 = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""


def _request(service, method, path, body=None, headers=None):
    connection = HTTPConnection(service.host, service.port, timeout=60)
    try:
        payload = json.dumps(body) if isinstance(body, dict) else body
        connection.request(method, path, body=payload, headers=headers or {})
        response = connection.getresponse()
        return (
            response.status,
            json.loads(response.read()),
            dict(response.getheaders()),
        )
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


class TestAdmissionControl:
    def test_max_inflight_sheds_with_retry_after(self, tmp_path):
        policy = ServicePolicy(max_inflight=0)
        with ReproService(
            port=0, ledger=str(tmp_path / "ledger.jsonl"), policy=policy
        ) as service:
            status, body, headers = _request(
                service, "POST", "/v1/evaluate", _evaluate_body("shed-me")
            )
            assert status == 429
            assert body["schema_version"] == SCHEMA_VERSION
            assert body["kind"] == "error"
            assert body["retry_after_s"] > 0
            assert int(headers["Retry-After"]) >= 1
            snapshot = service.telemetry.snapshot()
            assert snapshot["metrics"]["counters"]["service.request.shed"] == 1
            records = service.ledger.load()
            shed = [r for r in records if r.outcome == "shed"]
            assert len(shed) == 1
            assert "max_inflight" in shed[0].error

    def test_max_queue_depth_sheds(self, tmp_path):
        policy = ServicePolicy(max_queue_depth=0, journal_inflight=False)
        with ReproService(
            port=0, ledger=str(tmp_path / "ledger.jsonl"), policy=policy
        ) as service:
            status, body, headers = _request(
                service, "POST", "/v1/evaluate", _evaluate_body()
            )
            assert status == 429
            assert "max_queue_depth" in body["error"]
            assert "Retry-After" in headers

    def test_unconstrained_policy_admits(self, tmp_path):
        policy = ServicePolicy(max_inflight=64, max_queue_depth=256)
        with ReproService(
            port=0, ledger=str(tmp_path / "ledger.jsonl"), policy=policy
        ) as service:
            status, body, _ = _request(
                service, "POST", "/v1/evaluate", _evaluate_body()
            )
            assert status == 200 and body["kind"] == "result"


class TestDeadlines:
    def test_queued_past_deadline_is_504_with_hint(self, tmp_path, hold_grid):
        # A 1 ms budget cannot survive the wait behind a held grid: the
        # batcher must abandon the submission before evaluating it.  The
        # chunk_timeout grace keeps the handler waiting past the hold,
        # so it reports the batcher's queued-expiry rather than its own
        # wait timeout.
        policy = ServicePolicy(chunk_timeout=5.0, journal_inflight=False)
        with ReproService(
            port=0,
            ledger=str(tmp_path / "ledger.jsonl"),
            policy=policy,
        ) as service:
            hold = hold_grid(service)
            blocker = threading.Thread(
                target=_request,
                args=(service, "POST", "/v1/evaluate", _evaluate_body("hold")),
            )
            blocker.start()
            hold.wait_held()
            replies = []
            late = threading.Thread(
                target=lambda: replies.append(
                    _request(
                        service,
                        "POST",
                        "/v1/evaluate",
                        _evaluate_body(deadline_s=0.001),
                    )
                )
            )
            late.start()
            hold.wait_queued(1)
            time.sleep(0.01)  # the 1 ms budget lapses while it queues
            hold.release()
            late.join(60)
            blocker.join(60)
            status, body, _ = replies[0]
            assert status == 504
            assert body["kind"] == "error"
            assert body["hint"]["stage"] == "queued"
            assert body["hint"]["deadline_s"] == 0.001
            assert body["hint"]["queued_s"] >= 0.001
            records = service.ledger.load()
            assert [
                r.outcome for r in records if r.argv[-1] == body["request_id"]
            ] == ["deadline"]
            counters = service.telemetry.snapshot()["metrics"]["counters"]
            assert counters["service.request.deadline"] == 1

    def test_wedged_grid_is_504_stage_evaluating(self, tmp_path):
        # The chaos slow stalls every grid 1 s; a 50 ms deadline with
        # 50 ms grace stops waiting long before that.
        policy = ServicePolicy(chunk_timeout=0.05, journal_inflight=False)
        plan = ChaosPlan.parse(["slow:delay=1.0,every=1"])
        with ReproService(
            port=0,
            ledger=str(tmp_path / "ledger.jsonl"),
            policy=policy,
            chaos=plan,
        ) as service:
            status, body, _ = _request(
                service,
                "POST",
                "/v1/evaluate",
                _evaluate_body(deadline_s=0.05),
            )
            assert status == 504
            assert body["hint"]["stage"] == "evaluating"
            assert body["hint"]["chunk_timeout_s"] == 0.05
            assert "wedged" in body["error"]

    def test_invalid_deadline_is_400(self, tmp_path):
        with ReproService(port=0, ledger=str(tmp_path / "l.jsonl")) as service:
            status, body, _ = _request(
                service, "POST", "/v1/evaluate", _evaluate_body(deadline_s=-1)
            )
            assert status == 400
            assert "deadline_s" in body["error"]


class TestCircuitBreaker:
    def test_consecutive_kills_trip_then_recover(self, tmp_path):
        # Two back-to-back grid kills trip a threshold-2 breaker; the
        # degraded per-loop path keeps answering 200.  After the 100 ms
        # cooldown the next grid half-opens and closes it again.
        policy = ServicePolicy(
            breaker_threshold=2,
            breaker_cooldown_s=0.1,
            journal_inflight=False,
        )
        plan = ChaosPlan.parse(["kill:every=1,times=2"])
        with ReproService(
            port=0,
            ledger=str(tmp_path / "ledger.jsonl"),
            policy=policy,
            chaos=plan,
        ) as service:
            for index in range(2):
                status, body, _ = _request(
                    service, "POST", "/v1/evaluate", _evaluate_body(f"k{index}")
                )
                assert status == 200, body
                assert body["kind"] == "result"
            time.sleep(0.15)  # past the cooldown: next grid is the probe
            status, body, _ = _request(
                service, "POST", "/v1/evaluate", _evaluate_body("probe")
            )
            assert status == 200
            gauges = service.telemetry.snapshot()["metrics"]["gauges"]
            assert gauges["service.breaker.state"]["value"] == 0  # closed
            transitions = [
                r for r in service.ledger.load()
                if r.command == "service breaker"
            ]
            outcomes = [r.outcome for r in transitions]
            assert outcomes == ["open", "half-open", "closed"]
            assert transitions[0].error  # the open names its reason

    def test_isolated_failures_do_not_trip(self, tmp_path):
        # kill:every=2 never produces two consecutive failures: each
        # success in between resets the count, so the breaker stays
        # closed for a threshold of 2.
        policy = ServicePolicy(
            breaker_threshold=2, breaker_cooldown_s=0.1, journal_inflight=False
        )
        plan = ChaosPlan.parse(["kill:every=2"])
        with ReproService(
            port=0,
            ledger=str(tmp_path / "ledger.jsonl"),
            policy=policy,
            chaos=plan,
        ) as service:
            for index in range(4):
                status, body, _ = _request(
                    service, "POST", "/v1/evaluate", _evaluate_body(f"i{index}")
                )
                assert status == 200, body
            assert [
                r for r in service.ledger.load()
                if r.command == "service breaker"
            ] == []

    def test_grid_failure_without_breaker_is_500(self, tmp_path):
        # No policy means no breaker and no degraded fallback: PR 8
        # behaviour, a grid crash surfaces as an honest stamped 500.
        plan = ChaosPlan.parse(["kill:every=1,times=1"])
        with ReproService(
            port=0,
            ledger=str(tmp_path / "ledger.jsonl"),
            chaos=plan,
        ) as service:
            status, body, _ = _request(
                service, "POST", "/v1/evaluate", _evaluate_body()
            )
            assert status == 500
            assert body["kind"] == "error"
            assert "ChaosKill" in body["error"]


class TestInflightJournal:
    def test_journal_then_finalize_share_request_id(self, tmp_path):
        policy = ServicePolicy(max_inflight=64)
        with ReproService(
            port=0, ledger=str(tmp_path / "ledger.jsonl"), policy=policy
        ) as service:
            status, body, _ = _request(
                service, "POST", "/v1/evaluate", _evaluate_body()
            )
            assert status == 200
            records = [
                r for r in service.ledger.load()
                if r.command == "service evaluate"
            ]
            assert [r.outcome for r in records] == ["inflight", "ok"]
            assert records[0].argv[-1] == records[1].argv[-1] == body["request_id"]
            assert unfinished_inflight(records) == []

    def test_recover_marks_orphans_lost(self, tmp_path):
        ledger_path = str(tmp_path / "ledger.jsonl")
        policy = ServicePolicy(max_inflight=64)
        # First service dies (simulated: journal line appended, no
        # terminal record — exactly what a SIGKILL mid-request leaves).
        with ReproService(port=0, ledger=ledger_path, policy=policy) as service:
            _request(service, "POST", "/v1/evaluate", _evaluate_body())
            service.record_request(
                "evaluate",
                99,
                "/v1/evaluate",
                None,
                "inflight",
                0.0,
                request_id="deadbeef0099",
            )
        lost = unfinished_inflight(RunLedger(ledger_path).load())
        assert [r.argv[-1] for r in lost] == ["deadbeef0099"]

        # The next boot recovers it.
        service = ReproService(port=0, ledger=ledger_path, policy=policy)
        recovered = service.recover_inflight()
        assert [r.argv[-1] for r in recovered] == ["deadbeef0099"]
        assert recovered[0].outcome == "lost"
        assert "exited before it finished" in recovered[0].error
        records = RunLedger(ledger_path).load()
        assert unfinished_inflight(records) == []
        assert [r.outcome for r in records if r.outcome == "lost"] == ["lost"]

    def test_runs_list_inflight_names_the_orphans(self, tmp_path, capsys):
        from repro.service.ops import runs_list_op

        ledger_path = str(tmp_path / "ledger.jsonl")
        policy = ServicePolicy(max_inflight=64)
        with ReproService(port=0, ledger=ledger_path, policy=policy) as service:
            service.record_request(
                "evaluate",
                1,
                "/v1/evaluate",
                None,
                "inflight",
                0.0,
                request_id="cafecafe0001",
            )
        result = runs_list_op(ledger=ledger_path, inflight=True)
        assert result.exit_code == 0
        assert "cafecafe0001" in result.stdout
        assert "--recover" in result.stdout

    def test_no_policy_means_no_journal(self, tmp_path):
        with ReproService(port=0, ledger=str(tmp_path / "l.jsonl")) as service:
            _request(service, "POST", "/v1/evaluate", _evaluate_body())
            records = service.ledger.load()
            assert [r.outcome for r in records] == ["ok"]


class TestShutdownDrain:
    def test_streaming_request_survives_shutdown(self, tmp_path, hold_grid):
        """Shutdown with an in-flight *streaming* request — the stream
        still ends in a well-formed terminal line, a late request gets a
        stamped 503, and no batcher thread is orphaned."""
        with ReproService(
            port=0, ledger=str(tmp_path / "ledger.jsonl")
        ) as service:
            hold = hold_grid(service)
            connection = HTTPConnection(service.host, service.port, timeout=60)
            connection.request(
                "POST",
                "/v1/evaluate",
                body=json.dumps(_evaluate_body(stream=True)),
                headers={"Content-Type": "application/json"},
            )
            hold.wait_held()  # the stream's own grid is running, held

            shutdown = threading.Thread(target=service.shutdown)
            shutdown.start()
            assert service._closing.wait(30)  # the drain has begun
            hold.release()
            response = connection.getresponse()
            lines = [
                json.loads(line)
                for line in response.read().decode("utf-8").splitlines()
                if line
            ]
            connection.close()
            shutdown.join(timeout=60)
            assert not shutdown.is_alive()

            terminal = lines[-1]
            assert terminal["schema_version"] == SCHEMA_VERSION
            assert terminal["kind"] == "result"
            assert terminal["evaluation"]["t_list"] > 0
            assert not service.batcher.is_alive()
            records = service.ledger.load()
            assert [r.outcome for r in records] == ["ok"]

        # The listener is down; a late request cannot connect at all, or
        # is refused with a stamped 503 if a handler races the close.
        try:
            status, body, _ = _request(
                service, "POST", "/v1/evaluate", _evaluate_body("late")
            )
        except OSError:
            pass  # socket closed: also an honest refusal
        else:
            assert status == 503 and body["kind"] == "error"

    def test_late_request_during_drain_gets_stamped_503(self, tmp_path):
        with ReproService(port=0, ledger=str(tmp_path / "l.jsonl")) as service:
            service._closing.set()  # drain mode: refuse, don't drop
            status, body, _ = _request(
                service, "POST", "/v1/evaluate", _evaluate_body()
            )
            assert status == 503
            assert body["schema_version"] == SCHEMA_VERSION
            assert body["kind"] == "error"
            service._closing.clear()  # let __exit__ drain normally


class TestNoPolicyParity:
    def test_no_policy_parity(self, tmp_path):
        """With no ServicePolicy and no chaos plan, the served response
        is byte-identical (modulo the per-request id) to a policy-armed
        server's — resilience must cost nothing when unused."""
        body = _evaluate_body("parity")
        with ReproService(port=0, ledger=str(tmp_path / "a.jsonl")) as plain:
            status_a, body_a, _ = _request(plain, "POST", "/v1/evaluate", body)
            assert plain.breaker is None
            gauges = plain.telemetry.snapshot()["metrics"].get("gauges", {})
            assert "service.breaker.state" not in gauges
        armed_policy = ServicePolicy(max_inflight=64, deadline_s=30.0)
        with ReproService(
            port=0, ledger=str(tmp_path / "b.jsonl"), policy=armed_policy
        ) as armed:
            status_b, body_b, _ = _request(armed, "POST", "/v1/evaluate", body)
        assert status_a == status_b == 200
        strip = lambda d: {k: v for k, v in d.items() if k != "request_id"}
        assert json.dumps(strip(body_a), sort_keys=True) == json.dumps(
            strip(body_b), sort_keys=True
        )


class TestChaosLoadtest:
    def test_small_chaos_run_passes_the_honesty_bar(self, tmp_path):
        # A scaled-down `make chaos-smoke`: no every=1 kill cadence (too
        # short a run to also recover the breaker), but every client
        # fault kind plus isolated kills, absorbed by the degraded path.
        from repro.service.loadtest import loadtest_op

        out = str(tmp_path / "BENCH_perf.json")
        result = loadtest_op(
            requests=40,
            concurrency=4,
            n=40,
            out=out,
            chaos=[
                "kill:every=10",
                "malformed:prob=0.1",
                "oversize:prob=0.1",
                "disconnect:prob=0.1",
            ],
            chaos_seed=3,
        )
        assert result.exit_code == 0, result.stderr
        with open(out, encoding="utf-8") as handle:
            block = json.load(handle)["service"]["chaos"]
        assert block["requests"] == 40
        assert block["malformed_responses"] == 0
        assert block["ledger_unfinished"] == 0
        assert block["uncaught_errors"] == 0
        assert sum(block["injected"].values()) > 0

    def test_chaos_rejects_external_url(self):
        from repro.service.loadtest import loadtest_op

        result = loadtest_op(
            requests=1, url="http://127.0.0.1:1", chaos=["kill:every=2"]
        )
        assert result.exit_code == 2
        assert "--url" in result.stderr

    def test_bad_chaos_spec_is_a_usage_error(self, tmp_path):
        from repro.service.loadtest import loadtest_op

        result = loadtest_op(requests=1, chaos=["explode:prob=1"])
        assert result.exit_code == 2
        assert "explode" in result.stderr
