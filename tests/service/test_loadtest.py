"""The load-test harness: acceptance metrics and the BENCH_perf merge.

A scaled-down ``repro loadtest`` run (the full 1000-request bar is
``make bench-service``): boots its own server, fires concurrent
submissions, and must report zero errors, zero quarantines, cross-request
cache hits, a complete ledger, and merge its ``service`` block into
``BENCH_perf.json`` without clobbering other keys.
"""

import json

from repro.schema import SCHEMA_VERSION
from repro.service.loadtest import LOOP_SOURCES, MACHINE_CASES, loadtest_op, merge_bench_file


class TestLoadtestOp:
    def test_small_run_meets_the_acceptance_bar(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        result = loadtest_op(requests=24, concurrency=4, n=50, out=str(out))
        assert result.exit_code == 0, result.stderr
        block = result.data
        assert block["requests"] == 24
        assert block["errors"] == 0
        assert block["quarantines"] == 0
        assert block["ledger_count"] == 24
        # the long-lived process must reuse compiled loops across requests
        assert block["cache_hits"] + block["eval_memo_hits"] > 0
        assert block["latency_p99_ms"] >= block["latency_p50_ms"] > 0
        assert block["throughput_rps"] > 0
        assert "24 submissions x 4 clients" in result.stdout

    def test_merge_preserves_foreign_bench_keys(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        out.write_text(json.dumps({"batch_layer": {"warm_speedup": 120.0}}))
        result = loadtest_op(requests=8, concurrency=2, n=50, out=str(out))
        assert result.exit_code == 0, result.stderr
        merged = json.loads(out.read_text())
        assert merged["schema_version"] == SCHEMA_VERSION
        assert merged["batch_layer"] == {"warm_speedup": 120.0}
        assert merged["service"]["requests"] == 8

    def test_perf_block_merge_keeps_service_block(self, tmp_path):
        # `make bench-perf` used to rewrite the whole file, erasing what
        # `repro loadtest` had merged in.
        out = tmp_path / "BENCH_perf.json"
        service = {"throughput_rps": 240.0, "chaos": {"requests": 500}}
        out.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "service": service}))
        merge_bench_file(str(out), "perf", {"timings_s": {"batch_cold": 0.2}})
        merged = json.loads(out.read_text())
        assert merged == {
            "schema_version": SCHEMA_VERSION,
            "service": service,
            "perf": {"timings_s": {"batch_cold": 0.2}},
        }

    def test_corpus_is_varied_but_cacheable(self):
        # enough distinct loops to exercise the grid, few enough that the
        # shared cache pays off within a small run
        assert len(LOOP_SOURCES) == 8
        assert MACHINE_CASES == ((2, 1), (2, 2), (4, 1), (4, 2))
        assert len(set(LOOP_SOURCES)) == len(LOOP_SOURCES)
