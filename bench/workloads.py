"""The benchmark's four workloads, their inputs and their reference checks.

Every workload runs in a child process of its own (``child.py``), so
process-wide memos and peak memory never carry over from one workload to
the next.  The child imports the library, builds its inputs, reports
*ready* (the end of set-up) and then, on *go*, repeats its unit of work
until the run's time is up, asking the parent (``run.py``) to calibrate
the core's speed between units.  ``serve_open`` is the exception: its
child is the HTTP service, and the load comes from the parent.

The benchmark only calls the library's public functions and HTTP
endpoints, and checks every output against ``expected/`` (see
``freeze.py``), so it measures the program from outside.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 0
N = 100  # trip count of every Table 2 cell and served request
MACHINES = ((2, 1), (2, 2), (4, 1), (4, 2))  # the paper's (issue, #FU) grid
CYCLES = (202579, 37330)  # Σ t_list, Σ t_new over the Table 2 grid
FUZZ_CASES = 25  # cases per run_fuzz batch
FUZZ_COUNTERS = ("cases", "skipped", "executor_checks", "deadlock_cases", "fast_path_agreements")
SERVE_RATE = 16.0  # requests per second, open loop
NOVEL_SHARE = 0.10  # share of served requests that are unseen loops
SERVE_CONNECTIONS = 2  # concurrent clients
# The open loop opens a connection per request.  Over keep-alive
# connections 26-40 % of hot responses stalled 40 ms at 16 rps (the
# service writes headers and body separately: Nagle's algorithm against
# the client's delayed ACK, which a fresh connection does not delay), so
# both percentiles sat on the edge of that mode and jumped between runs.
# After the open loop, a closed loop over 2 keep-alive connections
# measures capacity, stall included: CAPACITY_RATE requests per second of
# CAPACITY_SHARE of the run, about what the service completes in that
# time today.  The count is fixed, so a faster service finishes sooner on
# the same inputs.
CAPACITY_SHARE = 1 / 4
CAPACITY_RATE = 32.0
UNTRACED_SHARE = 1 / 3  # share of a traced run measured untraced, for the overhead

#: Workload name -> (unit of work, timed sample).  Why each workload is
#: in the benchmark: BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[str, str]] = {
    "table2_cold": ("cell", "pass"),
    "table2_warm": ("cell", "pass"),
    "fuzz": ("case", "batch"),
    "serve_open": ("request", "request"),
}


# -- frozen references ------------------------------------------------------------


def table2_cells() -> list[dict[str, Any]]:
    """The 144 frozen Table 2 cells: corpus, loop, issue, fu, t_list, t_new."""
    return json.loads((EXPECTED_DIR / "table2_cells.json").read_text())["cells"]


def fuzz_reference() -> list[dict[str, int]]:
    """Frozen :class:`FuzzReport` counters of the default seed, batch by batch."""
    return json.loads((EXPECTED_DIR / "fuzz_default_seed.json").read_text())["batches"]


def corpus_sums(cells: list[dict[str, Any]]) -> dict[tuple[str, int], tuple[int, int, int]]:
    """(corpus, machine index) -> (Σ t_list, Σ t_new, loops) over ``cells``."""
    sums: dict[tuple[str, int], tuple[int, int, int]] = {}
    for cell in cells:
        key = (cell["corpus"], MACHINES.index((cell["issue"], cell["fu"])))
        t_list, t_new, loops = sums.get(key, (0, 0, 0))
        sums[key] = (t_list + cell["t_list"], t_new + cell["t_new"], loops + 1)
    return sums


_CELL = re.compile(r"(\d+)/(\d+)")


def check_sweep(stdout: str, sums: dict[tuple[str, int], tuple[int, int, int]]) -> tuple[int, int, int]:
    """Grid cells a sweep's printed table gets wrong, and its Σ t_list, Σ t_new.

    A wrong ``t_list/t_new`` entry fails every loop of that corpus on that
    machine; a missing corpus row fails all of its cells.
    """
    printed: dict[str, list[tuple[int, int]]] = {}
    for line in stdout.splitlines()[1:]:
        fields = line.split(None, 1)
        if len(fields) == 2:
            printed[fields[0]] = [(int(a), int(b)) for a, b in _CELL.findall(fields[1])]
    wrong = total_list = total_new = 0
    for (corpus, machine), (t_list, t_new, loops) in sums.items():
        row = printed.get(corpus, [])
        got = row[machine] if machine < len(row) else None
        if got is None:
            wrong += loops
            continue
        total_list += got[0]
        total_new += got[1]
        if got != (t_list, t_new):
            wrong += loops
    return wrong, total_list, total_new


def committed_table2_totals(path: Path = ROOT / "benchmarks" / "results" / "table2_execution_times.txt") -> list[tuple[int, int]]:
    """The (Ta, Tb) totals per machine from the committed Table 2 result file."""
    for line in path.read_text().splitlines():
        if line.startswith("Total"):
            numbers = [int(token) for token in line.split()[1:]]
            return list(zip(numbers[0::2], numbers[1::2]))
    raise ValueError(f"no Total row in {path}")


def batch_seed(seed: int, batch: int) -> int:
    """The ``run_fuzz`` seed of one batch: a hash of the run seed and batch index."""
    digest = hashlib.sha256(f"fuzz:{seed}:{batch}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def fuzz_counters(report: Any) -> dict[str, int]:
    return {name: getattr(report, name) for name in FUZZ_COUNTERS}


# -- the in-process workloads (child side) ----------------------------------------


@dataclass
class Sample:
    """One timed unit of work: a sweep pass or a fuzz batch."""

    latency_s: float
    units: int
    failed: int
    error: str | None = None


def _timed(tracer: Any, index: int, call: Any) -> tuple[Any, float]:
    """Run one unit of work (inside a tracer unit when tracing); return its
    result and seconds."""
    with tracer.unit(index) if tracer is not None else nullcontext():
        start = time.perf_counter()
        result = call()
        latency = time.perf_counter() - start
    return result, latency


def _error(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


class _Table2:
    def __init__(self, seed: int) -> None:
        self.seed = seed  # the grid is fixed: the seed changes nothing here

    def setup(self) -> None:
        from repro.service import ops

        self.ops = ops
        self.sums = corpus_sums(table2_cells())
        self.cells = sum(loops for _, _, loops in self.sums.values())

    def failed_cells(self, stdout: str) -> int:
        wrong, total_list, total_new = check_sweep(stdout, self.sums)
        return wrong if (total_list, total_new) == CYCLES else self.cells


class Table2Cold(_Table2):
    """``sweep_op()`` over the paper grid, each pass in a freshly forked child."""

    def step(self, index: int, tracer: Any) -> Sample:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the pass: never returns into the parent's loop
            try:
                os.close(read_fd)
                payload = self._pass(index, tracer)
                with os.fdopen(write_fd, "w") as out:
                    json.dump(payload, out)
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as source:  # drain before waiting: the pipe is bounded
            raw = source.read()
        os.waitpid(pid, 0)
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"failed": self.cells, "error": "pass process died without a result"}
        if payload.get("trace"):
            tracer.absorb(payload["trace"])
        return Sample(
            payload.get("latency_s", 0.0), self.cells, payload["failed"], payload.get("error"),
        )

    def _pass(self, index: int, tracer: Any) -> dict[str, Any]:
        from repro.perf.batch import shared_batch_evaluator

        engine = shared_batch_evaluator()
        cache = engine.cache.stats
        if engine.stats.cells or cache.compile_misses or cache.schedule_misses:
            return {"failed": self.cells, "error": "process-wide memo not cold"}
        if tracer is not None:
            tracer.clear()  # the forked copy holds the spans of earlier passes
        try:
            result, latency = _timed(tracer, index, self.ops.sweep_op)
        except Exception as err:
            return {"failed": self.cells, "error": _error(err)}
        return {
            "latency_s": latency,
            "failed": self.failed_cells(result.stdout),
            "trace": tracer.export() if tracer is not None else None,
        }


class Table2Warm(_Table2):
    """``sweep_op(batch=True)`` repeated in one process after a priming pass."""

    def setup(self) -> None:
        super().setup()
        self.ops.sweep_op(batch=True)  # priming; the timed passes check what it memoized

    def step(self, index: int, tracer: Any) -> Sample:
        try:
            result, latency = _timed(tracer, index, lambda: self.ops.sweep_op(batch=True))
        except Exception as err:
            return Sample(0.0, self.cells, self.cells, _error(err))
        return Sample(latency, self.cells, self.failed_cells(result.stdout))


class Fuzz:
    """``run_fuzz`` batches with seeds hashed from the run seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.robust import fuzz

        self.fuzz = fuzz  # called through the module, so a tracer sees run_fuzz
        self.reference = fuzz_reference() if self.seed == DEFAULT_SEED else []

    def step(self, index: int, tracer: Any) -> Sample:
        batch = batch_seed(self.seed, index)
        try:
            report, latency = _timed(
                tracer, index, lambda: self.fuzz.run_fuzz(cases=FUZZ_CASES, seed=batch)
            )
        except Exception as err:
            return Sample(0.0, FUZZ_CASES, FUZZ_CASES, _error(err))
        if index < len(self.reference) and fuzz_counters(report) != self.reference[index]:
            return Sample(latency, report.cases, report.cases, f"batch {index}: counters differ")
        error = report.failures[0].describe() if report.failures else None
        return Sample(latency, report.cases, len(report.failures), error)


IN_PROCESS = {"table2_cold": Table2Cold, "table2_warm": Table2Warm, "fuzz": Fuzz}


# -- serve_open: the server child -------------------------------------------------


def post_json(port: int, path: str, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
    connection = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", path, body=json.dumps(body), headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def get_json(port: int, path: str) -> dict[str, Any]:
    connection = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


class ServeServer:
    """The in-process ``ReproService`` with a scratch ledger, hot set warmed."""

    def setup(self) -> None:
        from repro.ir import format_loop
        from repro.service.server import ReproService
        from repro.workloads import perfect_suite

        OUT_DIR.mkdir(exist_ok=True)
        self.ledger = OUT_DIR / f"serve_open.{os.getpid()}.ledger.jsonl"
        self.service = ReproService(port=0, ledger=str(self.ledger)).start()
        self.port = self.service.port
        # Warm the hot set: one sweep fills the engine's memo for every
        # Perfect loop on every paper machine, one evaluate warms that path.
        status, _ = post_json(self.port, "/v1/sweep", {"n": N})
        loop = perfect_suite()["FLQ52"][0]
        status_eval, _ = post_json(
            self.port, "/v1/evaluate",
            {"source": format_loop(loop), "machine": {"issue": 4, "fu": 1}, "n": N},
        )
        if (status, status_eval) != (200, 200):
            raise RuntimeError(f"hot-set warm-up failed: HTTP {status}/{status_eval}")

    def shutdown(self) -> None:
        self.service.shutdown()
        self.ledger.unlink(missing_ok=True)


# -- serve_open: the client side --------------------------------------------------


@dataclass(frozen=True)
class Request:
    due_s: float  # when it should be sent, from the start of its phase
    body: bytes
    expected: tuple[int, int]  # (t_list, t_new)
    novel: bool


def novel_source(rng: random.Random, statements: int) -> str:
    """A loop of ``statements`` statements with 1-3 planted carried dependences.

    Written by the benchmark itself, not by the library's generator, so
    the served inputs stay fixed however the library changes.
    """
    deps = [
        (rng.randrange(statements), rng.randrange(statements), rng.randint(1, 3))
        for _ in range(rng.randint(1, 3))
    ]
    noise = 0
    lines = [f"DO I = 1, {N}"]
    for s in range(statements):
        operands = [f"A{src + 1}(I-{d})" for src, sink, d in deps if sink == s]
        for _ in range(rng.randint(1, 3)):
            noise += 1
            offset = rng.randint(-3, 3)
            operands.append(f"R{noise}(I{offset:+d})" if offset else f"R{noise}(I)")
        rng.shuffle(operands)
        expr = operands[0]
        for operand in operands[1:]:
            expr += f" {rng.choice('+-*')} {operand}"
        lines.append(f"  S{s + 1}: A{s + 1}(I) = {expr}")
    lines.append("ENDDO")
    return "\n".join(lines) + "\n"


def _body(source: str, issue: int, fu: int) -> bytes:
    return json.dumps({"source": source, "machine": {"issue": issue, "fu": fu}, "n": N}).encode()


def build_requests(seed: str, count: int, duration_s: float) -> list[Request]:
    """``count`` requests due at seeded Poisson times within ``duration_s``.

    The arrival times are a Poisson process conditioned on ``count``
    arrivals (sorted uniform draws), so every seed offers the same rate.
    Exactly ``round(NOVEL_SHARE * count)`` requests carry an unseen loop,
    whose reference is a one-shot ``evaluate_op`` computed here, outside
    any timing; the rest draw from the hot set with the frozen Table 2
    cells as reference.  Unseen loops cycle through 3..10 statements, so
    every seed sends the same mix of loop sizes.
    """
    from repro.ir import format_loop
    from repro.service.ops import evaluate_op
    from repro.workloads import perfect_suite

    rng = random.Random(f"serve:{seed}")
    suite = perfect_suite()
    hot = [
        (_body(format_loop(suite[c["corpus"]][c["loop"]]), c["issue"], c["fu"]), (c["t_list"], c["t_new"]))
        for c in table2_cells()
    ]
    dues = sorted(rng.uniform(0.0, duration_s) for _ in range(count))
    novel_at = set(rng.sample(range(count), round(NOVEL_SHARE * count)))
    requests = []
    for index, due in enumerate(dues):
        if index not in novel_at:
            body, expected = rng.choice(hot)
            requests.append(Request(due, body, expected, False))
            continue
        statements = 3 + sum(r.novel for r in requests) % 8
        while True:  # only loops the one-shot path accepts are sent
            source = novel_source(rng, statements)
            issue, fu = rng.choice(MACHINES)
            try:
                record = evaluate_op(source, issue, fu, N).data
            except ValueError:
                continue
            break
        requests.append(Request(due, _body(source, issue, fu), (record["t_list"], record["t_new"]), True))
    return requests


@dataclass(frozen=True)
class Outcome:
    """One served request, times from the client's ``perf_counter``."""

    due: float
    sent: float
    done: float
    ok: bool
    coalesced: int
    error: str | None


def drive(
    port: int, requests: list[Request], give_up_s: float, keep_alive: bool
) -> tuple[list[Outcome], float]:
    """Send ``requests`` at their due times from ``SERVE_CONNECTIONS`` clients,
    each over one keep-alive connection or a new connection per request.

    An open loop: each request is timed from when it was due, so a stall
    also counts against the requests queued behind it.  When every request
    is due at 0 it is a closed loop instead: each client sends its next
    request as soon as the last one is answered.  Requests still unsent
    ``give_up_s`` after the start fail without being sent.
    Returns the outcomes and the start time the due times count from.
    """
    outcomes: list[Outcome | None] = [None] * len(requests)
    order = iter(range(len(requests)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05  # let every connection thread start

    def take() -> int | None:
        with lock:
            return next(order, None)

    def connection_loop() -> None:
        connection = HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while (index := take()) is not None:
                request = requests[index]
                due = start + request.due_s
                if time.perf_counter() - start > give_up_s:
                    outcomes[index] = Outcome(due, due, due, False, 0, "not sent: run over time")
                    continue
                time.sleep(max(0.0, due - time.perf_counter()))
                sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/v1/evaluate", body=request.body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    status, data = response.status, json.loads(response.read())
                except (OSError, HTTPException, ValueError) as err:
                    connection.close()
                    connection = HTTPConnection("127.0.0.1", port, timeout=30)
                    outcomes[index] = Outcome(due, sent, time.perf_counter(), False, 0, _error(err))
                    continue
                done = time.perf_counter()
                if not keep_alive:
                    connection.close()  # the next request opens a new one
                evaluation = data.get("evaluation") or {}
                got = (evaluation.get("t_list"), evaluation.get("t_new"))
                ok = status == 200 and not data.get("failures") and got == request.expected
                error = None if ok else f"HTTP {status}: got {got}, expected {request.expected}"
                outcomes[index] = Outcome(due, sent, done, ok, data.get("coalesced", 0), error)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=connection_loop, daemon=True)
        for _ in range(SERVE_CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(give_up_s + 120)
    missing = Outcome(start, start, start, False, 0, "no answer")
    return [outcome or missing for outcome in outcomes], start
