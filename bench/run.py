"""Run the repository benchmark and print every metric by name with its unit.

    python bench/run.py                                  # all four workloads
    python bench/run.py --workload fuzz --seed 7 --trace 1
    python bench/run.py --repeat 5 --out runs.jsonl      # seeds S..S+4 per workload
    python bench/run.py --compare a.jsonl b.jsonl        # medians, quartiles, bounds

Each workload runs in a child process of its own (``child.py``), for
``run_seconds`` from ``BENCHMARK.json``.  A plain run reports the
end-to-end metrics; ``--trace`` reports the per-layer metrics instead.
Every output is checked against ``expected/``; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` for the last workload run.  Exit status: 0 when every output
was correct, 1 when one was not, 2 when the benchmark itself could not
run.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import bench as a package: bench/trace.py must not shadow the stdlib
sys.path.insert(1, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from typing import Any  # noqa: E402

from bench.trace import layer_metrics  # noqa: E402
from bench.workloads import (  # noqa: E402
    BENCH_DIR,
    CAPACITY_RATE,
    CAPACITY_SHARE,
    DEFAULT_SEED,
    SERVE_CONNECTIONS,
    SERVE_RATE,
    SRC,
    UNTRACED_SHARE,
    WORKLOADS,
    build_requests,
    drive,
    get_json,
)

SETUP_RUNS = 7  # set-ups per run; setup_s is their median
MIN_UNITS = 51  # timed units per run at least, so the 80th percentile has 10 beyond it
READY_TIMEOUT_S = 120.0
RESULT_GRACE_S = 120.0

Metrics = dict[str, tuple[float, str, str]]  # name -> (value, unit, base)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


# -- speed calibration --------------------------------------------------------------
#
# On a shared host the same interpreter work takes up to about twice as
# long when another tenant is busy, core by core, and that state changes
# every few hundred milliseconds.  Every workload child therefore runs pinned to one
# core, and between its units of work this process runs a fixed
# calibration loop on the same core while the child is stopped.  A unit's
# time is reported rescaled to the speed at which that loop takes
# CALIBRATION_REFERENCE_S, from the calibrations just before and after it.
# The loop runs here, in an interpreter that never runs the library, so
# whatever slows the child's interpreter (a thread holding the GIL, a
# changed gc threshold or switch interval) slows the unit but not the
# calibration, and shows in the metrics.


def _calibration_work(n: int = 24) -> int:
    """Fixed interpreter work: Python function calls.  Of the loops tried
    (this, dict and small-object churn, allocation over a few MB), this
    one's slowdown on a busy host followed the workloads' most closely."""
    return n if n < 2 else _calibration_work(n - 1) + _calibration_work(n - 2)


CALIBRATION_REFERENCE_S = 0.0064  # the loop's time on an uncontended core
BENCH_CORE = max(os.sched_getaffinity(0))  # the core workload children run on


@contextmanager
def on_bench_core():
    """Run the block pinned to :data:`BENCH_CORE`; processes started inside inherit it."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {BENCH_CORE})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def calibrate() -> float:
    """Seconds the calibration loop takes on the benchmark's core right now."""
    with on_bench_core():
        start = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the calibration loop took ``calibration_s``,
    rescaled to the speed where it takes :data:`CALIBRATION_REFERENCE_S`."""
    return seconds * CALIBRATION_REFERENCE_S / calibration_s


# -- the workload child ---------------------------------------------------------------


class Child:
    """One workload child process and its line protocol (see child.py)."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # The service asks git for its commit; keep git from searching
        # directories above the checkout.
        env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
        self.calibrations = [calibrate()]
        with on_bench_core():
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed), repr(seconds), str(int(trace))],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                cwd=ROOT,
                env=env,
            )
        self._buffer = b""

    def expect(self, event: str, timeout_s: float) -> dict[str, Any]:
        """The child's next message, which must be ``event``; calibration
        requests on the way are served."""
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" not in self._buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise HarnessError(f"child gave no {event!r} within {timeout_s:.0f} s")
                ready, _, _ = select.select([fd], [], [], remaining)
                if ready:
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        raise HarnessError(f"child exited with {self.proc.wait()} before {event!r}")
                    self._buffer += chunk
            line, self._buffer = self._buffer.split(b"\n", 1)
            message = json.loads(line)
            if message.get("event") != "calibrate":
                break
            self.calibrate()
            self.send("ok")
        if message.get("event") != event:
            raise HarnessError(f"child sent {message.get('event')!r}, expected {event!r}")
        return message

    def calibrate(self) -> float:
        """Calibrate with the child stopped, so none of its threads compete."""
        os.kill(self.proc.pid, signal.SIGSTOP)
        _, status = os.waitpid(self.proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            raise HarnessError("child ended during calibration")
        try:
            seconds = calibrate()
        finally:
            os.kill(self.proc.pid, signal.SIGCONT)
        self.calibrations.append(seconds)
        return seconds

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Ask the child to stop, and make sure it has ended."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_metrics(latencies: list[float], sample: str) -> Metrics:
    """The median and the 80th percentile: with MIN_UNITS samples the 80th
    has ten beyond it, and on a shared host it repeated between runs
    better than the 90th (see README.md)."""
    n = len(latencies)
    beyond = n - 1 - int((n - 1) * 0.8)
    return {
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms", f"per {sample}, n={n}"),
        "latency_p80_ms": (
            percentile(latencies, 80) * 1e3, "ms", f"per {sample}, n={n}, {beyond} beyond",
        ),
    }


def overhead_pct(base: list[float], traced: list[float]) -> float:
    return 100 * (statistics.median(traced) / statistics.median(base) - 1)


# -- one workload run ---------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict[str, Any]:
    """One run: ``SETUP_RUNS`` children set up, the last one measures.  A
    quick run sets up once and does not wait for ``MIN_UNITS``."""
    setup_runs, min_units = (1, 1) if quick else (SETUP_RUNS, MIN_UNITS)
    serve = workload == "serve_open"
    if serve:  # inputs and their references are built before any timing
        open_s = seconds * (UNTRACED_SHARE if trace else 1 - CAPACITY_SHARE)
        phases = [(str(seed), round(SERVE_RATE * open_s), open_s)]
        if trace:
            traced_s = seconds - open_s
            phases.append((f"{seed}:traced", round(SERVE_RATE * traced_s), traced_s))
        else:  # all due at once: a closed loop
            phases.append((f"{seed}:capacity", round(CAPACITY_RATE * CAPACITY_SHARE * seconds), 0.0))
        inputs = [build_requests(tag, max(1, count), length) for tag, count, length in phases]
    setups: list[float] = []
    for attempt in range(setup_runs):
        child = Child(workload, seed, seconds, trace)
        try:
            ready = child.expect("ready", READY_TIMEOUT_S)
            elapsed = time.perf_counter() - child.started
            setups.append(at_reference_speed(elapsed, statistics.mean((child.calibrations[0], child.calibrate()))))
            if attempt < setup_runs - 1:
                continue
            if serve:
                measured = _serve(child, ready["port"], inputs, trace)
            else:
                child.calibrations.clear()
                child.send(f"go {min_units}")
                measured = _in_process(
                    child.expect("result", seconds + RESULT_GRACE_S), child.calibrations, workload,
                )
        finally:
            child.close()
    metrics, attempted, failed, errors = measured
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
            **metrics,
        }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors}


def _in_process(result: dict[str, Any], calibrations: list[float], workload: str):
    unit, sample = WORKLOADS[workload]
    if len(calibrations) != len(result["latencies"]) + 1:
        raise HarnessError(f"{len(calibrations)} calibrations for {len(result['latencies'])} units")
    around = [(before + after) / 2 for before, after in zip(calibrations, calibrations[1:])]
    latencies = [at_reference_speed(*pair) for pair in zip(result["latencies"], around)]
    if result["trace"] is None:
        work_s = sum(latencies)
        metrics = {
            "throughput_per_s": (
                result["units"] / work_s, "1/s", f"{result['units']} {unit}s in {work_s:.2f} s",
            ),
            **latency_metrics(latencies, sample),
            "peak_rss_mb": (result["rss_kb"] / 1024, "MB", "workload child"),
        }
    else:
        traced = result["trace"]
        first = traced["first_sample"]
        totals = traced["totals"]
        speed = at_reference_speed(1.0, statistics.median(around[first:]))
        metrics = layer_metrics(totals, traced["units"], totals["unit_wall_s"], speed)
        metrics.update(_no_service())
        metrics["trace_overhead_pct"] = (
            overhead_pct(latencies[:first], latencies[first:]), "%",
            "median traced / untraced unit time",
        )
    return metrics, result["units"], result["failed"], result["errors"]


def _no_service() -> Metrics:
    return {
        name: (0.0, unit, "no service in this workload")
        for name, unit in (
            ("service.overhead_ms", "ms"),
            ("service.server_p50_ms", "ms"),
            ("service.coalesced_mean", "count"),
            ("loadgen.late_p90_ms", "ms"),
        )
    }


def _serve(child: Child, port: int, inputs: list, trace: bool):
    """Drive the open-loop phase, then either the closed-loop capacity
    phase (untraced) or a second, traced open-loop phase."""
    runs = []
    for index, requests in enumerate(inputs):
        if index == 1 and trace:
            child.send("trace")
            child.expect("traced", 30)
        closed_loop = index == 1 and not trace
        length = max(r.due_s for r in requests)
        runs.append(drive(port, requests, length + 60, keep_alive=closed_loop))
    snapshot = get_json(port, "/v1/metrics") if trace else None
    child.send("stop")
    result = child.expect("result", RESULT_GRACE_S)
    outcomes = [outcome for run, _ in runs for outcome in run]
    failed = sum(not outcome.ok for outcome in outcomes)
    errors = [outcome.error for outcome in outcomes if outcome.error][:5]
    first = runs[0][0]
    last, start = runs[-1]
    window = max(o.done for o in last) - start
    if not trace:
        ok = sum(o.ok for o in last)
        metrics = {
            "throughput_per_s": (
                ok / window, "1/s",
                f"{ok} requests in {window:.2f} s, closed loop over {SERVE_CONNECTIONS} connections",
            ),
            **latency_metrics([o.done - o.due for o in first], f"request at {SERVE_RATE:g} rps"),
            "peak_rss_mb": (result["rss_kb"] / 1024, "MB", "server child"),
        }
        return metrics, len(outcomes), failed, errors
    latencies = [o.done - o.due for o in last]
    totals = result["totals"]
    units = len(last)
    metrics = layer_metrics(totals, units, window)
    batch_s = totals["inclusive_s"].get("perf.batch", 0.0)
    metrics["service.overhead_ms"] = (
        (statistics.mean(latencies) - batch_s / units) * 1e3, "ms",
        "mean client latency minus batcher evaluation per request",
    )
    server = snapshot["latency"]
    metrics["service.server_p50_ms"] = (
        server["p50"] * 1e3, "ms", f"server-recorded over {server['count']} requests",
    )
    metrics["service.coalesced_mean"] = (
        statistics.mean(o.coalesced for o in last), "count", f"over {units} responses",
    )
    metrics["loadgen.late_p90_ms"] = (
        percentile([o.sent - o.due for o in last], 90) * 1e3, "ms", f"over {units} requests",
    )
    metrics["trace_overhead_pct"] = (
        overhead_pct([o.done - o.due for o in first], latencies), "%",
        "median traced / untraced request latency",
    )
    return metrics, len(outcomes), failed, errors


# -- reporting ------------------------------------------------------------------------


def report(workload: str, seed: int, seconds: float, trace: bool, run: dict[str, Any]) -> dict[str, Any]:
    """Print one run's metrics, then its contract JSON line; return the line's object."""
    print(f"{workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    for name, (value, unit, base) in run["metrics"].items():
        print(f"  {name:32s} {value:14.4f} {unit:6s} {base}")
    print(f"  attempted {run['attempted']}, failed {run['failed']}")
    for error in run["errors"]:
        print(f"  error: {error}")
    line = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in run["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return line


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: each side's median and quartiles, the change
    of B against A, and the verdict against the metric's bound.  Runs of
    different lengths are not compared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    def load(path: str):
        runs: dict[tuple[str, int], dict[str, list[float]]] = {}
        lengths: dict[tuple[str, int], set[float]] = {}
        for text in Path(path).read_text().splitlines():
            record = json.loads(text)
            key = (record["workload"], record["trace"])
            lengths.setdefault(key, set()).add(record["seconds"])
            group = runs.setdefault(key, {})
            for name, metric in record["metrics"].items():
                group.setdefault(name, []).append(metric["value"])
        return runs, lengths

    (a, lengths_a), (b, lengths_b) = load(path_a), load(path_b)
    keys = sorted(set(a) & set(b))
    for key in keys:
        if len(lengths_a[key] | lengths_b[key]) > 1:
            print(
                f"bench: {key[0]} runs last {sorted(lengths_a[key])} s in A and "
                f"{sorted(lengths_b[key])} s in B; compare runs of one length",
                file=sys.stderr,
            )
            return 2
    print(f"{'workload':12s} {'metric':30s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    worse = 0
    for key in keys:
        for name in a[key]:
            if name not in b[key]:
                continue
            qa, qb = quartiles(a[key][name]), quartiles(b[key][name])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            bound, better = bounds.get(name, (None, "lower"))
            verdict, bound_text = "-", "-"
            if bound is not None:
                bound_text = f"{bound:.0%}"
                loss = change if better == "lower" else -change
                spread = max(
                    (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
                    (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0,
                )
                if loss > bound:
                    verdict, worse = "WORSE", worse + 1
                elif spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print(
                f"{key[0]:12s} {name:30s} "
                f"{qa[1]:12.4f} [{qa[0]:.4f}, {qa[2]:.4f}] {qb[1]:12.4f} [{qb[0]:.4f}, {qb[2]:.4f}] "
                f"{change:+8.1%} {bound_text:>6s}  {verdict}"
            )
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS), help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        help="accepted only when equal to run_seconds in BENCHMARK.json, which sets every run's length",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds S, S+1, ...")
    parser.add_argument("--out", help="append one JSON line per run to this file")
    parser.add_argument("--quick", action="store_true", help="smoke test: 1 s runs, one set-up")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    run_seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seconds is not None and args.seconds != run_seconds:
        parser.error(f"--seconds {args.seconds:g}: runs last run_seconds = {run_seconds:g} from BENCHMARK.json")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}", file=sys.stderr)
        return 2
    seconds = 1.0 if args.quick else run_seconds
    trace = bool(args.trace)
    all_correct = True
    for workload in args.workload or list(WORKLOADS):
        for seed in range(args.seed, args.seed + args.repeat):
            try:
                run = run_workload(workload, seed, seconds, trace, args.quick)
            except HarnessError as err:
                print(f"bench: {workload}: {err}", file=sys.stderr)
                return 2
            line = report(workload, seed, seconds, trace, run)
            all_correct &= line["correct"]
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), **line}
                    handle.write(json.dumps(record) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
