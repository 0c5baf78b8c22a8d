"""One workload's child process: set up, report ready, run on command.

Started by ``run.py`` as ``python bench/child.py WORKLOAD SEED SECONDS TRACE``.
It writes one JSON object per line to stdout: ``{"event": "ready"}`` once
set-up is done, then ``{"event": "result", ...}``.  Commands arrive one
per line on stdin: ``go MIN_UNITS`` runs an in-process workload (for at
least MIN_UNITS units when untraced), ``trace`` installs the tracer in
the ``serve_open`` server, and ``stop`` (or end of input) ends the
child.  Before the first unit of work and after every unit the
child sends ``{"event": "calibrate"}`` and waits for the parent's ``ok``;
the parent times its calibration loop meanwhile.  Anything the library
prints goes to stderr.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import bench as a package: bench/trace.py must not shadow the stdlib
sys.path.insert(1, str(ROOT / "src"))

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

from bench.trace import Tracer  # noqa: E402
from bench.workloads import IN_PROCESS, OUT_DIR, UNTRACED_SHARE, ServeServer  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident set of this process and every child it waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run_for(runner, seconds: float, tracer: Tracer | None, first: int, calibrate, min_units: int = 1) -> list:
    """Repeat the workload's unit of work until ``seconds`` have passed and
    at least ``min_units`` units are done, with a calibration after every unit."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_units or time.perf_counter() - start < seconds:
        samples.append(runner.step(first + len(samples), tracer))
        calibrate()
    return samples


def in_process(workload: str, seed: int, seconds: float, trace: bool, send) -> None:
    runner = IN_PROCESS[workload](seed)
    runner.setup()
    send("ready")
    command, _, min_units = sys.stdin.readline().partition(" ")
    if command != "go":
        return

    def calibrate() -> None:
        send("calibrate")
        if sys.stdin.readline().strip() != "ok":
            raise SystemExit("calibration not acknowledged")

    calibrate()
    if not trace:
        samples = run_for(runner, seconds, None, 0, calibrate, int(min_units))
        traced = None
    else:
        base = run_for(runner, seconds * UNTRACED_SHARE, None, 0, calibrate)
        with Tracer() as tracer:
            samples = run_for(runner, seconds * (1 - UNTRACED_SHARE), tracer, len(base), calibrate)
        tracer.write(OUT_DIR / f"{workload}.spans.jsonl")
        traced = {
            "totals": tracer.totals(),
            "units": sum(s.units for s in samples),
            "first_sample": len(base),
        }
        samples = base + samples
    send(
        "result",
        latencies=[s.latency_s for s in samples],
        units=sum(s.units for s in samples),
        failed=sum(s.failed for s in samples),
        errors=[s.error for s in samples if s.error][:5],
        rss_kb=peak_rss_kb(),
        trace=traced,
    )


def serve(send) -> None:
    server = ServeServer()
    server.setup()
    send("ready", port=server.port)
    tracer = None
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command == "trace" and tracer is None:
            tracer = Tracer().install()
            send("traced")
    server.shutdown()
    totals = None
    if tracer is not None:
        tracer.restore()
        tracer.write(OUT_DIR / "serve_open.spans.jsonl")
        totals = tracer.totals()
    send("result", rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, totals=totals)


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # stray prints from the library must not corrupt the protocol

    def send(event: str, **data) -> None:
        channel.write(json.dumps({"event": event, **data}) + "\n")

    if workload == "serve_open":
        serve(send)
    else:
        in_process(workload, seed, seconds, trace, send)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
