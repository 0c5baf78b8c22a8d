"""Service-test fixtures: hold the batcher busy on purpose.

The batcher groups whatever is queued when it becomes free and never
waits for company, so a test that needs submissions to queue (a
deadline that lapses in the queue, a group of N, a drain with work in
flight) parks the batcher inside a grid until it says so.
"""

import threading
import time

import pytest


class GridHold:
    """Parks a service's batcher inside its next grid until released."""

    def __init__(self, service, monkeypatch) -> None:
        self.service = service
        self.held = threading.Event()
        self._release = threading.Event()
        evaluate = service.engine.evaluate_corpora

        def hold_first(*args, **kwargs):
            if not self.held.is_set():
                self.held.set()
                self._release.wait(30)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(service.engine, "evaluate_corpora", hold_first)

    def wait_held(self) -> None:
        assert self.held.wait(30), "no grid started"

    def wait_queued(self, count: int) -> None:
        deadline = time.monotonic() + 30
        while self.service.batcher.queue.qsize() < count:
            assert time.monotonic() < deadline, f"{count} submission(s) never queued"
            time.sleep(0.005)

    def release(self) -> None:
        self._release.set()


@pytest.fixture
def hold_grid(monkeypatch):
    """``hold_grid(service)`` arms a :class:`GridHold`; teardown releases
    it, so a failing test never leaves the batcher parked."""
    holds = []

    def arm(service) -> GridHold:
        hold = GridHold(service, monkeypatch)
        holds.append(hold)
        return hold

    yield arm
    for hold in holds:
        hold.release()
