"""Shared fixtures of the service suites."""

import asyncio
import threading
import time

import pytest


class FirstBatchHold:
    """Hold the batch thread with a first batch until :meth:`release`.

    The batcher runs a submission as soon as its batch thread is free, so
    a test builds a backlog by wrapping the executor with :meth:`wrap`:
    the first batch blocks its thread, and what is submitted meanwhile
    piles up behind it.  ``threads`` and ``sizes`` record every batch.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.released = threading.Event()
        self.threads = []
        self.sizes = []

    def wrap(self, execute):
        def held(requests):
            self.threads.append(threading.current_thread())
            self.sizes.append(len(requests))
            if not self.entered.is_set():
                self.entered.set()
                self.released.wait(timeout=10.0)
            return execute(requests)

        return held

    async def holding(self):
        """Return once the first batch holds the batch thread."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.entered.wait, 10.0
        )

    def release(self):
        self.released.set()

    async def release_when_submitted(self, batcher, count):
        """Release once ``count`` queries have reached ``batcher``."""
        deadline = time.monotonic() + 10.0
        while batcher.stats.requests < count and time.monotonic() < deadline:
            await asyncio.sleep(0.001)
        self.release()


@pytest.fixture
def hold():
    holder = FirstBatchHold()
    yield holder
    holder.release()  # never leave a batch thread blocked behind a failed test
