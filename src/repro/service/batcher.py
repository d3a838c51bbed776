"""Asyncio request coalescer: concurrent queries → one fused batch call.

Cache-missing queries are gathered into execution batches by group
commit.  When no batch is running, a submission runs on the next
event-loop tick, together with whatever else arrived in that tick;
queries that arrive while a batch runs pile up and run together as the
next batch.  Under load the batch size therefore grows with the
service's own latency, and a lone query never waits for a timer.  The
executor — :meth:`ServiceState.execute_batch` — answers the whole batch
with shared warm collections, one fused ``batch_coverage`` pass for
coverage queries and one bulk coin-flip pass for Monte-Carlo queries,
then the batcher fans each answer back to its request's future.

Coalescing is safe because batch answers are bit-for-bit the sequential
answers (the determinism contract of :mod:`repro.service.state`).

Every batch of one batcher runs on the same thread, which the batcher
owns.  A pool of threads would start a fresh one whenever batches run
back to back, and each of them would keep the large Monte-Carlo buffers
of ``mc_spread`` in its own malloc arena.

Shutdown (:meth:`RequestBatcher.aclose`) is graceful and idempotent: the
in-flight batch and the still-pending tail are run to completion (never
abandoned, so no future is left unresolved), the batch thread is
stopped, and late :meth:`submit` calls fail fast with a clear error.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.utils.exceptions import ValidationError


@dataclass
class BatchStats:
    """Observable coalescing counters (the ``/metrics`` evidence)."""

    requests: int = 0
    batches: int = 0
    coalesced_batches: int = 0  #: batches that bundled more than one request
    max_batch_size: int = 0
    drained_requests: int = 0  #: requests still pending when shutdown began
    failed_batches: int = 0
    batch_size_sum: int = 0
    last_batch_ms: float = 0.0  #: wall-clock of the most recent batch

    @property
    def mean_batch_size(self) -> float:
        """Average requests per executed batch (0.0 before any batch)."""
        return self.batch_size_sum / self.batches if self.batches else 0.0

    def record(self, size: int) -> None:
        """Account one executed batch of ``size`` requests."""
        self.batches += 1
        self.batch_size_sum += size
        self.max_batch_size = max(self.max_batch_size, size)
        if size > 1:
            self.coalesced_batches += 1

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot for the metrics endpoint."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_batches": self.coalesced_batches,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": self.mean_batch_size,
            "drained_requests": self.drained_requests,
            "failed_batches": self.failed_batches,
            "last_batch_ms": self.last_batch_ms,
        }


class RequestBatcher:
    """Coalesce concurrent :meth:`submit` calls into fused executor batches.

    Parameters
    ----------
    execute:
        Synchronous batch executor mapping a list of submitted queries —
        the very objects :meth:`submit` received, in order — to the
        equal-length list of answers
        (:meth:`repro.service.state.ServiceState.execute_batch`).  It runs
        on the batcher's own batch thread so the loop keeps accepting
        (and piling up) requests while a batch computes.
    max_batch:
        Optional hard batch-size cap; a larger pile-up runs as
        consecutive batches.

    The batcher bounds nothing itself: the server admits at most
    ``max_inflight`` queries before any reaches :meth:`submit`.
    """

    def __init__(
        self,
        execute: Callable[[Sequence[Any]], List[Dict[str, Any]]],
        max_batch: Optional[int] = None,
    ) -> None:
        if max_batch is not None and int(max_batch) < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        self._execute = execute
        self._max_batch = None if max_batch is None else int(max_batch)
        self._pending: List[Tuple[Any, asyncio.Future]] = []
        self._drainer: Optional[asyncio.Task] = None
        self._thread = ThreadPoolExecutor(1, thread_name_prefix="repro-batch")
        self._closed = False
        self.stats = BatchStats()

    @property
    def closed(self) -> bool:
        """Whether :meth:`aclose` has run."""
        return self._closed

    @property
    def pending(self) -> int:
        """Requests waiting for the batch thread."""
        return len(self._pending)

    def retry_after_ms(self) -> float:
        """When shed load should retry: the last batch's cost, at least 1 ms."""
        return max(self.stats.last_batch_ms, 1.0)

    async def submit(self, request: Any) -> Dict[str, Any]:
        """Enqueue one query and await its (possibly batched) answer."""
        if self._closed:
            raise ValidationError("the request batcher is closed (service shutdown)")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future))
        self.stats.requests += 1
        if self._drainer is None:
            self._drainer = loop.create_task(self._drain())
        return await future

    async def _drain(self) -> None:
        """Run what is pending on the batch thread until nothing is."""
        try:
            while self._pending:
                size = self._max_batch or len(self._pending)
                batch = self._pending[:size]
                del self._pending[:size]
                await self._run(batch)
        finally:
            self._drainer = None

    @staticmethod
    def _resolve(
        batch: List[Tuple[Any, asyncio.Future]],
        answers: Optional[List[Dict[str, Any]]],
        error: Optional[BaseException],
    ) -> None:
        for index, (_, future) in enumerate(batch):
            if future.done():  # client went away mid-batch
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(answers[index])

    async def _run(self, batch: List[Tuple[Any, asyncio.Future]]) -> None:
        """Execute one batch on the batch thread and fan its answers out."""
        requests = [request for request, _ in batch]
        loop = asyncio.get_running_loop()
        begin = time.perf_counter()
        try:
            answers = await loop.run_in_executor(self._thread, self._execute, requests)
        except BaseException as exc:
            self.stats.failed_batches += 1
            self._resolve(batch, None, exc)
            if not isinstance(exc, Exception):
                raise  # cancellation, interrupt or exit: the drain stops too
            return
        self.stats.last_batch_ms = (time.perf_counter() - begin) * 1000.0
        self.stats.record(len(batch))
        self._resolve(batch, answers, None)

    async def aclose(self) -> None:
        """Drain and close (idempotent; resolves every outstanding future).

        Refuses new submissions, waits for the in-flight batch (a SIGTERM
        mid-batch never abandons its futures) and for the pending tail,
        which the drain task runs as the last batches, then stops the
        batch thread.  A failing batch hands its error to its futures
        instead of leaking them.
        """
        if self._closed:
            return
        self._closed = True
        self.stats.drained_requests += len(self._pending)
        if self._drainer is not None:
            await self._drainer
        self._thread.shutdown()
