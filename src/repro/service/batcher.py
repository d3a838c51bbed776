"""Asyncio request coalescer: concurrent queries → one fused batch call.

Concurrent clients asking spread questions within a short window
(``REPRO_SERVICE_BATCH_MS``, default 5 ms) are gathered into **one**
execution batch.  The executor — :meth:`ServiceState.execute_batch` —
answers the whole batch with shared warm collections, one fused
``batch_coverage`` pass for coverage queries and one bulk coin-flip pass
for Monte-Carlo queries, then the batcher fans each answer back to its
request's future.

Coalescing is safe because batch answers are bit-for-bit the sequential
answers (the determinism contract of :mod:`repro.service.state`), so the
window trades a few milliseconds of latency for amortising every
expensive pass across the batch.

Batches execute on a worker thread, serialised by an asyncio lock: while
one batch runs, newly arriving requests pile up behind the next window —
under load the natural batch size grows with the service's own latency
(the same self-clocking coalescing HTTP servers use for group commit).

Shutdown (:meth:`RequestBatcher.aclose`) is graceful and idempotent: the
in-flight batch is awaited (never abandoned), the still-pending tail is
executed in-process as a final degradation step — mirroring the
supervisor's run-local ladder, so no future is ever left unresolved — and
late :meth:`submit` calls fail fast with a clear error.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.service.resilience import resolve_max_pending
from repro.utils.env import read_env_float
from repro.utils.exceptions import ServiceOverloadError, ValidationError

#: Coalescing-window knob, in milliseconds (default 5.0; 0 = flush per
#: event-loop tick, still coalescing requests that arrived together).
BATCH_MS_ENV_VAR = "REPRO_SERVICE_BATCH_MS"

DEFAULT_BATCH_MS = 5.0


def resolve_batch_window(window_ms: Optional[float] = None) -> float:
    """Coalescing window in *seconds*: explicit value, else env, else 5 ms."""
    if window_ms is None:
        window_ms = read_env_float(BATCH_MS_ENV_VAR, hint="milliseconds, e.g. 5")
        if window_ms is None:
            window_ms = DEFAULT_BATCH_MS
    window_ms = float(window_ms)
    if window_ms < 0:
        raise ValidationError(f"batch window must be >= 0 ms, got {window_ms}")
    return window_ms / 1000.0


@dataclass
class BatchStats:
    """Observable coalescing counters (the ``/metrics`` evidence)."""

    requests: int = 0
    batches: int = 0
    coalesced_batches: int = 0  #: batches that bundled more than one request
    max_batch_size: int = 0
    drained_requests: int = 0  #: requests answered by the shutdown drain
    failed_batches: int = 0
    batch_size_sum: int = 0
    shed_requests: int = 0  #: submissions rejected by the pending-queue bound
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
            "shed_requests": self.shed_requests,
            "last_batch_ms": self.last_batch_ms,
        }


class RequestBatcher:
    """Coalesce concurrent :meth:`submit` calls into fused executor batches.

    Parameters
    ----------
    execute:
        Synchronous batch executor mapping a list of request payloads to
        the equal-length list of answers
        (:meth:`repro.service.state.ServiceState.execute_batch`).  It runs
        on the event loop's default thread pool so the loop keeps
        accepting (and coalescing) requests while a batch computes.
    window_ms:
        Coalescing window; ``None`` honours ``REPRO_SERVICE_BATCH_MS``.
    max_batch:
        Optional hard batch-size cap; a full window flushes immediately.
    max_pending:
        Admission-control bound on the pending queue (``None`` honours
        ``REPRO_SERVICE_MAX_PENDING``, defaulting to unbounded).  A
        submission arriving at a full queue is shed immediately with a
        :class:`~repro.utils.exceptions.ServiceOverloadError` carrying a
        ``retry_after_ms`` estimate, instead of queueing unboundedly
        behind a slow batch.
    """

    def __init__(
        self,
        execute: Callable[[Sequence[Mapping[str, Any]]], List[Dict[str, Any]]],
        window_ms: Optional[float] = None,
        max_batch: Optional[int] = None,
        max_pending: Optional[int] = None,
    ) -> None:
        if max_batch is not None and int(max_batch) < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        self._execute = execute
        self._window = resolve_batch_window(window_ms)
        self._max_batch = None if max_batch is None else int(max_batch)
        self._max_pending = resolve_max_pending(max_pending)
        self._pending: List[Tuple[Mapping[str, Any], asyncio.Future]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._flush_tasks: set = set()
        self._exec_lock: Optional[asyncio.Lock] = None
        self._closed = False
        self.stats = BatchStats()

    @property
    def closed(self) -> bool:
        """Whether :meth:`aclose` has run."""
        return self._closed

    @property
    def pending(self) -> int:
        """Requests currently waiting for the next flush."""
        return len(self._pending)

    def _lock(self) -> asyncio.Lock:
        if self._exec_lock is None:
            self._exec_lock = asyncio.Lock()
        return self._exec_lock

    def retry_after_ms(self) -> float:
        """When shed load should retry: one window plus the last batch's cost."""
        return self._window * 1000.0 + max(self.stats.last_batch_ms, 1.0)

    async def submit(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Enqueue one request and await its (possibly batched) answer.

        Raises :class:`ServiceOverloadError` without enqueueing when the
        pending queue is at its ``max_pending`` bound — shedding at the
        door keeps the tail latency of admitted requests bounded.
        """
        if self._closed:
            raise ValidationError("the request batcher is closed (service shutdown)")
        if self._max_pending is not None and len(self._pending) >= self._max_pending:
            self.stats.shed_requests += 1
            raise ServiceOverloadError(
                f"request shed: {len(self._pending)} queries already pending "
                f"(max_pending={self._max_pending})",
                retry_after_ms=self.retry_after_ms(),
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future))
        self.stats.requests += 1
        if self._max_batch is not None and len(self._pending) >= self._max_batch:
            self._cancel_timer()
            self._spawn_flush(loop)
        elif self._timer is None:
            self._timer = loop.call_later(self._window, self._spawn_flush, loop)
        return await future

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _spawn_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        self._timer = None
        task = loop.create_task(self.flush())
        # Keep a strong reference: the loop only holds tasks weakly.
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    def _take_pending(self) -> List[Tuple[Mapping[str, Any], asyncio.Future]]:
        batch, self._pending = self._pending, []
        self._cancel_timer()
        return batch

    @staticmethod
    def _resolve(
        batch: List[Tuple[Mapping[str, Any], asyncio.Future]],
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

    async def flush(self) -> None:
        """Execute everything pending as one batch (serialised, thread-run)."""
        async with self._lock():
            batch = self._take_pending()
            if not batch:
                return
            requests = [request for request, _ in batch]
            loop = asyncio.get_running_loop()
            begin = time.perf_counter()
            try:
                answers = await loop.run_in_executor(
                    None, lambda: self._execute(requests)
                )
            except BaseException as exc:
                self.stats.failed_batches += 1
                self._resolve(batch, None, exc)
                return
            self.stats.last_batch_ms = (time.perf_counter() - begin) * 1000.0
            self.stats.record(len(batch))
            self._resolve(batch, answers, None)

    async def aclose(self) -> None:
        """Drain and close (idempotent; resolves every outstanding future).

        Waits for the in-flight batch (a SIGTERM mid-batch never abandons
        its futures), then answers the remaining tail with one final
        in-process ``execute`` call — the batcher's equivalent of the
        supervisor's degrade-to-local step.  If even that fails, the tail
        futures carry the error instead of leaking.
        """
        if self._closed:
            return
        self._closed = True
        async with self._lock():  # waits for the in-flight batch
            batch = self._take_pending()
            if not batch:
                return
            self.stats.drained_requests += len(batch)
            try:
                answers = self._execute([request for request, _ in batch])
            except BaseException as exc:
                self.stats.failed_batches += 1
                self._resolve(batch, None, exc)
                return
            self.stats.record(len(batch))
            self._resolve(batch, answers, None)
