"""Tests of the asyncio request coalescer: group commit on one batch
thread, observable coalescing, error fan-out and the drain on close.

The suite runs without pytest-asyncio: every test drives its own event
loop through ``asyncio.run``.  A backlog is built by holding the batch
thread with a first batch (the ``hold`` fixture of ``conftest.py``).
"""

import asyncio
import threading

import pytest

from repro.service.batcher import BatchStats, RequestBatcher
from repro.utils.exceptions import ValidationError


def echo_execute(requests):
    """A trivial executor: answers identify their request and batch size."""
    size = len(requests)
    return [dict(request, batch_size=size) for request in requests]


class TestConstruction:
    def test_bad_max_batch_rejected(self):
        with pytest.raises(ValidationError):
            RequestBatcher(echo_execute, max_batch=0)

    def test_window_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            RequestBatcher(echo_execute, window_ms=5.0)


class TestCoalescing:
    def test_concurrent_submits_share_one_batch(self):
        async def scenario():
            batcher = RequestBatcher(echo_execute)
            answers = await asyncio.gather(
                *(batcher.submit({"id": i}) for i in range(6))
            )
            await batcher.aclose()
            return batcher.stats, answers

        stats, answers = asyncio.run(scenario())
        # Coalescing must be *observable*: one batch of six, not six of one.
        assert stats.batches == 1
        assert stats.coalesced_batches == 1
        assert stats.max_batch_size == 6
        assert stats.mean_batch_size == pytest.approx(6.0)
        assert [a["id"] for a in answers] == list(range(6))
        assert all(a["batch_size"] == 6 for a in answers)

    def test_sequential_submissions_run_as_separate_batches(self):
        async def scenario():
            batcher = RequestBatcher(echo_execute)
            first = await batcher.submit({"id": 0})
            second = await batcher.submit({"id": 1})
            await batcher.aclose()
            return batcher.stats, first, second

        stats, first, second = asyncio.run(scenario())
        assert stats.batches == 2
        assert stats.coalesced_batches == 0
        assert first["batch_size"] == 1 and second["batch_size"] == 1

    def test_max_batch_splits_a_pile_up(self, hold):
        async def scenario():
            batcher = RequestBatcher(hold.wrap(echo_execute), max_batch=3)
            first = asyncio.ensure_future(batcher.submit({"id": -1}))
            await hold.holding()
            laters = [
                asyncio.ensure_future(batcher.submit({"id": i})) for i in range(7)
            ]
            await asyncio.sleep(0)
            assert batcher.pending == 7
            hold.release()
            answers = await asyncio.gather(first, *laters)
            await batcher.aclose()
            return batcher.stats, answers

        stats, answers = asyncio.run(scenario())
        # The pile-up of seven runs as consecutive batches of at most three.
        assert hold.sizes == [1, 3, 3, 1]
        assert stats.max_batch_size == 3
        assert [a["id"] for a in answers] == list(range(-1, 7))

    def test_batch_piles_up_behind_inflight_execution(self):
        release = threading.Event()
        entered = threading.Event()

        def slow_execute(requests):
            if len(requests) == 1 and requests[0].get("slow"):
                entered.set()
                release.wait(timeout=10.0)
            return echo_execute(requests)

        async def scenario():
            batcher = RequestBatcher(slow_execute)
            slow = asyncio.ensure_future(batcher.submit({"slow": True}))
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 10.0
            )
            # These arrive while the slow batch holds the batch thread;
            # they must coalesce behind it into one follow-up batch.
            laters = [
                asyncio.ensure_future(batcher.submit({"id": i})) for i in range(4)
            ]
            await asyncio.sleep(0.05)
            release.set()
            answers = await asyncio.gather(slow, *laters)
            await batcher.aclose()
            return batcher.stats, answers

        stats, answers = asyncio.run(scenario())
        assert answers[0]["batch_size"] == 1
        assert all(a["batch_size"] == 4 for a in answers[1:])
        assert stats.coalesced_batches == 1


class TestGroupCommit:
    def test_lone_submission_starts_no_timer(self):
        delays = []

        async def scenario():
            loop = asyncio.get_running_loop()
            call_later = loop.call_later

            def recording_call_later(delay, callback, *args, **kwargs):
                delays.append(delay)
                return call_later(delay, callback, *args, **kwargs)

            loop.call_later = recording_call_later
            batcher = RequestBatcher(echo_execute)
            answer = await batcher.submit({"id": 0})
            await batcher.aclose()
            return answer

        assert asyncio.run(scenario()) == {"id": 0, "batch_size": 1}
        # The query ran on the next tick: no coalescing window was armed.
        assert [delay for delay in delays if delay > 0] == []

    def test_every_batch_runs_on_one_thread(self, hold):
        async def scenario():
            batcher = RequestBatcher(hold.wrap(echo_execute), max_batch=2)
            first = asyncio.ensure_future(batcher.submit({"id": -1}))
            await hold.holding()
            piled = [
                asyncio.ensure_future(batcher.submit({"id": i})) for i in range(6)
            ]
            await asyncio.sleep(0)
            hold.release()
            await asyncio.gather(first, *piled)
            # Each burst splits into batches that the drain submits back
            # to back, as soon as the previous one returns.
            for burst in range(3):
                await asyncio.gather(
                    *(batcher.submit({"id": 10 * burst + i}) for i in range(4))
                )
            for i in range(3):
                await batcher.submit({"id": 100 + i})
            await batcher.aclose()
            return batcher.stats

        stats = asyncio.run(scenario())
        assert hold.sizes == [1, 2, 2, 2] + [2, 2] * 3 + [1, 1, 1]
        assert stats.batches == len(hold.threads) == 13
        assert len(set(hold.threads)) == 1
        assert hold.threads[0] is not threading.main_thread()

    def test_aclose_stops_the_batch_thread(self):
        threads = []

        def execute(requests):
            threads.append(threading.current_thread())
            return echo_execute(requests)

        async def scenario():
            batcher = RequestBatcher(execute)
            await batcher.submit({"id": 0})
            assert threads[0].is_alive()
            await batcher.aclose()

        asyncio.run(scenario())
        assert not threads[0].is_alive()


class TestErrorFanOut:
    def test_executor_error_reaches_every_future(self):
        def explode(requests):
            raise ValidationError("boom")

        async def scenario():
            batcher = RequestBatcher(explode)
            results = await asyncio.gather(
                *(batcher.submit({"id": i}) for i in range(3)),
                return_exceptions=True,
            )
            await batcher.aclose()
            return batcher.stats, results

        stats, results = asyncio.run(scenario())
        assert stats.failed_batches == 1
        assert len(results) == 3
        assert all(isinstance(r, ValidationError) for r in results)

    def test_cancelled_client_does_not_break_the_batch(self):
        async def scenario():
            batcher = RequestBatcher(echo_execute)
            doomed = asyncio.ensure_future(batcher.submit({"id": 0}))
            survivor = asyncio.ensure_future(batcher.submit({"id": 1}))
            await asyncio.sleep(0)
            doomed.cancel()
            answer = await survivor
            await batcher.aclose()
            return answer

        answer = asyncio.run(scenario())
        assert answer["id"] == 1


class TestShutdownDrain:
    def test_aclose_runs_the_pending_tail(self, hold):
        async def scenario():
            batcher = RequestBatcher(hold.wrap(echo_execute))
            first = asyncio.ensure_future(batcher.submit({"id": -1}))
            await hold.holding()
            pending = [
                asyncio.ensure_future(batcher.submit({"id": i})) for i in range(3)
            ]
            await asyncio.sleep(0)
            # close() begins while the tail is still queued behind the
            # held batch: it must run that tail, not drop it.
            hold.release()
            await batcher.aclose()
            answers = await asyncio.gather(first, *pending)
            return batcher.stats, answers

        stats, answers = asyncio.run(scenario())
        assert stats.drained_requests == 3
        assert [a["id"] for a in answers] == [-1, 0, 1, 2]
        assert hold.sizes == [1, 3]
        assert len(set(hold.threads)) == 1

    def test_aclose_waits_for_inflight_batch(self):
        release = threading.Event()
        entered = threading.Event()

        def slow_execute(requests):
            entered.set()
            release.wait(timeout=10.0)
            return echo_execute(requests)

        async def scenario():
            batcher = RequestBatcher(slow_execute)
            inflight = asyncio.ensure_future(batcher.submit({"id": 0}))
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 10.0
            )
            closer = asyncio.ensure_future(batcher.aclose())
            await asyncio.sleep(0.02)
            assert not inflight.done()  # close is waiting, not abandoning
            release.set()
            await closer
            return await inflight

        answer = asyncio.run(scenario())
        assert answer["id"] == 0

    def test_aclose_is_idempotent_and_fails_fast_after(self):
        async def scenario():
            batcher = RequestBatcher(echo_execute)
            await batcher.aclose()
            await batcher.aclose()
            assert batcher.closed
            with pytest.raises(ValidationError, match="closed"):
                await batcher.submit({"id": 0})

        asyncio.run(scenario())

    def test_drain_errors_still_resolve_futures(self, hold):
        def explode(requests):
            if requests[0].get("held"):
                return echo_execute(requests)
            raise RuntimeError("pool already gone")

        async def scenario():
            batcher = RequestBatcher(hold.wrap(explode))
            first = asyncio.ensure_future(batcher.submit({"held": True}))
            await hold.holding()
            pending = asyncio.ensure_future(batcher.submit({"id": 0}))
            await asyncio.sleep(0)
            hold.release()
            await batcher.aclose()
            assert (await first)["held"] is True
            with pytest.raises(RuntimeError, match="pool already gone"):
                await pending
            return batcher.stats

        stats = asyncio.run(scenario())
        assert stats.failed_batches == 1
        assert stats.drained_requests == 1


class TestBatchStats:
    def test_record_and_mean(self):
        stats = BatchStats()
        assert stats.mean_batch_size == 0.0
        stats.record(1)
        stats.record(5)
        assert stats.batches == 2
        assert stats.coalesced_batches == 1
        assert stats.max_batch_size == 5
        assert stats.mean_batch_size == pytest.approx(3.0)

    def test_as_dict_round_trip(self):
        stats = BatchStats(requests=7)
        stats.record(7)
        d = stats.as_dict()
        assert d["requests"] == 7
        assert d["max_batch_size"] == 7
        assert d["mean_batch_size"] == pytest.approx(7.0)
