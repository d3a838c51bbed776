"""Deterministic tests of the supervision ladder with a scripted fake pool.

No processes are started: each task's ``submit`` asks a fake pool for a
future, and the pool decides by submission ordinal whether the submission
itself raises ``BrokenProcessPool`` (the executor died while accepting
work), returns a future that fails with it (the worker died while running
it) or with an ordinary error, leaves the future pending, or completes it.
So every rung of :func:`repro.parallel.supervisor.supervised_collect` is
reached on a fixed script instead of a race with a killed worker.
"""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import List, Set

import pytest

from repro.parallel.supervisor import LadderStats, SupervisedTask, supervised_collect
from repro.utils.exceptions import ValidationError, WorkerError


class ScriptedPool:
    """Fake executor whose submissions fail on given (1-based) ordinals."""

    def __init__(
        self,
        break_on_submit: Set[int] = frozenset(),
        break_on_result: Set[int] = frozenset(),
        fail_on_result: Set[int] = frozenset(),
        pending: Set[int] = frozenset(),
    ) -> None:
        self.break_on_submit = set(break_on_submit)
        self.break_on_result = set(break_on_result)
        self.fail_on_result = set(fail_on_result)
        self.pending = set(pending)
        self.submits = 0
        self.rebuilds = 0
        self.local_runs: List[int] = []
        self.futures: List[Future] = []

    def submit(self, index: int) -> Future:
        self.submits += 1
        if self.submits in self.break_on_submit:
            raise BrokenProcessPool("executor died during submit")
        future: Future = Future()
        self.futures.append(future)
        if self.submits in self.break_on_result:
            future.set_exception(BrokenProcessPool("worker died"))
        elif self.submits in self.fail_on_result:
            future.set_exception(RuntimeError("transient task error"))
        elif self.submits not in self.pending:
            future.set_result(_answer(index))
        return future

    def rebuild(self) -> None:
        self.rebuilds += 1

    def run_local(self, index: int) -> int:
        self.local_runs.append(index)
        return _answer(index)

    def tasks(self, count: int) -> List[SupervisedTask]:
        return [
            SupervisedTask(
                index=index,
                label=f"task {index}",
                submit=lambda index=index: self.submit(index),
                run_local=lambda index=index: self.run_local(index),
            )
            for index in range(count)
        ]


def _answer(index: int) -> int:
    return index * index + 1


def _expected(count: int) -> List[int]:
    return [_answer(index) for index in range(count)]


class TestGuardedSubmit:
    def test_break_on_second_fanout_submit_rebuilds_and_replays(self):
        pool = ScriptedPool(break_on_submit={2})
        stats = LadderStats()
        results = supervised_collect(pool.tasks(4), pool.rebuild, "test", stats=stats)
        assert results == _expected(4)
        # Task 0 finished before the break; tasks 1-3 were replayed on the
        # rebuilt pool (submissions 3-5), none ran in-process.
        assert pool.rebuilds == 1
        assert pool.submits == 5
        assert pool.local_runs == []
        assert stats == LadderStats(rebuilds=1)

    def test_break_during_replay_degrades_the_rest(self):
        # Submissions 1-4 fan out; task 1's worker dies (submission 2) while
        # tasks 2 and 3 are still running.  The replay resubmits tasks 1-3
        # (submissions 5, 6, ...) and the executor breaks again on 6: the
        # replayed task 1 completed, so only tasks 2 and 3 degrade.
        pool = ScriptedPool(break_on_result={2}, pending={3, 4}, break_on_submit={6})
        stats = LadderStats()
        results = supervised_collect(pool.tasks(4), pool.rebuild, "test", stats=stats)
        assert results == _expected(4)
        assert pool.rebuilds == 1
        assert pool.submits == 6
        assert pool.local_runs == [2, 3]
        assert stats == LadderStats(rebuilds=1, degraded=2)

    def test_break_on_retry_submit_takes_the_ladder(self):
        # Task 0 fails with an ordinary error (submission 1) and the
        # executor breaks while its retry is submitted (submission 3):
        # rebuild, then replay task 0 on the new pool.
        pool = ScriptedPool(fail_on_result={1}, break_on_submit={3})
        stats = LadderStats()
        results = supervised_collect(pool.tasks(2), pool.rebuild, "test", stats=stats)
        assert results == _expected(2)
        assert pool.local_runs == []
        assert stats == LadderStats(retries=1, rebuilds=1)

    def test_clean_run_takes_no_rung(self):
        pool = ScriptedPool()
        stats = LadderStats()
        results = supervised_collect(pool.tasks(5), pool.rebuild, "test", stats=stats)
        assert results == _expected(5)
        assert pool.submits == 5
        assert stats == LadderStats()


@pytest.mark.parametrize("ordinal", [1, 2, 3])
def test_any_fanout_submit_break_rebuilds_once(ordinal):
    pool = ScriptedPool(break_on_submit={ordinal})
    stats = LadderStats()
    results = supervised_collect(pool.tasks(3), pool.rebuild, "test", stats=stats)
    assert results == _expected(3)
    assert pool.local_runs == []
    assert stats == LadderStats(rebuilds=1)


class TestDegradation:
    def test_timed_out_future_runs_in_process(self):
        pool = ScriptedPool(pending={1})
        stats = LadderStats()
        results = supervised_collect(
            pool.tasks(3), pool.rebuild, "test", timeout=0.01, stats=stats
        )
        assert results == _expected(3)
        assert pool.local_runs == [0]
        assert pool.submits == 3  # a timed-out task is never re-submitted
        assert stats == LadderStats(timeouts=1, degraded=1)

    def test_exhausted_retries_run_in_process(self):
        pool = ScriptedPool(fail_on_result={1, 3, 4})
        stats = LadderStats()
        results = supervised_collect(
            pool.tasks(2), pool.rebuild, "test", max_retries=2, stats=stats
        )
        # Task 0 fails on submissions 1, 3 and 4: two retries, then local.
        assert results == _expected(2)
        assert pool.local_runs == [0]
        assert stats == LadderStats(retries=2, degraded=1)

    def test_failed_fallback_raises_worker_error_with_context(self):
        pool = ScriptedPool(pending={1})
        task = SupervisedTask(
            index=0,
            label="scoring task 1/1",
            submit=lambda: pool.submit(0),
            run_local=lambda: 1 / 0,
        )
        with pytest.raises(WorkerError, match="scoring task 1/1") as raised:
            supervised_collect([task], pool.rebuild, "eval", timeout=0.01)
        assert raised.value.tier == "eval"
        assert raised.value.task == "scoring task 1/1"
        assert isinstance(raised.value.__cause__, ZeroDivisionError)

    def test_typed_error_of_the_fallback_keeps_its_type(self):
        def reject():
            raise ValidationError("bad roots")

        pool = ScriptedPool(pending={1})
        task = SupervisedTask(
            index=0, label="task 0", submit=lambda: pool.submit(0), run_local=reject
        )
        with pytest.raises(ValidationError, match="bad roots"):
            supervised_collect([task], pool.rebuild, "eval", timeout=0.01)

    def test_failure_cancels_the_queued_futures(self):
        pool = ScriptedPool(pending={1, 2, 3})
        tasks = pool.tasks(3)
        tasks[0].run_local = lambda: 1 / 0
        with pytest.raises(WorkerError):
            supervised_collect(tasks, pool.rebuild, "eval", timeout=0.01)
        # Task 0 degraded and failed; its abandoned future and the still
        # queued ones of tasks 1 and 2 are all released.
        assert [future.cancelled() for future in pool.futures] == [True] * 3
