"""Supervised task dispatch: timeouts, deterministic retries, degradation.

The evaluation pool (:class:`~repro.parallel.eval_pool.EvaluationPool`)
used to collect its futures with a bare ``for future in futures:
future.result()`` — one crashed worker aborted the whole sweep and left
the caller with a raw ``BrokenProcessPool``.  :func:`supervised_collect` replaces that loop with
a recovery ladder that the determinism contract makes safe: every task is
keyed by an immutable ``(spawned RNG state, payload)`` pair, so running it
again — in another worker or in the parent — produces identical bytes.

The ladder, per task:

1. **wait** for the future, bounded by ``timeout`` seconds when set;
2. **retry** on an ordinary task exception: re-submit the same payload up
   to ``max_retries`` times (a transient fault — a poisoned submission, an
   OOM-killed libc allocation — runs clean on the next attempt);
3. **rebuild** once per collection round when the executor itself breaks
   (``BrokenProcessPool``): tear the worker processes down, start fresh
   ones from the same parent, and re-submit only the tasks that never
   completed;
4. **degrade** as the last resort — run the task in-process via its
   ``run_local`` callable.  A timed-out future degrades immediately
   (``ProcessPoolExecutor`` cannot cancel a running task, and re-submitting
   a possibly-still-running task would double-execute it; the pool kills
   such a worker once the collection has finished); a task whose
   retries are exhausted, or one stranded by a second pool break, degrades
   too.  The run completes — slower, never wrong.

Only when the in-process fallback *also* raises does the caller see an
error.  Typed library errors (:class:`~repro.utils.exceptions.ReproError`
subclasses such as ``ValidationError``) propagate unchanged — they are the
task's deterministic answer, not an infrastructure failure — while
anything else is wrapped in a
:class:`~repro.utils.exceptions.WorkerError` carrying the tier and task
label instead of a context-free traceback.

Every recovery step is logged on the ``repro.parallel`` logger at
WARNING, so an hours-long sweep that survived a crash says so.
"""

from __future__ import annotations

import logging
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.utils.env import read_env_float, read_env_int
from repro.utils.exceptions import ReproError, ValidationError, WorkerError

#: Shared logger for the parallel subsystem's recovery events.
logger = logging.getLogger("repro.parallel")

#: Default number of re-submissions before a failing task degrades.
DEFAULT_MAX_RETRIES = 2

#: Environment variable: per-task timeout in seconds for supervised
#: dispatch (unset = wait forever).
TASK_TIMEOUT_ENV_VAR = "REPRO_TASK_TIMEOUT"

#: Environment variable: per-task retry budget for supervised dispatch.
TASK_RETRIES_ENV_VAR = "REPRO_TASK_RETRIES"


def resolve_task_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Resolve the per-task timeout knob (explicit value wins, then env).

    ``None`` with no ``REPRO_TASK_TIMEOUT`` environment means no timeout —
    futures are awaited indefinitely, exactly as before supervision.
    """
    if timeout is None:
        timeout = read_env_float(TASK_TIMEOUT_ENV_VAR)
        if timeout is None:
            return None
    timeout = float(timeout)
    if timeout <= 0:
        raise ValidationError(f"task timeout must be > 0 seconds, got {timeout}")
    return timeout


def resolve_max_retries(max_retries: Optional[int] = None) -> int:
    """Resolve the per-task retry budget (explicit value wins, then env)."""
    if max_retries is None:
        max_retries = read_env_int(TASK_RETRIES_ENV_VAR, hint="e.g. 2; 0 disables retries")
        if max_retries is None:
            return DEFAULT_MAX_RETRIES
    max_retries = int(max_retries)
    if max_retries < 0:
        raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
    return max_retries


@dataclass
class LadderStats:
    """Cumulative recovery-ladder counters (mutated in place).

    Every recovery step of :func:`supervised_collect` already logs a
    WARNING; these counters make the same evidence machine-readable, so
    a caller or a test can tell which rungs a collection took without
    parsing logs.
    """

    retries: int = 0
    timeouts: int = 0
    rebuilds: int = 0
    degraded: int = 0  #: tasks that completed via the in-process fallback

    def as_dict(self) -> dict:
        """Plain-dict snapshot for metrics endpoints."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "rebuilds": self.rebuilds,
            "degraded": self.degraded,
        }


@dataclass
class SupervisedTask:
    """One unit of supervised work.

    ``submit`` dispatches the task to the pool's *current* executor and
    returns the future (it is called again on retry and after a rebuild,
    so it must read the executor at call time, not capture it).
    ``run_local`` computes the identical result in the calling process —
    the degradation path.  ``label`` names the task in logs and errors.
    """

    index: int
    label: str
    submit: Callable[[], Future]
    run_local: Callable[[], Any]


def _degrade(task: SupervisedTask, tier: str, reason: str) -> Any:
    """Run a task in-process; wrap a real failure with its context."""
    logger.warning(
        "%s tier: %s — running %s in-process", tier, reason, task.label
    )
    try:
        return task.run_local()
    except ReproError:
        # A typed library error (bad roots, mismatched graph, ...) is the
        # task's real, deterministic answer — keep its type so callers'
        # ``except ValidationError`` contracts survive supervision.
        raise
    except Exception as exc:
        raise WorkerError(
            f"{task.label} failed in every worker attempt and in-process "
            f"({reason}): {exc}",
            tier=tier,
            task=task.label,
        ) from exc


def supervised_collect(
    tasks: Sequence[SupervisedTask],
    rebuild: Callable[[], None],
    tier: str,
    timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    stats: Optional[LadderStats] = None,
) -> List[Any]:
    """Run every task to completion; return results in task order.

    ``rebuild`` must tear down and restart the pool's executor (the
    fresh workers get the graph from their initializer again); it is
    invoked at most once per call — a second executor break degrades all
    incomplete tasks in-process instead.

    Results are ordered by ``task.index`` position in ``tasks`` — the
    caller's merge order — regardless of completion order, retries, or
    degradations, which is what keeps recovery bit-for-bit invisible.

    ``stats`` (optional) accumulates the recovery steps taken, which
    makes crash survival observable without changing any result.
    """
    if stats is None:
        stats = LadderStats()  # throwaway accumulator, keeps the body branch-free
    results: List[Any] = [None] * len(tasks)
    done = [False] * len(tasks)
    attempts = [1] * len(tasks)
    futures: List[Optional[Future]] = [None] * len(tasks)
    rebuilds_left = 1

    def submit(positions: Sequence[int]) -> bool:
        """Submit each task in turn; ``False`` once the executor breaks.

        The single guarded submission step: the first fan-out, a retry and
        the post-rebuild replay all go through it, so a pool that dies
        while accepting work takes the same rebuild → degrade ladder as a
        pool that dies while running it.
        """
        for position in positions:
            try:
                futures[position] = tasks[position].submit()
            except BrokenExecutor:
                return False
        return True

    try:
        executor_broken = not submit(range(len(tasks)))
        while not all(done):
            for position, task in enumerate(tasks):
                if executor_broken:
                    break
                if done[position]:
                    continue
                future = futures[position]
                try:
                    results[position] = future.result(timeout=timeout)
                    done[position] = True
                except FutureTimeoutError:
                    # The worker may still be grinding on it; abandon the
                    # future (its eventual result is discarded) and finish
                    # the task here.
                    stats.timeouts += 1
                    results[position] = _degrade(
                        task, tier, f"task exceeded {timeout}s timeout"
                    )
                    stats.degraded += 1
                    done[position] = True
                except BrokenExecutor:
                    executor_broken = True
                except Exception as exc:
                    if attempts[position] <= max_retries:
                        attempts[position] += 1
                        stats.retries += 1
                        logger.warning(
                            "%s tier: %s failed (%s: %s) — retry %d/%d",
                            tier,
                            task.label,
                            type(exc).__name__,
                            exc,
                            attempts[position] - 1,
                            max_retries,
                        )
                        executor_broken = not submit([position])
                    else:
                        results[position] = _degrade(
                            task,
                            tier,
                            f"exhausted {max_retries} retries "
                            f"(last error: {type(exc).__name__}: {exc})",
                        )
                        stats.degraded += 1
                        done[position] = True
            if executor_broken:
                # Harvest tasks that finished before the break — only the
                # genuinely incomplete ones are replayed.
                for position in range(len(tasks)):
                    future = futures[position]
                    if done[position] or future is None or not future.done():
                        continue
                    try:
                        results[position] = future.result(timeout=0)
                        done[position] = True
                    except Exception:
                        pass  # the crashed/poisoned task itself; replay it
                incomplete = [p for p in range(len(tasks)) if not done[p]]
                if rebuilds_left > 0:
                    rebuilds_left -= 1
                    stats.rebuilds += 1
                    logger.warning(
                        "%s tier: worker pool broke (worker died?) — "
                        "rebuilding and replaying %d incomplete task(s)",
                        tier,
                        len(incomplete),
                    )
                    rebuild()
                    # A break during the replay leaves the flag set, so the
                    # next pass goes straight to the degrade rung.
                    executor_broken = not submit(incomplete)
                else:
                    logger.warning(
                        "%s tier: worker pool broke again — degrading %d "
                        "incomplete task(s) to in-process execution",
                        tier,
                        len(incomplete),
                    )
                    for position in incomplete:
                        results[position] = _degrade(
                            tasks[position], tier, "worker pool broke twice"
                        )
                        stats.degraded += 1
                        done[position] = True
    except BaseException:
        # WorkerError from a failed degradation, or an interrupt: release
        # whatever is still queued before propagating.
        for future in futures:
            if future is not None:
                future.cancel()
        raise
    return results
