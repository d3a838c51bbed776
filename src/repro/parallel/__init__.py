"""Parallel subsystem: sampling threads, evaluation processes.

RR-set generation and forward Monte-Carlo are embarrassingly parallel —
every RR set and every cascade is a pure function of the batch key and
its index — and so are evaluation sessions, which share nothing but the
immutable graph.  This package scales both across cores without changing
their output:

* :mod:`repro.parallel.pool` — :class:`SamplingPool`, a thread pool that
  draws large RR and cascade batches in contiguous
  ``(key, start, count)`` shards (and an estimator round's front and
  rear batches at once), plus :func:`resolve_jobs` (the ``n_jobs`` /
  ``REPRO_JOBS`` knob).
* :mod:`repro.parallel.eval_pool` — :class:`EvaluationPool`, the
  session-level tier above the samplers: complete adaptive seeding
  sessions fan out across worker processes (one task per evaluation
  realization, realizations re-sampled in-process from spawned streams),
  resolved by the ``eval_jobs`` / ``REPRO_EVAL_JOBS`` knob and bit-for-bit
  independent of the worker count.  Workers inherit the graph when they
  are forked (or unpickle it once each under ``spawn``).
* :mod:`repro.parallel.seeds` — contiguous shard layouts and the spawned
  streams of evaluation sessions.
* :mod:`repro.parallel.supervisor` — fault-tolerant dispatch of the
  evaluation pool: per-task timeouts, bounded deterministic retries, a
  one-shot pool rebuild on ``BrokenProcessPool``, and in-process
  degradation as the last resort (``docs/robustness.md``).
* :mod:`repro.parallel.faults` — the deterministic fault-injection
  harness behind ``REPRO_FAULT_SPEC`` (chaos tests kill, delay, or
  poison selected evaluation tasks, or shed service queries).

``docs/parallelism.md`` documents the design and the determinism
contract.
"""

from repro.parallel.eval_pool import (
    EVAL_JOBS_ENV_VAR,
    EvaluationPool,
    RealizationTicket,
    SessionRecord,
    parallel_evaluate_adaptive,
    resolve_eval_jobs,
)
from repro.parallel.faults import (
    FAULT_SPEC_ENV_VAR,
    FaultPlan,
    FaultRule,
    parse_fault_spec,
)
from repro.parallel.pool import (
    JOBS_ENV_VAR,
    MIN_SPLIT,
    SamplingPool,
    available_cpus,
    resolve_jobs,
)
from repro.parallel.seeds import shard_layout, spawn_shard_states
from repro.parallel.supervisor import (
    TASK_RETRIES_ENV_VAR,
    TASK_TIMEOUT_ENV_VAR,
    SupervisedTask,
    resolve_max_retries,
    resolve_task_timeout,
    supervised_collect,
)

__all__ = [
    "EVAL_JOBS_ENV_VAR",
    "EvaluationPool",
    "FAULT_SPEC_ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "JOBS_ENV_VAR",
    "MIN_SPLIT",
    "RealizationTicket",
    "SamplingPool",
    "SessionRecord",
    "SupervisedTask",
    "TASK_RETRIES_ENV_VAR",
    "TASK_TIMEOUT_ENV_VAR",
    "available_cpus",
    "parallel_evaluate_adaptive",
    "parse_fault_spec",
    "resolve_eval_jobs",
    "resolve_jobs",
    "resolve_max_retries",
    "resolve_task_timeout",
    "shard_layout",
    "spawn_shard_states",
    "supervised_collect",
]
