"""Parallel sampling subsystem: shared-memory workers, deterministic shards.

RR-set generation is embarrassingly parallel — every RR set is a pure
function of the batch key and its index — so this package scales the
engines of :mod:`repro.sampling.engine` across cores without changing
their output:

* :mod:`repro.parallel.broker` — publishes a graph's incoming *and*
  outgoing CSR (and the residual view's active mask) into
  ``multiprocessing.shared_memory`` once per graph; workers attach
  zero-copy.  The incoming direction feeds reverse RR sampling, the
  outgoing direction feeds batched forward Monte-Carlo simulation
  (:meth:`~repro.parallel.pool.SamplingPool.simulate`).
* :mod:`repro.parallel.seeds` — the deterministic shard layout (a pure
  function of the batch size) and, for forward Monte-Carlo, per-shard
  RNG streams derived with ``SeedSequence.spawn``; RR shards share the
  batch key.  Merged batches are therefore independent of the worker
  count.
* :mod:`repro.parallel.pool` — :class:`SamplingPool`, the persistent
  worker pool, plus :func:`resolve_jobs` (the ``n_jobs`` / ``REPRO_JOBS``
  knob) and :func:`parallel_generate_rr_batch` for one-shot batches.
* :mod:`repro.parallel.eval_pool` — :class:`EvaluationPool`, the
  session-level tier above the samplers: complete adaptive seeding
  sessions fan out across workers (one task per evaluation realization,
  realizations re-sampled in-process from spawned streams), resolved by
  the ``eval_jobs`` / ``REPRO_EVAL_JOBS`` knob and bit-for-bit
  independent of the worker count.
* :mod:`repro.parallel.supervisor` — fault-tolerant dispatch shared by
  both pools: per-task timeouts, bounded deterministic retries, a
  one-shot pool rebuild on ``BrokenProcessPool``, and in-process
  degradation as the last resort (``docs/robustness.md``).
* :mod:`repro.parallel.faults` — the deterministic fault-injection
  harness behind ``REPRO_FAULT_SPEC`` (chaos tests kill, delay, or
  poison selected task submissions).
* :mod:`repro.parallel.janitor` — shared-memory hygiene: pid-tagged
  segment names, exit/SIGTERM cleanup hooks, and the orphan sweep
  behind ``repro-experiments clean-shm``.

Every sampler in the library reaches this package through the ``n_jobs``
parameter of :meth:`repro.sampling.flat_collection.FlatRRCollection.generate`
(or by passing a ``pool``); ``docs/parallelism.md`` documents the design
and the determinism contract.
"""

from repro.parallel.broker import (
    SharedCSRGraph,
    SharedGraphBroker,
    SharedGraphSpec,
    SharedResidualView,
    attach_shared_graph,
)
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
from repro.parallel.janitor import (
    SEGMENT_PREFIX,
    clean_orphan_segments,
    list_library_segments,
)
from repro.parallel.pool import (
    JOBS_ENV_VAR,
    SamplingPool,
    available_cpus,
    parallel_generate_rr_batch,
    parallel_simulate_ic_batch,
    resolve_jobs,
)
from repro.parallel.seeds import (
    default_shard_size,
    shard_layout,
    spawn_shard_states,
)
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
    "RealizationTicket",
    "SEGMENT_PREFIX",
    "SamplingPool",
    "SessionRecord",
    "SharedCSRGraph",
    "SharedGraphBroker",
    "SharedGraphSpec",
    "SharedResidualView",
    "SupervisedTask",
    "TASK_RETRIES_ENV_VAR",
    "TASK_TIMEOUT_ENV_VAR",
    "attach_shared_graph",
    "available_cpus",
    "clean_orphan_segments",
    "default_shard_size",
    "list_library_segments",
    "parallel_evaluate_adaptive",
    "parallel_generate_rr_batch",
    "parallel_simulate_ic_batch",
    "parse_fault_spec",
    "resolve_eval_jobs",
    "resolve_jobs",
    "resolve_max_retries",
    "resolve_task_timeout",
    "shard_layout",
    "spawn_shard_states",
    "supervised_collect",
]
