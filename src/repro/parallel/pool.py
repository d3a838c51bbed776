"""Persistent worker pool running the RR engine on batch shards.

:class:`SamplingPool` is the runtime of the parallel sampling subsystem.
One pool serves one base graph:

* on first parallel use it publishes the graph through a
  :class:`~repro.parallel.broker.SharedGraphBroker` and starts a
  ``ProcessPoolExecutor`` whose workers attach to the shared segments in
  their initializer (zero-copy, once per worker);
* :meth:`SamplingPool.generate` draws the batch key once, splits the
  batch into the contiguous shard layout of :mod:`repro.parallel.seeds`,
  writes the residual view's active mask into shared memory, and hands
  shard ``[a, b)`` to a worker as ``(key, start + a, b − a)``.  Every RR
  set is a pure function of the key and its index
  (:mod:`repro.sampling.engine`), so the merged shards — stitched with
  :func:`~repro.sampling.engine.merge_rr_batches`, never re-walked — are
  exactly the batch one process would draw;
* with ``n_jobs=1`` (or a single-shard batch) the pool runs the batch as
  one in-process call — no processes, no shared memory.  RR output is
  therefore bit-for-bit independent of the worker count, and the same as
  :func:`~repro.sampling.engine.generate_rr_batch` on the same seed.

Forward Monte-Carlo (:meth:`SamplingPool.simulate`) runs the same way:
one key per batch, shard ``[a, b)`` as ``(key, a, b − a)`` of the keyed
cascade stream (:mod:`repro.diffusion.mc_engine`), merged with
:func:`~repro.diffusion.mc_engine.merge_mc_batches`.

Extensions (``FlatRRCollection.extend_generate`` with ``pool=``) go
through the same :meth:`SamplingPool.generate` entry point under a key of
their own; the estimator's ``sample_reuse`` rounds pass one key per side
and the ``start`` of the new sets.  See "Extend-through-pool semantics"
in ``docs/parallelism.md``.

``resolve_jobs`` is the single knob-resolution point: explicit ``n_jobs``
arguments win, the ``REPRO_JOBS`` environment variable fills in when the
caller passed ``None``, and ``-1`` means "all usable cores".
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.parallel.broker import (
    SharedGraphBroker,
    SharedGraphSpec,
    SharedResidualView,
    attach_shared_graph,
)
from repro.diffusion.mc_engine import (
    MCBatch,
    merge_mc_batches,
    simulate_ic_batch,
)
from repro.parallel.faults import FaultPlan, FaultRule, perform_fault
from repro.parallel.seeds import shard_layout, shard_roots
from repro.parallel.supervisor import (
    LadderStats,
    SupervisedTask,
    resolve_max_retries,
    resolve_task_timeout,
    supervised_collect,
)
from repro.sampling.engine import (
    RRBatch,
    draw_key,
    generate_rr_batch,
    merge_rr_batches,
)
from repro.utils.env import read_env_int
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState

#: Environment variable consulted when a caller leaves ``n_jobs`` unset.
JOBS_ENV_VAR = "REPRO_JOBS"


def available_cpus() -> int:
    """Number of CPU cores usable by this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def resolve_jobs(n_jobs: Optional[int] = None) -> Optional[int]:
    """Resolve a worker-count request to a concrete value (or ``None``).

    * an explicit integer wins: ``-1`` means all usable cores, values
      ``>= 1`` are taken as-is, anything else is rejected;
    * ``None`` falls back to the ``REPRO_JOBS`` environment variable with
      the same semantics;
    * ``None`` with no environment override resolves to ``None``: one
      process, which samples the same RR sets as any worker count.
    """
    if n_jobs is None:
        n_jobs = read_env_int(JOBS_ENV_VAR)
        if n_jobs is None:
            return None
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return available_cpus()
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}")
    return n_jobs


# --------------------------------------------------------------------- #
# worker-process side
# --------------------------------------------------------------------- #

#: Per-worker attachment state, populated once by the pool initializer.
_WORKER: dict = {}


def _worker_init(spec: SharedGraphSpec) -> None:
    """Executor initializer: attach to the published graph (zero-copy)."""
    graph, mask, handles = attach_shared_graph(spec)
    _WORKER["graph"] = graph
    _WORKER["mask"] = mask
    _WORKER["handles"] = handles  # keep segments alive for the worker's life


def _worker_generate(fault, key, start, count, backend, roots, stop):
    """Run one shard through the standard engine against shared arrays."""
    perform_fault(fault)
    kernels.warm_up(backend)  # compile once per worker, memoized thereafter
    view = SharedResidualView(_WORKER["graph"], _WORKER["mask"])
    batch = generate_rr_batch(
        view, count, backend=backend, roots=roots, stop=stop, key=key, start=start
    )
    return batch.offsets, batch.nodes, batch.num_active_nodes, batch.n


def _worker_simulate(fault, key, start, count, backend, seeds):
    """Run one forward-MC shard against the shared outgoing CSR."""
    perform_fault(fault)
    kernels.warm_up(backend)  # compile once per worker, memoized thereafter
    view = SharedResidualView(_WORKER["graph"], _WORKER["mask"])
    batch = simulate_ic_batch(
        view, seeds, count, backend=backend, key=key, start=start
    )
    return batch.offsets, batch.nodes, batch.n


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #


class SamplingPool:
    """A persistent, shared-memory worker pool for one base graph.

    Parameters
    ----------
    graph:
        Base graph (or any residual view of it) the pool will sample on.
    n_jobs:
        Worker count request, resolved through :func:`resolve_jobs`
        (``None`` honours ``REPRO_JOBS``, defaulting to 1; ``-1`` uses all
        cores).  With one job the pool never starts processes or shared
        memory — :meth:`generate` and :meth:`simulate` run the batch
        in-process.
    start_method:
        Multiprocessing start method; defaults to ``"fork"`` where
        available (cheap on Linux), else ``"spawn"``.
    directions:
        Which CSR directions the pool publishes to its workers: ``"in"``
        enables :meth:`generate` (reverse RR sampling), ``"out"`` enables
        :meth:`simulate` (forward Monte-Carlo).  Defaults to ``("in",)`` —
        the RR-only footprint, so RR pools never pay for the outgoing
        CSR; forward-MC callers pass ``("out",)`` (or both for a
        dual-workload pool).
    task_timeout:
        Per-shard timeout in seconds for supervised dispatch (``None``
        honours ``REPRO_TASK_TIMEOUT``, defaulting to no timeout).  A
        timed-out shard is re-run in-process — identical bytes, see
        ``docs/robustness.md``.
    max_retries:
        Re-submissions granted to a failing shard before it degrades to
        in-process execution (``None`` honours ``REPRO_TASK_RETRIES``,
        defaulting to 2).
    fault_plan:
        Fault-injection plan for chaos testing (``None`` reads
        ``REPRO_FAULT_SPEC``; an empty plan injects nothing).
    """

    def __init__(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        n_jobs: Optional[int] = None,
        start_method: Optional[str] = None,
        directions: tuple = ("in",),
        task_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        self._base = view.base
        self._jobs = resolve_jobs(n_jobs) or 1
        self._start_method = start_method
        self._directions = tuple(directions)
        self._task_timeout = resolve_task_timeout(task_timeout)
        self._max_retries = resolve_max_retries(max_retries)
        self._faults = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._broker: Optional[SharedGraphBroker] = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: Cumulative recovery-ladder counters across this pool's rounds.
        self.supervision_stats = LadderStats()

    def _require_direction(self, direction: str, method: str) -> None:
        if direction not in self._directions:
            raise ValidationError(
                f"this SamplingPool publishes directions {self._directions}; "
                f"{method}() needs the {direction!r} CSR — construct the pool "
                f"with directions including {direction!r}"
            )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def base(self) -> ProbabilisticGraph:
        """The base graph this pool samples on."""
        return self._base

    @property
    def n_jobs(self) -> int:
        """Resolved worker count."""
        return self._jobs

    @property
    def running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._executor is not None

    @property
    def healthy(self) -> bool:
        """Whether the pool can serve work without a rebuild first.

        ``True`` for an idle pool (workers start lazily) and for a running
        executor that has not broken; ``False`` once the pool is closed or
        its executor is flagged broken (a worker died and the next round
        will pay a rebuild).  The service layer reads this to report pool
        liveness on ``/healthz`` and to decide degraded answering.
        """
        if self._closed:
            return False
        if self._executor is None:
            return True
        return not getattr(self._executor, "_broken", False)

    def _ensure_workers(self) -> None:
        if self._closed:
            raise ValidationError("SamplingPool is closed")
        if self._executor is not None:
            if getattr(self._executor, "_broken", False):
                # A previous round ended with the executor broken (e.g.
                # its second break degraded the tail in-process).  Pay
                # the rebuild at round entry instead of raising
                # BrokenProcessPool out of the initial submission.
                self._executor.shutdown(wait=False)
                self._executor = None
            else:
                return
        import multiprocessing

        method = self._start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        fresh_broker = self._broker is None
        if fresh_broker:
            self._broker = SharedGraphBroker(self._base, directions=self._directions)
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self._jobs,
                mp_context=multiprocessing.get_context(method),
                initializer=_worker_init,
                initargs=(self._broker.spec,),
            )
        except BaseException:
            if fresh_broker:
                self._broker.close()
                self._broker = None
            raise

    def _rebuild_workers(self) -> None:
        """Replace a broken executor; the published segments stay up."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        self._ensure_workers()

    def kill_workers(self) -> int:
        """SIGKILL every live worker process; return how many were hit.

        The chaos-harness stand-in for an OOM killer sweeping the pool
        mid-batch (the ``killpool:service:N`` fault of
        :mod:`repro.parallel.faults`).  The executor breaks exactly as it
        would for a real crash, and the next supervised round rides the
        rebuild/degrade ladder.  A pool with no running workers is a
        no-op returning 0.
        """
        import signal

        if self._executor is None:
            return 0
        processes = list(getattr(self._executor, "_processes", {}).values())
        killed = 0
        for process in processes:
            if process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGKILL)
                    killed += 1
                except (ProcessLookupError, PermissionError):  # pragma: no cover
                    pass
        return killed

    def close(self) -> None:
        """Stop workers and unlink shared memory (idempotent)."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._broker is not None:
            self._broker.close()
            self._broker = None

    def __enter__(self) -> "SamplingPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #

    def generate(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        count: int,
        random_state: RandomState = None,
        backend: Optional[str] = None,
        roots: Optional[Sequence[int]] = None,
        task_timeout: Optional[float] = None,
        stop: Optional[np.ndarray] = None,
        key: Optional[int] = None,
        start: int = 0,
    ) -> RRBatch:
        """Generate ``count`` RR sets on ``graph`` across the pool's workers.

        ``graph`` must be the pool's base graph or a residual view of it;
        the view's active mask is republished to the workers before the
        round is dispatched (rounds are synchronous, so the mask is never
        rewritten while tasks are in flight).  ``roots``, ``stop``, ``key``
        and ``start`` mean what they mean for
        :func:`~repro.sampling.engine.generate_rr_batch`, and the batch is
        the one that function returns, whatever ``n_jobs`` is.

        ``task_timeout`` tightens (or sets) the per-shard supervision
        timeout for this call only — how a service-level deadline reaches
        the recovery ladder without reconfiguring the pool.  ``None``
        keeps the pool-wide setting.
        """
        if self._closed:
            raise ValidationError("SamplingPool is closed")
        self._require_direction("in", "generate")
        # Resolve once at pool entry so every shard payload carries a
        # concrete registered backend name ("auto"/None never reaches a
        # worker, whose environment may resolve them differently).
        backend = kernels.resolve_backend(backend)
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        if view.base is not self._base:
            raise ValidationError(
                "this SamplingPool was built for a different base graph"
            )
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        if count > 0 and key is None:
            key = draw_key(random_state)
        layout = shard_layout(count)
        if self._jobs == 1 or len(layout) <= 1:
            return generate_rr_batch(
                view, count, backend=backend, roots=roots, stop=stop, key=key,
                start=start,
            )

        self._ensure_workers()
        self._broker.set_mask(view.active_mask)
        tasks = [
            SupervisedTask(
                index=shard,
                label=f"sampling shard {shard + 1}/{len(layout)} "
                f"({hi - lo} RR sets)",
                submit=partial(
                    self._submit_generate, key, start + lo, hi - lo,
                    backend, shard_root, stop,
                ),
                run_local=partial(
                    generate_rr_batch,
                    view,
                    hi - lo,
                    backend=backend,
                    roots=shard_root,
                    stop=stop,
                    key=key,
                    start=start + lo,
                ),
            )
            for shard, ((lo, hi), shard_root) in enumerate(
                zip(layout, shard_roots(roots, layout))
            )
        ]
        raw = supervised_collect(
            tasks,
            rebuild=self._rebuild_workers,
            tier="sampling",
            timeout=self._round_timeout(task_timeout),
            max_retries=self._max_retries,
            stats=self.supervision_stats,
        )
        batches: List[RRBatch] = []
        for item in raw:
            if isinstance(item, RRBatch):  # degraded shard ran in-process
                batches.append(item)
            else:
                offsets, nodes, num_active, n = item
                batches.append(
                    RRBatch(
                        offsets=offsets,
                        nodes=nodes,
                        num_active_nodes=num_active,
                        n=n,
                    )
                )
        return merge_rr_batches(batches)

    def _round_timeout(self, task_timeout: Optional[float]) -> Optional[float]:
        """Effective per-shard timeout for one round (call override wins)."""
        if task_timeout is None:
            return self._task_timeout
        timeout = float(task_timeout)
        if timeout <= 0:
            raise ValidationError(f"task_timeout must be > 0 seconds, got {timeout}")
        if self._task_timeout is not None:
            return min(timeout, self._task_timeout)
        return timeout

    def _submit_generate(self, key, start, count, backend, roots, stop):
        """Submit one generation shard to the current executor."""
        return self._executor.submit(
            _worker_generate, self._faults.take("sampling"), key, start, count,
            backend, roots, stop,
        )

    def _submit_simulate(self, key, start, count, backend, seeds):
        """Submit one forward-MC shard to the current executor."""
        return self._executor.submit(
            _worker_simulate, self._faults.take("sampling"), key, start, count,
            backend, seeds,
        )

    def simulate(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        seeds: Sequence[int],
        count: int,
        random_state: RandomState = None,
        backend: Optional[str] = None,
        task_timeout: Optional[float] = None,
    ) -> MCBatch:
        """Run ``count`` forward IC cascades from ``seeds`` across the pool.

        The forward twin of :meth:`generate`: one key per batch, shard
        ``[a, b)`` draws cascades ``a … b − 1`` of that key, and shards
        merge in order, so the batch is the one
        :func:`~repro.diffusion.mc_engine.simulate_ic_batch` returns,
        whatever ``n_jobs`` is.
        """
        if self._closed:
            raise ValidationError("SamplingPool is closed")
        self._require_direction("out", "simulate")
        backend = kernels.resolve_backend(backend)
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        if view.base is not self._base:
            raise ValidationError(
                "this SamplingPool was built for a different base graph"
            )
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        seed_tuple = tuple(int(s) for s in seeds)
        layout = shard_layout(count)
        if self._jobs == 1 or len(layout) <= 1:
            return simulate_ic_batch(
                view, seed_tuple, count, random_state, backend=backend
            )
        key = draw_key(random_state)

        self._ensure_workers()
        self._broker.set_mask(view.active_mask)
        tasks = [
            SupervisedTask(
                index=shard,
                label=f"simulation shard {shard + 1}/{len(layout)} "
                f"({hi - lo} cascades)",
                submit=partial(
                    self._submit_simulate, key, lo, hi - lo, backend, seed_tuple
                ),
                run_local=partial(
                    simulate_ic_batch,
                    view,
                    seed_tuple,
                    hi - lo,
                    backend=backend,
                    key=key,
                    start=lo,
                ),
            )
            for shard, (lo, hi) in enumerate(layout)
        ]
        raw = supervised_collect(
            tasks,
            rebuild=self._rebuild_workers,
            tier="sampling",
            timeout=self._round_timeout(task_timeout),
            max_retries=self._max_retries,
            stats=self.supervision_stats,
        )
        batches: List[MCBatch] = []
        for item in raw:
            if isinstance(item, MCBatch):  # degraded shard ran in-process
                batches.append(item)
            else:
                offsets, nodes, n = item
                batches.append(MCBatch(offsets=offsets, nodes=nodes, n=n))
        return merge_mc_batches(batches)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else ("closed" if self._closed else "idle")
        return f"<SamplingPool jobs={self._jobs} {state} on {self._base!r}>"


def parallel_generate_rr_batch(
    graph: ProbabilisticGraph | ResidualGraph,
    count: int,
    random_state: RandomState = None,
    backend: Optional[str] = None,
    n_jobs: Optional[int] = None,
    roots: Optional[Sequence[int]] = None,
    stop: Optional[np.ndarray] = None,
    key: Optional[int] = None,
    start: int = 0,
) -> RRBatch:
    """One-shot sharded generation (ephemeral pool when ``n_jobs > 1``).

    Convenience wrapper over :class:`SamplingPool` for callers that sample
    a single large batch (NSG/NDG, the IMM target builder).  Repeated
    samplers (the adaptive algorithms) should hold a pool open instead of
    paying worker start-up per call.
    """
    jobs = resolve_jobs(n_jobs) or 1
    with SamplingPool(graph, n_jobs=jobs, directions=("in",)) as pool:
        return pool.generate(
            graph, count, random_state, backend=backend, roots=roots, stop=stop,
            key=key, start=start,
        )


def parallel_simulate_ic_batch(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Sequence[int],
    count: int,
    random_state: RandomState = None,
    backend: Optional[str] = None,
    n_jobs: Optional[int] = None,
) -> MCBatch:
    """One-shot sharded forward simulation (ephemeral pool when ``n_jobs > 1``).

    Convenience wrapper over :meth:`SamplingPool.simulate` for callers that
    run a single Monte-Carlo batch.  Repeated samplers (spread oracles, the
    experiment drivers) should hold a pool open instead of paying worker
    start-up per query.
    """
    jobs = resolve_jobs(n_jobs) or 1
    with SamplingPool(graph, n_jobs=jobs, directions=("out",)) as pool:
        return pool.simulate(graph, seeds, count, random_state, backend=backend)
