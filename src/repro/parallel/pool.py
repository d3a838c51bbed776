"""Thread pool drawing keyed RR and cascade batches in contiguous shards.

Every RR set and every forward cascade is a pure function of its batch
key and its index (:mod:`repro.sampling.engine`,
:mod:`repro.diffusion.mc_engine`).  So :class:`SamplingPool` splits a
batch of ``count`` items into one contiguous shard ``[a, b)`` per
thread, draws each shard as ``(key, start + a, b − a)`` on a thread of
this process, and concatenates the shards in order
(:func:`~repro.sampling.engine.merge_rr_batches`,
:func:`~repro.diffusion.mc_engine.merge_mc_batches`).  The merged batch is
the one a single call draws, whatever the thread count.  The threads read
the caller's own graph arrays: nothing is copied, pickled or published.
They run in parallel because the C kernels are called through
``ctypes.CDLL``, which releases the GIL, as NumPy does in large array
operations.

A batch below :data:`MIN_SPLIT` items, and every batch of a one-thread
pool, runs as one call in the calling thread; the threads start lazily,
with the first batch that splits.

:class:`~repro.core.estimation.FrontRearEstimator` submits the shards of
both sides of a refinement round — the front batch ``R1`` and the rear
batch ``R2`` — to one pool through :meth:`SamplingPool.map`, so the two
batches are drawn concurrently.

``resolve_jobs`` is the single knob-resolution point: explicit ``n_jobs``
arguments win, the ``REPRO_JOBS`` environment variable fills in when the
caller passed ``None``, and then every usable core is used.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.diffusion.mc_engine import MCBatch, merge_mc_batches, simulate_ic_batch
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph
from repro.parallel.seeds import shard_layout, shard_roots
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

#: Smallest batch the pool splits over its threads; smaller ones run as
#: one call.  Measured on 2 idle CPUs with the native kernels (600-node
#: NetHEPT proxy, a two-thread estimator round against one call): break
#: even at about 4k sets per side, 1.3× faster at 8k, 1.5× at 16k.  Every
#: batch of the SMOKE figures (at most 2,500 sets) and of the service
#: (2,000-set collections, 200-cascade queries) stays below it.
MIN_SPLIT = 8192


def available_cpus() -> int:
    """Number of CPU cores usable by this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def resolve_jobs(n_jobs: Optional[int] = None) -> int:
    """Resolve a thread-count request to a concrete count.

    * an explicit integer wins: ``-1`` means all usable cores, values
      ``>= 1`` are taken as-is, anything else is rejected;
    * ``None`` falls back to the ``REPRO_JOBS`` environment variable with
      the same semantics, and then to all usable cores.

    Every count samples the same RR sets and cascades, so the default
    changes speed only.
    """
    if n_jobs is None:
        n_jobs = read_env_int(JOBS_ENV_VAR)
        if n_jobs is None:
            return available_cpus()
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return available_cpus()
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}")
    return n_jobs


class SamplingPool:
    """Threads that draw the shards of keyed RR and cascade batches.

    Parameters
    ----------
    n_jobs:
        Thread count, resolved through :func:`resolve_jobs` (``None``
        honours ``REPRO_JOBS``, then uses every usable core; ``-1`` uses
        all cores).  A one-thread pool never starts a thread.

    The pool is bound to no graph: each call names the graph or residual
    view it samples, and the threads read its arrays in place.
    :meth:`close` (or leaving a ``with`` block) joins the threads, so no
    pool thread is alive when the caller forks later
    (:class:`~repro.parallel.eval_pool.EvaluationPool`).
    """

    def __init__(self, n_jobs: Optional[int] = None) -> None:
        self._jobs = resolve_jobs(n_jobs)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False

    @property
    def n_jobs(self) -> int:
        """Resolved thread count."""
        return self._jobs

    @property
    def running(self) -> bool:
        """Whether the pool's threads have started."""
        return self._executor is not None

    def close(self) -> None:
        """Join the threads (idempotent); the pool refuses work afterwards."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "SamplingPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shards(self, count: int) -> List[Tuple[int, int]]:
        """The contiguous ``[a, b)`` shards a batch of ``count`` items splits into.

        One shard below :data:`MIN_SPLIT` or on one thread, else one per
        thread.  Raises :class:`~repro.utils.exceptions.ValidationError`
        once the pool is closed.
        """
        if self._closed:
            raise ValidationError("SamplingPool is closed")
        if self._jobs == 1 or count < MIN_SPLIT:
            return [(0, count)]
        return shard_layout(count, -(-count // self._jobs))

    def map(self, function: Callable, items: Sequence) -> list:
        """``[function(item) for item in items]``, on the pool's threads.

        Results come back in item order.  A single item, or a one-thread
        pool, runs in the calling thread.  If an item raises, the items
        not yet started are cancelled and the first failure in item order
        is raised.
        """
        if self._closed:
            raise ValidationError("SamplingPool is closed")
        if len(items) <= 1 or self._jobs == 1:
            return [function(item) for item in items]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                self._jobs, thread_name_prefix="repro-sampling"
            )
        return list(self._executor.map(function, items))

    def generate(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        count: int,
        random_state: RandomState = None,
        backend: Optional[str] = None,
        roots: Optional[Sequence[int]] = None,
        stop: Optional[np.ndarray] = None,
        key: Optional[int] = None,
        start: int = 0,
    ) -> RRBatch:
        """Draw ``count`` RR sets on ``graph``, split over the threads.

        The arguments mean what they mean for
        :func:`~repro.sampling.engine.generate_rr_batch`, and the batch
        is the one that function returns, whatever ``n_jobs`` is.
        """
        shards = self.shards(count)
        if len(shards) == 1:
            return generate_rr_batch(
                graph, count, random_state, backend, roots=roots, stop=stop,
                key=key, start=start,
            )
        # Resolve the backend and draw the key here, so the threads share
        # both and the kernels are probed once, in the calling thread.
        backend = kernels.resolve_backend(backend)
        if key is None:
            key = draw_key(random_state)

        def draw(part):
            (lo, hi), part_roots = part
            return generate_rr_batch(
                graph, hi - lo, backend=backend, roots=part_roots, stop=stop,
                key=key, start=start + lo,
            )

        parts = list(zip(shards, shard_roots(roots, shards)))
        return merge_rr_batches(self.map(draw, parts))

    def simulate(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        seeds: Sequence[int],
        count: int,
        random_state: RandomState = None,
        backend: Optional[str] = None,
    ) -> MCBatch:
        """Run ``count`` forward IC cascades from ``seeds``, split over the threads.

        The forward twin of :meth:`generate`: the batch is the one
        :func:`~repro.diffusion.mc_engine.simulate_ic_batch` returns,
        whatever ``n_jobs`` is.
        """
        shards = self.shards(count)
        if len(shards) == 1:
            return simulate_ic_batch(graph, seeds, count, random_state, backend=backend)
        backend = kernels.resolve_backend(backend)
        key = draw_key(random_state)
        seeds = tuple(seeds)

        def draw(shard):
            lo, hi = shard
            return simulate_ic_batch(
                graph, seeds, hi - lo, backend=backend, key=key, start=lo
            )

        return merge_mc_batches(self.map(draw, shards))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("running" if self.running else "idle")
        return f"<SamplingPool threads={self._jobs} {state}>"
