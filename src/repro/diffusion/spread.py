"""Expected-spread computation: exact enumeration and Monte-Carlo estimation.

Computing the exact expected spread ``E[I(S)]`` under the IC model is
#P-hard (Chen et al., 2010), which is precisely why the paper distinguishes
the *oracle model* (expected spreads available in ``O(1)``) from the *noise
model* (spreads estimated by sampling).  This module provides

* :func:`exact_expected_spread` — exact value by enumerating all ``2^m``
  possible worlds.  Only feasible for the tiny graphs used in unit tests
  and in the Fig. 1 worked example, and guarded accordingly.  The worlds
  are evaluated in chunks through the batched live-edge replay engine
  (:func:`repro.diffusion.mc_engine.replay_live_edges`) with the pattern
  probabilities computed vectorized, instead of the historical per-pattern
  Python inner loop.
* :func:`monte_carlo_spread` — the classical unbiased estimator obtained by
  averaging IC simulations.
* conditional variants used by the oracle-model algorithm ADG, where the
  quantity of interest is the *marginal* spread ``E[I_G(u | S)]`` on a
  residual graph.

Backends
--------
The Monte-Carlo estimators accept ``backend=``, resolved through
:func:`repro.diffusion.mc_engine.resolve_mc_backend` (the
``REPRO_MC_BACKEND`` environment variable fills in when the caller passes
``None``):

* ``"python"`` (default) — the historical per-cascade loop; defaults keep
  the exact historical RNG streams bit-for-bit.
* any other registered kernel backend (``"vectorized"``, ``"native"``,
  or ``"auto"`` for ``"native"`` when it can build) — the batched
  engine of :mod:`repro.diffusion.mc_engine`: all cascades of a query
  advance frontier-at-a-time with that kernel, optionally sharded across
  a :class:`~repro.parallel.pool.SamplingPool` (``n_jobs`` / ``pool``)
  under the library-wide determinism contract (output independent of the
  worker count and of the kernel choice).  For
  :func:`monte_carlo_marginal_spread` the batched engines consume the
  *same* realization stream as the historical loop (one ``rng.random(m)``
  row per simulation), so every backend returns bit-for-bit identical
  estimates.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.diffusion.ic_model import simulate_ic
from repro.diffusion.mc_engine import (
    MCBatch,
    live_chunk_rows,
    replay_live_edges,
    resolve_mc_backend,
    sample_live_chunks,
    simulate_ic_batch,
)
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng

#: Maximum number of edges for which possible-world enumeration is allowed.
MAX_EXACT_EDGES = 20


def exact_expected_spread(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Iterable[int],
    max_edges: int = MAX_EXACT_EDGES,
) -> float:
    """Exact ``E[I(S)]`` by enumerating every possible world.

    Enumerates only the edges whose both endpoints are active in the
    residual view, so the guard applies to the *residual* edge count.
    Raises :class:`ValidationError` when that count exceeds ``max_edges``.

    Pattern probabilities are computed for all ``2^r`` worlds with one
    vectorized pass per edge (same multiplication order as the historical
    scalar loop, so the products are bit-for-bit identical), and the
    per-world spreads are evaluated in chunks by the batched live-edge
    replay engine instead of one Python BFS per world.
    """
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    base = view.base
    seeds = [int(s) for s in seeds if view.is_active(int(s))]
    if not seeds:
        return 0.0

    sources, targets, probs = base.edge_array()
    relevant = np.nonzero(view.active_mask[sources] & view.active_mask[targets])[0]
    if relevant.size > max_edges:
        raise ValidationError(
            f"exact enumeration requires <= {max_edges} residual edges, "
            f"got {relevant.size}; use monte_carlo_spread instead"
        )

    num_edges = int(relevant.size)
    num_worlds = 1 << num_edges
    rel_probs = probs[relevant]
    rel_comp = 1.0 - rel_probs

    # Probability of every bit pattern at once.  Bit ``num_edges - 1 - k``
    # of the pattern index is edge ``k``'s live flag, which reproduces the
    # historical ``itertools.product([False, True], ...)`` enumeration
    # order (and the per-pattern multiplication order, factor by factor).
    indices = np.arange(num_worlds, dtype=np.int64)
    pattern_probs = np.ones(num_worlds, dtype=np.float64)
    for k in range(num_edges):
        bit = (indices >> (num_edges - 1 - k)) & 1
        pattern_probs *= np.where(bit, rel_probs[k], rel_comp[k])

    # Worlds of probability zero (some edge has p == 1 flagged blocked)
    # contribute nothing; skip their BFS like the historical loop did.
    feasible = np.nonzero(pattern_probs > 0.0)[0]
    shifts = (num_edges - 1 - np.arange(num_edges, dtype=np.int64))

    total = 0.0
    chunk = live_chunk_rows(int(feasible.size), base.m)
    for start in range(0, int(feasible.size), chunk):
        world_ids = feasible[start : start + chunk]
        live = np.zeros((world_ids.size, base.m), dtype=bool)
        if num_edges:
            flags = ((world_ids[:, None] >> shifts[None, :]) & 1).astype(bool)
            live[:, relevant] = flags
        spreads = replay_live_edges(view, seeds, live)
        total += float(np.dot(pattern_probs[world_ids], spreads))
    return total


def monte_carlo_spread(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Iterable[int],
    num_simulations: int = 1000,
    random_state: RandomState = None,
    backend: Optional[str] = None,
    n_jobs: Optional[int] = None,
    pool: Optional["SamplingPool"] = None,
) -> float:
    """Monte-Carlo estimate of ``E[I(S)]`` from ``num_simulations`` cascades.

    ``backend="python"`` (the resolved default) runs the historical
    per-cascade loop on the exact historical RNG stream; ``"vectorized"``
    runs the whole query as one batched sweep, sharded across ``n_jobs``
    workers (or a held ``pool``) when requested — the batched result is
    bit-for-bit independent of the worker count.
    """
    if num_simulations <= 0:
        raise ValidationError("num_simulations must be positive")
    rng = ensure_rng(random_state)
    seeds = list(seeds)
    if not seeds:
        return 0.0
    resolved = resolve_mc_backend(backend)
    if resolved == "python":
        total = 0
        for _ in range(num_simulations):
            total += len(simulate_ic(graph, seeds, rng))
        return total / num_simulations
    batch = _dispatch_simulate(
        graph, seeds, num_simulations, rng, n_jobs, pool, resolved
    )
    return batch.total_spread() / num_simulations


def monte_carlo_spread_samples(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Sequence[int],
    num_simulations: int,
    random_state: RandomState = None,
    backend: Optional[str] = None,
    n_jobs: Optional[int] = None,
    pool: Optional["SamplingPool"] = None,
) -> np.ndarray:
    """Return the individual spread samples (for variance / CI analysis)."""
    rng = ensure_rng(random_state)
    resolved = resolve_mc_backend(backend)
    if resolved == "python":
        samples = np.empty(num_simulations, dtype=np.float64)
        for index in range(num_simulations):
            samples[index] = len(simulate_ic(graph, seeds, rng))
        return samples
    batch = _dispatch_simulate(
        graph, list(seeds), num_simulations, rng, n_jobs, pool, resolved
    )
    return batch.spreads().astype(np.float64)


def exact_marginal_spread(
    graph: ProbabilisticGraph | ResidualGraph,
    node: int,
    conditioning_set: Iterable[int],
    max_edges: int = MAX_EXACT_EDGES,
) -> float:
    """Exact conditional marginal spread ``E[I_G(u | S)] = E[I(S ∪ {u})] − E[I(S)]``."""
    conditioning = set(int(v) for v in conditioning_set)
    if node in conditioning:
        return 0.0
    with_node = exact_expected_spread(graph, conditioning | {int(node)}, max_edges)
    without_node = exact_expected_spread(graph, conditioning, max_edges) if conditioning else 0.0
    return with_node - without_node


def monte_carlo_marginal_spread(
    graph: ProbabilisticGraph | ResidualGraph,
    node: int,
    conditioning_set: Iterable[int],
    num_simulations: int = 1000,
    random_state: RandomState = None,
    backend: Optional[str] = None,
) -> float:
    """Monte-Carlo estimate of ``E[I_G(u | S)]`` using common random numbers.

    The same realization is used for the "with" and "without" cascades,
    which greatly reduces the variance of the difference.  The vectorized
    backend draws the realizations in bulk rows (the identical stream the
    per-realization loop consumes) and replays both cascades of every
    realization through the batched live-edge engine, so the two backends
    return bit-for-bit identical estimates.
    """
    from repro.diffusion.realization import Realization

    rng = ensure_rng(random_state)
    conditioning = [int(v) for v in conditioning_set]
    node = int(node)
    if node in conditioning:
        return 0.0
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    base = view.base
    resolved = resolve_mc_backend(backend)
    if resolved == "python":
        total = 0.0
        for _ in range(num_simulations):
            world = Realization.sample(base, rng)
            with_node = world.spread(conditioning + [node], view)
            without_node = world.spread(conditioning, view) if conditioning else 0
            total += with_node - without_node
        return total / num_simulations

    total_int = 0
    for live in sample_live_chunks(rng, base.out_csr()[2], num_simulations):
        with_spreads = replay_live_edges(
            view, conditioning + [node], live, backend=resolved
        )
        total_int += int(with_spreads.sum())
        if conditioning:
            total_int -= int(
                replay_live_edges(view, conditioning, live, backend=resolved).sum()
            )
    return total_int / num_simulations


def expected_spread_lower_bound(
    samples: np.ndarray,
    confidence: float = 0.95,
) -> float:
    """One-sided lower confidence bound on the mean spread (Hoeffding style).

    Used by the cost-model construction: the paper sets ``c(T)`` equal to a
    lower bound ``E_l[I(T)]`` of the target set's expected spread.
    ``samples`` are individual spread draws bounded by ``n`` (handled by the
    caller via normalisation); here we apply the normal-approximation bound
    which is accurate for the sample sizes the experiments use, clipped at
    the sample minimum to stay conservative on tiny sample counts.
    """
    if samples.size == 0:
        return 0.0
    mean = float(samples.mean())
    if samples.size == 1:
        return mean
    std_error = float(samples.std(ddof=1)) / np.sqrt(samples.size)
    # 95% one-sided normal quantile by default.
    z_values = {0.9: 1.2816, 0.95: 1.6449, 0.99: 2.3263}
    z = z_values.get(round(confidence, 2), 1.6449)
    lower = mean - z * std_error
    return max(lower, float(samples.min()), 0.0)


def _dispatch_simulate(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Sequence[int],
    count: int,
    random_state: RandomState,
    n_jobs: Optional[int],
    pool: Optional["SamplingPool"],
    backend: str = "vectorized",
) -> MCBatch:
    """Route one batched MC query through the pool / sharded / plain engine."""
    from repro.parallel.pool import parallel_simulate_ic_batch, resolve_jobs

    if pool is not None:
        return pool.simulate(graph, seeds, count, random_state, backend=backend)
    jobs = resolve_jobs(n_jobs)
    if jobs is not None:
        return parallel_simulate_ic_batch(
            graph, seeds, count, random_state, backend=backend, n_jobs=jobs
        )
    return simulate_ic_batch(graph, seeds, count, random_state, backend=backend)
