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
  probabilities computed vectorized.
* :func:`monte_carlo_spread` — the classical unbiased estimator obtained by
  averaging IC simulations.
* conditional variants used by the oracle-model algorithm ADG, where the
  quantity of interest is the *marginal* spread ``E[I_G(u | S)]`` on a
  residual graph.

Backends
--------
The Monte-Carlo estimators accept ``backend=``, any registered kernel
backend resolved through :func:`repro.kernels.resolve_backend` (``None``
honours ``REPRO_BACKEND`` and defaults to ``"vectorized"``).  Every query
runs as one batch of the keyed cascade stream of
:mod:`repro.diffusion.mc_engine`, optionally sharded across a
:class:`~repro.parallel.pool.SamplingPool` (``n_jobs`` / ``pool``); the
estimate depends on neither the kernel nor the worker count.
:func:`monte_carlo_marginal_spread` replays common realizations instead
(one ``rng.random(m)`` row per simulation), whatever the backend.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.diffusion.mc_engine import (
    MCBatch,
    live_chunk_rows,
    replay_live_edges,
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
    vectorized pass per edge (the factors of each world multiply in edge
    order), and the per-world spreads are evaluated in chunks by the
    batched live-edge replay engine.
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
    # of the pattern index is edge ``k``'s live flag, so worlds enumerate
    # in ``itertools.product([False, True], ...)`` order.
    indices = np.arange(num_worlds, dtype=np.int64)
    pattern_probs = np.ones(num_worlds, dtype=np.float64)
    for k in range(num_edges):
        bit = (indices >> (num_edges - 1 - k)) & 1
        pattern_probs *= np.where(bit, rel_probs[k], rel_comp[k])

    # Worlds of probability zero (some edge has p == 1 flagged blocked)
    # contribute nothing; skip their BFS.
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


def _require_simulations(num_simulations: int) -> None:
    if num_simulations < 1:
        raise ValidationError(
            f"num_simulations must be >= 1, got {num_simulations}"
        )


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

    The cascades are one batch of the keyed cascade stream, sharded
    across ``n_jobs`` workers (or a held ``pool``) when requested; the
    estimate depends on neither the worker count nor the kernel.
    """
    _require_simulations(num_simulations)
    seeds = list(seeds)
    if not seeds:
        return 0.0
    batch = _dispatch_simulate(
        graph, seeds, num_simulations, random_state, n_jobs, pool, backend
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
    _require_simulations(num_simulations)
    batch = _dispatch_simulate(
        graph, list(seeds), num_simulations, random_state, n_jobs, pool, backend
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
    which greatly reduces the variance of the difference.  Realizations
    are drawn in bulk rows (:func:`~repro.diffusion.mc_engine.
    sample_live_chunks`) and both cascades of every realization are
    replayed through the batched live-edge engine with ``backend``.
    """
    _require_simulations(num_simulations)
    rng = ensure_rng(random_state)
    conditioning = [int(v) for v in conditioning_set]
    node = int(node)
    if node in conditioning:
        return 0.0
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    total = 0
    for live in sample_live_chunks(rng, view.base.out_csr()[2], num_simulations):
        total += int(
            replay_live_edges(view, conditioning + [node], live, backend=backend).sum()
        )
        if conditioning:
            total -= int(
                replay_live_edges(view, conditioning, live, backend=backend).sum()
            )
    return total / num_simulations


#: One-sided standard-normal quantiles of the supported confidence levels.
_NORMAL_QUANTILES = {0.9: 1.2816, 0.95: 1.6449, 0.99: 2.3263}


def normal_quantile(confidence: float) -> float:
    """The one-sided normal quantile ``z`` of ``confidence`` (0.90, 0.95 or 0.99).

    Raises :class:`ValidationError` for any other level.
    """
    z = _NORMAL_QUANTILES.get(round(float(confidence), 9))
    if z is None:
        raise ValidationError(
            f"confidence must be one of {sorted(_NORMAL_QUANTILES)}, got {confidence}"
        )
    return z


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
    z = normal_quantile(confidence)
    if samples.size == 0:
        return 0.0
    mean = float(samples.mean())
    if samples.size == 1:
        return mean
    std_error = float(samples.std(ddof=1)) / np.sqrt(samples.size)
    lower = mean - z * std_error
    return max(lower, float(samples.min()), 0.0)


def _dispatch_simulate(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Sequence[int],
    count: int,
    random_state: RandomState,
    n_jobs: Optional[int],
    pool: Optional["SamplingPool"],
    backend: Optional[str] = None,
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
