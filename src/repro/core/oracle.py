"""Spread and profit oracles.

The paper analyses ADG in the *oracle model*: the expected spread of any
node set on any residual graph is assumed to be available in ``O(1)``.
That model is a theoretical device (exact spread computation is #P-hard),
so this module offers three interchangeable oracle implementations:

* :class:`ExactSpreadOracle` — possible-world enumeration; exact, but only
  feasible for unit-test-sized graphs.
* :class:`MonteCarloSpreadOracle` — averages forward IC simulations with
  common random numbers for marginals.
* :class:`RISSpreadOracle` — generates a fresh batch of RR sets per query;
  the cheapest option on medium graphs.

:class:`ProfitOracle` layers seeding costs on top of any spread oracle so
the oracle-model algorithm (:class:`repro.core.adg.ADG`) can query expected
marginal *profits* directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.profit import total_cost
from repro.diffusion.mc_engine import replay_live_edges, sample_live_chunks
from repro.diffusion.spread import (
    exact_expected_spread,
    monte_carlo_marginal_spread,
    monte_carlo_spread,
)
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.sampling.flat_collection import FlatRRCollection
from repro.service.cache import LRUCache
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng

#: Default capacity of the :class:`ExactSpreadOracle` memo.  Exact-policy
#: analyses enumerate every realization of a small graph and re-ask the
#: same (residual state, seed set) questions per world; tens of thousands
#: of entries cover those sweeps comfortably while bounding a long-lived
#: process (each entry is one float keyed by a small tuple).
EXACT_CACHE_SIZE = 65536


class SpreadOracle(Protocol):
    """Anything that can answer expected-spread queries on residual graphs."""

    def expected_spread(
        self, graph: ProbabilisticGraph | ResidualGraph, seeds: Iterable[int]
    ) -> float:
        """Expected spread ``E[I_G(S)]`` of ``seeds`` on ``graph``."""
        ...

    def marginal_spread(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        node: int,
        conditioning_set: Iterable[int],
    ) -> float:
        """Conditional expected marginal spread ``E[I_G(u | S)]``."""
        ...


class ExactSpreadOracle:
    """Exact oracle by possible-world enumeration (tiny graphs only).

    Queries are memoised on ``(residual state, seed set)`` because analyses
    such as the exact policy-profit computation re-ask the same questions for
    every enumerated realization; the cache turns those repeated enumerations
    into dictionary lookups.  The memo is a bounded LRU
    (:class:`repro.service.cache.LRUCache`, default capacity
    :data:`EXACT_CACHE_SIZE`) so a long-lived process cannot grow it without
    limit; ``cache_size`` tunes the bound, ``cache=False`` disables it.
    """

    def __init__(
        self,
        max_edges: int = 20,
        cache: bool = True,
        cache_size: int = EXACT_CACHE_SIZE,
    ) -> None:
        self._max_edges = int(max_edges)
        self._cache: LRUCache | None = LRUCache(cache_size) if cache else None

    @property
    def cache(self) -> LRUCache | None:
        """The bounded memo (``None`` when caching is disabled)."""
        return self._cache

    def _cache_key(self, graph, seeds: frozenset):
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        return (id(view.base), view.active_mask.tobytes(), seeds)

    def expected_spread(
        self, graph: ProbabilisticGraph | ResidualGraph, seeds: Iterable[int]
    ) -> float:
        seed_key = frozenset(int(v) for v in seeds)
        if self._cache is None:
            return exact_expected_spread(graph, seed_key, self._max_edges)
        key = self._cache_key(graph, seed_key)
        value = self._cache.get(key)
        if value is None:
            value = exact_expected_spread(graph, seed_key, self._max_edges)
            self._cache.put(key, value)
        return value

    def marginal_spread(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        node: int,
        conditioning_set: Iterable[int],
    ) -> float:
        conditioning = {int(v) for v in conditioning_set}
        node = int(node)
        if node in conditioning:
            return 0.0
        with_node = self.expected_spread(graph, conditioning | {node})
        without_node = self.expected_spread(graph, conditioning) if conditioning else 0.0
        return with_node - without_node


class _PooledOracleMixin:
    """The held thread pool shared by the sampling oracles.

    Repeated samplers hold one :class:`~repro.parallel.pool.SamplingPool`,
    made on the first query, for every graph they are asked about;
    :meth:`close` (or context-manager use) joins its threads.
    """

    _pool = None
    _n_jobs: Optional[int] = None

    def _query_pool(self):
        if self._pool is None:
            from repro.parallel.pool import SamplingPool

            self._pool = SamplingPool(self._n_jobs)
        return self._pool

    def close(self) -> None:
        """Join the held pool's threads, if any (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MonteCarloSpreadOracle(_PooledOracleMixin):
    """Monte-Carlo oracle averaging forward IC cascades.

    ``backend`` is the kernel backend of every query (resolved through
    :func:`repro.kernels.resolve_backend`; ``None`` honours
    ``REPRO_BACKEND``, then ``"auto"``).  Every spread
    query runs as one batch of the keyed cascade stream, and the
    :meth:`expected_spread` batches are drawn on one held
    :class:`~repro.parallel.pool.SamplingPool` of ``n_jobs`` threads
    (call :meth:`close` or use the oracle as a context manager to join
    them; output is bit-for-bit independent of the thread count).
    Marginal queries stay in-process regardless of ``n_jobs``:
    they replay realizations drawn from the oracle's generator in bulk
    rows, one ``rng.random(m)`` row per simulation.

    The *batched query API* (:meth:`marginal_spreads`,
    :meth:`marginal_spread_pair`) evaluates many candidate marginals
    against one shared realization stream (common random numbers across
    *queries*, not just within one), which is how ADG amortises its
    per-node front/rear evaluations over a single bulk draw.
    """

    def __init__(
        self,
        num_simulations: int = 1000,
        random_state: RandomState = None,
        backend: Optional[str] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        from repro.parallel.pool import resolve_jobs

        if num_simulations < 1:
            raise ValidationError(
                f"num_simulations must be >= 1, got {num_simulations}"
            )
        self._num_simulations = int(num_simulations)
        self._rng = ensure_rng(random_state)
        self._backend = kernels.resolve_backend(backend)
        self._n_jobs = resolve_jobs(n_jobs)
        self._pool = None

    @property
    def num_simulations(self) -> int:
        """Cascades per query."""
        return self._num_simulations

    @property
    def backend(self) -> str:
        """Resolved simulation backend (a registered kernel name)."""
        return self._backend

    def expected_spread(
        self, graph: ProbabilisticGraph | ResidualGraph, seeds: Iterable[int]
    ) -> float:
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        return monte_carlo_spread(
            view,
            seeds,
            self._num_simulations,
            self._rng,
            backend=self._backend,
            pool=self._query_pool(),
        )

    def marginal_spread(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        node: int,
        conditioning_set: Iterable[int],
    ) -> float:
        return monte_carlo_marginal_spread(
            graph,
            node,
            conditioning_set,
            self._num_simulations,
            self._rng,
            backend=self._backend,
        )

    # ------------------------------------------------------------------ #
    # batched query API (shared realizations across queries)
    # ------------------------------------------------------------------ #

    def _batched_mean_spreads(
        self, view: ResidualGraph, seed_sets: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Mean spread of several seed sets over one shared realization stream.

        Draws ``num_simulations`` live-edge realizations in bulk rows and
        replays every seed set against each of them through the batched
        live-edge engine — common random numbers across all queries, one
        coin-flip pass regardless of how many seed sets are evaluated.
        """
        base = view.base
        totals = np.zeros(len(seed_sets), dtype=np.int64)
        sims = self._num_simulations
        for live in sample_live_chunks(self._rng, base.out_csr()[2], sims):
            for index, seed_set in enumerate(seed_sets):
                if seed_set:
                    totals[index] += int(
                        replay_live_edges(
                            view, seed_set, live, backend=self._backend
                        ).sum()
                    )
        return totals / sims

    def marginal_spreads(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        nodes: Sequence[int],
        conditioning_set: Iterable[int],
    ) -> np.ndarray:
        """``E[I(u | S)]`` for many candidates ``u`` in one batched call.

        All candidates share the same realization stream (and the same
        baseline ``E[I(S)]`` evaluation), so the whole sweep costs one bulk
        coin-flip pass plus one replay per candidate instead of one full
        Monte-Carlo run per candidate.  Candidates already in ``S`` read
        0.0, mirroring :meth:`marginal_spread`.
        """
        nodes = [int(v) for v in nodes]
        conditioning = [int(v) for v in conditioning_set]
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        members = set(conditioning)
        candidates = [node for node in nodes if node not in members]
        seed_sets: List[List[int]] = [conditioning]
        seed_sets.extend(conditioning + [node] for node in candidates)
        means = self._batched_mean_spreads(view, seed_sets)
        baseline = means[0] if conditioning else 0.0
        by_node = dict(zip(candidates, means[1:]))
        return np.asarray(
            [by_node[node] - baseline if node in by_node else 0.0 for node in nodes],
            dtype=np.float64,
        )

    def marginal_spread_pair(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        node: int,
        front_conditioning: Iterable[int],
        rear_conditioning: Iterable[int],
    ) -> Tuple[float, float]:
        """``(E[I(u | S)], E[I(u | R)])`` from one shared realization batch.

        The double-greedy decision of ADG needs exactly this pair per
        examined node; evaluating both marginals against the same bulk draw
        halves the sampling cost and correlates the front/rear noise (a
        variance reduction for the *comparison* the algorithm makes).
        """
        node = int(node)
        front = [int(v) for v in front_conditioning]
        rear = [int(v) for v in rear_conditioning]
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        seed_sets: List[List[int]] = []
        layout: List[Optional[Tuple[int, int]]] = []
        for conditioning in (front, rear):
            if node in conditioning:
                layout.append(None)
                continue
            without_index = len(seed_sets)
            seed_sets.append(conditioning)
            seed_sets.append(conditioning + [node])
            layout.append((without_index, without_index + 1))
        if not seed_sets:
            return 0.0, 0.0
        means = self._batched_mean_spreads(view, seed_sets)
        results = []
        for slot in layout:
            if slot is None:
                results.append(0.0)
            else:
                without_index, with_index = slot
                results.append(float(means[with_index] - means[without_index]))
        return results[0], results[1]


class RISSpreadOracle(_PooledOracleMixin):
    """RIS-based oracle: a fresh RR batch per query (unbiased, cheap).

    ``n_jobs`` counts the threads of the one
    :class:`~repro.parallel.pool.SamplingPool` the oracle holds for every
    query's batch (``None`` honours ``REPRO_JOBS``, then uses every
    usable core; ``-1`` uses all cores); call :meth:`close` (or use the
    oracle as a context manager) to join them.

    ``sample_reuse=True`` additionally caches the RR collection per
    residual *state* (base graph + activity mask): the double-greedy ADG
    loop asks several front/rear queries between seed commits, and with
    reuse all of them are answered from one batch instead of sampling a
    fresh one each time.  The estimator stays unbiased per query, but
    queries on the same residual state become correlated — acceptable for
    the oracle-model experiments, so it is opt-in.  The cache is a bounded
    LRU (:class:`repro.service.cache.LRUCache`); ``cache_size=1``, the
    default, keeps only the latest residual state (returning to an earlier
    one regenerates, drawing a fresh key), while the long-lived service
    raises it to keep many residual states warm at once.
    """

    def __init__(
        self,
        num_samples: int = 2000,
        random_state: RandomState = None,
        n_jobs: Optional[int] = None,
        sample_reuse: bool = False,
        cache_size: int = 1,
    ) -> None:
        from repro.parallel.pool import resolve_jobs

        self._num_samples = int(num_samples)
        self._rng = ensure_rng(random_state)
        self._n_jobs = resolve_jobs(n_jobs)
        self._pool = None
        self._sample_reuse = bool(sample_reuse)
        # Cached collections are keyed on the base graph's id() plus the
        # activity-mask bytes; each entry holds the base graph *object* so
        # the id can never be recycled while the entry is alive.
        self._collections = LRUCache(cache_size)

    @property
    def num_samples(self) -> int:
        """RR sets per query."""
        return self._num_samples

    @property
    def collection_cache(self) -> LRUCache:
        """The bounded per-residual-state collection cache (``sample_reuse``)."""
        return self._collections

    def _collection(self, view: ResidualGraph) -> FlatRRCollection:
        if not self._sample_reuse:
            return self._generate(view)
        key = (id(view.base), view.active_mask.tobytes())
        entry = self._collections.get(key)
        if entry is not None:
            return entry[1]
        collection = self._generate(view)
        self._collections.put(key, (view.base, collection))
        return collection

    def _generate(self, view: ResidualGraph) -> FlatRRCollection:
        return FlatRRCollection.generate(
            view, self._num_samples, self._rng, pool=self._query_pool()
        )

    def expected_spread(
        self, graph: ProbabilisticGraph | ResidualGraph, seeds: Iterable[int]
    ) -> float:
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        return self._collection(view).estimate_spread(seeds)

    def marginal_spread(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        node: int,
        conditioning_set: Iterable[int],
    ) -> float:
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        return self._collection(view).estimate_marginal_spread(node, conditioning_set)


class ProfitOracle:
    """Expected-profit oracle: a spread oracle plus a node-cost mapping.

    Implements Definition 3 of the paper: the conditional expected marginal
    profit ``∆_G(u | S) = E[I_G(u | S)] − c(u)`` for ``u ∉ S`` and ``0``
    otherwise.
    """

    def __init__(self, spread_oracle: SpreadOracle, costs: Mapping[int, float]) -> None:
        self._spread_oracle = spread_oracle
        self._costs: Dict[int, float] = {int(k): float(v) for k, v in costs.items()}

    @property
    def spread_oracle(self) -> SpreadOracle:
        """The underlying spread oracle."""
        return self._spread_oracle

    @property
    def costs(self) -> Dict[int, float]:
        """The node-cost mapping."""
        return self._costs

    def cost(self, nodes: Iterable[int]) -> float:
        """Total seeding cost of ``nodes``."""
        return total_cost(self._costs, nodes)

    def expected_profit(
        self, graph: ProbabilisticGraph | ResidualGraph, seeds: Iterable[int]
    ) -> float:
        """``ρ_G(S) = E[I_G(S)] − c(S)``."""
        seeds = [int(v) for v in seeds]
        return self._spread_oracle.expected_spread(graph, seeds) - self.cost(seeds)

    def marginal_profit(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        node: int,
        conditioning_set: Iterable[int],
    ) -> float:
        """``∆_G(u | S)`` per Definition 3 (0 when ``u`` already in ``S``)."""
        node = int(node)
        conditioning = {int(v) for v in conditioning_set}
        if node in conditioning:
            return 0.0
        marginal = self._spread_oracle.marginal_spread(graph, node, conditioning)
        return marginal - self._costs.get(node, 0.0)

    def marginal_profits(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        nodes: Sequence[int],
        conditioning_set: Iterable[int],
    ) -> np.ndarray:
        """``∆_G(u | S)`` for many candidates ``u`` in one call.

        Uses the spread oracle's batched :meth:`marginal_spreads` when it
        offers one (the vectorized Monte-Carlo oracle shares a single
        realization stream across all candidates); otherwise falls back to
        per-candidate queries in candidate order.
        """
        nodes = [int(v) for v in nodes]
        conditioning = {int(v) for v in conditioning_set}
        batched = getattr(self._spread_oracle, "marginal_spreads", None)
        if batched is not None:
            spreads = np.asarray(batched(graph, nodes, conditioning), dtype=np.float64)
        else:
            spreads = np.asarray(
                [
                    0.0
                    if node in conditioning
                    else self._spread_oracle.marginal_spread(graph, node, conditioning)
                    for node in nodes
                ],
                dtype=np.float64,
            )
        return np.asarray(
            [
                0.0 if node in conditioning else spread - self._costs.get(node, 0.0)
                for node, spread in zip(nodes, spreads)
            ],
            dtype=np.float64,
        )

    def marginal_profit_pair(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        node: int,
        front_conditioning: Iterable[int],
        rear_conditioning: Iterable[int],
    ) -> Tuple[float, float]:
        """The front/rear profit pair of one double-greedy decision.

        ``(∆_G(u | S), ∆_G(u | R))`` for the two conditioning sets ADG
        compares at every examined node.  Spread oracles exposing a batched
        :meth:`marginal_spread_pair` (the Monte-Carlo oracle) answer both
        marginals from one shared realization batch; all other oracles
        answer two sequential :meth:`marginal_profit` calls — front first,
        rear second.
        """
        node = int(node)
        front = {int(v) for v in front_conditioning}
        rear = {int(v) for v in rear_conditioning}
        paired = getattr(self._spread_oracle, "marginal_spread_pair", None)
        if paired is None:
            return (
                self.marginal_profit(graph, node, front),
                self.marginal_profit(graph, node, rear),
            )
        front_spread, rear_spread = paired(graph, node, front, rear)
        cost = self._costs.get(node, 0.0)
        return (
            0.0 if node in front else front_spread - cost,
            0.0 if node in rear else rear_spread - cost,
        )
