"""Realizations (possible worlds) of a probabilistic graph.

A *realization* ``φ`` fixes the outcome of every edge's coin flip: each edge
``e`` is *live* with probability ``p(e)`` and *blocked* otherwise
(Section II-A of the paper).  Under a fixed realization the spread of a seed
set ``S`` is simply the set of nodes reachable from ``S`` through live
edges.

Two implementations are provided:

* :class:`Realization` — eagerly samples the state of all ``m`` edges.  This
  is simple and fast for the proxy graph sizes used in the benchmarks.
* :class:`LazyRealization` — samples edge states on first use and memoises
  them.  Adaptive seeding only ever inspects edges reachable from the chosen
  seeds, so laziness saves a lot of work on large graphs while remaining
  *consistent*: once flipped, an edge's state never changes.

Both classes expose the same interface and both are deterministic functions
of the provided random generator, so experiments are reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence, Set

import numpy as np

from repro.diffusion.mc_engine import live_edge_reachable, replay_live_edges
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng


class BaseRealization:
    """Interface shared by eager and lazy realizations."""

    #: The graph this realization belongs to.
    graph: ProbabilisticGraph

    def is_live(self, edge_id: int) -> bool:
        """Whether the directed edge with ``edge_id`` is live under φ."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # spread under the realization
    # ------------------------------------------------------------------ #

    def activated_by(
        self,
        seeds: Iterable[int],
        residual: Optional[ResidualGraph] = None,
    ) -> Set[int]:
        """Nodes activated when ``seeds`` are selected under this realization.

        Traversal is restricted to the *active* nodes of ``residual`` when
        given (the adaptive feedback of the paper: already-activated nodes
        neither propagate nor count again).  Seeds that are inactive in the
        residual graph are ignored.

        Returns the full activated set **including** the seeds themselves.
        """
        view = as_residual(self.graph) if residual is None else residual
        activated: Set[int] = set()
        queue: deque[int] = deque()
        for seed in seeds:
            seed = int(seed)
            if view.is_active(seed) and seed not in activated:
                activated.add(seed)
                queue.append(seed)
        while queue:
            node = queue.popleft()
            targets, _, edge_ids = view.out_neighbors(node)
            for target, edge_id in zip(targets.tolist(), edge_ids.tolist()):
                if target in activated:
                    continue
                if self.is_live(edge_id):
                    activated.add(target)
                    queue.append(target)
        return activated

    def spread(
        self,
        seeds: Iterable[int],
        residual: Optional[ResidualGraph] = None,
    ) -> int:
        """``I_φ(S)``: the number of nodes activated by ``seeds`` under φ."""
        return len(self.activated_by(seeds, residual))


class Realization(BaseRealization):
    """Eagerly sampled possible world: one Bernoulli flip per edge."""

    __slots__ = ("graph", "_live")

    def __init__(self, graph: ProbabilisticGraph, live_edges: np.ndarray) -> None:
        live = np.asarray(live_edges, dtype=bool)
        if live.shape != (graph.m,):
            raise ValueError(
                f"live_edges must have shape ({graph.m},), got {live.shape}"
            )
        self.graph = graph
        self._live = live

    @classmethod
    def sample(
        cls, graph: ProbabilisticGraph, random_state: RandomState = None
    ) -> "Realization":
        """Sample a realization: edge ``e`` is live with probability ``p(e)``.

        Reads the graph's cached probability array directly — sampling
        needs only the probability column, not the three ``O(m)`` copies
        ``edge_array()`` materializes: one ``rng.random(m)`` call, edge
        ``e`` live iff its draw is below ``p(e)``.
        """
        rng = ensure_rng(random_state)
        probs = graph.edge_probabilities
        live = rng.random(graph.m) < probs if graph.m else np.zeros(0, dtype=bool)
        return cls(graph, live)

    @classmethod
    def from_live_edge_ids(
        cls, graph: ProbabilisticGraph, live_edge_ids: Iterable[int]
    ) -> "Realization":
        """Build a realization where exactly ``live_edge_ids`` are live.

        Useful for constructing the specific possible world of a worked
        example (e.g. the Fig. 1 scenario) in tests.
        """
        live = np.zeros(graph.m, dtype=bool)
        ids = np.asarray(list(live_edge_ids), dtype=np.int64)
        if ids.size:
            live[ids] = True
        return cls(graph, live)

    def is_live(self, edge_id: int) -> bool:
        return bool(self._live[edge_id])

    def activated_by(
        self,
        seeds: Iterable[int],
        residual: Optional[ResidualGraph] = None,
    ) -> Set[int]:
        """Vectorized live-edge reachability (same result as the base loop).

        An eager realization holds the full live mask, so the activated set
        is one frontier-at-a-time sweep of the batched replay engine
        instead of a per-node Python BFS — the hot path of every adaptive
        session commit and of nonadaptive policy scoring.
        """
        view = as_residual(self.graph) if residual is None else residual
        reached = live_edge_reachable(view, seeds, self._live)
        return set(int(v) for v in reached)

    @property
    def live_mask(self) -> np.ndarray:
        """Boolean live/blocked mask indexed by edge id (copy-free view)."""
        return self._live

    @property
    def num_live_edges(self) -> int:
        """Number of live edges in this possible world."""
        return int(self._live.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Realization live={self.num_live_edges}/{self.graph.m}>"


class LazyRealization(BaseRealization):
    """Possible world whose edge flips are sampled on first inspection.

    The sampled states are memoised, so repeated queries are consistent —
    the defining property a realization needs for adaptive seeding, where
    the same edge may be examined in several iterations.

    Two sampling granularities:

    * ``batch_flip=False`` (default) — one Python-level Bernoulli draw per
      edge on first inspection, in the order edges are inspected.
    * ``batch_flip=True`` — on the first touch of any edge, the whole
      out-neighbour slice of its source node is flipped with a single
      vectorized draw and memoised.  Diffusion inspects edges source by
      source (a BFS pops a node, then examines all its out-edges), so
      batching converts ``out_degree`` generator calls into one array
      call while keeping per-edge memoized consistency.  Every edge is
      still an independent ``p(e)`` Bernoulli — the distribution over
      worlds is identical — but randomness is consumed in a different
      order, so the sampled world for a given seed differs from the
      per-edge mode (which is why the knob defaults to off).
    """

    __slots__ = ("graph", "_rng", "_states", "_batch_flip", "_live", "_flipped", "_num_sampled")

    def __init__(
        self,
        graph: ProbabilisticGraph,
        random_state: RandomState = None,
        batch_flip: bool = False,
    ) -> None:
        self.graph = graph
        self._rng = ensure_rng(random_state)
        self._batch_flip = bool(batch_flip)
        self._states: dict[int, bool] = {}
        self._live: Optional[np.ndarray] = None
        self._flipped: Optional[np.ndarray] = None
        self._num_sampled = 0

    def is_live(self, edge_id: int) -> bool:
        if self._batch_flip:
            return self._is_live_batched(edge_id)
        state = self._states.get(edge_id)
        if state is None:
            state = self._flip(edge_id)
            self._states[edge_id] = state
        return state

    def _is_live_batched(self, edge_id: int) -> bool:
        if self._live is None:
            self._live = np.zeros(self.graph.m, dtype=bool)
            self._flipped = np.zeros(self.graph.n, dtype=bool)
        source = int(self.graph.edge_sources[edge_id])
        if not self._flipped[source]:
            offsets, _, probs = self.graph.out_csr()
            start, end = int(offsets[source]), int(offsets[source + 1])
            self._live[start:end] = self._rng.random(end - start) < probs[start:end]
            self._flipped[source] = True
            self._num_sampled += end - start
        return bool(self._live[edge_id])

    def _flip(self, edge_id: int) -> bool:
        probability = self._edge_probability(edge_id)
        return bool(self._rng.random() < probability)

    def _edge_probability(self, edge_id: int) -> float:
        # Edge ids index the outgoing CSR directly.
        return float(self.graph.edge_probabilities[edge_id])

    @property
    def num_sampled_edges(self) -> int:
        """How many edge states have been materialised so far."""
        if self._batch_flip:
            return self._num_sampled
        return len(self._states)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<LazyRealization sampled={self.num_sampled_edges}/{self.graph.m}>"


def batch_realization_spreads(
    realizations: Sequence[Realization],
    seeds: Iterable[int],
    residual: Optional[ResidualGraph] = None,
) -> np.ndarray:
    """Spreads of one seed set under many eager realizations, in one sweep.

    Stacks the realizations' live masks into a ``(B, m)`` matrix and runs a
    single batched live-edge replay — the vectorized path the experiment
    runner uses to score a nonadaptively chosen seed set against all
    evaluation realizations at once.  The result is element-for-element
    identical to calling :meth:`BaseRealization.spread` per realization
    (replay is deterministic).  Requires *eager* :class:`Realization`
    objects (a :class:`LazyRealization` has no materialised live mask).
    """
    realizations = list(realizations)
    if not realizations:
        return np.zeros(0, dtype=np.int64)
    first_graph = realizations[0].graph
    for realization in realizations:
        if not isinstance(realization, Realization):
            raise ValidationError(
                "batch_realization_spreads requires eager Realization objects, "
                f"got {type(realization).__name__}"
            )
        # Strict identity: the batch replays every live mask against the
        # first graph's edge ids, so a merely equal-sized different graph
        # (allowed by the per-realization session loop, which traverses
        # each realization's own graph) would silently score wrong here.
        if realization.graph is not first_graph:
            raise ValidationError(
                "batch_realization_spreads requires all realizations to be "
                "sampled on the same graph object; score mixed-graph "
                "realizations with the per-realization loop instead"
            )
    graph = first_graph
    view = as_residual(graph) if residual is None else residual
    live = np.stack([realization.live_mask for realization in realizations])
    return replay_live_edges(view, seeds, live)


def sample_realizations(
    graph: ProbabilisticGraph,
    count: int,
    random_state: RandomState = None,
    lazy: bool = False,
    batch_flip: bool = False,
) -> list[BaseRealization]:
    """Sample ``count`` independent realizations of ``graph``.

    The paper's experiments average every algorithm over 20 sampled
    realizations (Section VI-A); this helper builds that family
    reproducibly.  ``batch_flip`` selects the vectorized flip granularity
    of :class:`LazyRealization` (ignored for eager realizations).
    """
    rng = ensure_rng(random_state)
    children = rng.spawn(count)
    if lazy:
        return [LazyRealization(graph, child, batch_flip=batch_flip) for child in children]
    return [Realization.sample(graph, child) for child in children]
