"""Realizations (possible worlds) of a probabilistic graph.

A *realization* ``φ`` fixes the outcome of every edge's coin flip: each edge
``e`` is *live* with probability ``p(e)`` and *blocked* otherwise
(Section II-A of the paper).  Under a fixed realization the spread of a seed
set ``S`` is simply the set of nodes reachable from ``S`` through live
edges.

:class:`Realization` samples the state of all ``m`` edges at once, as a
deterministic function of the provided random generator, so experiments are
reproducible.  :class:`BaseRealization` holds the interface (and the
reference traversal) that any possible world provides.
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
    """Interface of a possible world: edge states and spread under them."""

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
    (replay is deterministic).  Requires :class:`Realization` objects,
    whose live masks are materialised.
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
) -> list[Realization]:
    """Sample ``count`` independent realizations of ``graph``.

    The paper's experiments average every algorithm over 20 sampled
    realizations (Section VI-A); this helper builds that family
    reproducibly.
    """
    rng = ensure_rng(random_state)
    return [Realization.sample(graph, child) for child in rng.spawn(count)]
