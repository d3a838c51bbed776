"""Indexed collections of RR sets with coverage queries.

The noise-model algorithms repeatedly ask two questions of a batch of RR
sets ``R`` generated on a residual graph with ``n_i`` active nodes:

* ``CovR(S)`` — how many RR sets in ``R`` intersect the node set ``S``;
* ``CovR(u | S)`` — how many RR sets contain ``u`` but do **not** intersect
  ``S`` (marginal coverage).

With the RIS identity these give the spread estimators
``Ê[I(S)] = CovR(S) * n_i / |R|`` and
``Ê[I(u | S)] = CovR(u | S) * n_i / |R|``.

:class:`RRCollection` stores the RR sets together with an inverted index
``node -> RR-set ids`` so both queries cost time proportional to the RR sets
actually touched rather than to the whole collection.

This dict-indexed collection is the *reference* implementation: the
algorithms sample through the array-backed
:class:`repro.sampling.flat_collection.FlatRRCollection`, whose queries are
vectorized over flat int64 storage.  Both classes expose the same query
API, which is what the differential tests lean on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.sampling.rr_sets import generate_rr_sets
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState


class RRCollection:
    """A batch of RR sets with an inverted coverage index.

    Parameters
    ----------
    rr_sets:
        The RR sets (each a set of node ids).
    num_active_nodes:
        ``n_i`` of the residual graph the sets were generated on; used to
        scale coverage counts into spread estimates.
    """

    __slots__ = ("_rr_sets", "_node_index", "_num_active_nodes")

    def __init__(self, rr_sets: Sequence[Set[int]], num_active_nodes: int) -> None:
        if num_active_nodes < 0:
            raise ValidationError("num_active_nodes must be >= 0")
        self._rr_sets: List[Set[int]] = [set(rr) for rr in rr_sets]
        self._num_active_nodes = int(num_active_nodes)
        self._node_index: Dict[int, List[int]] = {}
        for rr_id, rr in enumerate(self._rr_sets):
            for node in rr:
                self._node_index.setdefault(node, []).append(rr_id)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def generate(
        cls,
        graph: ProbabilisticGraph | ResidualGraph,
        count: int,
        random_state: RandomState = None,
        backend: Optional[str] = None,
    ) -> "RRCollection":
        """Generate ``count`` RR sets on ``graph`` and index them.

        The sets come from the batched engine by default (``backend`` as in
        :func:`repro.sampling.rr_sets.generate_rr_sets`); for array-native
        storage and vectorized coverage queries prefer
        :class:`repro.sampling.flat_collection.FlatRRCollection`.
        """
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        rr_sets = generate_rr_sets(view, count, random_state, backend=backend)
        return cls(rr_sets, view.num_active)

    def extend(self, rr_sets: Iterable[Set[int]]) -> None:
        """Append additional RR sets to the collection (index updated)."""
        start = len(self._rr_sets)
        for offset, rr in enumerate(rr_sets):
            rr = set(rr)
            self._rr_sets.append(rr)
            for node in rr:
                self._node_index.setdefault(node, []).append(start + offset)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_sets(self) -> int:
        """θ — the number of RR sets in the collection."""
        return len(self._rr_sets)

    @property
    def num_active_nodes(self) -> int:
        """``n_i`` of the residual graph the sets were sampled on."""
        return self._num_active_nodes

    @property
    def rr_sets(self) -> List[Set[int]]:
        """The raw RR sets (do not mutate)."""
        return self._rr_sets

    def sets_containing(self, node: int) -> List[int]:
        """Ids of the RR sets that contain ``node``."""
        return self._node_index.get(int(node), [])

    def nodes_appearing(self) -> np.ndarray:
        """Node ids appearing in at least one RR set (sorted).

        Read off the inverted index keys — no materialization of the sets.
        """
        return np.asarray(sorted(self._node_index), dtype=np.int64)

    def total_size(self) -> int:
        """Sum of RR-set sizes (a proxy for generation cost)."""
        return sum(len(rr) for rr in self._rr_sets)

    # ------------------------------------------------------------------ #
    # coverage queries
    # ------------------------------------------------------------------ #

    def coverage(self, nodes: Iterable[int]) -> int:
        """``CovR(S)``: number of RR sets intersecting ``nodes``."""
        node_list = [int(v) for v in nodes]
        if not node_list:
            return 0
        covered: Set[int] = set()
        for node in node_list:
            covered.update(self._node_index.get(node, ()))
        return len(covered)

    def covered_mask(self, nodes: Iterable[int]) -> np.ndarray:
        """Boolean array over RR-set ids marking the sets intersected by ``nodes``."""
        mask = np.zeros(self.num_sets, dtype=bool)
        for node in nodes:
            for rr_id in self._node_index.get(int(node), ()):
                mask[rr_id] = True
        return mask

    def marginal_coverage(self, node: int, conditioning_set: Iterable[int]) -> int:
        """``CovR(u | S)``: RR sets containing ``u`` but disjoint from ``S``."""
        node = int(node)
        conditioning = {int(v) for v in conditioning_set}
        conditioning.discard(node)
        count = 0
        for rr_id in self._node_index.get(node, ()):
            if conditioning.isdisjoint(self._rr_sets[rr_id]):
                count += 1
        return count

    # ------------------------------------------------------------------ #
    # spread estimation
    # ------------------------------------------------------------------ #

    def estimate_spread(self, nodes: Iterable[int]) -> float:
        """``Ê[I(S)] = CovR(S) * n_i / θ`` (0 when the collection is empty)."""
        if self.num_sets == 0:
            return 0.0
        return self.coverage(nodes) * self._num_active_nodes / self.num_sets

    def estimate_marginal_spread(self, node: int, conditioning_set: Iterable[int]) -> float:
        """``Ê[I(u | S)] = CovR(u | S) * n_i / θ``."""
        if self.num_sets == 0:
            return 0.0
        return (
            self.marginal_coverage(node, conditioning_set)
            * self._num_active_nodes
            / self.num_sets
        )

    def estimate_fraction(self, nodes: Iterable[int]) -> float:
        """Covered fraction ``CovR(S)/θ`` — the ``[0, 1]`` random variable of Lemma 7."""
        if self.num_sets == 0:
            return 0.0
        return self.coverage(nodes) / self.num_sets

    def __len__(self) -> int:
        return self.num_sets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RRCollection sets={self.num_sets} n_i={self._num_active_nodes}>"
