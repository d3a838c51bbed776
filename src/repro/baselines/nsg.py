"""NSG — nonadaptive simple greedy for profit maximization.

One of the two nonadaptive baselines from Tang et al. (TKDE 2018) used in
the paper's experiments.  NSG fixes a single batch of RR sets, then greedily
adds the target node with the largest estimated *marginal profit*
(marginal coverage scaled to a spread estimate, minus the node's cost) and
stops when no node has positive marginal profit.

Because the whole selection runs on one sample, NSG has no per-decision
error guarantee — which is exactly the contrast the paper draws with
ADDATP / HATP.  Its sample size is configured by the experiment harness to
match the largest per-iteration batch HATP generates (Section VI-A).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.results import IterationRecord, NonadaptiveSelection
from repro.graphs.graph import ProbabilisticGraph
from repro.parallel.pool import resolve_jobs
from repro.sampling.coverage import CoverageCounter
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.timer import Timer
from repro.utils.validation import require, require_positive


class NSG:
    """Nonadaptive simple greedy on a single RR-set batch.

    Parameters
    ----------
    target:
        Candidate set to select from.
    num_samples:
        Size of the single RR-set batch.
    random_state:
        RNG for RR-set generation.
    n_jobs:
        Threads for generating the batch (``None`` honours
        ``REPRO_JOBS``, then uses every usable core; ``-1`` uses all
        cores).
    backend:
        Kernel backend for RR generation (``None`` honours
        ``REPRO_BACKEND``; all backends sample identically).
    """

    name = "NSG"

    def __init__(
        self,
        target: Sequence[int],
        num_samples: int = 10_000,
        random_state: RandomState = None,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        require(len(target) > 0, "target set must not be empty")
        require_positive(num_samples, "num_samples")
        self._target: List[int] = [int(v) for v in target]
        self._num_samples = int(num_samples)
        self._rng = ensure_rng(random_state)
        self._n_jobs = resolve_jobs(n_jobs)
        self._backend = backend

    @property
    def target(self) -> List[int]:
        """The candidate set."""
        return list(self._target)

    @property
    def num_samples(self) -> int:
        """RR sets in the single estimation batch."""
        return self._num_samples

    def select(
        self, graph: ProbabilisticGraph, costs: Mapping[int, float]
    ) -> NonadaptiveSelection:
        """Greedy profit selection on one RR-set batch."""
        timer = Timer().start()
        collection = FlatRRCollection.generate(
            graph, self._num_samples, self._rng,
            backend=self._backend, n_jobs=self._n_jobs,
        )
        scale = graph.n / max(collection.num_sets, 1)
        cost_map: Dict[int, float] = {int(k): float(v) for k, v in costs.items()}

        # Counter-based greedy: per-candidate marginal coverage is read off
        # the live counters, each pick is one argmax over the target slots,
        # and the chosen node's covered sets are subtracted once.
        counter = CoverageCounter(collection)
        target_array = np.asarray(self._target, dtype=np.int64)
        target_costs = np.asarray(
            [cost_map.get(int(node), 0.0) for node in self._target], dtype=np.float64
        )
        valid = (target_array >= 0) & (target_array < collection.n)
        available = np.ones(target_array.shape[0], dtype=bool)
        selected: List[int] = []
        iterations: List[IterationRecord] = []
        estimated_spread = 0.0

        while available.any():
            marginal_counts = counter.marginal_counts
            coverage_gains = np.zeros(target_array.shape[0], dtype=np.int64)
            coverage_gains[valid] = marginal_counts[target_array[valid]]
            gains = coverage_gains * scale - target_costs
            gains[~available] = -np.inf
            best_position = int(np.argmax(gains))
            best_gain = float(gains[best_position])
            if best_gain <= 0.0:
                break
            best_node = int(target_array[best_position])
            counter.add([best_node])
            estimated_spread += int(coverage_gains[best_position]) * scale
            selected.append(best_node)
            available[best_position] = False
            iterations.append(
                IterationRecord(
                    node=best_node,
                    action="selected",
                    front_estimate=best_gain,
                    rr_sets_generated=0,
                )
            )

        timer.stop()
        seed_cost = sum(cost_map.get(node, 0.0) for node in selected)
        return NonadaptiveSelection(
            algorithm=self.name,
            seeds=selected,
            seed_cost=seed_cost,
            estimated_profit=estimated_spread - seed_cost,
            rr_sets_generated=collection.num_sets,
            runtime_seconds=timer.elapsed,
            iterations=iterations,
            extra={"num_samples": self._num_samples},
        )
