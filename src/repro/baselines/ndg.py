"""NDG — nonadaptive double greedy for profit maximization.

The second nonadaptive baseline from Tang et al. (TKDE 2018): run the
deterministic double-greedy of Buchbinder et al. over the target set, with
the profit objective estimated from a single batch of RR sets.  A
randomized variant (1/2-approximation in expectation for nonnegative
profit) is available through ``randomized=True``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.core.results import IterationRecord, NonadaptiveSelection
from repro.graphs.graph import ProbabilisticGraph
from repro.parallel.pool import resolve_jobs
from repro.sampling.coverage import CoverageCounter
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.timer import Timer
from repro.utils.validation import require, require_positive


class NDG:
    """Nonadaptive double greedy on a single RR-set batch.

    Parameters
    ----------
    target:
        Candidate set, examined in the given order.
    num_samples:
        Size of the single RR-set batch.
    randomized:
        Use the randomized double-greedy keep-probability instead of the
        deterministic comparison.
    random_state:
        RNG for RR-set generation (and the randomized variant's coins).
    n_jobs:
        Threads for generating the batch (``None`` honours
        ``REPRO_JOBS``, then uses every usable core; ``-1`` uses all
        cores).
    backend:
        Kernel backend for RR generation (``None`` honours
        ``REPRO_BACKEND``; all backends sample identically).
    """

    name = "NDG"

    def __init__(
        self,
        target: Sequence[int],
        num_samples: int = 10_000,
        randomized: bool = False,
        random_state: RandomState = None,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        require(len(target) > 0, "target set must not be empty")
        require_positive(num_samples, "num_samples")
        self._target: List[int] = [int(v) for v in target]
        self._num_samples = int(num_samples)
        self._randomized = bool(randomized)
        self._rng = ensure_rng(random_state)
        self._n_jobs = resolve_jobs(n_jobs)
        self._backend = backend

    @property
    def target(self) -> List[int]:
        """The candidate set, in examination order."""
        return list(self._target)

    @property
    def num_samples(self) -> int:
        """RR sets in the single estimation batch."""
        return self._num_samples

    def select(
        self, graph: ProbabilisticGraph, costs: Mapping[int, float]
    ) -> NonadaptiveSelection:
        """Double-greedy profit selection on one RR-set batch."""
        timer = Timer().start()
        collection = FlatRRCollection.generate(
            graph, self._num_samples, self._rng,
            backend=self._backend, n_jobs=self._n_jobs,
        )
        scale = graph.n / max(collection.num_sets, 1)
        cost_map: Dict[int, float] = {int(k): float(v) for k, v in costs.items()}

        selected: Set[int] = set()
        selected_order: List[int] = []
        kept: Set[int] = set(self._target)
        iterations: List[IterationRecord] = []

        # Stateful coverage instead of per-query covered-mask rebuilds: the
        # front counter tracks the growing ``selected`` set, the rear
        # counter the shrinking ``kept`` set (marginal_count excludes the
        # queried node itself, matching ``marginal_coverage``'s rule).
        front_counter = CoverageCounter(collection, selected)
        rear_counter = CoverageCounter(collection, kept)

        for node in self._target:
            cost_u = cost_map.get(node, 0.0)
            add_gain = front_counter.marginal_count(node) * scale - cost_u
            remove_gain = cost_u - rear_counter.marginal_count(node) * scale
            if self._randomized:
                positive_add = max(add_gain, 0.0)
                positive_remove = max(remove_gain, 0.0)
                if positive_add + positive_remove == 0.0:
                    keep = add_gain >= remove_gain
                else:
                    keep = self._rng.random() < positive_add / (positive_add + positive_remove)
            else:
                keep = add_gain >= remove_gain
            if keep:
                selected.add(node)
                selected_order.append(node)
                front_counter.add([node])
                action = "selected"
            else:
                kept.discard(node)
                rear_counter.remove([node])
                action = "rejected"
            iterations.append(
                IterationRecord(
                    node=node,
                    action=action,
                    front_estimate=add_gain,
                    rear_estimate=remove_gain,
                )
            )

        timer.stop()
        seed_cost = sum(cost_map.get(node, 0.0) for node in selected_order)
        estimated_profit = collection.estimate_spread(selected_order) - seed_cost
        return NonadaptiveSelection(
            algorithm=self.name if not self._randomized else "NDG-randomized",
            seeds=selected_order,
            seed_cost=seed_cost,
            estimated_profit=estimated_profit,
            rr_sets_generated=collection.num_sets,
            runtime_seconds=timer.elapsed,
            iterations=iterations,
            extra={"num_samples": self._num_samples, "randomized": self._randomized},
        )
