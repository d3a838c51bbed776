"""HNTP — the nonadaptive counterpart of HATP.

The paper tailors HATP into a nonadaptive algorithm (Section VI-A) to
isolate the value of adaptivity: HNTP runs exactly the same hybrid-error
double-greedy decisions, regenerating RR sets each round with the same
error schedule, but it never observes market feedback — the graph is never
reduced to a residual graph and the whole seed set is committed in one
batch at the end.  Each node's decision is :meth:`HATP.decide
<repro.core.hatp.HATP.decide>` on the unreduced graph.

Because nothing is removed, every iteration samples on the full graph
``G`` (which is also why the paper observes HNTP to be slightly *slower*
than HATP: HATP's RR sets live on ever-shrinking residual graphs).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.core.hatp import HATP
from repro.core.results import IterationRecord, NonadaptiveSelection, stop_counts
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import as_residual
from repro.parallel.pool import SamplingPool
from repro.utils.timer import Timer


class HNTP:
    """Nonadaptive hybrid-error double greedy (HATP without feedback).

    Takes the parameters of :class:`repro.core.hatp.HATP`, which checks
    them; ``n_jobs`` counts the threads that draw its rounds' front and
    rear shards, and the selection does not depend on it.
    """

    name = "HNTP"

    def __init__(self, target: Sequence[int], **hatp_options) -> None:
        self._hatp = HATP(target, **hatp_options)

    @property
    def target(self) -> List[int]:
        """The target candidate set, in examination order."""
        return self._hatp.target

    def select(
        self, graph: ProbabilisticGraph, costs: Mapping[int, float]
    ) -> NonadaptiveSelection:
        """Choose the seed set nonadaptively on the full graph ``G``."""
        timer = Timer().start()
        view = as_residual(graph)
        cost_map: Dict[int, float] = {int(key): float(value) for key, value in costs.items()}
        selected: List[int] = []
        candidates = set(self._hatp.target)
        iterations: List[IterationRecord] = []
        with SamplingPool(self._hatp.n_jobs) as pool:
            for node in self._hatp.target:
                cost = cost_map.get(node, 0.0)
                rounds = self._hatp.decide(
                    view, node, selected, candidates, cost, pool, self.name
                )
                if rounds.front_spread + rounds.rear_spread >= 2.0 * cost:
                    selected.append(node)
                    iterations.append(rounds.record(node, "selected", cost))
                else:
                    candidates.discard(node)
                    iterations.append(rounds.record(node, "rejected", cost))
        timer.stop()
        return NonadaptiveSelection(
            algorithm=self.name,
            seeds=selected,
            seed_cost=sum(cost_map.get(node, 0.0) for node in selected),
            rr_sets_generated=sum(record.rr_sets_generated for record in iterations),
            runtime_seconds=timer.elapsed,
            iterations=iterations,
            extra={
                "epsilon": self._hatp.epsilon,
                "budget_hits": stop_counts(iterations)[0],
            },
        )
