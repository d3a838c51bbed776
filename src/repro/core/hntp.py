"""HNTP — the nonadaptive counterpart of HATP.

The paper tailors HATP into a nonadaptive algorithm (Section VI-A) to
isolate the value of adaptivity: HNTP runs exactly the same hybrid-error
double-greedy decisions, regenerating RR sets each iteration with the same
error schedule, but it never observes market feedback — the graph is never
reduced to a residual graph and the whole seed set is committed in one
batch at the end.

Because nothing is removed, every iteration samples on the full graph
``G`` (which is also why the paper observes HNTP to be slightly *slower*
than HATP: HATP's RR sets live on ever-shrinking residual graphs).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.errors import HybridErrorSchedule
from repro.core.estimation import FrontRearEstimator
from repro.core.hatp import HATP
from repro.core.results import (
    CAP_REASONS,
    IterationRecord,
    NonadaptiveSelection,
    stop_reason,
)
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import as_residual
from repro.parallel.pool import SamplingPool, resolve_jobs
from repro.utils.exceptions import SamplingBudgetExceeded
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.timer import Timer
from repro.utils.validation import require, require_positive, require_probability


class HNTP:
    """Nonadaptive hybrid-error double greedy (HATP without feedback).

    Parameters mirror :class:`repro.core.hatp.HATP`.
    """

    name = "HNTP"

    def __init__(
        self,
        target: Sequence[int],
        epsilon: float = 0.05,
        epsilon0: float = 0.5,
        initial_scaled_error: float = 64.0,
        additive_floor: float = 1.0,
        max_rounds: int = 30,
        max_samples_per_round: int = 20_000,
        on_budget: str = "decide",
        random_state: RandomState = None,
        n_jobs: Optional[int] = None,
        sample_reuse: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        require(len(target) > 0, "target set must not be empty")
        self._target: List[int] = [int(v) for v in target]
        require(len(set(self._target)) == len(self._target), "target set contains duplicates")
        require_probability(epsilon, "epsilon")
        require_probability(epsilon0, "epsilon0")
        require(epsilon0 >= epsilon, "epsilon0 must be >= epsilon")
        require_positive(initial_scaled_error, "initial_scaled_error")
        require_positive(additive_floor, "additive_floor")
        require_positive(max_rounds, "max_rounds")
        require_positive(max_samples_per_round, "max_samples_per_round")
        require(on_budget in {"decide", "raise"}, "on_budget must be 'decide' or 'raise'")
        self._epsilon = float(epsilon)
        self._epsilon0 = float(epsilon0)
        self._initial_scaled_error = float(initial_scaled_error)
        self._additive_floor = float(additive_floor)
        self._max_rounds = int(max_rounds)
        self._max_samples_per_round = int(max_samples_per_round)
        self._on_budget = on_budget
        self._rng = ensure_rng(random_state)
        self._n_jobs = resolve_jobs(n_jobs)
        self._sample_reuse = bool(sample_reuse)
        self._backend = backend

    @property
    def target(self) -> List[int]:
        """The target candidate set, in examination order."""
        return list(self._target)

    def select(
        self, graph: ProbabilisticGraph, costs: Mapping[int, float]
    ) -> NonadaptiveSelection:
        """Choose the seed set nonadaptively on the full graph ``G``."""
        pool = (
            SamplingPool(graph, n_jobs=self._n_jobs, directions=("in",))
            if self._n_jobs is not None
            else None
        )
        try:
            return self._select(graph, costs, pool)
        finally:
            if pool is not None:
                pool.close()

    def _select(
        self,
        graph: ProbabilisticGraph,
        costs: Mapping[int, float],
        pool: Optional[SamplingPool],
    ) -> NonadaptiveSelection:
        timer = Timer().start()
        view = as_residual(graph)
        n = max(graph.n, 2)
        k = len(self._target)
        cost_map: Dict[int, float] = {int(key): float(value) for key, value in costs.items()}

        selected: List[int] = []
        candidates = set(self._target)
        iterations: List[IterationRecord] = []
        total_rr_sets = 0
        budget_hits = 0

        for node in self._target:
            cost_u = cost_map.get(node, 0.0)
            zeta0 = min(max(self._initial_scaled_error / n, 1.0 / n), 0.999)
            schedule = HybridErrorSchedule(
                epsilon0=self._epsilon0,
                zeta0=zeta0,
                delta0=1.0 / (k * n),
                epsilon_threshold=self._epsilon,
                additive_floor=self._additive_floor,
            )
            state = schedule.initial()

            front_spread = rear_spread = 0.0
            rounds = 0
            rr_this_iteration = 0
            estimator = FrontRearEstimator(
                view,
                node,
                selected,
                candidates - {node},
                self._rng,
                pool=pool,
                sample_reuse=self._sample_reuse,
                backend=self._backend,
            )
            while True:
                rounds += 1
                requested = schedule.sample_size(state)
                theta = min(requested, self._max_samples_per_round)
                sample_budget_hit = requested > self._max_samples_per_round

                front_spread, rear_spread, generated = estimator.estimates(theta)
                rr_this_iteration += generated

                scaled_error = state.scaled_error(n)
                condition_one = HATP._condition_one(
                    front_spread, rear_spread, scaled_error, state.epsilon, cost_u
                )
                condition_two = schedule.is_exhausted(state, n)
                round_budget_hit = rounds >= self._max_rounds

                reason = stop_reason(
                    condition_one, condition_two, sample_budget_hit, round_budget_hit
                )
                if reason is not None:
                    if reason in CAP_REASONS:
                        budget_hits += 1
                        if self._on_budget == "raise":
                            raise SamplingBudgetExceeded(
                                f"HNTP hit its sampling budget on node {node}"
                            )
                    break
                state = schedule.refine(state, n, front_spread)

            total_rr_sets += rr_this_iteration
            if front_spread + rear_spread >= 2.0 * cost_u:
                selected.append(node)
                action = "selected"
            else:
                candidates.discard(node)
                action = "rejected"
            iterations.append(
                IterationRecord(
                    node=node,
                    action=action,
                    front_estimate=front_spread - cost_u,
                    rear_estimate=cost_u - rear_spread,
                    rounds=rounds,
                    rr_sets_generated=rr_this_iteration,
                    stop_reason=reason,
                )
            )

        timer.stop()
        seed_cost = sum(cost_map.get(node, 0.0) for node in selected)
        return NonadaptiveSelection(
            algorithm=self.name,
            seeds=selected,
            seed_cost=seed_cost,
            rr_sets_generated=total_rr_sets,
            runtime_seconds=timer.elapsed,
            iterations=iterations,
            extra={
                "epsilon": self._epsilon,
                "budget_hits": budget_hits,
                "sample_reuse": self._sample_reuse,
            },
        )
