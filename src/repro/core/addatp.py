"""ADDATP — adaptive double greedy with additive sampling error (Algorithm 3).

ADDATP follows ADG's decision structure but replaces the oracle with RR-set
estimation.  For each candidate it runs estimation *rounds*: a round draws
two independent RR collections ``R1`` and ``R2`` of size
``θ = ln(8/δ_i) / (2 ζ_i²)``, forms the front / rear profit estimates

``ρ̃_f = Cov_{R1}(u_i | S_{i−1}) · n_i/θ − c(u_i)``,
``ρ̃_r = −Cov_{R2}(u_i | T_{i−1} \\ {u_i}) · n_i/θ + c(u_i)``,

and stops as soon as either

* **C1** — the estimates are separated by more than the error budget
  (``|ρ̃_f − ρ̃_r| ≥ 2 n_i ζ_i``) or one of them is clearly negative, i.e.
  the decision is already reliable; or
* **C2** — ``n_i ζ_i ≤ 1``: the node's marginal profit is so close to the
  decision boundary that a wrong decision costs at most a constant, so
  further sampling is not worth it.

Otherwise ``ζ_i`` shrinks by ``√2`` (quadrupling... precisely doubling the
sample size) and a new round begins.  Theorem 2 shows the expected profit is
at least ``(Λ(π^opt) − (2k + 2)) / 3``.

Every ``θ_i`` is fixed before any RR set is drawn, so a node's rounds carry
their sets: each round draws only the ``θ_i − θ_{i−1}`` new sets per side
and adds their counts (:func:`~repro.core.estimation.refine_until_decided`
lets the schedule decide).  The residual graph is frozen within a
node-iteration, so every round samples the same distribution, and the
round-``i`` estimate is still a mean of ``θ_i`` i.i.d. sets.

The pure-Python engine adds two practical budgets (``max_rounds`` and
``max_samples_per_round``); hitting a budget forces a best-effort decision
(or raises, if configured), mirroring how the original C++ implementation
simply runs out of memory on the largest settings (Section VI-B reports
exactly that for ADDATP).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set

from repro.core.errors import AdditiveErrorSchedule, DynamicThresholdState
from repro.core.estimation import (
    FrontRearEstimator,
    NodeRounds,
    RoundCaps,
    refine_until_decided,
)
from repro.core.results import IterationRecord, SeedingResult, stop_counts
from repro.core.session import AdaptiveSession
from repro.graphs.residual import ResidualGraph
from repro.parallel.pool import SamplingPool, resolve_jobs
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.timer import Timer
from repro.utils.validation import require, require_positive


class ADDATP:
    """Adaptive double greedy under the noise model with additive error.

    Parameters
    ----------
    target:
        Target candidate set ``T`` in examination order.
    initial_scaled_error:
        Initial value of ``n_i ζ_0`` (the experiments use 64); ``ζ_0`` is
        derived per iteration as ``initial_scaled_error / n_i`` clamped to
        ``[1/n, 1)``.
    c2_threshold:
        The stopping value of ``n_i ζ_i`` (paper: 1).
    dynamic_threshold:
        Enable the dynamic-threshold extension discussed after Theorem 2,
        which targets an expected ``(1−ε)/3`` ratio by budgeting the C2
        profit loss against the profit accumulated so far.
    dynamic_epsilon:
        The ``ε`` of the dynamic-threshold extension.
    max_rounds / max_samples_per_round:
        Practical budgets of the pure-Python engine.
    on_budget:
        ``"decide"`` (default) makes a best-effort decision with the current
        estimates when a budget is hit; ``"raise"`` raises
        :class:`~repro.utils.exceptions.SamplingBudgetExceeded`.
    random_state:
        RNG used for RR-set generation.
    n_jobs:
        Threads for RR-set generation, as for
        :class:`~repro.core.hatp.HATP` (``None`` honours ``REPRO_JOBS``,
        then uses every usable core).  The run does not depend on the
        thread count.
    """

    name = "ADDATP"

    def __init__(
        self,
        target: Sequence[int],
        initial_scaled_error: float = 64.0,
        c2_threshold: float = 1.0,
        dynamic_threshold: bool = False,
        dynamic_epsilon: float = 0.1,
        max_rounds: int = 20,
        max_samples_per_round: int = 20_000,
        on_budget: str = "decide",
        random_state: RandomState = None,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        require(len(target) > 0, "target set must not be empty")
        self._target: List[int] = [int(v) for v in target]
        require(len(set(self._target)) == len(self._target), "target set contains duplicates")
        require_positive(initial_scaled_error, "initial_scaled_error")
        require_positive(c2_threshold, "c2_threshold")
        self._caps = RoundCaps(int(max_rounds), int(max_samples_per_round), on_budget)
        self._initial_scaled_error = float(initial_scaled_error)
        self._c2_threshold = float(c2_threshold)
        self._dynamic_threshold = bool(dynamic_threshold)
        self._dynamic_epsilon = float(dynamic_epsilon)
        self._rng = ensure_rng(random_state)
        self._n_jobs = resolve_jobs(n_jobs)
        self._backend = backend

    @property
    def target(self) -> List[int]:
        """The target candidate set, in examination order."""
        return list(self._target)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, session: AdaptiveSession) -> SeedingResult:
        """Execute Algorithm 3 against ``session``."""
        timer = Timer().start()
        selected: List[int] = []
        candidates = set(self._target)
        iterations: List[IterationRecord] = []
        dynamic_state = DynamicThresholdState(
            epsilon=self._dynamic_epsilon, default_threshold=self._c2_threshold
        )
        with SamplingPool(self._n_jobs) as pool:
            for node in self._target:
                if session.is_activated(node):
                    candidates.discard(node)
                    iterations.append(IterationRecord(node=node, action="skipped-activated"))
                    continue
                cost = session.costs.get(node, 0.0)
                threshold = (
                    dynamic_state.next_threshold()
                    if self._dynamic_threshold
                    else self._c2_threshold
                )
                rounds = self._decide(
                    session.residual, node, selected, candidates, cost, threshold, pool
                )
                profit_before = session.realized_profit
                if rounds.front_spread - cost >= -rounds.rear_spread + cost:
                    newly = len(session.commit_seed(node))
                    selected.append(node)
                    iterations.append(rounds.record(node, "selected", cost, newly))
                else:
                    candidates.discard(node)
                    iterations.append(rounds.record(node, "rejected", cost))
                if self._dynamic_threshold:
                    dynamic_state = dynamic_state.after_iteration(
                        profit_gained=session.realized_profit - profit_before,
                        stopped_by_c2=rounds.stop_reason == "C2",
                        threshold_used=threshold,
                    )
        timer.stop()
        return SeedingResult(
            algorithm=self.name,
            seeds=selected,
            realized_spread=session.realized_spread,
            realized_profit=session.realized_profit,
            seed_cost=session.seed_cost,
            rr_sets_generated=sum(record.rr_sets_generated for record in iterations),
            runtime_seconds=timer.elapsed,
            iterations=iterations,
            extra={
                "budget_hits": stop_counts(iterations)[0],
                "dynamic_threshold": self._dynamic_threshold,
                "initial_scaled_error": self._initial_scaled_error,
            },
        )

    def _decide(
        self,
        view: ResidualGraph,
        node: int,
        selected: List[int],
        candidates: Set[int],
        cost: float,
        threshold: float,
        pool: SamplingPool,
    ) -> NodeRounds:
        """Algorithm 3's rounds for ``node``, until C1, C2 (``n_i ζ_i ≤ threshold``) or a cap."""
        n = max(view.n, 2)
        num_active = max(view.num_active, 1)
        schedule = AdditiveErrorSchedule(
            zeta0=min(max(self._initial_scaled_error / num_active, 1.0 / n), 0.999),
            delta0=1.0 / (len(self._target) * n),
        )

        def conditions(state, front_spread, rear_spread):
            scaled_error = state.scaled_error(num_active)
            front_estimate = front_spread - cost
            rear_estimate = -rear_spread + cost
            return (
                abs(front_estimate - rear_estimate) >= 2.0 * scaled_error
                or front_estimate <= -scaled_error
                or rear_estimate <= -scaled_error,
                scaled_error <= threshold,
            )

        estimator = FrontRearEstimator(
            view, node, selected, candidates - {node}, self._rng, pool=pool, backend=self._backend
        )
        return refine_until_decided(
            estimator, schedule, conditions, num_active, self._caps, self.name
        )

    # ------------------------------------------------------------------ #
    # introspection helpers
    # ------------------------------------------------------------------ #

    def worst_case_sample_size(self, num_nodes: int) -> int:
        """RR sets one round would need at the C2 boundary (``n_i ζ_i = 1``).

        Illustrates the ``O(n_i² ln n)`` blow-up that motivates HATP.
        """
        n = max(int(num_nodes), 2)
        k = len(self._target)
        zeta = 1.0 / n
        delta = 1.0 / (k * n * (2 ** 20))
        return math.ceil(math.log(8.0 / delta) / (2.0 * zeta * zeta))
