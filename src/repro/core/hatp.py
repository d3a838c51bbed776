"""HATP — adaptive double greedy with hybrid sampling error (Algorithm 4).

HATP keeps ADDATP's decision structure but estimates marginal spreads with
a *hybrid* error: a relative part ``ε_i`` and an additive part ``ζ_i``.
A round draws two RR collections of size
``θ = (1 + ε_i/3)² ln(4/δ_i) / (2 ε_i ζ_i)`` and forms the raw spread
estimates

``f_est = Cov_{R1}(u_i | S_{i−1}) · n_i/θ``  and
``r_est = Cov_{R2}(u_i | T_{i−1} \\ {u_i}) · n_i/θ``.

Stopping conditions:

* **C'1** — the hybrid confidence intervals already separate the decision:
  either the pessimistic value of ``f_est + r_est`` exceeds ``2 c(u_i)``
  (select) or its optimistic value falls below it (reject), or one of the
  one-sided tests fires.
* **C'2** — both error knobs hit their floors (``ε_i ≤ ε`` and
  ``n_i ζ_i ≤ 1``); the profit loss of a forced decision is bounded by
  ``2(1 + ε c(u_i))/(1 − ε)`` (Lemma 8).

Between rounds the schedule tightens whichever error component is binding
(see :class:`repro.core.errors.HybridErrorSchedule`), which is what makes
HATP roughly ``O(ε n)`` cheaper than ADDATP (Theorem 5 vs Theorem 3).

A round keeps no collection: :class:`~repro.core.estimation.FrontRearEstimator`
counts ``Cov_{R1}`` and ``Cov_{R2}`` straight from each freshly drawn,
stop-truncated RR batch and drops it.  Every round redraws both batches
under fresh keys, as Algorithm 4 does: the schedule picks the next
``(ε_i, ζ_i)`` from the front estimate, so carrying sets into the next
round would let them help choose the size of the sample they sit in
(:func:`~repro.core.estimation.refine_until_decided` lets the schedule
decide).

The decision rule ``f_est + r_est ≥ 2 c(u_i)`` is algebraically the same
test as ADG's ``ρ_f ≥ ρ_r`` written in terms of the raw spread estimates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.errors import HybridErrorSchedule
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
from repro.utils.validation import require, require_positive, require_probability


class HATP:
    """Adaptive double greedy under the noise model with hybrid error.

    Parameters
    ----------
    target:
        Target candidate set ``T`` in examination order.
    epsilon:
        The relative-error threshold ``ε`` (approximation parameter;
        paper default 0.05).
    epsilon0:
        Initial relative error ``ε_0`` (paper default 0.5).
    initial_scaled_error:
        Initial ``n_i ζ_0`` (paper experiments use 64).
    additive_floor:
        The C'2 threshold on ``n_i ζ_i`` (paper: 1).
    max_rounds / max_samples_per_round / on_budget:
        Practical engine budgets, as in :class:`~repro.core.addatp.ADDATP`.
    random_state:
        RNG used for RR-set generation.
    n_jobs:
        Threads for RR-set generation (``None`` honours the
        ``REPRO_JOBS`` environment variable, then uses every usable core;
        ``-1`` uses all cores).  One
        :class:`~repro.parallel.pool.SamplingPool` is held for the whole
        run, and a round of at least
        :data:`~repro.parallel.pool.MIN_SPLIT` sets per side draws its
        front and rear shards on its threads at once.  The sampled
        batches, and so the run, do not depend on the thread count.
    backend:
        Kernel backend for RR generation, resolved through the registry
        (``None`` honours ``REPRO_BACKEND``; all backends are
        bit-for-bit identical, so this only changes speed).
    """

    name = "HATP"

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
        self._caps = RoundCaps(int(max_rounds), int(max_samples_per_round), on_budget)
        self._epsilon = float(epsilon)
        self._epsilon0 = float(epsilon0)
        self._initial_scaled_error = float(initial_scaled_error)
        self._additive_floor = float(additive_floor)
        self._rng = ensure_rng(random_state)
        self._n_jobs = resolve_jobs(n_jobs)
        self._backend = backend

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def target(self) -> List[int]:
        """The target candidate set, in examination order."""
        return list(self._target)

    @property
    def epsilon(self) -> float:
        """The relative-error threshold ``ε``."""
        return self._epsilon

    @property
    def n_jobs(self) -> int:
        """Threads of the :class:`SamplingPool` a run draws its rounds on."""
        return self._n_jobs

    # ------------------------------------------------------------------ #
    # stopping condition C'1
    # ------------------------------------------------------------------ #

    @staticmethod
    def _condition_one(
        front_estimate: float,
        rear_estimate: float,
        scaled_error: float,
        epsilon: float,
        cost: float,
    ) -> bool:
        """Evaluate C'1 with the *current* relative error ``ε_i``."""
        select_sure = (front_estimate + rear_estimate - 2.0 * scaled_error) / (
            1.0 + epsilon
        ) >= 2.0 * cost
        rear_sure = (rear_estimate - scaled_error) / (1.0 + epsilon) >= cost
        reject_sure = (front_estimate + rear_estimate + 2.0 * scaled_error) / (
            1.0 - epsilon
        ) <= 2.0 * cost
        front_sure = (front_estimate + scaled_error) / (1.0 - epsilon) <= cost
        return select_sure or rear_sure or reject_sure or front_sure

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, session: AdaptiveSession) -> SeedingResult:
        """Execute Algorithm 4 against ``session``."""
        timer = Timer().start()
        selected: List[int] = []
        candidates = set(self._target)
        iterations: List[IterationRecord] = []
        with SamplingPool(self._n_jobs) as pool:
            for node in self._target:
                if session.is_activated(node):
                    candidates.discard(node)
                    iterations.append(IterationRecord(node=node, action="skipped-activated"))
                    continue
                cost = session.costs.get(node, 0.0)
                rounds = self.decide(
                    session.residual, node, selected, candidates, cost, pool, self.name
                )
                if rounds.front_spread + rounds.rear_spread >= 2.0 * cost:
                    newly = len(session.commit_seed(node))
                    selected.append(node)
                    iterations.append(rounds.record(node, "selected", cost, newly))
                else:
                    candidates.discard(node)
                    iterations.append(rounds.record(node, "rejected", cost))
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
                "epsilon": self._epsilon,
                "epsilon0": self._epsilon0,
                "budget_hits": stop_counts(iterations)[0],
                "initial_scaled_error": self._initial_scaled_error,
            },
        )

    def decide(
        self,
        view: ResidualGraph,
        node: int,
        selected: List[int],
        candidates: Set[int],
        cost: float,
        pool: SamplingPool,
        algorithm: str,
    ) -> NodeRounds:
        """Algorithm 4's rounds for ``node`` on ``view``, until C'1, C'2 or a cap.

        ``selected`` is ``S_{i−1}`` and ``candidates`` is ``T_{i−1}``;
        ``algorithm`` names the caller in a budget error.  HNTP calls this
        on the unreduced graph.
        """
        n = max(view.n, 2)
        num_active = max(view.num_active, 1)
        schedule = HybridErrorSchedule(
            epsilon0=self._epsilon0,
            zeta0=min(max(self._initial_scaled_error / num_active, 1.0 / n), 0.999),
            delta0=1.0 / (len(self._target) * n),
            epsilon_threshold=self._epsilon,
            additive_floor=self._additive_floor,
        )

        def conditions(state, front_spread, rear_spread):
            scaled_error = state.scaled_error(num_active)
            return (
                self._condition_one(
                    front_spread, rear_spread, scaled_error, state.epsilon, cost
                ),
                schedule.is_exhausted(state, num_active),
            )

        estimator = FrontRearEstimator(
            view, node, selected, candidates - {node}, self._rng, pool=pool, backend=self._backend
        )
        return refine_until_decided(
            estimator, schedule, conditions, num_active, self._caps, algorithm
        )
