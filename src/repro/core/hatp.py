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
counts ``Cov_{R1}`` and ``Cov_{R2}`` straight from each freshly drawn RR
batch and drops it.  With ``sample_reuse=True`` the two counts and ``θ``
are kept across a node-iteration's refinement rounds, and each round draws
only the ``θ_i − θ_{i−1}`` *new* RR sets per side and adds their counts
(IMM-style sample carrying — the residual graph is frozen within a
node-iteration, so all rounds sample the same distribution).  The default
``False`` path redraws both batches from scratch each round on the exact
historical RNG stream.

The decision rule ``f_est + r_est ≥ 2 c(u_i)`` is algebraically the same
test as ADG's ``ρ_f ≥ ρ_r`` written in terms of the raw spread estimates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.errors import HybridErrorSchedule
from repro.core.estimation import FrontRearEstimator
from repro.core.results import CAP_REASONS, IterationRecord, SeedingResult, stop_reason
from repro.core.session import AdaptiveSession
from repro.parallel.pool import SamplingPool, resolve_jobs
from repro.utils.exceptions import SamplingBudgetExceeded
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
        Worker processes for RR-set generation (``None`` honours the
        ``REPRO_JOBS`` environment variable and otherwise keeps the
        historical in-process path; ``-1`` uses all cores).  When set, a
        persistent :class:`~repro.parallel.pool.SamplingPool` is held open
        for the whole run and the sampled batches are bit-for-bit
        independent of the worker count.
    sample_reuse:
        Carry the front/rear coverage counts across refinement rounds,
        drawing only the newly required sets and adding their counts
        (roughly halves the RR sets generated per iteration at a
        geometric schedule).  ``False`` (default) regenerates per round on
        the exact historical RNG stream.
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
        pool = (
            SamplingPool(session.graph, n_jobs=self._n_jobs, directions=("in",))
            if self._n_jobs is not None
            else None
        )
        try:
            return self._execute(session, pool)
        finally:
            if pool is not None:
                pool.close()

    def _execute(
        self, session: AdaptiveSession, pool: Optional[SamplingPool]
    ) -> SeedingResult:
        timer = Timer().start()
        n = max(session.graph.n, 2)
        k = len(self._target)
        costs = session.costs

        selected: List[int] = []
        candidates = set(self._target)
        iterations: List[IterationRecord] = []
        total_rr_sets = 0
        budget_hits = 0

        for node in self._target:
            if session.is_activated(node):
                candidates.discard(node)
                iterations.append(IterationRecord(node=node, action="skipped-activated"))
                continue

            residual = session.residual
            num_active = max(residual.num_active, 1)
            cost_u = costs.get(node, 0.0)

            zeta0 = min(max(self._initial_scaled_error / num_active, 1.0 / n), 0.999)
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
                residual,
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

                scaled_error = state.scaled_error(num_active)
                condition_one = self._condition_one(
                    front_spread, rear_spread, scaled_error, state.epsilon, cost_u
                )
                condition_two = schedule.is_exhausted(state, num_active)
                round_budget_hit = rounds >= self._max_rounds

                reason = stop_reason(
                    condition_one, condition_two, sample_budget_hit, round_budget_hit
                )
                if reason is not None:
                    if reason in CAP_REASONS:
                        budget_hits += 1
                        if self._on_budget == "raise":
                            raise SamplingBudgetExceeded(
                                f"HATP hit its sampling budget on node {node} "
                                f"(requested {requested} RR sets per collection)"
                            )
                    break
                state = schedule.refine(state, num_active, front_spread)

            total_rr_sets += rr_this_iteration
            if front_spread + rear_spread >= 2.0 * cost_u:
                newly_activated = session.commit_seed(node)
                selected.append(node)
                action = "selected"
                newly = len(newly_activated)
            else:
                candidates.discard(node)
                action = "rejected"
                newly = 0
            iterations.append(
                IterationRecord(
                    node=node,
                    action=action,
                    front_estimate=front_spread - cost_u,
                    rear_estimate=cost_u - rear_spread,
                    rounds=rounds,
                    rr_sets_generated=rr_this_iteration,
                    newly_activated=newly,
                    stop_reason=reason,
                )
            )

        timer.stop()
        return SeedingResult(
            algorithm=self.name,
            seeds=selected,
            realized_spread=session.realized_spread,
            realized_profit=session.realized_profit,
            seed_cost=session.seed_cost,
            rr_sets_generated=total_rr_sets,
            runtime_seconds=timer.elapsed,
            iterations=iterations,
            extra={
                "epsilon": self._epsilon,
                "epsilon0": self._epsilon0,
                "budget_hits": budget_hits,
                "initial_scaled_error": self._initial_scaled_error,
                "sample_reuse": self._sample_reuse,
            },
        )
