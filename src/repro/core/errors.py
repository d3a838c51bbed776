"""Sampling-error schedules used by the noise-model algorithms.

ADDATP (Algorithm 3) controls only an *additive* error ``ζ_i`` which is
divided by ``√2`` every time the current batch of RR sets is not conclusive,
while the failure probability ``δ_i`` is halved.  Because its per-round
sample size grows like ``1/ζ_i²``, driving ``n_i ζ_i`` down to the stopping
threshold of 1 costs ``O(n_i² ln n)`` samples — the efficiency problem
Section IV-A describes.

HATP (Algorithm 4) keeps a *hybrid* error: a relative part ``ε_i`` and an
additive part ``ζ_i``.  Its per-round sample size grows only like
``1/(ε_i ζ_i)``, and the two knobs are tightened *adaptively*: when the
estimate indicates a large marginal spread the relative error is the
binding constraint and is halved; when the estimate is small the additive
error is halved; otherwise both shrink by ``√2``.

Both schedules are factored out here so they can be unit-tested and ablated
independently of the seeding loops.  Each states in ``fixed_thetas``
whether its θ sequence is fixed before any RR set is drawn: only then may
a node's rounds carry sets from one round to the next
(:func:`repro.core.estimation.refine_until_decided`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.sampling.bounds import hoeffding_sample_size, hybrid_sample_size
from repro.utils.validation import require, require_positive, require_probability


@dataclass(frozen=True)
class AdditiveErrorState:
    """Per-round state of ADDATP's additive error schedule."""

    zeta: float
    delta: float
    round_index: int = 0

    def scaled_error(self, num_active_nodes: int) -> float:
        """The absolute spread error ``n_i ζ_i`` the round tolerates."""
        return self.zeta * num_active_nodes


class AdditiveErrorSchedule:
    """ADDATP's ``ζ_i /= √2``, ``δ_i /= 2`` refinement rule.

    Parameters
    ----------
    zeta0:
        Initial additive error ``ζ_0`` (paper: at least ``1/n``; the
        experiments initialise ``n_i ζ_0 = 64``).
    delta0:
        Initial failure probability ``δ_i`` of one round (paper:
        ``1/(k n)``).
    """

    #: ``θ_i`` depends on ``i`` alone, so the round-``i`` estimate is a mean
    #: of ``θ_i`` i.i.d. sets even when earlier rounds' sets are kept.
    fixed_thetas = True

    def __init__(self, zeta0: float, delta0: float) -> None:
        require_probability(zeta0, "zeta0")
        require_positive(delta0, "delta0")
        require(delta0 < 1.0, "delta0 must be < 1")
        self._zeta0 = float(zeta0)
        self._delta0 = float(delta0)

    def initial(self) -> AdditiveErrorState:
        """State of the first estimation round."""
        return AdditiveErrorState(zeta=self._zeta0, delta=self._delta0, round_index=0)

    def refine(
        self,
        state: AdditiveErrorState,
        num_active_nodes: int = 0,
        front_estimate: float = 0.0,
    ) -> AdditiveErrorState:
        """Tighten the error for the next round (line 19 of Algorithm 3).

        The estimates play no part: the arguments after ``state`` exist so
        that both schedules refine through one call.
        """
        return AdditiveErrorState(
            zeta=state.zeta / math.sqrt(2.0),
            delta=state.delta / 2.0,
            round_index=state.round_index + 1,
        )

    def sample_size(self, state: AdditiveErrorState) -> int:
        """``θ = ln(8/δ_i) / (2 ζ_i²)`` — the per-round RR-set count."""
        return hoeffding_sample_size(state.zeta, state.delta, numerator=8.0)


@dataclass(frozen=True)
class HybridErrorState:
    """Per-round state of HATP's hybrid error schedule."""

    epsilon: float
    zeta: float
    delta: float
    round_index: int = 0

    def scaled_error(self, num_active_nodes: int) -> float:
        """The absolute additive spread error ``n_i ζ_i``."""
        return self.zeta * num_active_nodes


class HybridErrorSchedule:
    """HATP's adaptive ``(ε_i, ζ_i)`` adjustment rule (lines 19–24).

    Parameters
    ----------
    epsilon0:
        Initial relative error ``ε_0`` (paper default 0.5).
    zeta0:
        Initial additive error ``ζ_0``.
    delta0:
        Initial per-round failure probability (paper: ``1/(k n)``).
    epsilon_threshold:
        The final relative error ``ε`` the algorithm guarantees (paper
        default 0.05); the relative error never drops below it.
    additive_floor:
        The value of ``n_i ζ_i`` considered "small enough" (paper: 1).
    magnitude_ratio:
        The "one magnitude" factor in line 21: when the front estimate is
        at least ``magnitude_ratio × n_i ζ_i`` the relative error is the
        binding one and gets halved.
    """

    #: :meth:`refine` picks the next ``(ε_i, ζ_i)`` from the front estimate,
    #: so a kept set would help choose the size of the sample it sits in
    #: (the flaw Chen found in IMM's reuse, arXiv:1808.09363): every round
    #: draws afresh, as Algorithm 4 does.
    fixed_thetas = False

    def __init__(
        self,
        epsilon0: float,
        zeta0: float,
        delta0: float,
        epsilon_threshold: float = 0.05,
        additive_floor: float = 1.0,
        magnitude_ratio: float = 10.0,
    ) -> None:
        require_probability(epsilon0, "epsilon0")
        require_probability(zeta0, "zeta0")
        require_positive(delta0, "delta0")
        require_probability(epsilon_threshold, "epsilon_threshold")
        require(
            epsilon0 >= epsilon_threshold,
            "epsilon0 must be at least epsilon_threshold",
        )
        require_positive(additive_floor, "additive_floor")
        require_positive(magnitude_ratio, "magnitude_ratio")
        self._epsilon0 = float(epsilon0)
        self._zeta0 = float(zeta0)
        self._delta0 = float(delta0)
        self.epsilon_threshold = float(epsilon_threshold)
        self.additive_floor = float(additive_floor)
        self._magnitude_ratio = float(magnitude_ratio)

    def initial(self) -> HybridErrorState:
        """State of the first estimation round."""
        return HybridErrorState(
            epsilon=self._epsilon0, zeta=self._zeta0, delta=self._delta0, round_index=0
        )

    def sample_size(self, state: HybridErrorState) -> int:
        """``θ = (1+ε_i/3)² ln(4/δ_i) / (2 ε_i ζ_i)`` — the per-round RR count."""
        return hybrid_sample_size(state.epsilon, state.zeta, state.delta, numerator=4.0)

    def is_exhausted(self, state: HybridErrorState, num_active_nodes: int) -> bool:
        """The C'2 stopping condition: both errors have hit their floors."""
        return (
            state.epsilon <= self.epsilon_threshold
            and state.scaled_error(num_active_nodes) <= self.additive_floor
        )

    def refine(
        self,
        state: HybridErrorState,
        num_active_nodes: int,
        front_estimate: float,
    ) -> HybridErrorState:
        """Apply the adaptive adjustment of lines 19–24 of Algorithm 4.

        ``front_estimate`` is the current estimate ``f_est`` of the marginal
        spread of the node being examined — the signal used to decide which
        error component is binding.
        """
        additive = state.scaled_error(num_active_nodes)
        epsilon, zeta = state.epsilon, state.zeta
        if epsilon <= self.epsilon_threshold and additive > self.additive_floor:
            zeta = zeta / 2.0
        elif epsilon > self.epsilon_threshold and additive <= self.additive_floor:
            epsilon = epsilon / 2.0
        elif front_estimate >= self._magnitude_ratio * additive:
            epsilon = epsilon / 2.0
        elif front_estimate <= additive:
            zeta = zeta / 2.0
        else:
            epsilon = epsilon / math.sqrt(2.0)
            zeta = zeta / math.sqrt(2.0)
        epsilon = max(epsilon, self.epsilon_threshold)
        return HybridErrorState(
            epsilon=epsilon,
            zeta=zeta,
            delta=state.delta / 2.0,
            round_index=state.round_index + 1,
        )


@dataclass(frozen=True)
class DynamicThresholdState:
    """State of the dynamic C2 threshold extension of ADDATP (§III-C Discussion).

    Tracks the accumulated profit ``ρ_i`` and the accumulated slack
    ``Σ η̃_j`` spent on iterations that stopped through C2, and adjusts the
    next iteration's threshold so that the total profit loss stays within
    ``ε · ρ_i`` — yielding the ``(1−ε)/3`` expected ratio discussed in the
    paper.
    """

    epsilon: float
    accumulated_profit: float = 0.0
    accumulated_slack: float = 0.0
    default_threshold: float = 1.0

    def next_threshold(self) -> float:
        """Threshold ``η_{i+1}`` for the next iteration's C2 condition."""
        budget = self.epsilon * self.accumulated_profit
        if budget >= 2.0 * self.accumulated_slack + 2.0:
            return max((budget - 2.0 * self.accumulated_slack - 2.0) / 2.0, 0.0)
        return self.default_threshold

    def after_iteration(
        self, profit_gained: float, stopped_by_c2: bool, threshold_used: float
    ) -> "DynamicThresholdState":
        """Fold one iteration's outcome into the state."""
        return replace(
            self,
            accumulated_profit=self.accumulated_profit + max(profit_gained, 0.0),
            accumulated_slack=self.accumulated_slack
            + (threshold_used if stopped_by_c2 else 0.0),
        )
