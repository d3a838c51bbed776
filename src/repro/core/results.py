"""Result containers for seeding runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Why a node's refinement rounds stopped, in priority order: the paper's
#: stopping conditions (C1/C'1, C2/C'2), then the engine caps
#: (``max_samples_per_round``, ``max_rounds``).
STOP_REASONS = ("C1", "C2", "sample_cap", "round_cap")

#: The stop reasons that are engine caps, not the paper's conditions.
CAP_REASONS = ("sample_cap", "round_cap")


def stop_reason(
    condition_one: bool, condition_two: bool, sample_cap: bool, round_cap: bool
) -> Optional[str]:
    """The first of :data:`STOP_REASONS` that holds, or ``None`` to go on."""
    held = (condition_one, condition_two, sample_cap, round_cap)
    return next((reason for reason, hit in zip(STOP_REASONS, held) if hit), None)


@dataclass(frozen=True)
class IterationRecord:
    """What happened when one target candidate was examined.

    ``stop_reason`` is the :data:`STOP_REASONS` entry that ended the
    node's refinement rounds (``None`` for skipped nodes and for
    algorithms without rounds).
    """

    node: int
    action: str  # "selected", "rejected", or "skipped-activated"
    front_estimate: Optional[float] = None
    rear_estimate: Optional[float] = None
    rounds: int = 0
    rr_sets_generated: int = 0
    newly_activated: int = 0
    stop_reason: Optional[str] = None


@dataclass
class SeedingResult:
    """Outcome of running one seeding algorithm against one realization.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the result.
    seeds:
        The committed seed set, in selection order.
    realized_spread:
        ``I_φ(S)``: number of nodes activated under the evaluation
        realization (for adaptive algorithms this is observed during the
        run; for nonadaptive algorithms it is evaluated afterwards).
    realized_profit:
        ``I_φ(S) − c(S)``.
    seed_cost:
        Total cost of the committed seeds.
    rr_sets_generated:
        Total number of RR sets (or spread-oracle queries) spent.
    runtime_seconds:
        Wall-clock seeding time (excludes evaluation of nonadaptive seeds).
    iterations:
        Per-candidate decision log.
    extra:
        Algorithm-specific diagnostics (error schedules, budget hits, ...).
    """

    algorithm: str
    seeds: List[int]
    realized_spread: float
    realized_profit: float
    seed_cost: float
    rr_sets_generated: int = 0
    runtime_seconds: float = 0.0
    iterations: List[IterationRecord] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def num_seeds(self) -> int:
        """Number of committed seeds."""
        return len(self.seeds)

    def summary(self) -> Dict[str, object]:
        """Compact dictionary view used by the experiment reporters."""
        return {
            "algorithm": self.algorithm,
            "num_seeds": self.num_seeds,
            "profit": self.realized_profit,
            "spread": self.realized_spread,
            "cost": self.seed_cost,
            "rr_sets": self.rr_sets_generated,
            "runtime_s": self.runtime_seconds,
        }


@dataclass
class NonadaptiveSelection:
    """Outcome of a nonadaptive seed-selection algorithm (no realization yet).

    Nonadaptive algorithms (HNTP, NSG, NDG, RS) choose their whole seed set
    from the original graph before any market feedback exists.  The chosen
    set is then scored against realizations separately (see
    :meth:`repro.core.session.AdaptiveSession.evaluate_nonadaptive`).
    """

    algorithm: str
    seeds: List[int]
    seed_cost: float
    estimated_profit: Optional[float] = None
    rr_sets_generated: int = 0
    runtime_seconds: float = 0.0
    iterations: List[IterationRecord] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def num_seeds(self) -> int:
        """Number of selected seeds."""
        return len(self.seeds)

    def to_seeding_result(
        self, realized_spread: float, realized_profit: float
    ) -> SeedingResult:
        """Attach realized outcomes, producing a :class:`SeedingResult`."""
        return SeedingResult(
            algorithm=self.algorithm,
            seeds=list(self.seeds),
            realized_spread=realized_spread,
            realized_profit=realized_profit,
            seed_cost=self.seed_cost,
            rr_sets_generated=self.rr_sets_generated,
            runtime_seconds=self.runtime_seconds,
            iterations=list(self.iterations),
            extra=dict(self.extra),
        )
