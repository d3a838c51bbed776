"""Seeding-cost models.

The paper's experiments (Section VI-A) use two procedures to obtain the
target set ``T`` and the per-node costs:

1. **Spread-calibrated costs** — ``T`` is the top-``k`` influential node set
   and the *total* cost is pinned to a lower bound of the target set's
   expected spread, ``c(T) = E_l[I(T)]``, distributed across nodes either
   proportionally to out-degree (*degree-proportional*), equally
   (*uniform*), or at random (*random*, Fig. 4a).
2. **Predefined costs** — every node in the graph gets a cost before ``T``
   is chosen; the ratio ``λ = c(V)/n`` controls how expensive seeding is and
   therefore how large the profitable target set ends up being.

This module implements both procedures plus the individual distribution
schemes, all deterministic given an RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.profit import CostMap, total_cost
from repro.diffusion.spread import (
    expected_spread_lower_bound,
    monte_carlo_spread_samples,
    normal_quantile,
)
from repro.graphs.graph import ProbabilisticGraph
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require, require_non_negative, require_positive

#: Canonical names of the three cost settings studied in the paper.
COST_SETTINGS = ("degree", "uniform", "random")


@dataclass(frozen=True)
class CostAssignment:
    """A node-cost mapping together with provenance metadata."""

    costs: CostMap
    setting: str
    total: float
    calibration_spread: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    def cost_of(self, nodes: Iterable[int]) -> float:
        """Total cost of ``nodes``."""
        return total_cost(self.costs, nodes)

    def restricted_to(self, nodes: Iterable[int]) -> "CostAssignment":
        """Assignment restricted to ``nodes`` (e.g. a chosen target set)."""
        keep = {int(v) for v in nodes}
        costs = {node: cost for node, cost in self.costs.items() if node in keep}
        return CostAssignment(
            costs=costs,
            setting=self.setting,
            total=sum(costs.values()),
            calibration_spread=self.calibration_spread,
            metadata=dict(self.metadata),
        )


# --------------------------------------------------------------------------- #
# distribution schemes
# --------------------------------------------------------------------------- #


def degree_proportional_costs(
    graph: ProbabilisticGraph, nodes: Sequence[int], total: float
) -> CostMap:
    """Distribute ``total`` across ``nodes`` proportionally to out-degree.

    Nodes with zero out-degree receive the same share as degree-one nodes so
    that every node carries a strictly positive cost (a free node would make
    the double-greedy decision trivial).
    """
    require_non_negative(total, "total")
    nodes = [int(v) for v in nodes]
    if not nodes:
        return {}
    degrees = np.asarray([max(graph.out_degree(v), 1) for v in nodes], dtype=np.float64)
    weights = degrees / degrees.sum()
    return {node: float(total * weight) for node, weight in zip(nodes, weights)}


def uniform_costs(nodes: Sequence[int], total: float) -> CostMap:
    """Distribute ``total`` equally across ``nodes``."""
    require_non_negative(total, "total")
    nodes = [int(v) for v in nodes]
    if not nodes:
        return {}
    share = total / len(nodes)
    return {node: share for node in nodes}


def random_costs(
    nodes: Sequence[int], total: float, random_state: RandomState = None
) -> CostMap:
    """Distribute ``total`` across ``nodes`` with random (Dirichlet) weights."""
    require_non_negative(total, "total")
    nodes = [int(v) for v in nodes]
    if not nodes:
        return {}
    rng = ensure_rng(random_state)
    weights = rng.dirichlet(np.ones(len(nodes)))
    return {node: float(total * weight) for node, weight in zip(nodes, weights)}


def _distribute(
    graph: ProbabilisticGraph,
    nodes: Sequence[int],
    total: float,
    setting: str,
    random_state: RandomState = None,
) -> CostMap:
    if setting == "degree":
        return degree_proportional_costs(graph, nodes, total)
    if setting == "uniform":
        return uniform_costs(nodes, total)
    if setting == "random":
        return random_costs(nodes, total, random_state)
    raise ConfigurationError(
        f"unknown cost setting {setting!r}; expected one of {COST_SETTINGS}"
    )


# --------------------------------------------------------------------------- #
# procedure 1: spread-calibrated costs (c(T) = E_l[I(T)])
# --------------------------------------------------------------------------- #


def estimate_spread_lower_bound(
    graph: ProbabilisticGraph,
    nodes: Sequence[int],
    num_rr_sets: int = 2000,
    num_mc_runs: int = 0,
    confidence: float = 0.95,
    random_state: RandomState = None,
) -> float:
    """Lower bound ``E_l[I(T)]`` on the expected spread of ``nodes``.

    Uses the RIS estimator by default (fast, low variance); passing
    ``num_mc_runs > 0`` switches to Monte-Carlo simulation with a one-sided
    confidence bound, which is the more literal reading of the paper.
    Both paths take the one-sided normal quantile of ``confidence``
    (0.90, 0.95 or 0.99; any other level raises ``ValidationError``).
    """
    z = normal_quantile(confidence)
    nodes = [int(v) for v in nodes]
    if not nodes:
        return 0.0
    if num_mc_runs > 0:
        samples = monte_carlo_spread_samples(graph, nodes, num_mc_runs, random_state)
        return expected_spread_lower_bound(samples, confidence)
    collection = FlatRRCollection.generate(graph, num_rr_sets, random_state)
    estimate = collection.estimate_spread(nodes)
    # Conservative additive slack: one standard error of the binomial count.
    fraction = collection.estimate_fraction(nodes)
    std_error = np.sqrt(max(fraction * (1.0 - fraction), 0.0) / max(collection.num_sets, 1))
    return max(0.0, float(estimate - z * std_error * graph.n))


def spread_calibrated_costs(
    graph: ProbabilisticGraph,
    target: Sequence[int],
    setting: str = "degree",
    num_rr_sets: int = 2000,
    random_state: RandomState = None,
) -> CostAssignment:
    """Procedure 1: cost the target set by its own spread lower bound.

    Ensures ``c(T) = E_l[I(T)]`` (so that ``ρ(T) ≥ 0`` holds in expectation,
    the standing assumption of the TPM formulation) and distributes the
    total per ``setting``.
    """
    rng = ensure_rng(random_state)
    target = [int(v) for v in target]
    lower_bound = estimate_spread_lower_bound(
        graph, target, num_rr_sets=num_rr_sets, random_state=rng
    )
    costs = _distribute(graph, target, lower_bound, setting, rng)
    return CostAssignment(
        costs=costs,
        setting=setting,
        total=lower_bound,
        calibration_spread=lower_bound,
        metadata={"procedure": "spread-calibrated", "num_rr_sets": num_rr_sets},
    )


# --------------------------------------------------------------------------- #
# procedure 2: predefined costs (λ = c(V)/n fixed before choosing T)
# --------------------------------------------------------------------------- #


def lambda_predefined_costs(
    graph: ProbabilisticGraph,
    cost_ratio: float,
    setting: str = "degree",
    random_state: RandomState = None,
) -> CostAssignment:
    """Procedure 2: assign a cost to *every* node before the target is chosen.

    ``cost_ratio`` is the paper's λ = c(V)/n; the total budget ``λ·n`` is
    distributed over all nodes according to ``setting``.  Note that the
    paper scales λ in absolute terms of its million-node graphs; on the
    scaled-down proxies the same λ values would swamp every node's spread,
    so experiment configs use proportionally smaller ratios (see
    EXPERIMENTS.md).
    """
    require_positive(cost_ratio, "cost_ratio")
    rng = ensure_rng(random_state)
    all_nodes = list(range(graph.n))
    total = cost_ratio * graph.n
    costs = _distribute(graph, all_nodes, total, setting, rng)
    return CostAssignment(
        costs=costs,
        setting=setting,
        total=total,
        metadata={"procedure": "lambda-predefined", "lambda": cost_ratio},
    )


def scale_costs(assignment: CostAssignment, factor: float) -> CostAssignment:
    """Multiply every cost by ``factor`` (utility for sensitivity studies)."""
    require(factor >= 0, "factor must be >= 0")
    costs = {node: cost * factor for node, cost in assignment.costs.items()}
    return CostAssignment(
        costs=costs,
        setting=assignment.setting,
        total=assignment.total * factor,
        calibration_spread=assignment.calibration_spread,
        metadata={**assignment.metadata, "scaled_by": factor},
    )
