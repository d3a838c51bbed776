"""Tests for the cost models (Section VI-A procedures)."""

from __future__ import annotations

import pytest

from repro.core.costs import (
    COST_SETTINGS,
    CostAssignment,
    degree_proportional_costs,
    estimate_spread_lower_bound,
    lambda_predefined_costs,
    random_costs,
    scale_costs,
    spread_calibrated_costs,
    uniform_costs,
)
from repro.diffusion.spread import exact_expected_spread
from repro.graphs.generators import star_graph
from repro.utils.exceptions import ConfigurationError, ValidationError


class TestDistributionSchemes:
    def test_degree_proportional_total_and_ratios(self, star6):
        costs = degree_proportional_costs(star6, [0, 1, 2], total=12.0)
        assert sum(costs.values()) == pytest.approx(12.0)
        # center (degree 5) pays 5x a leaf (degree 0 -> clamped to 1)
        assert costs[0] == pytest.approx(5 * costs[1])

    def test_uniform_split(self):
        costs = uniform_costs([3, 4, 5], total=9.0)
        assert costs == {3: 3.0, 4: 3.0, 5: 3.0}

    def test_random_costs_total_and_nonnegative(self, rng):
        costs = random_costs([0, 1, 2, 3], total=8.0, random_state=rng)
        assert sum(costs.values()) == pytest.approx(8.0)
        assert all(cost >= 0 for cost in costs.values())

    def test_empty_node_lists(self, star6):
        assert degree_proportional_costs(star6, [], 5.0) == {}
        assert uniform_costs([], 5.0) == {}
        assert random_costs([], 5.0) == {}

    def test_settings_constant(self):
        assert set(COST_SETTINGS) == {"degree", "uniform", "random"}


class TestSpreadCalibratedCosts:
    def test_total_matches_lower_bound(self, small_proxy):
        assignment = spread_calibrated_costs(
            small_proxy, [0, 1, 2, 3], setting="uniform", num_rr_sets=500, random_state=0
        )
        assert assignment.total == pytest.approx(sum(assignment.costs.values()), rel=1e-6)
        assert assignment.calibration_spread == assignment.total

    def test_lower_bound_is_conservative(self, diamond):
        bound = estimate_spread_lower_bound(diamond, [0], num_rr_sets=3000, random_state=0)
        exact = exact_expected_spread(diamond, [0])
        assert bound <= exact + 0.05
        assert bound > 0

    def test_lower_bound_empty_set(self, diamond):
        assert estimate_spread_lower_bound(diamond, [], random_state=0) == 0.0

    def test_monte_carlo_variant(self, diamond):
        bound = estimate_spread_lower_bound(
            diamond, [0], num_mc_runs=500, random_state=0
        )
        assert 0 < bound <= exact_expected_spread(diamond, [0]) + 0.1

    def test_confidence_moves_the_ris_bound(self, diamond):
        bounds = [
            estimate_spread_lower_bound(
                diamond, [0], num_rr_sets=3000, confidence=level, random_state=0
            )
            for level in (0.9, 0.95, 0.99)
        ]
        assert bounds[0] > bounds[1] > bounds[2] > 0
        assert bounds[1] == estimate_spread_lower_bound(
            diamond, [0], num_rr_sets=3000, random_state=0
        )

    @pytest.mark.parametrize("num_mc_runs", [0, 500])
    def test_unsupported_confidence_is_refused(self, diamond, num_mc_runs):
        with pytest.raises(ValidationError, match="confidence must be one of"):
            estimate_spread_lower_bound(
                diamond, [0], num_mc_runs=num_mc_runs, confidence=0.5, random_state=0
            )

    def test_invalid_setting_rejected(self, small_proxy):
        with pytest.raises(ConfigurationError):
            spread_calibrated_costs(small_proxy, [0, 1], setting="exotic", random_state=0)

    def test_restricted_to(self, small_proxy):
        assignment = spread_calibrated_costs(
            small_proxy, [0, 1, 2], setting="uniform", num_rr_sets=300, random_state=0
        )
        restricted = assignment.restricted_to([0, 1])
        assert set(restricted.costs) == {0, 1}
        assert restricted.total == pytest.approx(assignment.costs[0] + assignment.costs[1])


class TestLambdaPredefinedCosts:
    def test_total_is_lambda_times_n(self, small_proxy):
        assignment = lambda_predefined_costs(small_proxy, cost_ratio=2.0, setting="uniform")
        assert assignment.total == pytest.approx(2.0 * small_proxy.n)
        assert len(assignment.costs) == small_proxy.n

    def test_uniform_setting_gives_equal_costs(self, small_proxy):
        assignment = lambda_predefined_costs(small_proxy, cost_ratio=1.0, setting="uniform")
        values = set(round(v, 9) for v in assignment.costs.values())
        assert len(values) == 1

    def test_degree_setting_charges_hubs_more(self, small_proxy):
        assignment = lambda_predefined_costs(small_proxy, cost_ratio=1.0, setting="degree")
        degrees = small_proxy.out_degrees
        hub = int(degrees.argmax())
        leaf = int(degrees.argmin())
        assert assignment.costs[hub] >= assignment.costs[leaf]

    def test_metadata_records_lambda(self, small_proxy):
        assignment = lambda_predefined_costs(small_proxy, cost_ratio=3.0)
        assert assignment.metadata["lambda"] == 3.0


class TestScaling:
    def test_scale_costs(self):
        assignment = CostAssignment(costs={1: 2.0, 2: 4.0}, setting="uniform", total=6.0)
        scaled = scale_costs(assignment, 0.5)
        assert scaled.costs == {1: 1.0, 2: 2.0}
        assert scaled.total == 3.0

    def test_cost_of(self):
        assignment = CostAssignment(costs={1: 2.0, 2: 4.0}, setting="uniform", total=6.0)
        assert assignment.cost_of([1, 2, 99]) == 6.0
