"""Tests for exact and Monte-Carlo spread computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.spread import (
    exact_expected_spread,
    exact_marginal_spread,
    expected_spread_lower_bound,
    monte_carlo_marginal_spread,
    monte_carlo_spread,
    monte_carlo_spread_samples,
)
from repro.graphs.generators import path_graph, star_graph
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph
from repro.utils.exceptions import ValidationError


class TestExactSpread:
    def test_single_edge(self):
        graph = ProbabilisticGraph.from_edge_list([(0, 1, 0.3)], n=2)
        assert exact_expected_spread(graph, [0]) == pytest.approx(1.3)

    def test_two_hop_path(self):
        graph = ProbabilisticGraph.from_edge_list([(0, 1, 0.5), (1, 2, 0.5)], n=3)
        # E[I({0})] = 1 + 0.5 + 0.25
        assert exact_expected_spread(graph, [0]) == pytest.approx(1.75)

    def test_diamond(self, diamond):
        # 0 reaches 3 unless both length-2 paths fail: 1 + 0.5 + 0.5 + (1 - 0.25)
        assert exact_expected_spread(diamond, [0]) == pytest.approx(2.75)

    def test_seed_set_spread_counts_union(self, diamond):
        assert exact_expected_spread(diamond, [1, 2]) == pytest.approx(3.0)

    def test_empty_seed_set(self, diamond):
        assert exact_expected_spread(diamond, []) == 0.0

    def test_respects_residual(self, diamond):
        residual = ResidualGraph(diamond).without([1])
        assert exact_expected_spread(residual, [0]) == pytest.approx(1 + 0.5 + 0.5 * 1)

    def test_guard_on_edge_count(self):
        graph = star_graph(30).with_uniform_probability(0.5)
        with pytest.raises(ValidationError):
            exact_expected_spread(graph, [0], max_edges=10)

    def test_exact_marginal_spread(self, diamond):
        marginal = exact_marginal_spread(diamond, 1, [0])
        # adding 1 on top of 0: 1 is reached with prob 0.5 already; node 3 nearly covered
        full = exact_expected_spread(diamond, [0, 1])
        base = exact_expected_spread(diamond, [0])
        assert marginal == pytest.approx(full - base)

    def test_marginal_of_member_is_zero(self, diamond):
        assert exact_marginal_spread(diamond, 0, [0]) == 0.0


class TestMonteCarloSpread:
    def test_matches_exact_on_diamond(self, diamond):
        estimate = monte_carlo_spread(diamond, [0], num_simulations=4000, random_state=0)
        assert estimate == pytest.approx(2.75, abs=0.1)

    def test_empty_seed_set(self, diamond):
        assert monte_carlo_spread(diamond, [], 10, 0) == 0.0

    def test_invalid_simulation_count(self, diamond):
        with pytest.raises(ValidationError):
            monte_carlo_spread(diamond, [0], num_simulations=0)

    def test_negative_sample_count_is_a_validation_error(self, diamond):
        with pytest.raises(ValidationError, match="num_simulations must be >= 1"):
            monte_carlo_spread_samples(diamond, [0], -1, 0)

    def test_zero_marginal_simulations_is_a_validation_error(self, diamond):
        with pytest.raises(ValidationError, match="num_simulations must be >= 1"):
            monte_carlo_marginal_spread(diamond, 3, [0], num_simulations=0)

    def test_samples_shape(self, diamond):
        samples = monte_carlo_spread_samples(diamond, [0], 50, 0)
        assert samples.shape == (50,)
        assert samples.min() >= 1

    def test_marginal_estimate_matches_exact(self, diamond):
        estimate = monte_carlo_marginal_spread(diamond, 3, [0], 4000, 0)
        exact = exact_marginal_spread(diamond, 3, [0])
        assert estimate == pytest.approx(exact, abs=0.1)

    def test_marginal_of_member_is_zero(self, diamond):
        assert monte_carlo_marginal_spread(diamond, 0, [0], 10, 0) == 0.0


class TestLowerBound:
    def test_lower_bound_below_mean(self):
        samples = np.array([10.0, 12.0, 11.0, 9.0, 13.0] * 10)
        bound = expected_spread_lower_bound(samples)
        assert bound <= samples.mean()
        assert bound > 0

    def test_single_sample(self):
        assert expected_spread_lower_bound(np.array([5.0])) == 5.0

    def test_empty_samples(self):
        assert expected_spread_lower_bound(np.array([])) == 0.0

    def test_never_negative(self):
        samples = np.array([0.0, 0.1, 0.0, 0.2])
        assert expected_spread_lower_bound(samples) >= 0.0

    def test_confidence_sets_the_quantile(self):
        samples = np.array([10.0, 12.0, 11.0, 9.0, 13.0] * 10)
        std_error = samples.std(ddof=1) / np.sqrt(samples.size)
        for confidence, z in ((0.9, 1.2816), (0.95, 1.6449), (0.99, 2.3263)):
            bound = expected_spread_lower_bound(samples, confidence)
            assert bound == samples.mean() - z * std_error
        assert expected_spread_lower_bound(samples) == expected_spread_lower_bound(
            samples, 0.95
        )

    @pytest.mark.parametrize("confidence", [0.8, 0.975, 0.5, 1.0])
    def test_unsupported_confidence_is_refused(self, confidence):
        samples = np.array([10.0, 12.0, 11.0])
        with pytest.raises(ValidationError, match="confidence must be one of"):
            expected_spread_lower_bound(samples, confidence)
