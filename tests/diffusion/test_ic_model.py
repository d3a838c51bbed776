"""Tests for forward IC simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.ic_model import (
    cascade_trace,
    observe_activation,
    simulate_ic,
    simulate_ic_spread,
)
from repro.diffusion.realization import Realization
from repro.graphs.generators import path_graph, star_graph
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph


class TestSimulateIC:
    def test_deterministic_cascade_covers_path(self, path4, rng):
        assert simulate_ic(path4, [0], rng) == {0, 1, 2, 3}

    def test_zero_probability_cascade_stays_at_seed(self, rng):
        graph = path_graph(4).with_uniform_probability(1e-12)
        assert simulate_ic(graph, [0], rng) == {0}

    def test_empty_seed_set(self, path4, rng):
        assert simulate_ic(path4, [], rng) == set()

    def test_respects_residual_graph(self, path4, rng):
        residual = ResidualGraph(path4).without([1])
        assert simulate_ic(residual, [0], rng) == {0}

    def test_seeds_outside_residual_ignored(self, path4, rng):
        residual = ResidualGraph(path4).without([0])
        assert simulate_ic(residual, [0, 2], rng) == {2, 3}

    def test_spread_helper(self, star6, rng):
        assert simulate_ic_spread(star6, [0], rng) == 6

    def test_monte_carlo_mean_matches_expectation(self):
        # star with 3 leaves at probability 0.5: E[I({center})] = 1 + 3*0.5
        graph = star_graph(4).with_uniform_probability(0.5)
        rng = np.random.default_rng(0)
        samples = [simulate_ic_spread(graph, [0], rng) for _ in range(3000)]
        assert np.mean(samples) == pytest.approx(2.5, abs=0.1)


class TestCascadeTrace:
    def test_waves_of_path(self, path4, rng):
        waves = cascade_trace(path4, [0], rng)
        assert waves[0] == {0}
        assert waves[1] == {1}
        assert waves[-1] == {3}
        assert len(waves) == 4

    def test_trace_union_matches_simulation_support(self, star6, rng):
        waves = cascade_trace(star6, [0], rng)
        union = set().union(*waves)
        assert union == {0, 1, 2, 3, 4, 5}
        assert len(waves) == 2  # seeds then all leaves in one step


class TestObserveActivation:
    def test_feedback_matches_realization(self, path4):
        world = Realization.sample(path4, 0)  # all edges live
        residual = ResidualGraph(path4)
        assert observe_activation(world, 0, residual) == {0, 1, 2, 3}

    def test_feedback_restricted_to_residual(self, path4):
        world = Realization.sample(path4, 0)
        residual = ResidualGraph(path4).without([3])
        assert observe_activation(world, 0, residual) == {0, 1, 2}


class TestIndependentCoins:
    """Under IC every edge is one independent coin of its own probability."""

    #: Two parents of node 2 with different edge probabilities.
    EDGES = [(0, 2, 0.4), (1, 2, 0.5)]

    def test_each_edge_live_with_its_probability(self):
        graph = ProbabilisticGraph.from_edge_list(self.EDGES, n=3)
        rng = np.random.default_rng(3)
        live = np.array([Realization.sample(graph, rng).live_mask for _ in range(4000)])
        assert live.mean(axis=0) == pytest.approx([0.4, 0.5], abs=0.03)

    def test_in_edges_of_a_node_flip_independently(self):
        # Both in-edges of node 2 may be live in one world, with the
        # product probability (a triggering model would allow only one).
        graph = ProbabilisticGraph.from_edge_list(self.EDGES, n=3)
        rng = np.random.default_rng(4)
        live = np.array([Realization.sample(graph, rng).live_mask for _ in range(4000)])
        assert np.mean(live[:, 0] & live[:, 1]) == pytest.approx(0.4 * 0.5, abs=0.03)

    def test_activation_probability_with_two_seeded_parents(self):
        # Node 2 stays inactive only if both coins fail: 1 - 0.6 * 0.5.
        graph = ProbabilisticGraph.from_edge_list(self.EDGES, n=3)
        rng = np.random.default_rng(5)
        hits = [2 in simulate_ic(graph, [0, 1], rng) for _ in range(4000)]
        assert np.mean(hits) == pytest.approx(0.7, abs=0.03)
