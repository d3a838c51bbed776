"""Tests for realizations (possible worlds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.realization import (
    BaseRealization,
    Realization,
    batch_realization_spreads,
    sample_realizations,
)
from repro.graphs.generators import path_graph, star_graph
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph
from repro.utils.exceptions import ValidationError


class MaskWorld(BaseRealization):
    """A world that answers edge queries one at a time, logging each."""

    def __init__(self, graph, live):
        self.graph = graph
        self._live = np.asarray(live, dtype=bool)
        self.queried = []

    def is_live(self, edge_id):
        self.queried.append(int(edge_id))
        return bool(self._live[edge_id])


class TestEagerRealization:
    def test_all_live_when_probability_one(self, path4, rng):
        world = Realization.sample(path4, rng)
        assert world.num_live_edges == path4.m
        assert world.spread([0]) == 4

    def test_all_blocked_when_probability_tiny(self, rng):
        graph = path_graph(4).with_uniform_probability(1e-12)
        world = Realization.sample(graph, rng)
        assert world.num_live_edges == 0
        assert world.spread([0]) == 1

    def test_from_live_edge_ids(self, path4):
        # only the first edge (0→1) live
        world = Realization.from_live_edge_ids(path4, [0])
        assert world.spread([0]) == 2
        assert world.spread([2]) == 1

    def test_live_mask_shape_validated(self, path4):
        with pytest.raises(ValueError):
            Realization(path4, np.zeros(2, dtype=bool))

    def test_activated_by_respects_residual(self, path4):
        world = Realization.sample(path4, 0)  # all live (prob 1)
        residual = ResidualGraph(path4).without([2])
        activated = world.activated_by([0], residual)
        assert activated == {0, 1}  # propagation stops at removed node 2

    def test_inactive_seed_ignored(self, path4):
        world = Realization.sample(path4, 0)
        residual = ResidualGraph(path4).without([0])
        assert world.activated_by([0], residual) == set()

    def test_spread_of_multiple_seeds_is_union(self, star6):
        world = Realization.sample(star6, 0)
        assert world.spread([0]) == 6
        assert world.spread([1, 2]) == 2

    def test_repeatable_given_seed(self, rng):
        graph = star_graph(8).with_uniform_probability(0.5)
        world_a = Realization.sample(graph, 123)
        world_b = Realization.sample(graph, 123)
        assert np.array_equal(world_a.live_mask, world_b.live_mask)


class TestBaseRealization:
    """The reference traversal every possible world inherits."""

    def test_traverses_live_edges(self, path4):
        world = MaskWorld(path4, np.ones(path4.m))
        assert world.spread([0]) == 4
        assert world.activated_by([1]) == {1, 2, 3}

    def test_queries_only_edges_out_of_activated_nodes(self):
        graph = path_graph(10)
        world = MaskWorld(graph, np.ones(graph.m))
        assert world.activated_by([8]) == {8, 9}
        _, _, out_of_8 = graph.out_neighbors(8)
        assert world.queried == out_of_8.tolist()

    @pytest.mark.parametrize("world_seed", [0, 1, 2])
    def test_matches_the_eager_sweep(self, small_proxy, world_seed):
        eager = Realization.sample(small_proxy, world_seed)
        reference = MaskWorld(small_proxy, eager.live_mask)
        residual = ResidualGraph(small_proxy).without(range(10, 20))
        for seeds in ([0], [3, 40, 77], list(range(25))):
            assert reference.activated_by(seeds) == eager.activated_by(seeds)
            assert reference.spread(seeds, residual) == eager.spread(seeds, residual)

    def test_residual_stops_propagation_and_drops_inactive_seeds(self, path4):
        world = MaskWorld(path4, np.ones(path4.m))
        assert world.activated_by([0], ResidualGraph(path4).without([2])) == {0, 1}
        assert world.activated_by([0], ResidualGraph(path4).without([0])) == set()

    def test_edge_states_are_left_to_subclasses(self):
        with pytest.raises(NotImplementedError):
            BaseRealization().is_live(0)


class TestBatchRealizationSpreads:
    def test_empty_family(self):
        spreads = batch_realization_spreads([], [0])
        assert spreads.shape == (0,) and spreads.dtype == np.int64

    def test_matches_per_world_spread_under_a_residual(self, small_proxy):
        worlds = sample_realizations(small_proxy, 6, random_state=21)
        residual = ResidualGraph(small_proxy).without([1, 2, 3])
        seeds = [0, 4, 60]
        batched = batch_realization_spreads(worlds, seeds, residual)
        assert batched.tolist() == [world.spread(seeds, residual) for world in worlds]

    def test_world_without_a_live_mask_rejected(self, path4):
        worlds = [Realization.sample(path4, 0), MaskWorld(path4, np.ones(path4.m))]
        with pytest.raises(ValidationError, match="eager Realization"):
            batch_realization_spreads(worlds, [0])

    def test_worlds_of_another_graph_object_rejected(self, path4):
        twin = path_graph(4)  # equal edges, different object
        worlds = [Realization.sample(path4, 0), Realization.sample(twin, 0)]
        with pytest.raises(ValidationError, match="same graph object"):
            batch_realization_spreads(worlds, [0])


class TestSampleRealizations:
    def test_count_and_type(self, path4):
        worlds = sample_realizations(path4, 5, random_state=0)
        assert len(worlds) == 5
        assert all(isinstance(world, Realization) for world in worlds)

    def test_reproducible_family(self):
        graph = star_graph(6).with_uniform_probability(0.5)
        masks_a = [w.live_mask.tolist() for w in sample_realizations(graph, 4, 9)]
        masks_b = [w.live_mask.tolist() for w in sample_realizations(graph, 4, 9)]
        assert masks_a == masks_b

    def test_family_members_differ(self):
        graph = star_graph(30).with_uniform_probability(0.5)
        worlds = sample_realizations(graph, 2, random_state=1)
        assert not np.array_equal(worlds[0].live_mask, worlds[1].live_mask)

    def test_zero_count(self, path4):
        assert sample_realizations(path4, 0, random_state=0) == []

    @pytest.mark.parametrize("knob", ["lazy", "batch_flip"])
    def test_only_eager_worlds_are_sampled(self, path4, knob):
        # Evaluation workers replay a world from its full live mask or its
        # stream, so there is no lazily flipped variant to ask for.
        with pytest.raises(TypeError):
            sample_realizations(path4, 2, random_state=0, **{knob: True})
