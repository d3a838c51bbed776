"""Tests of ``FlatRRCollection``: the in-RAM RR collection every algorithm reads.

Four groups of checks:

* hand-built sets with known answers for every coverage query, including
  the edge cases the flat layout has to handle itself (out-of-range and
  negative ids, duplicate members, an empty collection);
* construction: explicit sets, generated batches and the residual view's
  active-node count;
* the fused ``batch_coverage`` / ``estimate_spreads`` path against the
  per-set queries it batches;
* extension by ``RRBatch`` or explicit sets against a one-shot build, and
  the RIS estimator on graphs whose spreads are known in closed form.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi, path_graph
from repro.graphs.residual import ResidualGraph
from repro.parallel.pool import SamplingPool
from repro.sampling.engine import generate_rr_batch, merge_rr_batches
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.exceptions import ValidationError

#: Hand-built sets: ids 0..4 are {0,1}, {1,2}, {3}, {0,3}, {2}.
MANUAL_SETS = [[0, 1], [1, 2], [3], [0, 3], [2]]


@pytest.fixture
def manual() -> FlatRRCollection:
    """The hand-built sets, sampled (notionally) on 6 active nodes."""
    return FlatRRCollection.from_rr_sets(MANUAL_SETS, num_active_nodes=6)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(150, 4.0, random_state=11, name="flat-er")


@pytest.fixture(scope="module")
def generated(graph):
    return FlatRRCollection.generate(graph, 400, random_state=5)


def _random_seed_sets(rng, n, count):
    return [rng.integers(0, n, size=rng.integers(1, 6)).tolist() for _ in range(count)]


class TestHandBuiltQueries:
    def test_single_node_coverage(self, manual):
        assert manual.coverage([0]) == 2
        assert manual.coverage([1]) == 2
        assert manual.coverage([2]) == 2
        assert manual.coverage([3]) == 2

    def test_set_coverage_counts_union_once(self, manual):
        assert manual.coverage([0, 1]) == 3
        assert manual.coverage([0, 3]) == 3
        assert manual.coverage([0, 0, 1, 1]) == 3
        assert manual.coverage([0, 1, 2, 3]) == 5

    def test_empty_set_coverage(self, manual):
        assert manual.coverage([]) == 0
        assert manual.coverage(np.zeros(0, dtype=np.int64)) == 0
        assert manual.covering_ids([]).size == 0

    def test_out_of_range_nodes_are_ignored(self, manual):
        assert manual.coverage([-1, 4, 99]) == 0
        assert manual.coverage([-1, 0, 99]) == 2
        assert manual.sets_containing(-1).size == 0
        assert manual.sets_containing(99).size == 0
        assert manual.marginal_coverage(99, [0]) == 0

    def test_covering_ids_concatenates_per_node_runs(self, manual):
        # Not deduplicated: set 0 holds both 0 and 1, so it appears twice.
        assert manual.covering_ids([0, 1]).tolist() == [0, 3, 0, 1]
        assert manual.covering_ids(np.array([3, 42])).tolist() == [2, 3]

    def test_covered_mask(self, manual):
        assert manual.covered_mask([2]).tolist() == [False, True, False, False, True]
        assert not manual.covered_mask([]).any()

    def test_sets_containing_returns_ascending_ids(self, manual):
        assert manual.sets_containing(0).tolist() == [0, 3]
        assert manual.sets_containing(3).tolist() == [2, 3]
        assert manual.sets_containing(0).dtype == np.int64

    def test_marginal_excludes_sets_covered_by_conditioning(self, manual):
        assert manual.marginal_coverage(1, [0]) == 1
        assert manual.marginal_coverage(2, [1]) == 1
        assert manual.marginal_coverage(0, []) == 2
        assert manual.marginal_coverage(3, [0, 2]) == 1
        assert manual.marginal_coverage(1, [0, 2]) == 0

    def test_marginal_ignores_node_in_its_own_conditioning_set(self, manual):
        assert manual.marginal_coverage(0, [0]) == 2
        assert manual.marginal_coverage(0, np.array([0])) == 2
        assert manual.marginal_coverage(0, [0, 3]) == 1
        assert manual.marginal_coverage(0, np.array([0, 3])) == 1

    def test_ndarray_and_iterable_conditioning_agree(self, generated, graph):
        rng = np.random.default_rng(3)
        for _ in range(30):
            node = int(rng.integers(0, graph.n))
            conditioning = rng.integers(0, graph.n, size=rng.integers(0, 8))
            as_array = generated.marginal_coverage(node, conditioning)
            as_list = generated.marginal_coverage(node, conditioning.tolist())
            as_set = generated.marginal_coverage(node, set(conditioning.tolist()))
            assert as_array == as_list == as_set

    def test_estimates_scale_by_active_nodes(self, manual):
        # θ = 5 sets on n_i = 6 active nodes.
        assert manual.estimate_spread([0, 1]) == pytest.approx(3 * 6 / 5)
        assert manual.estimate_marginal_spread(1, [0]) == pytest.approx(1 * 6 / 5)
        assert manual.estimate_fraction([0, 1]) == pytest.approx(3 / 5)
        assert manual.estimate_spread([]) == 0.0

    def test_sizes_and_appearances(self, manual):
        assert manual.sizes().tolist() == [2, 2, 1, 2, 1]
        assert manual.total_size() == 8
        assert len(manual) == manual.num_sets == 5
        assert manual.nodes_appearing().tolist() == [0, 1, 2, 3]
        assert manual.num_active_nodes == 6
        assert manual.n == 4


class TestConstruction:
    def test_members_deduplicated_and_sorted(self):
        collection = FlatRRCollection.from_rr_sets([[2, 0, 2], [1], []], num_active_nodes=3)
        assert collection.set_at(0).tolist() == [0, 2]
        assert collection.rr_sets == [{0, 2}, {1}, set()]
        assert collection.sizes().tolist() == [2, 1, 0]
        assert collection.coverage([2]) == 1

    def test_negative_node_ids_rejected(self):
        with pytest.raises(ValidationError, match="negative node ids"):
            FlatRRCollection.from_rr_sets([[0, -2]], num_active_nodes=3)

    def test_negative_active_nodes_rejected(self):
        with pytest.raises(ValidationError, match="num_active_nodes"):
            FlatRRCollection.from_rr_sets([[0]], num_active_nodes=-1)

    def test_explicit_universe_widens_n(self):
        collection = FlatRRCollection.from_rr_sets([[0, 1]], num_active_nodes=10, n=10)
        assert collection.n == 10
        assert collection.sets_containing(9).size == 0
        assert collection.nodes_appearing().tolist() == [0, 1]
        # A smaller explicit universe never truncates the members.
        assert FlatRRCollection.from_rr_sets([[7]], num_active_nodes=8, n=2).n == 8

    def test_empty_collection_answers_zero(self):
        empty = FlatRRCollection.from_rr_sets([], num_active_nodes=5)
        assert empty.num_sets == 0 and len(empty) == 0
        assert empty.total_size() == 0
        assert empty.coverage([0, 1]) == 0
        assert empty.estimate_spread([0]) == 0.0
        assert empty.estimate_marginal_spread(0, [1]) == 0.0
        assert empty.estimate_fraction([0]) == 0.0
        assert empty.batch_coverage([[0], [1, 2]]).tolist() == [0, 0]
        assert empty.estimate_spreads([[0], [1, 2]]).tolist() == [0.0, 0.0]

    def test_from_rr_sets_reproduces_generated_collection(self, generated, graph):
        sets = [generated.set_at(i).tolist() for i in range(generated.num_sets)]
        rebuilt = FlatRRCollection.from_rr_sets(
            sets, num_active_nodes=generated.num_active_nodes, n=generated.n
        )
        assert rebuilt.num_sets == generated.num_sets
        assert rebuilt.rr_sets == generated.rr_sets
        assert np.array_equal(rebuilt.sizes(), generated.sizes())
        for node in range(graph.n):
            assert np.array_equal(
                rebuilt.sets_containing(node), generated.sets_containing(node)
            ), node
        assert np.array_equal(rebuilt.nodes_appearing(), generated.nodes_appearing())

    def test_generate_on_residual_view_counts_active_nodes(self):
        # Node 0 removed from the deterministic path 0→1→2→3: every RR set
        # of the residual path 1→2→3 contains node 1.
        view = ResidualGraph(path_graph(4)).without([0])
        collection = FlatRRCollection.generate(view, 200, random_state=4)
        assert collection.num_active_nodes == 3
        assert collection.n == 4
        assert collection.sets_containing(0).size == 0
        assert collection.estimate_spread([1]) == pytest.approx(3.0)

    def test_generation_routes_agree(self, graph):
        plain = FlatRRCollection.generate(graph, 300, random_state=8, n_jobs=1)
        sharded = FlatRRCollection.generate(graph, 300, random_state=8, n_jobs=2)
        with SamplingPool(graph, n_jobs=2, shard_size=64) as pool:
            pooled = FlatRRCollection.generate(graph, 300, random_state=8, pool=pool)
        for other in (sharded, pooled):
            assert np.array_equal(other.flat()[0], plain.flat()[0])
            assert np.array_equal(other.flat()[1], plain.flat()[1])


class TestBatchQueries:
    def test_batch_coverage_matches_per_set_coverage(self, generated, graph):
        rng = np.random.default_rng(9)
        seed_sets = _random_seed_sets(rng, graph.n, 25)
        seed_sets += [[], [0, 0, 0], [-1, graph.n + 5], [-1, 3, graph.n]]
        counts = generated.batch_coverage(seed_sets)
        assert counts.dtype == np.int64
        assert counts.tolist() == [generated.coverage(s) for s in seed_sets]

    def test_estimate_spreads_matches_estimate_spread(self, generated, graph):
        rng = np.random.default_rng(10)
        seed_sets = _random_seed_sets(rng, graph.n, 15)
        spreads = generated.estimate_spreads(seed_sets)
        assert spreads.tolist() == pytest.approx(
            [generated.estimate_spread(s) for s in seed_sets]
        )

    def test_no_seed_sets(self, manual):
        assert manual.batch_coverage([]).shape == (0,)
        assert manual.estimate_spreads([]).shape == (0,)

    def test_only_empty_seed_sets(self, manual):
        assert manual.batch_coverage([[], np.zeros(0, dtype=np.int64)]).tolist() == [0, 0]
        assert manual.batch_coverage([[99], [-3]]).tolist() == [0, 0]


class TestExtension:
    def test_extend_rounds_match_one_shot_build(self, graph):
        first = generate_rr_batch(graph, 200, 21)
        collection = FlatRRCollection(first)
        collection.coverage([0, 1])  # build the index before extending
        batches = [first]
        for round_index in range(3):
            extra = generate_rr_batch(graph, 150, 1000 + round_index)
            collection.extend(extra)
            batches.append(extra)
            one_shot = FlatRRCollection(merge_rr_batches(batches))
            for got, want in zip(collection.flat(), one_shot.flat()):
                assert np.array_equal(got, want)
            for node in range(0, graph.n, 7):
                assert np.array_equal(
                    collection.sets_containing(node), one_shot.sets_containing(node)
                )

    def test_batches_and_explicit_sets_extend_alike(self, graph):
        head = generate_rr_batch(graph, 120, 2)
        tail = generate_rr_batch(graph, 90, 3)
        by_batch = FlatRRCollection(head)
        by_sets = FlatRRCollection(head)
        by_batch.extend(tail)
        by_sets.extend(tail.to_sets())
        assert by_batch.num_sets == by_sets.num_sets == 210
        assert np.array_equal(by_batch.sizes(), by_sets.sizes())
        assert by_batch.rr_sets == by_sets.rr_sets
        rng = np.random.default_rng(4)
        for seed_set in _random_seed_sets(rng, graph.n, 10):
            assert by_batch.coverage(seed_set) == by_sets.coverage(seed_set)

    def test_pending_sets_are_visible_to_every_accessor(self, manual):
        manual.extend([[1, 3], [0]])
        offsets, nodes = manual.flat()
        assert offsets.tolist() == [0, 2, 4, 5, 7, 8, 10, 11]
        assert manual.set_at(5).tolist() == [1, 3]
        assert nodes[offsets[6] : offsets[7]].tolist() == [0]
        assert manual.covered_mask([0]).shape == (7,)
        assert manual.sets_containing(0).tolist() == [0, 3, 6]


class TestRISEstimation:
    def test_deterministic_path_estimates(self):
        # Probability-1 path: the RR set rooted at r is {0..r}, so node 0 is
        # in every set and node 3 only in those rooted at 3.
        collection = FlatRRCollection.generate(path_graph(4), 300, random_state=0)
        assert collection.estimate_spread([0]) == pytest.approx(4.0)
        assert collection.estimate_spread([3]) < 4.0
        assert collection.estimate_marginal_spread(1, [0]) == 0.0

    def test_marginal_complements_spread_on_deterministic_path(self):
        # Sets missing node 1 are exactly those rooted at 0, i.e. {0}.
        collection = FlatRRCollection.generate(path_graph(4), 300, random_state=1)
        assert collection.estimate_marginal_spread(0, [1]) + collection.estimate_spread(
            [1]
        ) == pytest.approx(4.0)

    def test_probabilistic_path_estimate(self):
        # E[I({0})] on a 0.5-probability path of 4 nodes is 1 + 1/2 + 1/4 + 1/8.
        graph = path_graph(4).with_uniform_probability(0.5)
        collection = FlatRRCollection.generate(graph, 8000, random_state=2)
        assert collection.estimate_spread([0]) == pytest.approx(1.875, abs=0.1)

    def test_marginal_is_difference_of_spreads(self, generated, graph):
        rng = np.random.default_rng(12)
        for _ in range(20):
            node = int(rng.integers(0, graph.n))
            conditioning = rng.integers(0, graph.n, size=rng.integers(0, 6)).tolist()
            joint = generated.estimate_spread(conditioning + [node])
            alone = generated.estimate_spread(conditioning)
            marginal = generated.estimate_marginal_spread(node, conditioning)
            assert marginal == pytest.approx(joint - alone)
