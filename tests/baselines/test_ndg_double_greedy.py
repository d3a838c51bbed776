"""The double-greedy rule as NDG runs it, checked against its objective.

NDG is deterministic double greedy (Buchbinder et al.) over the target
set, with the objective ``f(S) = Ê[I(S)] − c(S)`` read from one RR batch.
These tests rebuild that objective and check the rule itself:

* on disjoint probability-1 stars ``f`` is modular, so the add and remove
  gains of each hub are exact negatives and double greedy keeps exactly
  the hubs of non-negative weight (NSG's greedy picks the same hubs);
* on a real instance every logged gain equals the stateless marginal query
  on the same batch, and the selection meets the double-greedy bound
  ``3 f(X) ≥ f(OPT) + f(∅) + f(target)`` against brute force;
* the randomized variant keeps a node with probability
  ``a⁺ / (a⁺ + b⁺)``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ndg import NDG
from repro.baselines.nsg import NSG
from repro.core.profit import total_cost
from repro.graphs.graph import ProbabilisticGraph
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.rng import ensure_rng


def disjoint_stars(sizes):
    """Probability-1 stars of the given sizes (hub included); returns (graph, hubs)."""
    edges = []
    hubs = []
    start = 0
    for size in sizes:
        hubs.append(start)
        edges.extend((start, start + leaf, 1.0) for leaf in range(1, size))
        start += size
    return ProbabilisticGraph.from_edge_list(edges, n=start, name="stars"), hubs


#: Four stars of five nodes; each hub's estimated spread is close to 5.
STARS, HUBS = disjoint_stars([5, 5, 5, 5])

#: Stars of different sizes, for greedy ordering.
UNEVEN, UNEVEN_HUBS = disjoint_stars([8, 5, 3, 2])


def _selected(selection):
    return {record.node for record in selection.iterations if record.action == "selected"}


def _ndg_and_batch(graph, target, costs, seed, num_samples=500):
    """Run NDG and rebuild the RR batch it drew from the same seed."""
    selection = NDG(target, num_samples=num_samples, random_state=seed).select(
        graph, costs
    )
    collection = FlatRRCollection.generate(graph, num_samples, ensure_rng(seed))
    assert selection.estimated_profit == pytest.approx(
        collection.estimate_spread(selection.seeds) - total_cost(costs, selection.seeds)
    )
    return selection, collection


class TestModularInstance:
    def test_solved_exactly(self):
        costs = {HUBS[0]: 2.0, HUBS[1]: 20.0, HUBS[2]: 1.0, HUBS[3]: 30.0}
        selection = NDG(HUBS, num_samples=4000, random_state=0).select(STARS, costs)
        assert selection.seeds == [HUBS[0], HUBS[2]]
        assert selection.seed_cost == 3.0
        assert selection.estimated_profit == pytest.approx(
            sum(r.front_estimate for r in selection.iterations if r.action == "selected")
        )

    def test_empty_when_every_hub_costs_more_than_it_reaches(self):
        costs = {hub: 9.0 for hub in HUBS}
        selection = NDG(HUBS, num_samples=4000, random_state=1).select(STARS, costs)
        assert selection.seeds == []
        assert selection.seed_cost == 0.0
        assert selection.estimated_profit == 0.0
        assert [r.action for r in selection.iterations] == ["rejected"] * len(HUBS)

    def test_everything_selected_when_every_hub_pays(self):
        costs = {hub: 0.5 for hub in HUBS}
        selection = NDG(HUBS, num_samples=4000, random_state=2).select(STARS, costs)
        assert selection.seeds == HUBS

    def test_add_and_remove_gains_are_negatives(self):
        costs = {HUBS[0]: 4.5, HUBS[1]: 5.5, HUBS[2]: 0.0, HUBS[3]: 12.0}
        selection = NDG(HUBS, num_samples=2000, random_state=3).select(STARS, costs)
        for record in selection.iterations:
            assert record.front_estimate == -record.rear_estimate
            assert (record.action == "selected") == (record.front_estimate >= 0.0)

    def test_randomized_variant_decides_like_the_deterministic_one(self):
        costs = {HUBS[0]: 4.0, HUBS[1]: 6.0, HUBS[2]: 1.0, HUBS[3]: 5.0}
        for seed in range(5):
            plain = NDG(HUBS, num_samples=1000, random_state=seed).select(STARS, costs)
            randomized = NDG(
                HUBS, num_samples=1000, randomized=True, random_state=seed
            ).select(STARS, costs)
            assert randomized.seeds == plain.seeds

    @given(st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_keeps_exactly_the_non_negative_weights(self, cost_values):
        costs = dict(zip(HUBS, cost_values))
        selection = NDG(HUBS, num_samples=600, random_state=4).select(STARS, costs)
        weights = {r.node: r.front_estimate for r in selection.iterations}
        positive = {hub for hub, weight in weights.items() if weight > 0}
        non_negative = {hub for hub, weight in weights.items() if weight >= 0}
        assert positive <= set(selection.seeds) <= non_negative
        assert selection.estimated_profit == pytest.approx(
            sum(max(weight, 0.0) for weight in weights.values())
        )

    def test_nsg_picks_hubs_in_weight_order(self):
        target = [UNEVEN_HUBS[3], UNEVEN_HUBS[0], UNEVEN_HUBS[2], UNEVEN_HUBS[1]]
        selection = NSG(target, num_samples=4000, random_state=5).select(UNEVEN, {})
        assert selection.seeds == UNEVEN_HUBS

    def test_nsg_and_ndg_keep_the_same_hubs(self):
        costs = dict(zip(UNEVEN_HUBS, [3.0, 7.0, 0.5, 4.0]))
        greedy = NSG(UNEVEN_HUBS, num_samples=4000, random_state=6).select(UNEVEN, costs)
        double = NDG(UNEVEN_HUBS, num_samples=4000, random_state=6).select(UNEVEN, costs)
        assert set(greedy.seeds) == set(double.seeds) == {UNEVEN_HUBS[0], UNEVEN_HUBS[2]}


class TestAgainstTheBatch:
    def test_front_gains_match_stateless_queries(self, small_proxy, small_instance):
        costs = small_instance.costs
        selection, collection = _ndg_and_batch(
            small_proxy, small_instance.target, costs, seed=7
        )
        selected = []
        for record in selection.iterations:
            expected = collection.estimate_marginal_spread(record.node, selected)
            assert record.front_estimate == pytest.approx(
                expected - costs.get(record.node, 0.0)
            )
            if record.action == "selected":
                selected.append(record.node)
        assert selected == selection.seeds

    def test_rear_gains_match_stateless_queries(self, small_proxy, small_instance):
        costs = small_instance.costs
        selection, collection = _ndg_and_batch(
            small_proxy, small_instance.target, costs, seed=8
        )
        kept = set(small_instance.target)
        for record in selection.iterations:
            expected = collection.estimate_marginal_spread(record.node, kept - {record.node})
            assert record.rear_estimate == pytest.approx(
                costs.get(record.node, 0.0) - expected
            )
            if record.action == "rejected":
                kept.discard(record.node)
        assert kept == set(selection.seeds)

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_double_greedy_bound_against_brute_force(self, small_proxy, small_instance, seed):
        costs = small_instance.costs
        target = small_instance.target
        selection, collection = _ndg_and_batch(small_proxy, target, costs, seed=seed)

        def objective(nodes):
            nodes = list(nodes)
            return collection.estimate_spread(nodes) - total_cost(costs, nodes)

        optimum = max(
            objective(subset)
            for size in range(len(target) + 1)
            for subset in itertools.combinations(target, size)
        )
        achieved = objective(selection.seeds)
        assert achieved <= optimum + 1e-9
        assert 3.0 * achieved >= optimum + objective([]) + objective(target) - 1e-9

    def test_nsg_gains_never_increase(self, small_proxy, small_instance):
        # f is submodular, so each greedy pick gains at most the previous one.
        selection = NSG(small_instance.target, num_samples=500, random_state=12).select(
            small_proxy, small_instance.costs
        )
        gains = [record.front_estimate for record in selection.iterations]
        assert all(gain > 0.0 for gain in gains)
        assert all(later <= earlier + 1e-9 for earlier, later in zip(gains, gains[1:]))


class TestRandomizedRule:
    #: Parents 0 and 1 share four probability-1 children, so node 0 adds
    #: about 5 to an empty set but only about 1 next to node 1.
    SHARED = ProbabilisticGraph.from_edge_list(
        [(parent, child, 1.0) for parent in (0, 1) for child in range(2, 6)], n=6
    )

    def test_keep_frequency_follows_the_gains(self):
        # Gains of about 2.5 (add) and 1.5 (remove): keep with p ≈ 0.625.
        costs = {0: 2.5, 1: 2.5}
        kept = []
        probabilities = []
        for seed in range(300):
            selection = NDG([0, 1], num_samples=300, randomized=True, random_state=seed).select(
                self.SHARED, costs
            )
            first = selection.iterations[0]
            add_gain, remove_gain = first.front_estimate, first.rear_estimate
            assert add_gain > 0.0 and remove_gain > 0.0
            probabilities.append(add_gain / (add_gain + remove_gain))
            kept.append(first.action == "selected")
        tolerance = 4.0 * np.sqrt(0.25 / len(kept))
        assert abs(np.mean(kept) - np.mean(probabilities)) <= tolerance

    @given(st.lists(st.floats(0.0, 6.0, allow_nan=False), min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_output_is_an_ordered_subset_of_the_target(self, cost_values):
        costs = dict(zip([0, 1], cost_values))
        selection = NDG([1, 0], num_samples=200, randomized=True, random_state=13).select(
            self.SHARED, costs
        )
        assert selection.seeds == [node for node in [1, 0] if node in selection.seeds]
        assert set(selection.seeds) == _selected(selection)
        assert selection.seed_cost == pytest.approx(total_cost(costs, selection.seeds))
