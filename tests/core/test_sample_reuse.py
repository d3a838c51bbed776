"""Sample reuse: pinned streams of the noise-model algorithms, and the oracle's cache.

HATP and HNTP regenerate every round and ADDATP carries its sets across
rounds (the schedule decides; ``tests/core/test_round_loop.py``).  The
streams are pinned against recorded snapshots, so a refactor cannot
silently shift them.  Turning ADDATP's carrying off (its schedule's
``fixed_thetas``) must give back its historical regenerating stream, and
carrying must draw fewer sets and agree on clearly decided instances.
:class:`RISSpreadOracle`'s ``sample_reuse`` is a different feature: a
collection cache per residual state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.addatp import ADDATP
from repro.core.errors import AdditiveErrorSchedule
from repro.core.hatp import HATP
from repro.core.hntp import HNTP
from repro.core.oracle import RISSpreadOracle
from repro.core.session import AdaptiveSession
from repro.diffusion.realization import Realization
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade(generators.barabasi_albert(300, 3, random_state=1))


@pytest.fixture(scope="module")
def target(graph):
    return [int(v) for v in np.argsort(-graph.out_degrees)[:8]]


@pytest.fixture(scope="module")
def costs(target):
    return {node: 2.0 for node in target}


def run_hatp(graph, target, costs):
    session = AdaptiveSession(graph, Realization.sample(graph, 5), costs)
    return HATP(target, random_state=7, max_samples_per_round=4000).run(session)


def run_addatp(graph, target, costs):
    session = AdaptiveSession(graph, Realization.sample(graph, 5), costs)
    return ADDATP(target, random_state=7, max_samples_per_round=4000).run(session)


def regenerate(monkeypatch):
    """Make ADDATP's schedule claim data-dependent θs, so its rounds regenerate."""
    monkeypatch.setattr(AdditiveErrorSchedule, "fixed_thetas", False)


def examined(result):
    return [r for r in result.iterations if r.action != "skipped-activated"]


class TestHistoricalStreamPinned:
    def test_reuse_off_equals_default(self, graph, target, costs, monkeypatch):
        # Carrying is ADDATP's only change: with it off, ADDATP draws the
        # stream it drew before it carried, set for set.
        carried = run_addatp(graph, target, costs)
        regenerate(monkeypatch)
        regenerated = run_addatp(graph, target, costs)
        assert regenerated.seeds == carried.seeds == [19, 6, 2, 3, 8, 17]
        assert regenerated.rr_sets_generated == 103310
        assert [record.action for record in regenerated.iterations] == [
            record.action for record in carried.iterations
        ]
        for record in examined(regenerated):
            assert record.rr_sets_generated == 2 * sum(record.thetas)

    def test_hatp_default_snapshot(self, graph, target, costs):
        # Recorded on the keyed RR stream: the default path must keep
        # reproducing these decisions and RR-set counts exactly.
        result = run_hatp(graph, target, costs)
        assert result.seeds == [19, 6, 2, 3, 8, 17]
        assert result.rr_sets_generated == 14394

    def test_addatp_default_snapshot(self, graph, target, costs):
        result = run_addatp(graph, target, costs)
        assert result.seeds == [19, 6, 2, 3, 8, 17]
        assert result.rr_sets_generated == 44444

    def test_hntp_reuse_off_equals_default(self, graph, target, costs):
        # HNTP's schedule is HATP's, so it never carries: its stream is the
        # one it drew when carrying was an option left off.
        result = HNTP(target, random_state=7, max_samples_per_round=4000).select(
            graph, costs
        )
        assert result.seeds == [19, 6, 2, 3, 4, 8, 17, 28]
        assert result.rr_sets_generated == 35686
        for record in examined(result):
            assert record.rr_sets_generated == 2 * sum(record.thetas)


class TestReuseSavesSamples:
    def test_addatp_reuse_generates_fewer_sets(self, graph, target, costs, monkeypatch):
        carried = run_addatp(graph, target, costs)
        regenerate(monkeypatch)
        regenerated = run_addatp(graph, target, costs)
        assert carried.rr_sets_generated < regenerated.rr_sets_generated
        assert len(carried.iterations) == len(target)

    def test_reuse_counts_only_new_sets_per_iteration(self, graph, target, costs):
        carried = run_addatp(graph, target, costs)
        assert any(record.rounds > 1 for record in examined(carried))
        for record in examined(carried):
            # Every examined node pays 2θ_first in round one, then only the
            # new sets of each later round: 2θ_last in all, never more than
            # regenerating its rounds (2Σθ) would cost.
            assert 0 < record.rr_sets_generated == 2 * record.thetas[-1]
            assert record.rr_sets_generated <= 2 * sum(record.thetas)
        assert carried.rr_sets_generated == sum(
            record.rr_sets_generated for record in carried.iterations
        )


class TestReuseDecisionQuality:
    def test_reuse_agrees_on_clearly_decided_instances(self, star6, monkeypatch):
        # The hub of a deterministic star is unambiguously profitable and
        # the leaf unambiguously not; carrying and regenerating must agree.
        costs = {0: 1.0, 1: 4.0}
        for fixed_thetas in (True, False):
            monkeypatch.setattr(AdditiveErrorSchedule, "fixed_thetas", fixed_thetas)
            session = AdaptiveSession(star6, Realization.sample(star6, 0), costs)
            result = ADDATP([0, 1], random_state=0, max_samples_per_round=400).run(
                session
            )
            assert result.seeds == [0]


class TestOracleSampleReuse:
    def test_reuse_answers_repeat_queries_from_one_batch(self, graph):
        oracle = RISSpreadOracle(num_samples=300, random_state=3, sample_reuse=True)
        first = oracle.expected_spread(graph, [0])
        second = oracle.expected_spread(graph, [0])
        assert first == second  # same cached collection, same answer
        marginal = oracle.marginal_spread(graph, 1, [0])
        assert marginal >= 0.0

    def test_without_reuse_queries_resample(self, graph):
        oracle = RISSpreadOracle(num_samples=300, random_state=3, sample_reuse=False)
        first = oracle.expected_spread(graph, [0])
        second = oracle.expected_spread(graph, [0])
        # Fresh batches: equality would require an RNG coincidence.
        assert first != second

    def test_reuse_invalidates_on_residual_change(self, graph):
        from repro.graphs.residual import as_residual

        oracle = RISSpreadOracle(num_samples=200, random_state=3, sample_reuse=True)
        full = oracle.expected_spread(graph, [5])
        shrunk = oracle.expected_spread(
            as_residual(graph).without(list(range(50))), [60]
        )
        assert full >= 0.0 and shrunk >= 0.0
        # The default capacity-1 LRU holds only the latest residual state,
        # pinning the base graph object alongside its collection.
        (base, _collection) = oracle.collection_cache.peek(
            oracle.collection_cache.keys()[-1]
        )
        assert base is graph
        assert len(oracle.collection_cache) == 1
        assert oracle.collection_cache.stats.evictions == 1

    def test_reuse_does_not_confuse_distinct_graphs(self, graph):
        # The cache entry holds the graph object itself, so a different
        # graph — even one with an identical all-active mask — never hits.
        other = weighted_cascade(
            generators.barabasi_albert(graph.n, 3, random_state=2)
        )
        oracle = RISSpreadOracle(num_samples=200, random_state=3, sample_reuse=True)
        oracle.expected_spread(graph, [0])
        _, cached = oracle.collection_cache.peek(oracle.collection_cache.keys()[-1])
        oracle.expected_spread(other, [0])
        base, collection = oracle.collection_cache.peek(
            oracle.collection_cache.keys()[-1]
        )
        assert base is other
        assert collection is not cached
