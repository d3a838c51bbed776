"""Sample-reuse contract of the adaptive/nonadaptive noise-model algorithms.

Three guarantees:

* ``sample_reuse=False`` (the default) is the exact historical path — same
  decisions, same RR-set counts, same RNG stream as a default-constructed
  algorithm, pinned against recorded snapshots so a refactor cannot
  silently shift the stream;
* ``sample_reuse=True`` is a valid run (every decision recorded, counters
  consistent) that generates *fewer* RR sets whenever iterations take
  multiple refinement rounds;
* the reuse estimates come from the same estimator (counter state equals
  stateless queries), so on decisive instances both paths agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.addatp import ADDATP
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


def run_hatp(graph, target, costs, **kwargs):
    session = AdaptiveSession(graph, Realization.sample(graph, 5), costs)
    return HATP(target, random_state=7, max_samples_per_round=4000, **kwargs).run(
        session
    )


def run_addatp(graph, target, costs, **kwargs):
    session = AdaptiveSession(graph, Realization.sample(graph, 5), costs)
    return ADDATP(target, random_state=7, max_samples_per_round=4000, **kwargs).run(
        session
    )


class TestHistoricalStreamPinned:
    def test_reuse_off_equals_default(self, graph, target, costs):
        default = run_hatp(graph, target, costs)
        explicit = run_hatp(graph, target, costs, sample_reuse=False)
        assert default.seeds == explicit.seeds
        assert default.rr_sets_generated == explicit.rr_sets_generated
        assert [record.action for record in default.iterations] == [
            record.action for record in explicit.iterations
        ]

    def test_hatp_default_snapshot(self, graph, target, costs):
        # Recorded on the keyed RR stream: the default path must keep
        # reproducing these decisions and RR-set counts exactly.
        result = run_hatp(graph, target, costs)
        assert result.seeds == [19, 6, 2, 3, 8, 17]
        assert result.rr_sets_generated == 14394
        assert result.extra["sample_reuse"] is False

    def test_addatp_default_snapshot(self, graph, target, costs):
        result = run_addatp(graph, target, costs)
        assert result.seeds == [19, 6, 2, 3, 8, 17]
        assert result.rr_sets_generated == 103310

    def test_hntp_reuse_off_equals_default(self, graph, target, costs):
        default = HNTP(target, random_state=7, max_samples_per_round=4000).select(
            graph, costs
        )
        explicit = HNTP(
            target, random_state=7, max_samples_per_round=4000, sample_reuse=False
        ).select(graph, costs)
        assert default.seeds == explicit.seeds
        assert default.rr_sets_generated == explicit.rr_sets_generated


class TestReuseSavesSamples:
    def test_hatp_reuse_generates_fewer_sets(self, graph, target, costs):
        regenerate = run_hatp(graph, target, costs, sample_reuse=False)
        reuse = run_hatp(graph, target, costs, sample_reuse=True)
        assert reuse.rr_sets_generated < regenerate.rr_sets_generated
        assert reuse.extra["sample_reuse"] is True
        assert len(reuse.iterations) == len(target)

    def test_addatp_reuse_generates_fewer_sets(self, graph, target, costs):
        regenerate = run_addatp(graph, target, costs, sample_reuse=False)
        reuse = run_addatp(graph, target, costs, sample_reuse=True)
        assert reuse.rr_sets_generated < regenerate.rr_sets_generated

    def test_hntp_reuse_generates_fewer_sets(self, graph, target, costs):
        regenerate = HNTP(
            target, random_state=7, max_samples_per_round=4000, sample_reuse=False
        ).select(graph, costs)
        reuse = HNTP(
            target, random_state=7, max_samples_per_round=4000, sample_reuse=True
        ).select(graph, costs)
        assert reuse.rr_sets_generated < regenerate.rr_sets_generated

    def test_reuse_counts_only_new_sets_per_iteration(self, graph, target, costs):
        reuse = run_hatp(graph, target, costs, sample_reuse=True)
        for record in reuse.iterations:
            if record.action == "skipped-activated":
                continue
            # Every examined node pays 2θ_first in round one, then only
            # extensions — never more than the regenerate path would.
            assert record.rr_sets_generated > 0
        assert reuse.rr_sets_generated == sum(
            record.rr_sets_generated for record in reuse.iterations
        )


class TestReuseDecisionQuality:
    def test_reuse_agrees_on_clearly_decided_instances(self, star6):
        # The hub of a deterministic star is unambiguously profitable and
        # the leaf unambiguously not; both paths must agree.
        costs = {0: 1.0, 1: 4.0}
        for reuse in (False, True):
            session = AdaptiveSession(star6, Realization.sample(star6, 0), costs)
            result = HATP(
                [0, 1],
                random_state=0,
                max_samples_per_round=400,
                sample_reuse=reuse,
            ).run(session)
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
