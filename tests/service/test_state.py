"""Tests of :class:`repro.service.state.ServiceState`: versioning, warm
collections, deterministic streams, query answers and lifecycle."""

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi
from repro.graphs.residual import ResidualGraph
from repro.graphs.toy import toy_costs, toy_graph
from repro.sampling.flat_collection import FlatRRCollection
from repro.service.state import (
    CACHE_SIZE_ENV_VAR,
    COLLECTIONS_ENV_VAR,
    ServiceState,
    resolve_cache_size,
    resolve_collection_capacity,
)
from repro.utils.exceptions import ValidationError


@pytest.fixture()
def state():
    with ServiceState(num_samples=400, mc_simulations=200, seed=11) as s:
        s.register_graph(toy_graph(), costs=toy_costs())
        yield s


class TestKnobResolution:
    def test_cache_size_precedence(self, monkeypatch):
        assert resolve_cache_size(7) == 7
        monkeypatch.setenv(CACHE_SIZE_ENV_VAR, "33")
        assert resolve_cache_size(None) == 33
        assert resolve_cache_size(5) == 5
        monkeypatch.delenv(CACHE_SIZE_ENV_VAR)
        assert resolve_cache_size(None) == 1024

    def test_collection_capacity_precedence(self, monkeypatch):
        monkeypatch.setenv(COLLECTIONS_ENV_VAR, "3")
        assert resolve_collection_capacity(None) == 3
        monkeypatch.delenv(COLLECTIONS_ENV_VAR)
        assert resolve_collection_capacity(None) == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            resolve_cache_size(-1)
        with pytest.raises(ValidationError):
            resolve_collection_capacity(0)


class TestRegistration:
    def test_versions_are_immutable(self, state):
        with pytest.raises(ValidationError):
            state.register_graph(toy_graph(), version="g0")

    def test_auto_versions_in_order(self):
        with ServiceState(num_samples=50) as s:
            assert s.register_graph(toy_graph()) == "g0"
            assert s.register_graph(toy_graph()) == "g1"
            assert s.versions == ("g0", "g1")
            assert s.entry().version == "g0"
            assert s.entry("g1").version == "g1"

    def test_unknown_version_rejected(self, state):
        with pytest.raises(ValidationError, match="unknown graph version"):
            state.entry("nope")

    def test_no_graph_registered(self):
        with ServiceState(num_samples=50) as s:
            with pytest.raises(ValidationError, match="no graph is registered"):
                s.query({"op": "spread", "seeds": [0]})


class TestAnswers:
    def test_spread_matches_direct_collection(self, state):
        # The answer must equal estimate_spread on the collection generated
        # from the state's derived stream — the warm path adds nothing.
        answer = state.query({"op": "spread", "seeds": [1, 2]})
        entry = state.entry()
        collection = state.collection_for(entry, ResidualGraph(entry.graph), "full")
        assert answer["spread"] == pytest.approx(
            collection.estimate_spread([1, 2])
        )

    def test_marginal_matches_collection(self, state):
        answer = state.query({"op": "marginal", "node": 3, "conditioning": [1]})
        entry = state.entry()
        collection = state.collection_for(entry, ResidualGraph(entry.graph), "full")
        assert answer["marginal_spread"] == pytest.approx(
            collection.estimate_marginal_spread(3, [1])
        )

    def test_residual_queries_use_their_own_collection(self, state):
        state.query({"op": "spread", "seeds": [1]})
        residual = state.query({"op": "spread", "seeds": [1], "removed": [5, 6]})
        assert len(state.collection_cache) == 2
        # The answer equals an estimate on the residual state's own
        # collection (5 active nodes out of 7), not a rescaled full one.
        query = state.admit({"op": "spread", "seeds": [1], "removed": [5, 6]})
        collection = state.collection_for(query.entry, query.view, query.digest)
        assert collection.num_active_nodes == 5
        assert residual["spread"] == pytest.approx(collection.estimate_spread([1]))

    def test_removed_out_of_range_rejected(self, state):
        with pytest.raises(ValidationError, match=r"^removed: node id 99 is outside"):
            state.query({"op": "spread", "seeds": [0], "removed": [99]})

    def test_unknown_op_rejected(self, state):
        with pytest.raises(ValidationError, match="unknown op"):
            state.query({"op": "explode"})

    def test_topk_respects_budget_and_costs(self, state):
        # toy costs: 1.5 per target node; budget 3.0 affords two of them.
        answer = state.query({"op": "topk", "k": 5, "budget": 3.0})
        assert answer["cost"] <= 3.0
        assert len(answer["seeds"]) <= 5
        assert answer["spread"] > 0

    def test_topk_respects_segment(self, state):
        answer = state.query({"op": "topk", "k": 3, "segment": [0, 3]})
        assert set(answer["seeds"]) <= {0, 3}

    def test_topk_invalid_k(self, state):
        with pytest.raises(ValidationError, match="k must be"):
            state.query({"op": "topk", "k": 0})

    def test_mc_spread_deterministic_and_plausible(self, state):
        a = state.query({"op": "mc_spread", "seeds": [1], "simulations": 300})
        state.answer_cache.clear()  # force recompute, not a cache read
        b = state.query({"op": "mc_spread", "seeds": [1], "simulations": 300})
        assert a["spread"] == b["spread"]
        assert 1.0 <= a["spread"] <= 7.0

    def test_empty_seed_sets(self, state):
        assert state.query({"op": "spread", "seeds": []})["spread"] == 0.0
        assert (
            state.query({"op": "mc_spread", "seeds": [], "simulations": 50})["spread"]
            == 0.0
        )


class TestBatchingInvariance:
    """Batched answers must be bit-for-bit the sequential answers."""

    REQUESTS = [
        {"op": "spread", "seeds": [1, 2]},
        {"op": "spread", "seeds": [0]},
        {"op": "marginal", "node": 3, "conditioning": [1, 2]},
        {"op": "topk", "k": 2},
        {"op": "spread", "seeds": [1], "removed": [6]},
        {"op": "mc_spread", "seeds": [1], "simulations": 120},
        {"op": "mc_spread", "seeds": [2, 4], "simulations": 120},
    ]

    def _fresh_state(self):
        s = ServiceState(num_samples=300, mc_simulations=100, seed=5)
        s.register_graph(toy_graph(), costs=toy_costs())
        return s

    def _strip(self, answer):
        return {k: v for k, v in answer.items() if k != "cached"}

    def test_batched_equals_sequential(self):
        with self._fresh_state() as batched_state:
            batched = batched_state.execute_batch(self.REQUESTS)
        with self._fresh_state() as sequential_state:
            sequential = [sequential_state.query(r) for r in self.REQUESTS]
        assert [self._strip(a) for a in batched] == [
            self._strip(a) for a in sequential
        ]

    def test_batch_order_does_not_change_answers(self):
        order = [3, 6, 0, 5, 2, 4, 1]
        with self._fresh_state() as forward:
            straight = forward.execute_batch(self.REQUESTS)
        with self._fresh_state() as shuffled:
            permuted = shuffled.execute_batch([self.REQUESTS[i] for i in order])
        for position, original in zip(order, permuted):
            assert self._strip(original) == self._strip(straight[position])

    def test_eviction_regenerates_identical_collection(self):
        # Cache pressure may change latency, never answers.
        with ServiceState(
            num_samples=200, seed=9, collection_capacity=1
        ) as s:
            s.register_graph(toy_graph())
            first = s.query({"op": "spread", "seeds": [1]})
            s.query({"op": "spread", "seeds": [1], "removed": [3]})  # evicts "full"
            s.answer_cache.clear()
            again = s.query({"op": "spread", "seeds": [1]})  # regenerated
            assert again["spread"] == first["spread"]
            assert s.entry().generations == 3


class TestBadNodeIds:
    """A request naming a node outside ``[0, n)`` gets its own ``invalid``
    answer, and its batchmates get the answers they get alone."""

    CASES = [
        ({"op": "spread", "seeds": [0]}, {"op": "spread", "seeds": [0, 999]}),
        ({"op": "spread", "seeds": [0]}, {"op": "spread", "seeds": [0, -1]}),
        ({"op": "marginal", "node": 3}, {"op": "marginal", "node": 999}),
        ({"op": "marginal", "node": 3}, {"op": "marginal"}),
        (
            {"op": "marginal", "node": 3, "conditioning": [0]},
            {"op": "marginal", "node": 3, "conditioning": [0, 999]},
        ),
        (
            {"op": "topk", "k": 2, "segment": [0, 3]},
            {"op": "topk", "k": 2, "segment": [0, 999]},
        ),
        ({"op": "topk", "k": 2}, {"op": "topk", "k": 0}),
        (
            {"op": "mc_spread", "seeds": [0, 1], "simulations": 80},
            {"op": "mc_spread", "seeds": [0, 999], "simulations": 80},
        ),
        ({"op": "spread", "seeds": [0]}, {"op": "spread", "seeds": ["x"]}),
        ({"op": "spread", "seeds": [0]}, {"op": "spread", "seeds": [float("inf")]}),
    ]

    @staticmethod
    def _fresh_state():
        s = ServiceState(num_samples=300, mc_simulations=100, seed=5)
        s.register_graph(toy_graph(), costs=toy_costs())
        return s

    @pytest.mark.parametrize("good, bad", CASES)
    def test_bad_request_is_answered_in_place(self, good, bad):
        with self._fresh_state() as s:
            answers = s.execute_batch([good, bad])
        with self._fresh_state() as s:
            alone = s.execute_batch([good])[0]
        assert answers[1]["code"] == "invalid"
        assert answers[0] == alone

    @pytest.mark.parametrize(
        "request_, field",
        [
            ({"op": "spread", "seeds": [0, 999]}, "seeds"),
            ({"op": "spread", "seeds": [0, -1]}, "seeds"),
            ({"op": "marginal", "node": 999}, "node"),
            ({"op": "marginal", "node": 2, "conditioning": [999]}, "conditioning"),
            ({"op": "topk", "k": 1, "segment": [999]}, "segment"),
            ({"op": "mc_spread", "seeds": [999], "simulations": 20}, "seeds"),
        ],
    )
    def test_query_raises_naming_the_field(self, state, request_, field):
        with pytest.raises(ValidationError, match=rf"^{field}: node id -?\d+ is outside \[0, 7\)"):
            state.query(request_)
        assert len(state.collection_cache) == 0  # refused before any sampling


class TestBadFields:
    """A ``k``, ``simulations``, ``budget``, ``samples``, ``deadline_ms`` or
    node list that does not parse gets its own ``invalid`` answer, and its
    batchmates get the answers they get alone."""

    GOOD = (
        {"op": "spread", "seeds": [1]},
        {"op": "topk", "k": 2},
        {"op": "mc_spread", "seeds": [0, 1], "simulations": 80},
    )
    BAD = [
        ({"op": "topk", "k": "x"}, "k"),
        ({"op": "topk", "k": [2]}, "k"),
        ({"op": "topk", "k": 2, "budget": "x"}, "budget"),
        ({"op": "mc_spread", "seeds": [1], "simulations": "x"}, "simulations"),
        ({"op": "mc_spread", "seeds": [1], "simulations": float("inf")}, "simulations"),
        ({"op": "spread", "seeds": [1], "samples": "x"}, "samples"),
        ({"op": "spread", "seeds": [1], "samples": float("inf")}, "samples"),
        ({"op": "spread", "seeds": [1], "removed": [None]}, "removed"),
        ({"op": "spread", "seeds": [1], "removed": [float("inf")]}, "removed"),
        ({"op": "marginal", "node": 2, "removed": ["x"]}, "removed"),
        # A string or object is no node list, even when its characters or
        # keys would parse as ids.
        ({"op": "spread", "seeds": "12"}, "seeds"),
        ({"op": "spread", "seeds": {"1": 2}}, "seeds"),
        ({"op": "spread", "seeds": [1], "removed": "35"}, "removed"),
        ({"op": "marginal", "node": 2, "conditioning": "01"}, "conditioning"),
        ({"op": "topk", "k": 2, "segment": "0123"}, "segment"),
        ({"op": "spread", "seeds": [True]}, "seeds"),
        # Counts must be whole numbers, not truncated ones.
        ({"op": "topk", "k": 2.7}, "k"),
        ({"op": "topk", "k": True}, "k"),
        ({"op": "mc_spread", "seeds": [1], "simulations": 2.5}, "simulations"),
        ({"op": "spread", "seeds": [1], "samples": 300.5}, "samples"),
        ({"op": "topk", "k": 2, "budget": float("nan")}, "budget"),
        ({"op": "spread", "seeds": [1], "deadline_ms": "x"}, "deadline_ms"),
        ({"op": "spread", "seeds": [1], "deadline_ms": [5]}, "deadline_ms"),
        ({"op": "spread", "seeds": [1], "deadline_ms": float("nan")}, "deadline_ms"),
        ({"op": "spread", "seeds": [1], "deadline_ms": 0}, "deadline_ms"),
    ]

    @staticmethod
    def _fresh_state():
        s = ServiceState(num_samples=300, mc_simulations=100, seed=5)
        s.register_graph(toy_graph(), costs=toy_costs())
        return s

    @pytest.mark.parametrize("bad, field", BAD)
    def test_bad_field_is_answered_in_place(self, bad, field):
        with self._fresh_state() as s:
            answers = s.execute_batch([bad, *self.GOOD])
        with self._fresh_state() as s:
            alone = [s.execute_batch([good])[0] for good in self.GOOD]
        assert answers[0]["code"] == "invalid"
        assert answers[0]["error"].startswith(field)
        assert answers[1:] == alone

    @pytest.mark.parametrize("bad, field", BAD)
    def test_query_raises_naming_the_field(self, state, bad, field):
        with pytest.raises(ValidationError, match=rf"^{field}"):
            state.query(bad)
        assert len(state.collection_cache) == 0  # refused before any sampling


class TestDeterminismContract:
    def test_same_seed_same_answers_across_instances(self):
        def run():
            with ServiceState(num_samples=300, seed=42) as s:
                s.register_graph(toy_graph())
                return (
                    s.query({"op": "spread", "seeds": [1, 2]})["spread"],
                    s.query({"op": "topk", "k": 2})["seeds"],
                    s.query({"op": "mc_spread", "seeds": [1], "simulations": 64})[
                        "spread"
                    ],
                )

        assert run() == run()

    def test_pinned_stream_toy_graph(self):
        # Pinned literals: the derived per-state RNG streams are part of
        # the service's public determinism contract (docs/service.md).
        with ServiceState(num_samples=300, seed=42) as s:
            s.register_graph(toy_graph())
            assert s.query({"op": "spread", "seeds": [1, 2]})["spread"] == pytest.approx(
                2.7533333333333334
            )
            assert s.query({"op": "topk", "k": 2})["seeds"] == [5, 1]
            assert s.query({"op": "mc_spread", "seeds": [1], "simulations": 64})[
                "spread"
            ] == pytest.approx(2.859375)

    def test_jobs_do_not_change_answers(self):
        graph = erdos_renyi(60, 0.06, random_state=3)

        def run(n_jobs):
            with ServiceState(num_samples=400, seed=13, n_jobs=n_jobs) as s:
                s.register_graph(graph)
                return [
                    s.query({"op": "spread", "seeds": [1, 2, 3]})["spread"],
                    s.query({"op": "topk", "k": 3})["seeds"],
                    s.query({"op": "spread", "seeds": [5], "removed": [1]})["spread"],
                ]

        assert run(None) == run(2)


class TestMetricsAndLifecycle:
    def test_metrics_shape(self, state):
        state.query({"op": "spread", "seeds": [1]})
        state.query({"op": "spread", "seeds": [1]})
        metrics = state.metrics()
        assert metrics["answer_cache"]["hits"] == 1
        assert metrics["graphs"]["g0"]["nodes"] == 7
        assert metrics["graphs"]["g0"]["queries"] == 1
        assert metrics["collection_cache"]["size"] == 1

    def test_close_is_idempotent_and_blocks_queries(self):
        s = ServiceState(num_samples=50)
        s.register_graph(toy_graph())
        s.query({"op": "spread", "seeds": [1]})
        s.close()
        s.close()
        assert s.closed
        with pytest.raises(ValidationError, match="closed"):
            s.query({"op": "spread", "seeds": [1]})
        with pytest.raises(ValidationError, match="closed"):
            s.register_graph(toy_graph())

    def test_close_releases_pools(self, low_split_floor):
        graph = erdos_renyi(50, 0.08, random_state=1)
        s = ServiceState(num_samples=300, n_jobs=2)
        s.register_graph(graph)
        s.query({"op": "spread", "seeds": [0]})
        assert s._pool.running  # the collection was split over the threads
        s.close()
        assert not s._pool.running

    def test_try_cached_fast_path(self, state):
        request = {"op": "spread", "seeds": [2, 3]}
        assert state.try_cached(request) is None
        state.query(request)
        hit = state.try_cached(request)
        assert hit is not None and hit["cached"] is True
        # Equivalent residual spellings share the entry.
        assert state.try_cached(dict(request, removed=[])) is not None


class TestAdmission:
    """``admit`` reads each field once into a typed :class:`Query`."""

    def test_fields_are_typed_and_canonical(self, state):
        query = state.admit(
            {"op": "marginal", "node": "3", "conditioning": [1.0, 2],
             "removed": [6, 5, 6], "samples": "350"}
        )
        assert query.op == "marginal" and query.node == 3
        assert query.conditioning == (1, 2)
        assert query.removed == (5, 6)
        assert query.samples == 350
        assert (query.k, query.budget, query.segment) == (1, None, None)
        assert query.simulations == 200  # the state's default
        assert query.deadline is None
        assert query.entry is state.entry()
        assert query.view.num_active == 5 and query.digest != "full"

    def test_equivalent_spellings_share_one_cache_entry(self, state):
        answer = state.query({"op": "spread", "seeds": [1], "removed": [6, 5]})
        for spelling in (
            {"seeds": [1], "removed": [5, 6]},
            {"seeds": [1.0], "removed": [5, 6, 5]},
            {"op": "spread", "seeds": ["1"], "removed": ["6", 5]},
        ):
            hit = state.try_cached(spelling)
            assert hit is not None and hit["spread"] == answer["spread"]
        # Another residual state, θ or graph version asks another question.
        assert state.try_cached({"seeds": [1], "removed": [5]}) is None
        assert state.try_cached({"seeds": [1], "removed": [5, 6], "samples": 9}) is None
        state.register_graph(toy_graph(), version="v2")
        assert state.try_cached(
            {"seeds": [1], "removed": [5, 6], "version": "v2"}
        ) is None

    def test_default_counts_share_the_entry_of_explicit_ones(self, state):
        state.query({"op": "topk", "k": 2})
        assert state.try_cached({"op": "topk", "k": "2"}) is not None
        state.query({"op": "mc_spread", "seeds": [1]})
        assert state.try_cached(
            {"op": "mc_spread", "seeds": [1], "simulations": 200}
        ) is not None


class TestFusedBatchCoverage:
    def test_batch_coverage_matches_per_set(self):
        graph = erdos_renyi(40, 0.1, random_state=7)
        collection = FlatRRCollection.generate(graph, 500, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        seed_sets = [
            list(rng.choice(40, size=size, replace=False))
            for size in (1, 2, 3, 5, 1, 4)
        ] + [[], [0, 0, 0], [39]]
        fused = collection.batch_coverage(seed_sets)
        singles = [collection.coverage(s) for s in seed_sets]
        assert fused.tolist() == singles

    def test_estimate_spreads_matches_estimate_spread(self):
        graph = erdos_renyi(30, 0.1, random_state=2)
        collection = FlatRRCollection.generate(graph, 300, np.random.default_rng(3))
        seed_sets = [[1], [2, 3], []]
        np.testing.assert_allclose(
            collection.estimate_spreads(seed_sets),
            [collection.estimate_spread(s) for s in seed_sets],
        )

    def test_empty_inputs(self):
        graph = erdos_renyi(10, 0.2, random_state=4)
        collection = FlatRRCollection.generate(graph, 50, np.random.default_rng(5))
        assert collection.batch_coverage([]).size == 0
        assert collection.batch_coverage([[], []]).tolist() == [0, 0]
