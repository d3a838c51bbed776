"""SamplingPool: thread-count invariance, lifecycle, knob resolution, wiring.

The central assertion is that the pool returns bit-for-bit the batch a
plain ``generate_rr_batch`` / ``simulate_ic_batch`` call draws, at every
thread count: RR and cascade sampling does not depend on ``n_jobs``.
Test-sized batches sit below :data:`~repro.parallel.pool.MIN_SPLIT`, so
the ``low_split_floor`` fixture lowers it to run the threaded path.
"""

from __future__ import annotations

import sys
import threading
from functools import partial

import numpy as np
import pytest

from repro import kernels
from repro.core.estimation import FrontRearEstimator
from repro.core.hatp import HATP
from repro.core.session import AdaptiveSession
from repro.core.targets import build_spread_calibrated_instance
from repro.diffusion.mc_engine import simulate_ic_batch
from repro.diffusion.realization import Realization
from repro.experiments.config import EngineParameters
from repro.experiments.runner import _make_hatp
from repro.graphs import generators
from repro.graphs.datasets import load_proxy
from repro.graphs.residual import ResidualGraph
from repro.graphs.weighting import weighted_cascade
from repro.parallel import SamplingPool, resolve_jobs
from repro.parallel.eval_pool import (
    EvaluationPool,
    RealizationTicket,
    parallel_evaluate_adaptive,
)
from repro.parallel.pool import JOBS_ENV_VAR, MIN_SPLIT, available_cpus
from repro.sampling.engine import generate_rr_batch
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.exceptions import ValidationError

BACKENDS = kernels.available_backends()


@pytest.fixture(scope="module")
def graph():
    """A ~400-node heavy-tailed graph under weighted cascade."""
    return weighted_cascade(generators.barabasi_albert(400, 3, random_state=21))


@pytest.fixture(scope="module")
def view(graph):
    """Residual view with the first 60 nodes removed."""
    return ResidualGraph(graph).without(range(60))


@pytest.fixture
def worker_pool(low_split_floor):
    """A two-thread pool that splits every batch of 64+ items."""
    with SamplingPool(n_jobs=2) as pool:
        yield pool


def _same_batch(a, b):
    assert a.offsets.tobytes() == b.offsets.tobytes()
    assert a.nodes.tobytes() == b.nodes.tobytes()


def _sampling_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-sampling")]


class TestResolveJobs:
    def test_explicit_values(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(-1) == available_cpus()

    def test_none_without_env_is_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == available_cpus()

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(None) == 3
        monkeypatch.setenv(JOBS_ENV_VAR, "-1")
        assert resolve_jobs(None) == available_cpus()

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValidationError):
            resolve_jobs(0)
        with pytest.raises(ValidationError):
            resolve_jobs(-2)
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValidationError):
            resolve_jobs(None)


class TestShards:
    def test_below_the_floor_or_on_one_thread_one_shard(self):
        assert SamplingPool(4).shards(MIN_SPLIT - 1) == [(0, MIN_SPLIT - 1)]
        assert SamplingPool(1).shards(10 * MIN_SPLIT) == [(0, 10 * MIN_SPLIT)]

    @pytest.mark.parametrize("n_jobs", [2, 3, 4])
    def test_one_contiguous_shard_per_thread(self, n_jobs):
        count = MIN_SPLIT + 5
        shards = SamplingPool(n_jobs).shards(count)
        assert len(shards) == n_jobs
        assert shards[0][0] == 0 and shards[-1][1] == count
        assert all(a[1] == b[0] for a, b in zip(shards, shards[1:]))


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 2020])
    def test_pool_matches_in_process_bit_for_bit(self, view, worker_pool, seed):
        _same_batch(generate_rr_batch(view, 250, seed), worker_pool.generate(view, 250, seed))

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generate_is_independent_of_the_thread_count(
        self, view, low_split_floor, backend, n_jobs
    ):
        stop = np.zeros(view.n, dtype=bool)
        stop[view.active_nodes()[::9]] = True
        roots = view.active_nodes()[:260]
        plain = generate_rr_batch(
            view, 260, key=2**63 + 5, start=40, stop=stop, roots=roots, backend="python"
        )
        with SamplingPool(n_jobs) as pool:
            sharded = pool.generate(
                view, 260, key=2**63 + 5, start=40, stop=stop, roots=roots, backend=backend
            )
            assert pool.running == (n_jobs > 1)
        _same_batch(sharded, plain)

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simulate_is_independent_of_the_thread_count(
        self, view, low_split_floor, backend, n_jobs
    ):
        rng, twin = np.random.default_rng(42), np.random.default_rng(42)
        plain = simulate_ic_batch(view, [100, 200, 300], 260, twin, backend="python")
        with SamplingPool(n_jobs) as pool:
            sharded = pool.simulate(view, [100, 200, 300], 260, rng, backend=backend)
        _same_batch(sharded, plain)
        assert rng.random() == twin.random()

    def test_batches_at_the_shipped_floor_split_identically(self, view):
        with SamplingPool(2) as pool:
            sharded = pool.generate(view, MIN_SPLIT, 3)
            assert pool.running
        _same_batch(sharded, generate_rr_batch(view, MIN_SPLIT, 3))

    def test_stop_truncated_keyed_shards_match_one_call(self, view, worker_pool):
        stop = np.zeros(view.n, dtype=bool)
        stop[view.active_nodes()[::9]] = True
        plain = generate_rr_batch(view, 260, key=2**63 + 5, start=40, stop=stop)
        sharded = worker_pool.generate(view, 260, key=2**63 + 5, start=40, stop=stop)
        _same_batch(sharded, plain)

    def test_hatp_outcome_does_not_depend_on_n_jobs(self, graph, monkeypatch, low_split_floor):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        target = [int(v) for v in np.argsort(-graph.out_degrees)[:6]]
        costs = {node: 2.0 for node in target}

        def outcome(n_jobs):
            session = AdaptiveSession(graph, Realization.sample(graph, 5), costs)
            result = HATP(
                target, random_state=7, max_samples_per_round=4000, n_jobs=n_jobs
            ).run(session)
            records = [
                (r.action, r.thetas, r.front_estimate, r.rear_estimate)
                for r in result.iterations
            ]
            return result.seeds, result.rr_sets_generated, records

        assert outcome(None) == outcome(1) == outcome(2) == outcome(3)

    def test_python_backend_through_pool(self, view, worker_pool):
        _same_batch(
            worker_pool.generate(view, 120, 5, backend="python"),
            generate_rr_batch(view, 120, 5, backend="vectorized"),
        )

    def test_mask_changes_between_rounds(self, graph, view, worker_pool):
        # One pool samples whatever view each call names: the full graph,
        # a shrunk view, then the full graph again.
        full = worker_pool.generate(graph, 130, 3)
        shrunk_view = view.without(range(60, 150))
        shrunk = worker_pool.generate(shrunk_view, 130, 3)
        full_again = worker_pool.generate(graph, 130, 3)
        assert full.num_active_nodes == graph.n
        assert shrunk.num_active_nodes == shrunk_view.num_active
        assert not set(range(150)).intersection(shrunk.nodes.tolist())
        assert np.array_equal(full.nodes, full_again.nodes)

    def test_explicit_roots_are_sharded(self, view, worker_pool):
        roots = view.active_nodes()[:130]
        parallel = worker_pool.generate(view, 130, 1, roots=roots)
        _same_batch(parallel, generate_rr_batch(view, 130, 1, roots=roots))
        for i in range(130):
            assert int(parallel.set_at(i)[0]) == int(roots[i])

    def test_flat_collection_pool_and_n_jobs_paths_agree(self, view, worker_pool):
        via_pool = FlatRRCollection.generate(view, 200, 17, pool=worker_pool)
        via_jobs = FlatRRCollection.generate(view, 200, 17, n_jobs=1)
        assert via_pool.num_sets == via_jobs.num_sets == 200
        assert np.array_equal(via_pool.sizes(), via_jobs.sizes())
        probe = int(view.active_nodes()[0])
        assert via_pool.coverage([probe]) == via_jobs.coverage([probe])

    def test_generator_state_advances_like_serial(self, view, worker_pool):
        # A shared Generator must leave both paths in the same state, so a
        # *sequence* of calls is also n_jobs-invariant.
        rng_serial = np.random.default_rng(33)
        rng_pool = np.random.default_rng(33)
        for count in (100, 70):
            serial = generate_rr_batch(view, count, rng_serial)
            parallel = worker_pool.generate(view, count, rng_pool)
            assert np.array_equal(serial.nodes, parallel.nodes)


class TestLifecycle:
    def test_single_job_pool_never_starts_workers(self, view, low_split_floor):
        with SamplingPool(n_jobs=1) as pool:
            batch = pool.generate(view, 100, 0)
            assert len(batch) == 100
            assert not pool.running

    def test_small_batch_runs_in_process_even_with_workers(self, graph):
        # Batches below the floor are one call in the calling thread.
        with SamplingPool(n_jobs=2) as pool:
            batch = pool.generate(graph, MIN_SPLIT - 1, 0)
            assert len(batch) == MIN_SPLIT - 1
            assert not pool.running

    def test_close_is_idempotent_and_joins_threads(self, graph, low_split_floor):
        before = threading.active_count()
        pool = SamplingPool(n_jobs=2)
        pool.generate(graph, 80, 0)
        assert pool.running and _sampling_threads()
        pool.close()
        pool.close()
        assert not pool.running
        assert not _sampling_threads()
        assert threading.active_count() == before
        with pytest.raises(ValidationError, match="closed"):
            pool.generate(graph, 10, 0)

    def test_count_zero_and_negative(self, graph):
        with SamplingPool(n_jobs=1) as pool:
            assert len(pool.generate(graph, 0, 0)) == 0
            with pytest.raises(ValidationError):
                pool.generate(graph, -1, 0)

    def test_one_pool_serves_any_graph(self, graph, worker_pool):
        other = weighted_cascade(generators.barabasi_albert(50, 2, random_state=1))
        for g in (graph, other, graph):
            _same_batch(worker_pool.generate(g, 100, 4), generate_rr_batch(g, 100, 4))

    def test_worker_error_propagates(self, view, worker_pool):
        # Invalid explicit roots fail on a pool thread; the pool must
        # surface the ValidationError and stay usable afterwards.
        bad_roots = np.full(130, view.n + 5, dtype=np.int64)
        with pytest.raises(ValidationError):
            worker_pool.generate(view, 130, 0, roots=bad_roots)
        batch = worker_pool.generate(view, 130, 0)
        assert len(batch) == 130

    def test_empty_residual_view(self, graph, worker_pool):
        dead = ResidualGraph(graph).without(range(graph.n))
        batch = worker_pool.generate(dead, 100, 0)
        assert len(batch) == 100
        assert batch.nodes.size == 0
        assert batch.num_active_nodes == 0


class TestForwardSimulate:
    """The forward-MC twin of generate: the same thread-count contract."""

    def test_pool_matches_in_process_bit_for_bit(self, view, worker_pool):
        seeds = [100, 200, 300]
        expected = simulate_ic_batch(view, seeds, 400, 7)
        actual = worker_pool.simulate(view, seeds, 400, 7)
        _same_batch(expected, actual)

    def test_python_backend_through_pool(self, view, worker_pool):
        seeds = [100, 200]
        fast = worker_pool.simulate(view, seeds, 150, 5, backend="vectorized")
        reference = worker_pool.simulate(view, seeds, 150, 5, backend="python")
        _same_batch(fast, reference)

    def test_residual_mask_respected_in_workers(self, graph, worker_pool):
        # Seeds inactive in the view must activate nothing, on any thread.
        view = ResidualGraph(graph).without(range(200))
        batch = worker_pool.simulate(view, [10, 50], 130, 3)
        assert batch.total_spread() == 0

    def test_count_zero(self, view, worker_pool):
        assert len(worker_pool.simulate(view, [100], 0, 0)) == 0


class TestOracleIntegration:
    def test_ris_oracle_holds_one_pool(self, graph):
        from repro.core.oracle import RISSpreadOracle

        other = weighted_cascade(generators.barabasi_albert(80, 2, random_state=3))
        with RISSpreadOracle(num_samples=150, random_state=1, n_jobs=1) as oracle:
            spread = oracle.expected_spread(graph, [100])
            first_pool = oracle._pool
            oracle.marginal_spread(graph, 101, [100])
            oracle.expected_spread(other, [0])
            assert oracle._pool is first_pool  # one pool, whatever the graph
            assert spread >= 0.0
        assert oracle._pool is None


class TestThreadStress:
    def test_many_threads_and_a_short_switch_interval(self, low_split_floor):
        """Eight threads on fresh graphs: every lazily cached array (coin
        thresholds, active-node lists) is first built by racing shards,
        and every batch and round still equals the one-thread result."""

        def fresh_view():
            graph = weighted_cascade(generators.barabasi_albert(300, 3, random_state=5))
            return ResidualGraph(graph).without(range(20))

        def rounds(view, pool):
            estimator = FrontRearEstimator(
                view, 25, [25, 30], range(20, 60), np.random.default_rng(8), pool=pool
            )
            return [estimator.estimates(theta) for theta in (300, 700)]

        reference_view = fresh_view()
        expected_batch = generate_rr_batch(reference_view, 900, key=99, start=3)
        with SamplingPool(1) as one:
            expected_rounds = rounds(reference_view, one)
        results = []

        def work():
            with SamplingPool(8) as pool:
                for _ in range(4):
                    view = fresh_view()
                    results.append(
                        (pool.generate(view, 900, key=99, start=3), rounds(fresh_view(), pool))
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=work, daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert len(results) == 4
        for batch, got_rounds in results:
            _same_batch(batch, expected_batch)
            assert got_rounds == expected_rounds
        assert not _sampling_threads()


class TestForkSafety:
    def test_threaded_session_then_forked_evaluation(self, low_split_floor):
        """No sampling thread outlives a run, so a fork inherits none."""
        graph = load_proxy("nethept", nodes=100, random_state=7)
        instance = build_spread_calibrated_instance(
            graph, k=4, cost_setting="degree", num_rr_sets=300, random_state=11
        )
        before = threading.active_count()
        session = AdaptiveSession(graph, Realization.sample(graph, 3), instance.costs)
        pool_threads = []
        original = SamplingPool.map

        def watched(pool, function, items):
            pool_threads.append(pool.n_jobs)
            return original(pool, function, items)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SamplingPool, "map", watched)
            HATP(instance.target, random_state=1, n_jobs=2).run(session)
        assert pool_threads, "the session never drew a round on the threads"
        assert threading.active_count() == before
        assert not _sampling_threads()

        engine = EngineParameters(
            max_rounds=3, max_samples_per_round=300,
            addatp_max_rounds=2, addatp_max_samples_per_round=100,
        )
        factory = partial(_make_hatp, engine, 2)
        tickets = [
            RealizationTicket.from_state(s) for s in np.random.default_rng(3).spawn(3)
        ]
        with EvaluationPool(graph, eval_jobs=2) as pool:
            forked = parallel_evaluate_adaptive(
                factory, instance, tickets, random_state=5, pool=pool
            )
        alone = parallel_evaluate_adaptive(
            factory, instance, tickets, random_state=5, eval_jobs=1
        )

        def key(records):
            return [(r.index, r.profit, r.spread, r.num_seeds, r.rr_sets) for r in records]

        assert key(forked) == key(alone)
        assert threading.active_count() == before
