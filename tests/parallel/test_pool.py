"""SamplingPool: n_jobs invariance, lifecycle, knob resolution, wiring.

The central assertion is that for a shared seed the pool produces
bit-for-bit the same RR batches at ``n_jobs=2+`` as the in-process
``n_jobs=1`` path, and both the batch a plain ``generate_rr_batch`` call
draws: RR sampling does not depend on ``n_jobs`` (None ≡ 1 ≡ N).
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.residual import ResidualGraph
from repro.graphs.weighting import weighted_cascade
from repro.parallel import (
    SamplingPool,
    parallel_generate_rr_batch,
    resolve_jobs,
)
from repro.core.hatp import HATP
from repro.core.session import AdaptiveSession
from repro.diffusion.realization import Realization
from repro.parallel.pool import JOBS_ENV_VAR, available_cpus
from repro.sampling.engine import generate_rr_batch
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.exceptions import ValidationError


@pytest.fixture(scope="module")
def graph():
    """A ~400-node heavy-tailed graph under weighted cascade."""
    return weighted_cascade(generators.barabasi_albert(400, 3, random_state=21))


@pytest.fixture(scope="module")
def view(graph):
    """Residual view with the first 60 nodes removed."""
    return ResidualGraph(graph).without(range(60))


@pytest.fixture(scope="module")
def worker_pool(graph):
    """One persistent dual-workload 2-worker pool shared by the
    differential tests (worker start-up is the expensive part on CI
    machines); publishes both CSR directions so the forward-simulate
    tests can reuse it."""
    with SamplingPool(graph, n_jobs=2, directions=("in", "out")) as pool:
        yield pool


class TestResolveJobs:
    def test_explicit_values(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(-1) == available_cpus()

    def test_none_without_env_is_none(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) is None

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


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 2020])
    def test_pool_matches_in_process_bit_for_bit(self, view, worker_pool, seed):
        serial = parallel_generate_rr_batch(view, 250, seed, n_jobs=1)
        parallel = worker_pool.generate(view, 250, seed)
        assert np.array_equal(serial.offsets, parallel.offsets)
        assert np.array_equal(serial.nodes, parallel.nodes)
        assert serial.num_active_nodes == parallel.num_active_nodes

    @pytest.mark.parametrize("seed", [0, 2020])
    def test_batches_do_not_depend_on_the_worker_count(self, view, worker_pool, seed):
        plain = generate_rr_batch(view, 300, seed)
        with SamplingPool(view, n_jobs=1) as single:
            one = single.generate(view, 300, seed)
        two = worker_pool.generate(view, 300, seed)
        for batch in (one, two):
            assert batch.offsets.tobytes() == plain.offsets.tobytes()
            assert batch.nodes.tobytes() == plain.nodes.tobytes()

    def test_stop_truncated_keyed_shards_match_one_call(self, view, worker_pool):
        stop = np.zeros(view.n, dtype=bool)
        stop[view.active_nodes()[::9]] = True
        plain = generate_rr_batch(view, 260, key=2**63 + 5, start=40, stop=stop)
        sharded = worker_pool.generate(view, 260, key=2**63 + 5, start=40, stop=stop)
        assert plain.offsets.tobytes() == sharded.offsets.tobytes()
        assert plain.nodes.tobytes() == sharded.nodes.tobytes()

    def test_hatp_outcome_does_not_depend_on_n_jobs(self, graph, monkeypatch):
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

        assert outcome(None) == outcome(1) == outcome(2)

    def test_python_backend_through_pool(self, view, worker_pool):
        serial = parallel_generate_rr_batch(
            view, 120, 5, n_jobs=1, backend="python"
        )
        parallel = worker_pool.generate(view, 120, 5, backend="python")
        assert np.array_equal(serial.offsets, parallel.offsets)
        assert np.array_equal(serial.nodes, parallel.nodes)

    def test_mask_changes_between_rounds(self, graph, view, worker_pool):
        # The pool must republish the active mask per round: sample on the
        # full graph, then on a shrunk view, then on the full graph again.
        full = worker_pool.generate(graph, 130, 3)
        shrunk_view = view.without(range(60, 150))
        shrunk = worker_pool.generate(shrunk_view, 130, 3)
        full_again = worker_pool.generate(graph, 130, 3)
        assert full.num_active_nodes == graph.n
        assert shrunk.num_active_nodes == shrunk_view.num_active
        removed = set(range(150))
        assert not removed.intersection(shrunk.nodes.tolist())
        assert np.array_equal(full.nodes, full_again.nodes)

    def test_explicit_roots_are_sharded(self, view, worker_pool):
        roots = view.active_nodes()[:130]
        serial = parallel_generate_rr_batch(
            view, 130, 1, n_jobs=1, roots=roots
        )
        parallel = worker_pool.generate(view, 130, 1, roots=roots)
        assert np.array_equal(serial.nodes, parallel.nodes)
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
            serial = parallel_generate_rr_batch(
                view, count, rng_serial, n_jobs=1
            )
            parallel = worker_pool.generate(view, count, rng_pool)
            assert np.array_equal(serial.nodes, parallel.nodes)


class TestLifecycle:
    def test_single_job_pool_never_starts_workers(self, view):
        with SamplingPool(view, n_jobs=1) as pool:
            batch = pool.generate(view, 100, 0)
            assert len(batch) == 100
            assert not pool.running

    def test_small_batch_runs_in_process_even_with_workers(self, graph):
        # One-shard batches skip dispatch entirely (count <= the shard size).
        with SamplingPool(graph, n_jobs=2) as pool:
            batch = pool.generate(graph, 10, 0)
            assert len(batch) == 10
            assert not pool.running

    def test_close_is_idempotent_and_unlinks(self, graph):
        pool = SamplingPool(graph, n_jobs=2)
        pool.generate(graph, 80, 0)
        assert pool.running
        names = [spec.name for spec in pool._broker.spec.arrays.values()]
        pool.close()
        pool.close()
        assert not pool.running
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(ValidationError):
            pool.generate(graph, 10, 0)

    def test_count_zero_and_negative(self, graph):
        with SamplingPool(graph, n_jobs=1) as pool:
            assert len(pool.generate(graph, 0, 0)) == 0
            with pytest.raises(ValidationError):
                pool.generate(graph, -1, 0)

    def test_foreign_graph_rejected(self, graph):
        other = weighted_cascade(generators.barabasi_albert(50, 2, random_state=1))
        with SamplingPool(graph, n_jobs=1) as pool:
            with pytest.raises(ValidationError):
                pool.generate(other, 10, 0)

    def test_worker_error_propagates(self, view, worker_pool):
        # Invalid explicit roots fail inside the worker; the pool must
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
    """The forward-MC twin of generate: same shard/seed determinism contract."""

    def test_pool_matches_in_process_bit_for_bit(self, view, worker_pool):
        seeds = [100, 200, 300]
        with SamplingPool(
            view, n_jobs=1, directions=("out",)
        ) as serial:
            expected = serial.simulate(view, seeds, 400, 7)
        actual = worker_pool.simulate(view, seeds, 400, 7)
        assert np.array_equal(expected.offsets, actual.offsets)
        assert np.array_equal(expected.nodes, actual.nodes)

    def test_python_backend_through_pool(self, view, worker_pool):
        seeds = [100, 200]
        fast = worker_pool.simulate(view, seeds, 150, 5, backend="vectorized")
        reference = worker_pool.simulate(view, seeds, 150, 5, backend="python")
        assert np.array_equal(fast.offsets, reference.offsets)
        assert np.array_equal(fast.nodes, reference.nodes)

    def test_residual_mask_respected_in_workers(self, graph, worker_pool):
        # Seeds inactive in the view must activate nothing, even when the
        # simulation runs against the shared-memory mask in a worker.
        view = ResidualGraph(graph).without(range(200))
        batch = worker_pool.simulate(view, [10, 50], 130, 3)
        assert batch.total_spread() == 0

    def test_count_zero_and_foreign_graph(self, graph, view, worker_pool):
        assert len(worker_pool.simulate(view, [100], 0, 0)) == 0
        other = weighted_cascade(generators.barabasi_albert(50, 2, random_state=1))
        with pytest.raises(ValidationError):
            worker_pool.simulate(other, [0], 10, 0)

    def test_single_direction_pools_reject_other_workload(self, graph):
        # RR-only pools never publish (or pay for) the outgoing CSR, and
        # the direction mismatch is a loud error rather than a worker crash.
        with SamplingPool(graph, n_jobs=1, directions=("in",)) as rr_only:
            rr_only.generate(graph, 10, 0)
            with pytest.raises(ValidationError):
                rr_only.simulate(graph, [0], 10, 0)
        with SamplingPool(graph, n_jobs=1, directions=("out",)) as mc_only:
            mc_only.simulate(graph, [0], 10, 0)
            with pytest.raises(ValidationError):
                mc_only.generate(graph, 10, 0)


class TestOracleIntegration:
    def test_ris_oracle_holds_one_pool_per_graph(self, graph):
        from repro.core.oracle import RISSpreadOracle

        other = weighted_cascade(generators.barabasi_albert(80, 2, random_state=3))
        with RISSpreadOracle(num_samples=150, random_state=1, n_jobs=1) as oracle:
            spread = oracle.expected_spread(graph, [100])
            first_pool = oracle._pool
            oracle.marginal_spread(graph, 101, [100])
            assert oracle._pool is first_pool  # reused, not rebuilt per query
            oracle.expected_spread(other, [0])
            assert oracle._pool is not first_pool  # new base graph, new pool
            assert spread >= 0.0
        assert oracle._pool is None
