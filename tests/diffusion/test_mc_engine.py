"""Differential tests: batched forward-MC engine vs. its references.

Four layers of checks, mirroring ``tests/sampling/test_engine_differential.py``:

1. **Bit-for-bit backend parity** — ``backend="vectorized"`` and
   ``backend="python"`` (the per-cascade literal spec) sample the same
   keyed cascade stream, so a shared seed must produce identical batches.
2. **Backend selection** — ``REPRO_BACKEND`` fills in for ``backend=None``
   at the Monte-Carlo entry points, and the marginal estimator replays
   one realization stream whatever the backend.
3. **Parallel determinism** — batches routed through
   :meth:`SamplingPool.simulate` are bit-for-bit independent of ``n_jobs``.
4. **Residual-mask correctness and statistical agreement** — inactive
   seeds are ignored, propagation never enters inactive nodes, and the
   batched estimator matches :func:`exact_expected_spread` on tiny graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.mc_engine import (
    merge_mc_batches,
    replay_live_edges,
    simulate_ic_batch,
)
from repro.diffusion.realization import Realization, batch_realization_spreads
from repro.diffusion.spread import (
    exact_expected_spread,
    monte_carlo_marginal_spread,
    monte_carlo_spread,
    monte_carlo_spread_samples,
)
from repro.graphs import generators
from repro.graphs.residual import ResidualGraph
from repro.graphs.weighting import weighted_cascade
from repro.parallel import SamplingPool
from repro.utils.exceptions import ValidationError

from repro import kernels

#: Every backend available on this machine (vectorized and python always;
#: native wherever a C compiler exists, as on every CI runner).
AVAILABLE_BACKENDS = kernels.available_backends()


@pytest.fixture(scope="module")
def generated_graph():
    """A ~600-node heavy-tailed graph under weighted cascade."""
    return weighted_cascade(generators.barabasi_albert(600, 3, random_state=41))


@pytest.fixture(scope="module")
def generated_view(generated_graph):
    """Residual view with the first 80 nodes removed (exercises the mask)."""
    return ResidualGraph(generated_graph).without(range(80))


@pytest.fixture(scope="module")
def seed_set(generated_graph, generated_view):
    """A handful of high-degree seeds (plus a duplicate, plus an inactive one).

    The seeds are the highest-degree nodes *active in the view*: the
    graph's overall hubs all sit among the removed first 80 nodes, and
    seeding only those would leave every residual-view cascade empty.
    """
    by_degree = np.argsort(-generated_graph.out_degrees)
    active = generated_view.active_mask
    picks = [int(v) for v in by_degree if active[v]][:4]
    return picks + [picks[0], 5]  # duplicate + a node inactive in the view


class TestBackendParity:
    @pytest.mark.parametrize("seed", [0, 1, 17, 2020])
    def test_identical_batches_on_generated_graph(self, generated_view, seed_set, seed):
        fast = simulate_ic_batch(generated_view, seed_set, 200, seed, backend="vectorized")
        reference = simulate_ic_batch(generated_view, seed_set, 200, seed, backend="python")
        assert np.array_equal(fast.offsets, reference.offsets)
        assert np.array_equal(fast.nodes, reference.nodes)

    def test_identical_batches_on_toy_graphs(self, toy):
        graph, _ = toy
        fast = simulate_ic_batch(graph, [0, 3], 300, 7, backend="vectorized")
        reference = simulate_ic_batch(graph, [0, 3], 300, 7, backend="python")
        assert np.array_equal(fast.offsets, reference.offsets)
        assert np.array_equal(fast.nodes, reference.nodes)

    def test_unknown_backend_rejected(self, path4):
        with pytest.raises(ValidationError):
            simulate_ic_batch(path4, [0], 1, 0, backend="cuda")

    def test_negative_count_rejected(self, path4):
        with pytest.raises(ValidationError):
            simulate_ic_batch(path4, [0], -1, 0)


class TestBackendSelection:
    def test_env_var_switches_backend(self, generated_view, seed_set, monkeypatch):
        # REPRO_BACKEND picks the kernel of every MC query left at None;
        # kernels are stream-equal, so the estimate is the explicit one.
        calls = []
        original = kernels.get_backend

        def spy(backend=None):
            spec = original(backend)
            calls.append(spec.name)
            return spec

        monkeypatch.setattr(kernels, "get_backend", spy)
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "python")
        from_env = monte_carlo_spread(generated_view, seed_set, 50, 13)
        assert calls == ["python"]
        explicit = monte_carlo_spread(
            generated_view, seed_set, 50, 13, backend="vectorized"
        )
        assert calls == ["python", "vectorized"]
        assert from_env == explicit
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ValidationError, match="REPRO_BACKEND"):
            monte_carlo_spread(generated_view, seed_set, 50, 13)

    def test_marginal_backends_agree_bit_for_bit(self, generated_view):
        # Every backend replays the identical realization stream (bulk
        # rows of rng.random(m)), so the estimates are equal exactly.
        python = monte_carlo_marginal_spread(
            generated_view, 90, [100, 200], 120, 17, backend="python"
        )
        vectorized = monte_carlo_marginal_spread(
            generated_view, 90, [100, 200], 120, 17, backend="vectorized"
        )
        assert python == vectorized


class TestParallelDeterminism:
    def test_simulate_independent_of_n_jobs(self, generated_view, seed_set):
        with SamplingPool(generated_view, n_jobs=1, directions=("out",)) as pool_one:
            one = pool_one.simulate(generated_view, seed_set, 500, 42)
        with SamplingPool(generated_view, n_jobs=2, directions=("out",)) as pool_two:
            two = pool_two.simulate(generated_view, seed_set, 500, 42)
        assert np.array_equal(one.offsets, two.offsets)
        assert np.array_equal(one.nodes, two.nodes)

    def test_spread_entry_point_independent_of_n_jobs(self, generated_view, seed_set):
        one = monte_carlo_spread(
            generated_view, seed_set, 500, 42, backend="vectorized", n_jobs=1
        )
        two = monte_carlo_spread(
            generated_view, seed_set, 500, 42, backend="vectorized", n_jobs=2
        )
        assert one == two

    def test_merge_preserves_shard_order(self, generated_view, seed_set):
        whole = simulate_ic_batch(generated_view, seed_set, 60, 3)
        parts = [whole.slice(0, 25), whole.slice(25, 40), whole.slice(40, 60)]
        merged = merge_mc_batches(parts)
        assert np.array_equal(merged.offsets, whole.offsets)
        assert np.array_equal(merged.nodes, whole.nodes)


class TestRegisteredBackendParity:
    """Every registered backend must be bit-for-bit the vectorized engine.

    Parametrized over :func:`repro.kernels.available_backends`, so a
    machine with a C compiler runs the same assertions against the
    ``"native"`` kernels.
    """

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 2020])
    def test_identical_simulation_batches(
        self, generated_view, seed_set, backend, seed
    ):
        fast = simulate_ic_batch(generated_view, seed_set, 200, seed, backend=backend)
        reference = simulate_ic_batch(
            generated_view, seed_set, 200, seed, backend="vectorized"
        )
        assert np.array_equal(fast.offsets, reference.offsets)
        assert np.array_equal(fast.nodes, reference.nodes)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_generator_end_state_is_shared(self, generated_view, seed_set, backend):
        # Backends consume the identical coin stream, so a shared
        # generator must end in the same state: the next draw agrees.
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        simulate_ic_batch(generated_view, seed_set, 120, rng_a, backend=backend)
        simulate_ic_batch(generated_view, seed_set, 120, rng_b, backend="vectorized")
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_replay_parity(self, generated_view, seed_set, backend):
        rng = np.random.default_rng(23)
        worlds = [
            Realization.sample(generated_view.base, child) for child in rng.spawn(12)
        ]
        live = np.stack([world.live_mask for world in worlds])
        fast = replay_live_edges(generated_view, seed_set, live, backend=backend)
        reference = replay_live_edges(
            generated_view, seed_set, live, backend="vectorized"
        )
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_mmapped_rgx_graph(self, generated_graph, seed_set, tmp_path, backend):
        # Compiled backends must read the uint32 node arrays of an
        # mmap'd .rgx CSR in place and still match bit-for-bit.
        from repro.graphs.binary import load_rgx, write_rgx

        path = tmp_path / "generated.rgx"
        write_rgx(generated_graph, path)
        mapped = load_rgx(path, mmap=True)
        assert mapped.out_csr()[1].dtype == np.uint32
        view = ResidualGraph(mapped).without(range(80))
        fast = simulate_ic_batch(view, seed_set, 150, 17, backend=backend)
        in_ram = simulate_ic_batch(
            ResidualGraph(generated_graph).without(range(80)),
            seed_set,
            150,
            17,
            backend="vectorized",
        )
        assert np.array_equal(fast.offsets, in_ram.offsets)
        assert np.array_equal(fast.nodes, in_ram.nodes)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_through_sampling_pool_multiworker(self, generated_view, seed_set, backend):
        # The backend name travels in the shard payload; two workers must
        # reproduce the single-process vectorized batch bit-for-bit.
        with SamplingPool(generated_view, n_jobs=2, directions=("out",)) as pool:
            sharded = pool.simulate(
                generated_view, seed_set, 300, 42, backend=backend
            )
        with SamplingPool(generated_view, n_jobs=1, directions=("out",)) as pool:
            local = pool.simulate(
                generated_view, seed_set, 300, 42, backend="vectorized"
            )
        assert np.array_equal(sharded.offsets, local.offsets)
        assert np.array_equal(sharded.nodes, local.nodes)


class TestResidualMaskCorrectness:
    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_inactive_seeds_ignored(self, path4, backend):
        view = ResidualGraph(path4).without([0])
        batch = simulate_ic_batch(view, [0], 5, 0, backend=backend)
        assert batch.to_sets() == [set()] * 5
        assert batch.spreads().tolist() == [0] * 5

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_propagation_never_enters_inactive_nodes(self, path4, backend):
        # Deterministic path 0→1→2→3 with node 2 removed: the cascade from 0
        # must stop at 1, never reaching 2 or 3 (all edges have p = 1).
        view = ResidualGraph(path4).without([2])
        batch = simulate_ic_batch(view, [0], 10, 0, backend=backend)
        assert batch.to_sets() == [{0, 1}] * 10

    def test_activation_matrix_respects_mask(self, path4):
        view = ResidualGraph(path4).without([2])
        matrix = simulate_ic_batch(view, [0], 4, 0).activation_matrix()
        assert matrix.shape == (4, 4)
        assert not matrix[:, 2].any() and not matrix[:, 3].any()

    def test_empty_seed_and_zero_count(self, path4):
        assert len(simulate_ic_batch(path4, [], 5, 0)) == 5
        assert simulate_ic_batch(path4, [], 5, 0).total_spread() == 0
        assert len(simulate_ic_batch(path4, [0], 0, 0)) == 0


class TestStatisticalAgreement:
    def test_batched_spread_matches_exact_on_diamond(self, diamond):
        exact = exact_expected_spread(diamond, [0])
        estimate = monte_carlo_spread(
            diamond, [0], num_simulations=6000, random_state=1, backend="vectorized"
        )
        assert estimate == pytest.approx(exact, abs=0.1)

    def test_batched_spread_matches_exact_on_residual_diamond(self, diamond):
        view = ResidualGraph(diamond).without([1])
        exact = exact_expected_spread(view, [0])
        estimate = monte_carlo_spread(
            view, [0], num_simulations=6000, random_state=2, backend="vectorized"
        )
        assert estimate == pytest.approx(exact, abs=0.1)

    def test_backends_agree_statistically(self, generated_graph, seed_set):
        python = monte_carlo_spread(generated_graph, seed_set, 1500, 5, backend="python")
        vectorized = monte_carlo_spread(
            generated_graph, seed_set, 1500, 5, backend="vectorized"
        )
        assert vectorized == pytest.approx(python, rel=0.1)

    def test_samples_mean_equals_spread(self, generated_view, seed_set):
        samples = monte_carlo_spread_samples(
            generated_view, seed_set, 300, 9, backend="vectorized"
        )
        spread = monte_carlo_spread(
            generated_view, seed_set, 300, 9, backend="vectorized"
        )
        assert samples.mean() == pytest.approx(spread)
        assert samples.shape == (300,)


class TestLiveEdgeReplay:
    def test_replay_matches_per_realization_spread(self, generated_view, seed_set):
        rng = np.random.default_rng(23)
        worlds = [
            Realization.sample(generated_view.base, child) for child in rng.spawn(15)
        ]
        live = np.stack([world.live_mask for world in worlds])
        spreads = replay_live_edges(generated_view, seed_set, live)
        for index, world in enumerate(worlds):
            assert spreads[index] == world.spread(seed_set, generated_view)

    def test_batch_realization_spreads_matches_loop(self, generated_graph, seed_set):
        rng = np.random.default_rng(29)
        worlds = [Realization.sample(generated_graph, child) for child in rng.spawn(10)]
        batched = batch_realization_spreads(worlds, seed_set)
        looped = [world.spread(seed_set) for world in worlds]
        assert batched.tolist() == looped

    def test_eager_activated_by_matches_base_loop(self, generated_view):
        from repro.diffusion.realization import BaseRealization

        world = Realization.sample(generated_view.base, 31)
        fast = world.activated_by([90, 100], generated_view)
        reference = BaseRealization.activated_by(world, [90, 100], generated_view)
        assert fast == reference

    def test_replay_validates_shape(self, path4):
        with pytest.raises(ValidationError):
            replay_live_edges(path4, [0], np.ones(path4.m, dtype=bool))
        with pytest.raises(ValidationError):
            replay_live_edges(path4, [0], np.ones((2, path4.m + 1), dtype=bool))
