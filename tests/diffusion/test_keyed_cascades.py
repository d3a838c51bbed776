"""The keyed cascade stream: one batch whatever the backend or the sharding.

Every forward IC cascade is a pure function of the batch key and its
index (:mod:`repro.diffusion.mc_engine`), so these fixed-seed checks pin
the stream's contract rather than any one implementation:

1. **One batch per key** — ``python`` (the literal per-cascade spec),
   ``vectorized`` and ``native`` return identical batches on full and
   residual views, mmap'd ``.rgx`` graphs and seed lists with duplicate
   and inactive seeds; cascades ``[0, a)`` and ``[a, B)`` under one key
   are the batch of ``B`` cascades; the pool's shards at any ``n_jobs``
   are one ``simulate_ic_batch`` call.
2. **The stream is the spec** — cascade ``j`` is the replay of the world
   whose live row is cascade ``j``'s keyed coins.
3. **The stream is the right distribution** — the mean spread is within
   5σ of :func:`exact_expected_spread` on the Fig. 1 toy graph and
   ``path4``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.diffusion.mc_engine import (
    merge_mc_batches,
    replay_live_edges,
    simulate_ic_batch,
)
from repro.diffusion.spread import exact_expected_spread
from repro.graphs import generators
from repro.graphs.residual import ResidualGraph
from repro.graphs.toy import toy_graph
from repro.graphs.weighting import weighted_cascade
from repro.parallel import SamplingPool
from repro.sampling.engine import GOLDEN, draw_key, mix64, set_hashes
from repro.utils.exceptions import ValidationError

#: Every backend available on this machine; ``python`` is the reference.
BACKENDS = kernels.available_backends()


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade(generators.barabasi_albert(300, 3, random_state=8))


@pytest.fixture(scope="module")
def views(graph):
    full = ResidualGraph(graph)
    return {"full": full, "residual": full.without(range(0, 300, 4))}


@pytest.fixture(scope="module")
def seeds(graph, views):
    """Four hubs active in the residual view, a duplicate and an inactive node."""
    active = views["residual"].active_mask
    hubs = [int(v) for v in np.argsort(-graph.out_degrees) if active[v]][:4]
    return hubs + [hubs[1], 0]  # node 0 is inactive in the residual view


def keyed_live_rows(graph, key, start, count):
    """The spec's coins: edge e is live in cascade j iff its keyed coin is low."""
    thresholds = kernels.coin_thresholds(graph.out_csr()[2])
    hashes = set_hashes(key, start, count)[:, None]
    edges = np.arange(1, graph.m + 1, dtype=np.uint64)[None, :]
    return (mix64(hashes + edges * np.uint64(GOLDEN)) >> np.uint64(11)) < thresholds


def assert_same_batch(batch, reference):
    assert np.array_equal(batch.offsets, reference.offsets)
    assert np.array_equal(batch.nodes, reference.nodes)


class TestOneBatchPerKey:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view_name", ["full", "residual"])
    def test_backends_agree(self, views, seeds, backend, view_name):
        view = views[view_name]
        batch = simulate_ic_batch(view, seeds, 300, 2020, backend=backend)
        reference = simulate_ic_batch(view, seeds, 300, 2020, backend="python")
        assert_same_batch(batch, reference)
        assert batch.total_spread() > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_and_inactive_seeds(self, views, seeds, backend):
        # Cascades list the active seeds once each, in first-occurrence
        # order, and never reach an inactive node.
        view = views["residual"]
        active_seeds = list(dict.fromkeys(s for s in seeds if view.is_active(s)))
        batch = simulate_ic_batch(view, seeds, 120, 5, backend=backend)
        clean = simulate_ic_batch(view, active_seeds, 120, 5, backend="python")
        assert_same_batch(batch, clean)
        for j in range(len(batch)):
            members = batch.activated_at(j)
            assert members[: len(active_seeds)].tolist() == active_seeds
            assert np.unique(members).size == members.size
        assert view.active_mask[batch.nodes].all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mmapped_rgx_graph(self, graph, seeds, tmp_path, backend):
        from repro.graphs.binary import load_rgx, write_rgx

        path = tmp_path / "keyed.rgx"
        write_rgx(graph, path)
        mapped = load_rgx(path, mmap=True)
        assert mapped.out_csr()[1].dtype == np.uint32
        for removed in ([], range(0, 300, 4)):
            batch = simulate_ic_batch(
                ResidualGraph(mapped).without(removed), seeds, 200, 17, backend=backend
            )
            reference = simulate_ic_batch(
                ResidualGraph(graph).without(removed), seeds, 200, 17, backend="python"
            )
            assert_same_batch(batch, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_split_batches_concatenate(self, views, seeds, backend):
        view = views["residual"]
        key = 2**64 - 3
        whole = simulate_ic_batch(view, seeds, 240, key=key, backend=backend)
        head = simulate_ic_batch(view, seeds, 90, key=key, backend=backend)
        tail = simulate_ic_batch(view, seeds, 150, key=key, start=90, backend=backend)
        assert_same_batch(merge_mc_batches([head, tail]), whole)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_key_per_batch(self, views, seeds, backend):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        batch = simulate_ic_batch(views["full"], seeds, 50, rng, backend=backend)
        keyed = simulate_ic_batch(views["full"], seeds, 50, key=draw_key(twin))
        assert_same_batch(batch, keyed)
        assert rng.random() == twin.random()

    def test_no_seeds_still_draws_the_key(self, views):
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        batch = simulate_ic_batch(views["residual"], [0, 4], 10, rng)
        assert batch.spreads().tolist() == [0] * 10
        draw_key(twin)
        assert rng.random() == twin.random()

    def test_negative_start_rejected(self, views, seeds):
        with pytest.raises(ValidationError):
            simulate_ic_batch(views["full"], seeds, 5, key=1, start=-1)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [-1, 300])
    def test_seeds_outside_the_graph_rejected(self, views, backend, bad):
        # The kernels index their arrays with seed ids, so a negative or
        # too-large id is refused before any of them runs.
        view = views["full"]
        with pytest.raises(ValidationError, match="not a node id"):
            simulate_ic_batch(view, [5, bad], 10, 0, backend=backend)
        live = np.ones((2, view.base.m), dtype=bool)
        with pytest.raises(ValidationError, match="not a node id"):
            replay_live_edges(view, [bad], live, backend=backend)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("backend", ["vectorized", "native"])
    def test_pool_equals_one_call(self, views, seeds, n_jobs, backend, low_split_floor):
        if backend not in BACKENDS:
            pytest.skip("no C compiler on this machine")
        view = views["residual"]
        rng, twin = np.random.default_rng(42), np.random.default_rng(42)
        plain = simulate_ic_batch(view, seeds, 300, twin, backend="python")
        with SamplingPool(n_jobs=n_jobs) as pool:
            sharded = pool.simulate(view, seeds, 300, rng, backend=backend)
        assert_same_batch(sharded, plain)
        assert rng.random() == twin.random()


class TestStreamIsTheSpec:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view_name", ["full", "residual"])
    def test_cascades_replay_their_keyed_worlds(self, views, seeds, backend, view_name):
        view = views[view_name]
        key, start, count = 0xC0FFEE, 7, 150
        batch = simulate_ic_batch(
            view, seeds, count, key=key, start=start, backend=backend
        )
        live = keyed_live_rows(view.base, key, start, count)
        replayed = replay_live_edges(view, seeds, live, return_members=True)
        assert_same_batch(batch, replayed)


class TestDistribution:
    @pytest.mark.parametrize(
        "graph_name, seed_set, removed",
        [
            ("toy", [0], []),
            ("toy", [1, 5], []),
            ("toy", [0, 5], [2]),
            ("path4", [0], []),
            ("path4", [1], [3]),
        ],
    )
    def test_mean_spread_is_unbiased(self, graph_name, seed_set, removed):
        graph = toy_graph() if graph_name == "toy" else generators.path_graph(4)
        view = ResidualGraph(graph).without(removed)
        exact = exact_expected_spread(view, seed_set)
        count = 20000
        spreads = simulate_ic_batch(view, seed_set, count, 1234).spreads()
        sigma = spreads.std() / np.sqrt(count)
        assert abs(spreads.mean() - exact) <= 5.0 * sigma + 1e-12
