"""The keyed RR stream: one batch whatever the backend, the sharding or the stop mask.

Every RR set is a pure function of the batch key and its index
(:mod:`repro.sampling.engine`), so these fixed-seed checks pin the
stream's contract rather than any one implementation:

1. **One batch per key** — ``python`` (the literal per-set spec),
   ``vectorized`` and ``native`` return identical batches, full or
   stop-truncated, on generated graphs, residual views, explicit roots
   and mmap'd ``.rgx`` graphs; a truncated set is its full set cut at the
   first stop member; sets ``[0, a)`` and ``[a, θ)`` under one key are the
   batch of θ sets.
2. **Hit-and-stop counts exactly** — ``marginal_count`` of a batch
   truncated at the estimator's stop mask equals the full batch's.
3. **The stream is the right distribution** — ``n·Cov(u | C)/θ`` is
   within 5σ of the exact marginal spread, and edge coins are independent
   across sets and across edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.estimation import conditioning_mask, marginal_count, stop_mask
from repro.core.oracle import ExactSpreadOracle
from repro.graphs import generators
from repro.graphs.residual import ResidualGraph
from repro.graphs.toy import toy_graph
from repro.graphs.weighting import weighted_cascade
from repro.sampling.engine import (
    GOLDEN,
    draw_key,
    generate_rr_batch,
    merge_rr_batches,
    mix64,
    mix64_int,
    set_hashes,
)

#: Every backend available on this machine; ``python`` is the reference.
BACKENDS = kernels.available_backends()


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade(generators.barabasi_albert(300, 3, random_state=8))


@pytest.fixture(scope="module")
def views(graph):
    full = ResidualGraph(graph)
    return {"full": full, "residual": full.without(range(0, 300, 4))}


def random_stop(n, fraction, seed):
    return np.random.default_rng(seed).random(n) < fraction


def assert_same_batch(batch, reference):
    assert np.array_equal(batch.offsets, reference.offsets)
    assert np.array_equal(batch.nodes, reference.nodes)
    assert batch.num_active_nodes == reference.num_active_nodes


class TestStreamDefinition:
    def test_mix64_is_the_splitmix64_finalizer(self):
        # SplitMix64 from state 0 outputs mix64(G), mix64(2G), mix64(3G).
        outputs = [mix64_int(i * GOLDEN) for i in (1, 2, 3)]
        assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        array = mix64(np.array([GOLDEN, 2 * GOLDEN % 2**64], dtype=np.uint64))
        assert array.tolist() == outputs[:2]

    def test_roots_follow_the_set_hash(self, views):
        view = views["residual"]
        batch = generate_rr_batch(view, 200, key=77, start=13)
        active = view.active_nodes()
        for j in range(200):
            u53 = (mix64_int(mix64_int(77 + (13 + j) * GOLDEN)) >> 11) * 2.0**-53
            index = min(int(u53 * active.size), active.size - 1)
            assert batch.set_at(j)[0] == active[index]

    def test_one_key_per_batch(self, views):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        batch = generate_rr_batch(views["full"], 50, rng)
        keyed = generate_rr_batch(views["full"], 50, key=draw_key(twin))
        assert_same_batch(batch, keyed)
        assert rng.random() == twin.random()


class TestOneBatchPerKey:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("view_name", ["full", "residual"])
    @pytest.mark.parametrize("fraction", [None, 0.01, 0.2])
    def test_backends_agree(self, views, backend, view_name, fraction):
        view = views[view_name]
        stop = None if fraction is None else random_stop(view.n, fraction, 5)
        batch = generate_rr_batch(view, 300, 2020, backend=backend, stop=stop)
        reference = generate_rr_batch(view, 300, 2020, backend="python", stop=stop)
        assert_same_batch(batch, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generator_end_state_is_shared(self, views, backend):
        rngs = [np.random.default_rng(99), np.random.default_rng(99)]
        stop = random_stop(300, 0.05, 1)
        generate_rr_batch(views["residual"], 150, rngs[0], backend=backend, stop=stop)
        generate_rr_batch(views["residual"], 150, rngs[1], backend="python")
        assert rngs[0].random() == rngs[1].random()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explicit_roots_including_inactive_ones(self, views, backend):
        view = views["residual"]
        roots = np.arange(160) % view.n  # every fourth id is inactive
        stop = random_stop(view.n, 0.1, 2)
        for mask in (None, stop):
            batches = [
                generate_rr_batch(view, 160, 4, backend=name, roots=roots, stop=mask)
                for name in (backend, "python")
            ]
            assert_same_batch(*batches)
            batch = batches[0]
            for j in range(0, 160, 4):
                assert batch.set_at(j).size == 0
            for j in range(1, 160, 4):
                assert batch.set_at(j)[0] == roots[j]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mmapped_rgx_graph(self, graph, tmp_path, backend):
        from repro.graphs.binary import load_rgx, write_rgx

        path = tmp_path / "keyed.rgx"
        write_rgx(graph, path)
        mapped = load_rgx(path, mmap=True)
        assert mapped.in_csr()[1].dtype == np.uint32
        stop = random_stop(graph.n, 0.05, 3)
        mapped_view = ResidualGraph(mapped).without(range(40))
        in_ram_view = ResidualGraph(graph).without(range(40))
        for mask in (None, stop):
            batch = generate_rr_batch(mapped_view, 250, 17, backend=backend, stop=mask)
            reference = generate_rr_batch(
                in_ram_view, 250, 17, backend="python", stop=mask
            )
            assert_same_batch(batch, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncated_sets_are_prefixes_of_full_sets(self, views, backend):
        view = views["full"]
        stop = random_stop(view.n, 0.1, 6)
        full = generate_rr_batch(view, 400, 11, backend=backend)
        cut = generate_rr_batch(view, 400, 11, backend=backend, stop=stop)
        for j in range(400):
            members = full.set_at(j)
            hits = np.flatnonzero(stop[members])
            end = members.size if hits.size == 0 else hits[0] + 1
            assert np.array_equal(cut.set_at(j), members[:end])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_split_batches_concatenate(self, views, backend):
        view = views["residual"]
        stop = random_stop(view.n, 0.05, 7)
        key = 2**64 - 3
        for mask in (None, stop):
            whole = generate_rr_batch(view, 240, key=key, backend=backend, stop=mask)
            head = generate_rr_batch(view, 90, key=key, backend=backend, stop=mask)
            tail = generate_rr_batch(
                view, 150, key=key, start=90, backend=backend, stop=mask
            )
            assert_same_batch(merge_rr_batches([head, tail]), whole)


class TestHitAndStopCounts:
    @staticmethod
    def counts(view, node, conditioning, backend, roots=None):
        mask = conditioning_mask(view.n, conditioning, node)
        full = generate_rr_batch(view, 600, 31, backend=backend, roots=roots)
        cut = generate_rr_batch(
            view, 600, 31, backend=backend, roots=roots, stop=stop_mask(mask, node)
        )
        return marginal_count(cut, node, mask), marginal_count(full, node, mask)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", [0, 1, 5, 20])
    def test_truncated_count_equals_full_count(self, graph, views, backend, size):
        hubs = [int(v) for v in np.argsort(-graph.out_degrees)]
        for view in views.values():
            node = next(v for v in hubs if view.is_active(v))
            conditioning = [v for v in hubs if v != node][:size]
            truncated, full = self.counts(view, node, conditioning, backend)
            assert truncated == full
            if size == 0:
                assert full > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roots_in_the_conditioning_set(self, graph, views, backend):
        # The first ten sets' roots join C, so those sets stop at their root.
        view = views["full"]
        first = generate_rr_batch(view, 600, 31)
        roots = first.nodes[first.offsets[:10]]
        node = int(np.argmax(graph.out_degrees))
        conditioning = [int(r) for r in roots if r != node]
        truncated, full = self.counts(view, node, conditioning, backend)
        assert truncated == full

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_inactive_and_unreachable_nodes_count_zero(self, graph, views, backend):
        view = views["residual"]
        inactive = 0
        assert not view.is_active(inactive)
        assert self.counts(view, inactive, [1, 2], backend) == (0, 0)
        # An unreachable node: its out-neighbours are removed, so it is only
        # ever in a set rooted at itself, and the explicit roots avoid it.
        node = 5
        isolated = view.without(graph.out_neighbors(node)[0])
        active = isolated.active_nodes()
        roots = np.resize(active[active != node], 600)
        for conditioning in ([], [1, 2, 3]):
            assert self.counts(isolated, node, conditioning, backend, roots) == (0, 0)


class TestDistribution:
    @pytest.mark.parametrize(
        "graph_name, node, conditioning",
        [
            ("toy", 0, []),
            ("toy", 0, [3]),
            ("toy", 2, [1, 4]),
            ("path4", 0, [2]),
            ("path4", 1, []),
        ],
    )
    def test_marginal_estimate_is_unbiased(self, graph_name, node, conditioning):
        graph = toy_graph() if graph_name == "toy" else generators.path_graph(4)
        exact = ExactSpreadOracle().marginal_spread(graph, node, conditioning)
        mask = conditioning_mask(graph.n, conditioning, node)
        theta = 20000
        batch = generate_rr_batch(graph, theta, 1234, stop=stop_mask(mask, node))
        estimate = graph.n * marginal_count(batch, node, mask) / theta
        fraction = exact / graph.n
        sigma = graph.n * np.sqrt(fraction * (1.0 - fraction) / theta)
        assert abs(estimate - exact) <= 5.0 * sigma + 1e-12

    def test_edge_coins_are_independent(self):
        graph = toy_graph()
        probs = graph.in_csr()[2]
        thresholds = kernels.coin_thresholds(probs)
        sets = 40000
        hashes = set_hashes(0xC0FFEE, 0, sets)[:, None]
        edges = np.arange(1, probs.size + 1, dtype=np.uint64)[None, :]
        # The spec's coin of edge e in set j: mix64(h_j + (e+1)·G) >> 11.
        live = (mix64(hashes + edges * np.uint64(GOLDEN)) >> np.uint64(11)) < thresholds
        for e, p in enumerate(probs):
            sigma = np.sqrt(p * (1 - p) / sets)
            assert abs(live[:, e].mean() - p) <= 5 * sigma
        expected = np.outer(probs, probs)
        sigma = np.sqrt(expected * (1 - expected) / sets)
        across_edges = live.T.astype(float) @ live.astype(float) / sets
        off_diagonal = ~np.eye(probs.size, dtype=bool)
        deviation = np.abs(across_edges - expected)
        assert np.all(deviation[off_diagonal] <= 5 * sigma[off_diagonal])
        pairs = sets - 1
        across_sets = live[:-1].T.astype(float) @ live[1:].astype(float) / pairs
        sigma = np.sqrt(expected * (1 - expected) / pairs)
        assert np.all(np.abs(across_sets - expected) <= 5 * sigma)
