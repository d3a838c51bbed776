"""Differential tests: vectorized RR engine vs. its loop-based reference.

Three layers of checks:

1. **Bit-for-bit parity** — ``backend="vectorized"`` and
   ``backend="python"`` sample the same keyed RR stream (one key per
   batch; each root and coin a pure function of the key, the set index
   and the edge), so a shared seed must produce *identical* batches: same
   root sequence, same members, same discovery order.  The stop mask and
   the stream's own contract are covered by ``test_keyed_stream.py``.
2. **Collection parity** — :class:`FlatRRCollection` and the dict-indexed
   :class:`RRCollection` must answer every coverage/estimation query
   identically when built from the same sets.
3. **Statistical agreement** — the engine and the historical per-set path
   (``backend="legacy"``) consume randomness differently, so they are only
   required to agree in distribution; their spread estimates must match
   within Monte-Carlo tolerance, and engine estimates must match exact
   closed-form spreads on deterministic toy graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.graphs import generators
from repro.graphs.residual import ResidualGraph
from repro.graphs.weighting import weighted_cascade
from repro.sampling.engine import generate_rr_batch
from repro.sampling.flat_collection import FlatRRCollection
from repro.sampling.rr_collection import RRCollection
from repro.sampling.rr_sets import generate_rr_sets
from repro.utils.exceptions import ValidationError

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


class TestBackendParity:
    @pytest.mark.parametrize("seed", [0, 1, 17, 2020])
    def test_identical_batches_on_generated_graph(self, generated_view, seed):
        fast = generate_rr_batch(generated_view, 400, seed, backend="vectorized")
        reference = generate_rr_batch(generated_view, 400, seed, backend="python")
        assert np.array_equal(fast.offsets, reference.offsets)
        assert np.array_equal(fast.nodes, reference.nodes)
        assert fast.num_active_nodes == reference.num_active_nodes

    def test_identical_batches_on_toy_graphs(self, toy):
        graph, _ = toy
        fast = generate_rr_batch(graph, 300, 7, backend="vectorized")
        reference = generate_rr_batch(graph, 300, 7, backend="python")
        assert np.array_equal(fast.offsets, reference.offsets)
        assert np.array_equal(fast.nodes, reference.nodes)

    def test_same_root_sequence(self, generated_view):
        # Roots come from the keyed stream shared by both backends: set i
        # of one backend has the root (first member) of set i of the other.
        fast = generate_rr_batch(generated_view, 200, 3, backend="vectorized")
        reference = generate_rr_batch(generated_view, 200, 3, backend="python")
        roots_fast = [int(fast.set_at(i)[0]) for i in range(len(fast))]
        roots_ref = [int(reference.set_at(i)[0]) for i in range(len(reference))]
        assert roots_fast == roots_ref

    def test_explicit_roots_and_inactive_roots(self, path4):
        view = ResidualGraph(path4).without([1])
        for backend in ("vectorized", "python"):
            batch = generate_rr_batch(
                view, 3, 0, backend=backend, roots=[3, 1, 2]
            )
            sets = batch.to_sets()
            assert sets[0] == {2, 3}  # BFS from 3 stops at the removed node 1
            assert sets[1] == set()  # inactive root -> empty set
            assert sets[2] == {2}

    def test_empty_residual_graph(self, path4):
        view = ResidualGraph(path4).without([0, 1, 2, 3])
        for backend in ("vectorized", "python"):
            batch = generate_rr_batch(view, 5, 0, backend=backend)
            assert len(batch) == 5
            assert batch.to_sets() == [set()] * 5

    def test_unknown_backend_rejected(self, path4):
        with pytest.raises(ValidationError):
            generate_rr_batch(path4, 1, 0, backend="cuda")


class TestRegisteredBackendParity:
    """Every registered backend must be bit-for-bit the vectorized engine.

    Parametrized over whatever :func:`repro.kernels.available_backends`
    reports, so a machine with a C compiler runs the same assertions
    against the ``"native"`` kernels.
    """

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 2020])
    def test_identical_batches(self, generated_view, backend, seed):
        fast = generate_rr_batch(generated_view, 400, seed, backend=backend)
        reference = generate_rr_batch(generated_view, 400, seed, backend="vectorized")
        assert np.array_equal(fast.offsets, reference.offsets)
        assert np.array_equal(fast.nodes, reference.nodes)
        assert fast.num_active_nodes == reference.num_active_nodes

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_generator_end_state_is_shared(self, generated_view, backend):
        # Every backend draws one key per batch from the generator, so a
        # shared generator must end in the same state: the next draw agrees.
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        generate_rr_batch(generated_view, 150, rng_a, backend=backend)
        generate_rr_batch(generated_view, 150, rng_b, backend="vectorized")
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_auto_resolution_never_changes_batches(self, generated_view, backend):
        auto = generate_rr_batch(generated_view, 120, 5, backend="auto")
        named = generate_rr_batch(generated_view, 120, 5, backend=backend)
        assert np.array_equal(auto.offsets, named.offsets)
        assert np.array_equal(auto.nodes, named.nodes)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_mmapped_rgx_graph(self, generated_graph, tmp_path, backend):
        # Compiled backends must read the uint32 node arrays of an
        # mmap'd .rgx CSR in place and still match bit-for-bit.
        from repro.graphs.binary import load_rgx, write_rgx

        path = tmp_path / "generated.rgx"
        write_rgx(generated_graph, path)
        mapped = load_rgx(path, mmap=True)
        assert mapped.in_csr()[1].dtype == np.uint32
        view = ResidualGraph(mapped).without(range(80))
        fast = generate_rr_batch(view, 300, 17, backend=backend)
        in_ram = generate_rr_batch(
            ResidualGraph(generated_graph).without(range(80)),
            300,
            17,
            backend="vectorized",
        )
        assert np.array_equal(fast.offsets, in_ram.offsets)
        assert np.array_equal(fast.nodes, in_ram.nodes)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_collection_index(self, generated_view, backend):
        # The inverted index a collection builds over any backend's batch
        # must equal the one over the vectorized batch.
        collection = FlatRRCollection.generate(generated_view, 250, 23, backend=backend)
        reference = FlatRRCollection.generate(
            generated_view, 250, 23, backend="vectorized"
        )
        assert collection.num_sets == reference.num_sets
        assert np.array_equal(collection.sizes(), reference.sizes())
        assert np.array_equal(
            collection.nodes_appearing(), reference.nodes_appearing()
        )
        for probe in (100, 300, 599):
            assert np.array_equal(
                collection.sets_containing(probe), reference.sets_containing(probe)
            )

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_through_sampling_pool_multiworker(self, generated_view, backend, low_split_floor):
        # Every shard runs the named backend; two threads must reproduce
        # the single-call vectorized batch bit-for-bit.
        from repro.parallel.pool import SamplingPool

        with SamplingPool(n_jobs=2) as pool:
            sharded = pool.generate(generated_view, 256, 31, backend=backend)
        with SamplingPool(n_jobs=1) as pool:
            local = pool.generate(generated_view, 256, 31, backend="vectorized")
        assert np.array_equal(sharded.offsets, local.offsets)
        assert np.array_equal(sharded.nodes, local.nodes)


class TestCollectionParity:
    @pytest.fixture()
    def paired_collections(self, generated_view):
        batch = generate_rr_batch(generated_view, 600, 11)
        flat = FlatRRCollection(batch)
        legacy = RRCollection(batch.to_sets(), batch.num_active_nodes)
        return flat, legacy

    def test_counts_and_sizes(self, paired_collections):
        flat, legacy = paired_collections
        assert flat.num_sets == legacy.num_sets
        assert flat.num_active_nodes == legacy.num_active_nodes
        assert flat.total_size() == legacy.total_size()

    def test_coverage_queries_match(self, paired_collections, generated_view):
        flat, legacy = paired_collections
        rng = np.random.default_rng(5)
        active = generated_view.active_nodes()
        for size in (1, 3, 10):
            nodes = rng.choice(active, size=size, replace=False).tolist()
            assert flat.coverage(nodes) == legacy.coverage(nodes)
            assert np.array_equal(flat.covered_mask(nodes), legacy.covered_mask(nodes))
            probe = int(rng.choice(active))
            assert flat.marginal_coverage(probe, nodes) == legacy.marginal_coverage(
                probe, nodes
            )
            assert flat.estimate_spread(nodes) == pytest.approx(
                legacy.estimate_spread(nodes)
            )
            assert flat.estimate_marginal_spread(probe, nodes) == pytest.approx(
                legacy.estimate_marginal_spread(probe, nodes)
            )

    def test_sets_containing_match(self, paired_collections):
        flat, legacy = paired_collections
        for node in (100, 200, 300, 599):
            assert sorted(flat.sets_containing(node).tolist()) == sorted(
                legacy.sets_containing(node)
            )

    def test_extend_with_empty_batch_between_extends(self):
        # Regression: an empty pending batch must not corrupt the lazy
        # consolidation of a following extend.
        flat = FlatRRCollection.from_rr_sets([{0, 1}, {2}], num_active_nodes=3)
        flat.extend([])
        flat.extend([{1, 2}])
        assert flat.num_sets == 3
        assert flat.coverage([1]) == 2
        assert flat.sizes().tolist() == [2, 1, 2]

    def test_extend_matches(self, paired_collections):
        flat, legacy = paired_collections
        extra = [{90, 91}, {599}, set()]
        flat.extend(extra)
        legacy.extend(extra)
        assert flat.num_sets == legacy.num_sets
        assert flat.coverage([90]) == legacy.coverage([90])
        assert flat.coverage([599]) == legacy.coverage([599])
        assert np.array_equal(flat.covered_mask([91]), legacy.covered_mask([91]))


class TestStatisticalAgreement:
    def test_engine_matches_exact_spread_on_deterministic_path(self, path4):
        # probability-1 edges: every RR set rooted at r is {0..r}, so the
        # estimate of E[I({0})] is exactly n for every backend.
        for backend in ("vectorized", "python"):
            sets = generate_rr_sets(path4, 200, 0, backend=backend)
            collection = RRCollection(sets, path4.n)
            assert collection.estimate_spread([0]) == pytest.approx(4.0)

    def test_engine_unbiased_on_probabilistic_star(self):
        # star center with 5 leaves at probability 0.5: E[I({center})] = 3.5
        graph = generators.star_graph(6).with_uniform_probability(0.5)
        collection = FlatRRCollection.generate(graph, 12000, random_state=1)
        assert collection.estimate_spread([0]) == pytest.approx(3.5, abs=0.15)

    def test_engine_matches_legacy_spread_estimates(self, generated_graph):
        # Same estimator, different RNG consumption order: estimates must
        # agree within Monte-Carlo noise.
        seeds = [int(v) for v in np.argsort(-generated_graph.out_degrees)[:5]]
        theta = 6000
        legacy = RRCollection(
            generate_rr_sets(generated_graph, theta, 9, backend="legacy"),
            generated_graph.n,
        )
        engine = FlatRRCollection.generate(generated_graph, theta, 9)
        spread_legacy = legacy.estimate_spread(seeds)
        spread_engine = engine.estimate_spread(seeds)
        # ~3 standard errors of the coverage binomial at theta samples.
        fraction = max(legacy.estimate_fraction(seeds), 1e-9)
        tolerance = 3.0 * generated_graph.n * np.sqrt(fraction * (1 - fraction) / theta)
        assert abs(spread_engine - spread_legacy) <= tolerance

    def test_engine_width_matches_legacy_width(self, generated_graph):
        from repro.sampling.rr_sets import rr_set_sizes

        theta = 4000
        legacy_sizes = rr_set_sizes(
            generate_rr_sets(generated_graph, theta, 13, backend="legacy")
        )
        engine_sizes = generate_rr_batch(generated_graph, theta, 13).sizes()
        assert engine_sizes.mean() == pytest.approx(
            legacy_sizes.mean(), rel=0.15
        )
