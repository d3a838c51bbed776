"""Reuse-contract tests: extension prefix identity and extend-aware index.

Two halves of the sample-reuse contract live here:

* ``extend_generate`` appends new RR sets without disturbing the existing
  ones — the first ``θ_old`` sets of an extended collection are
  bit-identical to an unextended collection drawn from the same stream;
* the inverted index is merged incrementally on extension, and every
  query on the merged index agrees with a collection rebuilt from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.residual import as_residual
from repro.graphs.weighting import weighted_cascade
from repro.parallel.pool import SamplingPool
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.exceptions import ValidationError


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade(generators.barabasi_albert(200, 3, random_state=0))


class TestExtensionPrefixIdentity:
    def test_first_sets_bit_identical_to_unextended(self, graph):
        rng_extended = np.random.default_rng(21)
        rng_plain = np.random.default_rng(21)
        extended = FlatRRCollection.generate(graph, 400, rng_extended)
        extended.extend_generate(graph, 250, rng_extended)
        plain = FlatRRCollection.generate(graph, 400, rng_plain)
        ext_offsets, ext_nodes = extended.flat()
        plain_offsets, plain_nodes = plain.flat()
        assert extended.num_sets == 650
        assert np.array_equal(ext_offsets[: 400 + 1], plain_offsets)
        assert np.array_equal(ext_nodes[: int(plain_offsets[-1])], plain_nodes)

    def test_extension_equals_fresh_generation_from_same_stream(self, graph):
        rng_extended = np.random.default_rng(33)
        rng_twin = np.random.default_rng(33)
        extended = FlatRRCollection.generate(graph, 300, rng_extended)
        extended.extend_generate(graph, 200, rng_extended)
        FlatRRCollection.generate(graph, 300, rng_twin)  # burn the same prefix
        tail = FlatRRCollection.generate(graph, 200, rng_twin)
        for index in range(200):
            assert np.array_equal(
                extended.set_at(300 + index), tail.set_at(index)
            )

    def test_extension_through_pool_matches_in_process(self, graph, low_split_floor):
        rng_pool = np.random.default_rng(5)
        rng_serial = np.random.default_rng(5)
        pooled = FlatRRCollection.generate(graph, 200, rng_pool)
        with SamplingPool(n_jobs=2) as pool:
            pooled.extend_generate(graph, 150, rng_pool, pool=pool)
        serial = FlatRRCollection.generate(graph, 200, rng_serial)
        serial.extend_generate(graph, 150, rng_serial, n_jobs=1)
        pooled_offsets, pooled_nodes = pooled.flat()
        serial_offsets, serial_nodes = serial.flat()
        assert np.array_equal(pooled_offsets, serial_offsets)
        assert np.array_equal(pooled_nodes, serial_nodes)

    def test_rejects_mismatched_residual_state(self, graph):
        collection = FlatRRCollection.generate(graph, 50, 0)
        residual = as_residual(graph).without([0, 1, 2])
        with pytest.raises(ValidationError):
            collection.extend_generate(residual, 10, 0)

    def test_zero_count_extension_is_a_noop(self, graph):
        rng = np.random.default_rng(9)
        collection = FlatRRCollection.generate(graph, 50, rng)
        state = rng.bit_generator.state
        collection.extend_generate(graph, 0, rng)
        assert collection.num_sets == 50
        assert rng.bit_generator.state == state  # no randomness consumed

    def test_negative_count_rejected(self, graph):
        collection = FlatRRCollection.generate(graph, 10, 0)
        with pytest.raises(ValidationError):
            collection.extend_generate(graph, -1, 0)


class TestExtendAwareIndex:
    def random_sets(self, count, n, rng):
        return [
            rng.choice(n, size=rng.integers(1, 9), replace=False).tolist()
            for _ in range(count)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_merged_index_equals_rebuilt_index(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        chunks = [self.random_sets(rng.integers(5, 30), n, rng) for _ in range(4)]
        collection = FlatRRCollection.from_rr_sets(
            chunks[0], num_active_nodes=n, n=n
        )
        collection.sets_containing(0)  # force the initial index build
        accumulated = list(chunks[0])
        for chunk in chunks[1:]:
            collection.extend(chunk)
            accumulated.extend(chunk)
            rebuilt = FlatRRCollection.from_rr_sets(
                accumulated, num_active_nodes=n, n=n
            )
            for node in range(n):
                assert np.array_equal(
                    collection.sets_containing(node),
                    rebuilt.sets_containing(node),
                ), node
            assert np.array_equal(
                collection.nodes_appearing(), rebuilt.nodes_appearing()
            )

    def test_merge_after_universe_growth(self):
        collection = FlatRRCollection.from_rr_sets([{0, 1}], num_active_nodes=2, n=2)
        collection.sets_containing(0)
        collection.extend([{3, 4}])  # grows the node-id universe
        assert collection.n == 5
        assert collection.sets_containing(3).tolist() == [1]
        assert collection.sets_containing(0).tolist() == [0]

    def test_queries_unchanged_by_when_index_is_built(self):
        rng = np.random.default_rng(17)
        n = 30
        first = self.random_sets(20, n, rng)
        second = self.random_sets(15, n, rng)
        eager = FlatRRCollection.from_rr_sets(first, num_active_nodes=n, n=n)
        eager.coverage([0, 1])  # index built before the extension
        eager.extend(second)
        lazy = FlatRRCollection.from_rr_sets(first, num_active_nodes=n, n=n)
        lazy.extend(second)  # index built after, in one shot
        probe = {int(v) for v in rng.permutation(n)[:6]}
        for node in range(n):
            assert eager.marginal_coverage(node, probe) == lazy.marginal_coverage(
                node, probe
            )
        assert eager.coverage(probe) == lazy.coverage(probe)
