"""Downsized node storage of :class:`FlatRRCollection` (uint32 + guard).

The collection stores RR-set members as ``uint32`` whenever the node-id
universe fits below ``2**32`` (offsets stay int64).  These tests pin the
dtype itself, its stability across every growth path — ``extend``,
``extend_generate``, and the parallel pool's merge path — the upcast
overflow guard, and that queries are unaffected by the representation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade
from repro.parallel import SamplingPool
from repro.sampling.coverage import CoverageCounter
from repro.sampling.engine import RRBatch, generate_rr_batch
from repro.sampling.flat_collection import FlatRRCollection, _node_storage_dtype


@pytest.fixture(scope="module")
def dtype_graph():
    return weighted_cascade(generators.barabasi_albert(500, 3, random_state=19))


class TestStorageDtype:
    def test_small_universe_uses_uint32(self, dtype_graph):
        collection = FlatRRCollection.generate(dtype_graph, 300, 0)
        offsets, nodes = collection.flat()
        assert nodes.dtype == np.uint32
        assert offsets.dtype == np.int64

    def test_dtype_stable_across_extend_generate(self, dtype_graph):
        collection = FlatRRCollection.generate(dtype_graph, 200, 0)
        collection.extend_generate(dtype_graph, 150, 1)
        collection.extend([{1, 2}, {3}])
        assert collection.flat()[1].dtype == np.uint32

    def test_dtype_stable_through_pool_merge_path(self, dtype_graph, low_split_floor):
        with SamplingPool(n_jobs=2) as pool:
            collection = FlatRRCollection.generate(dtype_graph, 400, 0, pool=pool)
            assert collection.flat()[1].dtype == np.uint32
            collection.extend_generate(dtype_graph, 200, 1, pool=pool)
            assert collection.flat()[1].dtype == np.uint32

    def test_overflow_guard_selects_int64(self):
        assert _node_storage_dtype(2**32 - 1) == np.uint32
        assert _node_storage_dtype(2**32) == np.int64
        assert _node_storage_dtype(2**40) == np.int64

    def test_upcast_when_universe_outgrows_uint32(self):
        collection = FlatRRCollection.from_rr_sets([{0, 1}, {2}], num_active_nodes=3)
        assert collection.flat()[1].dtype == np.uint32
        huge = RRBatch(
            offsets=np.asarray([0, 1], dtype=np.int64),
            nodes=np.asarray([2], dtype=np.int64),
            num_active_nodes=3,
            n=2**33,
        )
        # flat() consolidates (exercising the upcast) without building the
        # inverted index, which would be O(n) in the huge universe.
        collection.extend(huge)
        offsets, nodes = collection.flat()
        assert nodes.dtype == np.int64
        assert collection.num_sets == 3
        assert collection.sizes().tolist() == [2, 1, 1]
        assert set(collection.set_at(2).tolist()) == {2}


class TestQueriesUnaffected:
    def test_queries_match_int64_batch(self, dtype_graph):
        batch = generate_rr_batch(dtype_graph, 400, 7)
        collection = FlatRRCollection(batch)
        nodes = collection.flat()[1]
        assert nodes.dtype == np.uint32
        assert np.array_equal(nodes, batch.nodes)  # values identical
        probe = int(batch.nodes[0])
        assert collection.coverage([probe]) == int(
            np.count_nonzero(collection.covered_mask([probe]))
        )
        counter = CoverageCounter(collection)
        counter.add([probe])
        assert counter.coverage() == collection.coverage([probe])
        assert counter.marginal_count(probe) >= 0

    def test_memory_halved_vs_int64(self, dtype_graph):
        collection = FlatRRCollection.generate(dtype_graph, 300, 3)
        nodes = collection.flat()[1]
        assert nodes.nbytes * 2 == nodes.astype(np.int64).nbytes
