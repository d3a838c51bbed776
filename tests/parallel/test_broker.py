"""Shared-memory broker: publish/attach round-trips, engine parity, cleanup."""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.residual import ResidualGraph
from repro.graphs.weighting import weighted_cascade
from repro.parallel.broker import SharedGraphBroker, attach_shared_graph
from repro.sampling.engine import generate_rr_batch


@pytest.fixture(scope="module")
def published_graph():
    """A ~250-node heavy-tailed graph under weighted cascade."""
    return weighted_cascade(generators.barabasi_albert(250, 3, random_state=11))


class TestPublishAttach:
    def test_attached_arrays_match_source(self, published_graph):
        with SharedGraphBroker(published_graph) as broker:
            graph, handles = attach_shared_graph(broker.spec)
            try:
                for attached, source in (
                    (graph.in_csr(), published_graph.in_csr()),
                    (graph.out_csr(), published_graph.out_csr()),
                ):
                    for a, b in zip(attached, source):
                        assert np.array_equal(a, b)
                assert graph.n == published_graph.n
                assert graph.m == published_graph.m
                assert graph.name == published_graph.name
            finally:
                del graph
                for handle in handles:
                    handle.close()

    def test_attached_graph_samples_like_the_source(self, published_graph):
        """The resurrected graph is indistinguishable to the engine."""
        real_view = ResidualGraph(published_graph).without(range(30))
        with SharedGraphBroker(published_graph) as broker:
            graph, handles = attach_shared_graph(broker.spec)
            try:
                shared_view = ResidualGraph(graph).without(range(30))
                for backend in ("vectorized", "python"):
                    expected = generate_rr_batch(real_view, 150, 13, backend=backend)
                    actual = generate_rr_batch(shared_view, 150, 13, backend=backend)
                    assert np.array_equal(expected.offsets, actual.offsets)
                    assert np.array_equal(expected.nodes, actual.nodes)
                    assert expected.num_active_nodes == actual.num_active_nodes
            finally:
                del graph, shared_view
                for handle in handles:
                    handle.close()

    def test_close_unlinks_segments(self, published_graph):
        broker = SharedGraphBroker(published_graph)
        names = [spec.name for spec in broker.spec.arrays.values()]
        broker.close()
        assert broker.closed
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        broker.close()  # idempotent
        assert broker.closed

    def test_finalizer_unlinks_on_gc(self, published_graph):
        broker = SharedGraphBroker(published_graph)
        name = broker.spec.arrays["in_offsets"].name
        del broker
        import gc

        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
