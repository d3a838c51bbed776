"""Differential tests of the count-only front/rear estimator.

:class:`FrontRearEstimator` counts ``Cov(u | C)`` straight from each RR
batch.  The reference below is the collection-based estimator it
replaced: it draws full (never stop-truncated) batches into
:class:`~repro.sampling.flat_collection.FlatRRCollection` objects
(``generate`` every round, or, when reusing, one key per side whose next
sets ``extend`` the collections) and asks the collection's inverted
index for ``estimate_marginal_spread``.  Both start from the same seed,
so every round's ``(front, rear, generated)`` and the RNG state after
the last round must agree exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.estimation import FrontRearEstimator, conditioning_mask, marginal_count
from repro.graphs import generators
from repro.graphs.residual import as_residual
from repro.graphs.weighting import weighted_cascade
from repro.parallel import SamplingPool
from repro.sampling.engine import draw_key, generate_rr_batch
from repro.sampling.flat_collection import FlatRRCollection, dispatch_generate

AVAILABLE_BACKENDS = kernels.available_backends()

#: θ per round, with a round that does not grow (a capped schedule).
THETAS = (40, 90, 90, 200)


class ReferenceEstimator:
    """The collection + inverted-index estimator, round by round."""

    def __init__(self, view, node, front, rear, rng, pool, reuse, backend):
        self.args = (view, rng)
        self.kwargs = dict(backend=backend, pool=pool)
        self.node, self.front, self.rear, self.reuse = node, front, rear, reuse
        self.collections = None

    def _draw(self, count, key, start):
        view, rng = self.args
        return dispatch_generate(
            view, count, rng, self.kwargs["backend"], None, self.kwargs["pool"],
            key=key, start=start,
        )

    def estimates(self, theta):
        view, rng = self.args
        if self.reuse and self.collections is not None:
            extra = theta - self.collections[0].num_sets
            generated = 0
            if extra > 0:
                for collection, key in zip(self.collections, self.keys):
                    collection.extend(self._draw(extra, key, collection.num_sets))
                generated = 2 * extra
        elif self.reuse:
            self.keys = [draw_key(rng), draw_key(rng)]
            self.collections = [
                FlatRRCollection(self._draw(theta, key, 0)) for key in self.keys
            ]
            generated = 2 * theta
        else:
            self.collections = [
                FlatRRCollection.generate(view, theta, rng, **self.kwargs)
                for _ in range(2)
            ]
            generated = 2 * theta
        front, rear = self.collections
        return (
            front.estimate_marginal_spread(self.node, self.front),
            rear.estimate_marginal_spread(self.node, self.rear),
            generated,
        )


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade(generators.barabasi_albert(60, 2, random_state=4))


def _cases(graph):
    view = as_residual(graph)
    hubs = [int(v) for v in np.argsort(-graph.out_degrees)[:6]]
    node = hubs[0]
    in_neighbours = [int(v) for v in graph.in_neighbors(node)[0]]
    return {
        # First iteration: S is empty, T \ {u} is the rest of the target.
        "empty-front": (view, node, [], hubs[1:]),
        "conditioning-holds-node": (view, node, [node, hubs[1]], set(hubs)),
        # A removed node is in no RR set of the view.
        "node-in-no-set": (view.without([hubs[2]]), hubs[2], hubs[:2], hubs[3:]),
        "in-neighbours-removed": (view.without(in_neighbours), node, hubs[1:3], hubs[3:]),
        "no-active-node": (view.without(range(graph.n)), node, hubs[1:3], hubs[3:]),
    }


CASES = (
    "empty-front",
    "conditioning-holds-node",
    "node-in-no-set",
    "in-neighbours-removed",
    "no-active-node",
)


def _compare(case, backend, reuse, pool=None):
    view, node, front, rear = case
    rounds, rngs = [], []
    for cls in (FrontRearEstimator, ReferenceEstimator):
        rng = np.random.default_rng(2020)
        estimator = cls(view, node, front, rear, rng, pool, reuse, backend)
        rounds.append([estimator.estimates(theta) for theta in THETAS])
        rngs.append(rng.random())
    assert rounds[0] == rounds[1]
    assert rngs[0] == rngs[1]
    return rounds[0]


@pytest.mark.parametrize("reuse", [False, True], ids=["regenerate", "reuse"])
@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
@pytest.mark.parametrize("name", CASES)
def test_matches_collection_reference(name, backend, reuse, graph):
    rounds = _compare(_cases(graph)[name], backend, reuse)
    generated = [round_[2] for round_ in rounds]
    if reuse:
        assert generated == [80, 100, 0, 220]
    else:
        assert generated == [2 * theta for theta in THETAS]
    if name in ("node-in-no-set", "no-active-node"):
        assert all(round_[:2] == (0.0, 0.0) for round_ in rounds)
    else:
        assert any(round_[0] > 0 for round_ in rounds)


@pytest.mark.parametrize("reuse", [False, True], ids=["regenerate", "reuse"])
def test_repro_jobs_routing_matches(reuse, graph, monkeypatch):
    # REPRO_JOBS routes both through the same dispatch; one job stays in-process.
    monkeypatch.setenv("REPRO_JOBS", "1")
    _compare(_cases(graph)["empty-front"], None, reuse)


def test_pool_routing_matches(graph):
    with SamplingPool(graph, n_jobs=2, directions=("in",)) as pool:
        for reuse in (False, True):
            _compare(_cases(graph)["conditioning-holds-node"], None, reuse, pool)


def test_marginal_count_excludes_the_node(graph):
    batch = generate_rr_batch(graph, 500, 9)
    collection = FlatRRCollection(batch)
    node = int(np.argmax(graph.out_degrees))
    for conditioning in ([], [node], [node, 1, 2], list(range(graph.n))):
        mask = conditioning_mask(graph.n, conditioning, node)
        assert marginal_count(batch, node, mask) == collection.marginal_coverage(
            node, conditioning
        )
    assert not conditioning_mask(graph.n, [node, -1, graph.n], node).any()
