"""Shared fixtures for the test suite.

Fixtures are deliberately tiny: the unit tests exercise exact quantities on
graphs with a handful of edges, and the integration tests use a ~100-node
dataset proxy that keeps the whole suite in the tens of seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.targets import build_spread_calibrated_instance
from repro.graphs import generators
from repro.graphs.datasets import load_proxy
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.toy import toy_costs, toy_graph


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic RNG for each test."""
    return np.random.default_rng(0)


@pytest.fixture
def path4() -> ProbabilisticGraph:
    """Deterministic path 0 → 1 → 2 → 3 with probability 1 edges."""
    return generators.path_graph(4)


@pytest.fixture
def star6() -> ProbabilisticGraph:
    """Star with center 0 and 5 leaves, probability 1 edges."""
    return generators.star_graph(6)


@pytest.fixture
def diamond() -> ProbabilisticGraph:
    """4-node diamond with mixed probabilities (small enough for enumeration).

    Edges: 0→1 (0.5), 0→2 (0.5), 1→3 (1.0), 2→3 (1.0).
    """
    return ProbabilisticGraph.from_edge_list(
        [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0), (2, 3, 1.0)], n=4, name="diamond"
    )


@pytest.fixture
def toy():
    """The Fig. 1 toy graph and its costs."""
    return toy_graph(), toy_costs()


@pytest.fixture(scope="session")
def small_proxy() -> ProbabilisticGraph:
    """A ~120-node NetHEPT proxy with weighted-cascade probabilities."""
    return load_proxy("nethept", nodes=120, random_state=7)


@pytest.fixture(scope="session")
def small_instance(small_proxy):
    """A spread-calibrated TPM instance (k=6) on the small proxy."""
    return build_spread_calibrated_instance(
        small_proxy, k=6, cost_setting="degree", num_rr_sets=500, random_state=11
    )


@pytest.fixture
def low_split_floor(monkeypatch):
    """Split every sampling batch of 64 or more items over the pool's threads.

    The shipped :data:`~repro.parallel.pool.MIN_SPLIT` keeps test-sized
    batches in one call; lowering it runs the threaded path on them.
    """
    from repro.parallel import pool

    monkeypatch.setattr(pool, "MIN_SPLIT", 64)
