"""Random reverse-reachable (RR) set generation.

Reverse influence sampling (RIS, Borgs et al. 2014) is the estimation engine
behind the paper's noise-model algorithms.  A random RR set is built by

1. picking a root node uniformly at random among the nodes of the (residual)
   graph, and
2. running a reverse BFS from the root in which each incoming edge is
   traversed independently with its propagation probability.

The fundamental RIS identity is
``E[I_G(S)] = n * Pr[S intersects a random RR set]``,
so the fraction of RR sets a seed set covers is an unbiased spread
estimator.  On a residual graph ``G_i`` the same identity holds with ``n_i``
(the number of remaining nodes) in place of ``n`` — which is exactly how
Algorithms 3 and 4 scale their coverage counts.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Set

import numpy as np

from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng


def generate_rr_set(
    view: ResidualGraph,
    rng: np.random.Generator,
    root: Optional[int] = None,
    active_nodes: Optional[np.ndarray] = None,
) -> Set[int]:
    """Generate one random RR set on ``view``.

    Parameters
    ----------
    view:
        Residual graph to sample on.
    rng:
        Random generator (coin flips and root selection).
    root:
        Optional fixed root (otherwise drawn uniformly from active nodes).
    active_nodes:
        Precomputed ``view.active_nodes()`` array; passing it avoids
        recomputing the mask when generating many RR sets in a loop.

    Returns
    -------
    set of int
        The nodes that reach the root through live edges (including the root
        itself).  Empty when the residual graph has no active node.
    """
    if root is None:
        if active_nodes is None:
            active_nodes = view.active_nodes()
        if active_nodes.size == 0:
            return set()
        root = int(active_nodes[rng.integers(0, active_nodes.size)])
    elif not view.is_active(int(root)):
        return set()

    rr_set: Set[int] = {int(root)}
    queue: deque[int] = deque([int(root)])
    while queue:
        node = queue.popleft()
        sources, probs, _ = view.in_neighbors(node)
        if sources.size == 0:
            continue
        flips = rng.random(sources.size) < probs
        for source, success in zip(sources.tolist(), flips.tolist()):
            if success and source not in rr_set:
                rr_set.add(source)
                queue.append(source)
    return rr_set


def generate_rr_sets(
    graph: ProbabilisticGraph | ResidualGraph,
    count: int,
    random_state: RandomState = None,
    backend: str = "vectorized",
) -> List[Set[int]]:
    """Generate ``count`` independent random RR sets on ``graph``.

    ``backend`` selects the sampling engine: ``"vectorized"`` (default) and
    ``"python"`` route through the batched engine of
    :mod:`repro.sampling.engine` and materialise its flat output as Python
    sets; ``"legacy"`` runs the per-set BFS of :func:`generate_rr_set`
    (one sequential RNG stream per batch, kept for reference and
    differential testing).
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if backend not in ("vectorized", "python", "legacy"):
        raise ValidationError(
            f"unknown backend {backend!r}; available: vectorized, python, legacy"
        )
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    if backend != "legacy":
        from repro.sampling.engine import generate_rr_batch

        return generate_rr_batch(view, count, random_state, backend=backend).to_sets()
    rng = ensure_rng(random_state)
    active = view.active_nodes()
    return [generate_rr_set(view, rng, active_nodes=active) for _ in range(count)]


def rr_set_sizes(rr_sets: Iterable[Set[int]]) -> np.ndarray:
    """Array of RR-set sizes (useful for EPT-style cost accounting)."""
    return np.asarray([len(rr) for rr in rr_sets], dtype=np.int64)


def expected_rr_width(
    graph: ProbabilisticGraph | ResidualGraph,
    num_samples: int = 200,
    random_state: RandomState = None,
) -> float:
    """Empirical mean RR-set size, an estimate of the EPT quantity.

    The paper's complexity analysis (Theorem 3/5) is phrased in terms of the
    expected cost of generating one RR set; this helper measures it.
    """
    from repro.sampling.engine import generate_rr_batch

    sizes = generate_rr_batch(graph, num_samples, random_state).sizes()
    return float(sizes.mean()) if sizes.size else 0.0
