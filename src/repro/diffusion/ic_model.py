"""Forward simulation of the Independent Cascade (IC) model.

The IC process (Kempe et al., 2003) starts with a seed set active at time 0.
Each newly activated node gets exactly one chance to activate each of its
inactive out-neighbours, succeeding independently with the edge's
probability.  The process stops when no new activation happens.

Simulating the process directly is equivalent to sampling a realization and
taking the live-edge reachable set, but a direct simulation only flips the
coins it actually needs, which is what :func:`simulate_ic` does.

:func:`simulate_ic` and :func:`cascade_trace` run one cascade at a time,
drawing each node's coins from the caller's generator.  Monte-Carlo
callers that need many cascades per query go through the batched engine
(:mod:`repro.diffusion.mc_engine`), which draws them from its keyed
cascade stream instead.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Set

from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.utils.rng import RandomState, ensure_rng


def simulate_ic(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Iterable[int],
    random_state: RandomState = None,
) -> Set[int]:
    """Run one IC cascade from ``seeds`` and return the activated node set.

    ``graph`` may be a full graph or a residual view; propagation never
    enters inactive nodes.  Seeds outside the residual graph are ignored.
    The returned set includes the (active) seeds.
    """
    rng = ensure_rng(random_state)
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph

    activated: Set[int] = set()
    frontier: deque[int] = deque()
    for seed in seeds:
        seed = int(seed)
        if view.is_active(seed) and seed not in activated:
            activated.add(seed)
            frontier.append(seed)

    while frontier:
        node = frontier.popleft()
        targets, probs, _ = view.out_neighbors(node)
        if targets.size == 0:
            continue
        flips = rng.random(targets.size) < probs
        for target, success in zip(targets.tolist(), flips.tolist()):
            if success and target not in activated:
                activated.add(target)
                frontier.append(target)
    return activated


def simulate_ic_spread(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Iterable[int],
    random_state: RandomState = None,
) -> int:
    """Spread (number of activated nodes) of one IC cascade."""
    return len(simulate_ic(graph, seeds, random_state))


def cascade_trace(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Iterable[int],
    random_state: RandomState = None,
) -> list[Set[int]]:
    """Run one IC cascade and return the newly activated nodes per time step.

    ``result[0]`` is the (active) seed set, ``result[t]`` the nodes first
    activated during step ``t``.  Useful for visualisation and for testing
    the discrete-time semantics of the model.
    """
    rng = ensure_rng(random_state)
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph

    activated: Set[int] = set()
    current: Set[int] = set()
    for seed in seeds:
        seed = int(seed)
        if view.is_active(seed):
            current.add(seed)
            activated.add(seed)
    steps: list[Set[int]] = [set(current)]

    while current:
        next_wave: Set[int] = set()
        for node in current:
            targets, probs, _ = view.out_neighbors(node)
            if targets.size == 0:
                continue
            flips = rng.random(targets.size) < probs
            for target, success in zip(targets.tolist(), flips.tolist()):
                if success and target not in activated:
                    activated.add(target)
                    next_wave.add(target)
        if next_wave:
            steps.append(next_wave)
        current = next_wave
    return steps


def observe_activation(
    realization,
    seed: int,
    residual: Optional[ResidualGraph] = None,
) -> Set[int]:
    """Adaptive feedback: the node set ``A(u)`` activated by a single seed.

    This is the observation step of the adaptive algorithms (line 10 of
    Algorithm 2): once ``seed`` is committed, the advertiser observes every
    node it activates under the true (hidden) realization, restricted to the
    current residual graph.
    """
    return realization.activated_by([seed], residual)
