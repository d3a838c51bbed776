"""Batched, vectorized forward simulation of the Independent Cascade model.

This module is the forward-side twin of :mod:`repro.sampling.engine`.  The
historical Monte-Carlo paths (`monte_carlo_spread`, the MC spread oracle,
sample-based cost estimation, policy replay) run one cascade at a time
through a per-node Python ``deque`` loop; with ``num_simulations=1000`` per
spread query that loop dominates the figure/table experiment drivers.  The
engine here grows *all* cascades of a batch simultaneously:

1. the (shared) seed set is resolved once — inactive seeds are ignored,
   duplicates keep their first occurrence, exactly as in
   :func:`repro.diffusion.ic_model.simulate_ic`;
2. the forward BFS advances frontier-at-a-time across the whole batch —
   one expansion gathers the outgoing CSR slices of every frontier node of
   every simulation at once, applies the residual ``active`` mask as a
   single vectorized filter, and draws all coin flips of the wave with one
   ``rng.random`` call;
3. activated ``(sim_id, node)`` pairs are deduplicated with sorted int64
   keys (``np.searchsorted``), no per-simulation Python ``set`` lookups.

The result is an :class:`MCBatch`: the activated sets of all simulations in
flat CSR-like form ``(offsets, nodes)`` — per-simulation spreads are
``np.diff(offsets)``, and full activation masks are available on demand.

Backends
--------
``simulate_ic_batch`` accepts ``backend="vectorized"`` (default) or
``backend="python"``.  The Python backend is a loop-based reference
implementation of *exactly the same algorithm*: it consumes the same
coin-flip stream in the same frontier order, so for any shared seed the two
backends produce bit-for-bit identical batches (pinned by
``tests/diffusion/test_mc_engine.py``).  Because numpy ``Generator.random``
streams concatenate across calls, a batch of ``count=1`` consumes *exactly*
the stream of one historical :func:`simulate_ic` cascade — the historical
per-cascade loop is the ``B = 1`` special case of the engine's RNG
contract.  A batch of ``B > 1`` simulations interleaves the waves of all
cascades and therefore draws a different (equally distributed) stream than
``B`` sequential cascades; that is why the Monte-Carlo entry points in
:mod:`repro.diffusion.spread` default to ``backend="python"`` (the
historical sequential loop) and treat the batched engine as an opt-in.

Live-edge replay
----------------
:func:`replay_live_edges` is the deterministic sibling: instead of flipping
coins it follows precomputed live/blocked edge states (one boolean row per
realization), which batches `Realization.activated_by`-style policy replay
over many realizations — and powers the vectorized possible-world
enumeration of :func:`repro.diffusion.spread.exact_expected_spread`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from repro import kernels
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.sampling.engine import flat_slice_indices
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng

#: Environment variable consulted when a caller leaves ``backend`` unset.
MC_BACKEND_ENV_VAR = "REPRO_MC_BACKEND"


def resolve_mc_backend(backend: Optional[str] = None) -> str:
    """Resolve a Monte-Carlo backend request to a concrete kernel name.

    A thin wrapper over :func:`repro.kernels.resolve_backend` — one
    shared parser and one shared error message listing every registered
    backend — with the Monte-Carlo knob's historical semantics:

    * an explicit value wins (any registered backend, or ``"auto"`` for
      the fastest available one);
    * ``None`` falls back to the ``REPRO_MC_BACKEND`` environment variable;
    * ``None`` with no environment override resolves to ``"python"`` — the
      historical per-cascade loop, so defaults keep the exact historical
      RNG streams bit-for-bit.

    ``"python"`` selects the sequential per-cascade strategy at the
    :mod:`repro.diffusion.spread` entry points; every other name runs
    the batched engine with that kernel backend.
    """
    return kernels.resolve_backend(
        backend, env_var=MC_BACKEND_ENV_VAR, default="python"
    )


#: Soft cap on floats materialised per live-edge chunk (~32 MB of draws).
_CHUNK_FLOATS = 4_000_000


def live_chunk_rows(count: int, m: int) -> int:
    """Realization rows per chunk so a ``(rows, m)`` draw stays ~32 MB.

    Chunking the simulation axis never changes an estimate: bulk rows of
    ``rng.random((rows, m))`` consume the generator's stream row-major,
    exactly like ``rows`` sequential ``rng.random(m)`` calls.
    """
    return max(1, min(count, _CHUNK_FLOATS // max(m, 1)))


def sample_live_chunks(rng: np.random.Generator, probs: np.ndarray, count: int):
    """Yield ``(rows, m)`` boolean live-edge matrices for ``count`` realizations.

    The single place that encodes the bulk realization stream: row ``i``
    of the concatenated chunks equals the live mask the historical loop
    samples with its ``i``-th ``rng.random(m)`` call (``probs`` is the
    edge-id-ordered probability array, ``base.out_csr()[2]``).  Every
    common-random-numbers consumer — ``monte_carlo_marginal_spread`` and
    the Monte-Carlo oracle's batched queries — iterates these chunks so
    the stream contract lives in exactly one function.
    """
    m = int(probs.shape[0])
    chunk = live_chunk_rows(count, m)
    for start in range(0, count, chunk):
        rows = min(chunk, count - start)
        if m:
            yield rng.random((rows, m)) < probs[None, :]
        else:
            yield np.zeros((rows, 0), dtype=bool)


@dataclass(frozen=True)
class MCBatch:
    """A batch of IC cascades in flat CSR-like form.

    ``nodes[offsets[i]:offsets[i + 1]]`` are the nodes activated by
    simulation ``i`` in discovery (BFS) order, seeds first.  ``n`` is the
    node-id universe of the base graph.
    """

    offsets: np.ndarray
    nodes: np.ndarray
    n: int

    def __len__(self) -> int:
        return int(self.offsets.shape[0] - 1)

    @property
    def num_simulations(self) -> int:
        """Number of cascades in the batch."""
        return len(self)

    def spreads(self) -> np.ndarray:
        """Per-simulation spreads ``I_i`` (int64 array of length B)."""
        return np.diff(self.offsets)

    def total_spread(self) -> int:
        """Sum of all per-simulation spreads."""
        return int(self.nodes.shape[0])

    def activated_at(self, index: int) -> np.ndarray:
        """Nodes activated by simulation ``index`` (read-only view)."""
        return self.nodes[self.offsets[index] : self.offsets[index + 1]]

    def to_sets(self) -> List[Set[int]]:
        """Materialise the batch as a list of Python sets (compat shim)."""
        offsets = self.offsets
        node_list = self.nodes.tolist()
        return [
            set(node_list[offsets[i] : offsets[i + 1]]) for i in range(len(self))
        ]

    def activation_matrix(self) -> np.ndarray:
        """Dense ``(B, n)`` boolean activation mask (allocates B·n bytes)."""
        count = len(self)
        matrix = np.zeros((count, self.n), dtype=bool)
        sim_ids = np.repeat(np.arange(count, dtype=np.int64), self.spreads())
        matrix[sim_ids, self.nodes] = True
        return matrix

    def slice(self, start: int, stop: int) -> "MCBatch":
        """Sub-batch holding simulations ``start:stop`` (offsets rebased)."""
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= len(self):
            raise ValidationError(
                f"slice [{start}, {stop}) out of range for {len(self)} simulations"
            )
        lo, hi = self.offsets[start], self.offsets[stop]
        return MCBatch(
            offsets=self.offsets[start : stop + 1] - lo,
            nodes=self.nodes[lo:hi],
            n=self.n,
        )


def merge_mc_batches(batches: Sequence[MCBatch]) -> MCBatch:
    """Concatenate flat cascade batches without re-walking any cascade.

    The merge step of the parallel MC path (:meth:`repro.parallel.pool.
    SamplingPool.simulate`): worker shards come back as independent
    ``(offsets, nodes)`` pairs and are stitched together in shard order by
    shifting each shard's offsets by the running total.
    """
    if not batches:
        raise ValidationError("merge_mc_batches requires at least one batch")
    if len(batches) == 1:
        return batches[0]
    first = batches[0]
    offsets_parts = [first.offsets]
    nodes_parts = [first.nodes]
    shift = int(first.offsets[-1])
    for batch in batches[1:]:
        offsets_parts.append(batch.offsets[1:] + shift)
        nodes_parts.append(batch.nodes)
        shift += int(batch.offsets[-1])
    return MCBatch(
        offsets=np.concatenate(offsets_parts),
        nodes=np.concatenate(nodes_parts),
        n=max(batch.n for batch in batches),
    )


def _empty_batch(count: int, n: int) -> MCBatch:
    return MCBatch(
        offsets=np.zeros(count + 1, dtype=np.int64),
        nodes=np.zeros(0, dtype=np.int64),
        n=n,
    )


def _resolve_seeds(view: ResidualGraph, seeds: Iterable[int]) -> np.ndarray:
    """Active seeds in first-occurrence order (the ``simulate_ic`` contract).

    Inactive seeds are ignored and duplicates keep their first occurrence —
    exactly what the historical per-cascade loop does when it fills its
    initial deque.
    """
    resolved: List[int] = []
    seen: Set[int] = set()
    for seed in seeds:
        seed = int(seed)
        if seed not in seen and view.is_active(seed):
            seen.add(seed)
            resolved.append(seed)
    return np.asarray(resolved, dtype=np.int64)


def simulate_ic_batch(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Iterable[int],
    count: int,
    random_state: RandomState = None,
    backend: Optional[str] = None,
) -> MCBatch:
    """Run ``count`` independent IC cascades from ``seeds`` as one batch.

    Parameters
    ----------
    graph:
        Graph or residual view to simulate on; propagation never enters
        inactive nodes and inactive seeds are ignored.
    seeds:
        Seed set shared by every simulation of the batch.
    count:
        Number of independent cascades.
    random_state:
        Seed / generator; every backend consumes it identically.
    backend:
        Kernel backend name resolved through the registry
        (:func:`repro.kernels.resolve_backend`): ``None`` honours
        ``REPRO_BACKEND`` and defaults to ``"vectorized"``; ``"auto"``
        picks the fastest available backend — every backend is
        bit-for-bit identical, so the choice never changes the batch.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    spec = kernels.get_backend(backend)
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    if count == 0:
        return _empty_batch(0, view.n)
    seed_array = _resolve_seeds(view, seeds)
    if seed_array.size == 0:
        return _empty_batch(count, view.n)
    rng = ensure_rng(random_state)
    return spec.simulate_batch(view, seed_array, count, rng)


# --------------------------------------------------------------------- #
# vectorized backend
# --------------------------------------------------------------------- #


def _finalize_batch(
    member_sim: List[np.ndarray],
    member_nodes: List[np.ndarray],
    count: int,
    n: int,
) -> MCBatch:
    all_sim = np.concatenate(member_sim)
    all_nodes = np.concatenate(member_nodes)
    grouping = np.argsort(all_sim, kind="stable")
    sizes = np.bincount(all_sim, minlength=count)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return MCBatch(offsets=offsets, nodes=all_nodes[grouping], n=n)


def _frontier_sweep(
    view: ResidualGraph, seeds: np.ndarray, count: int, traverse
) -> MCBatch:
    """The shared frontier-at-a-time sweep of the coin-flip and replay paths.

    ``traverse(expand_sim, edge_idx, targets)`` decides which gathered
    edges propagate this wave and returns the surviving ``(sims, targets)``
    pair — coin flips for :func:`simulate_ic_batch`, live-mask lookups for
    :func:`replay_live_edges`.  Everything else (CSR gather, sorted-key
    dedup against earlier waves, first-occurrence dedup within a wave,
    flat-batch assembly) lives here exactly once, so the two modes cannot
    drift apart.
    """
    n = view.n
    # prepare_csr centralizes the uint32 -> int64 handling of mmap'd
    # ``.rgx`` node arrays: gathered slices upcast through ``csr.gather``.
    csr = kernels.prepare_csr(*view.base.out_csr())
    out_offsets = csr.offsets

    # Every simulation starts from the same (active, deduplicated) seeds.
    frontier_sim = np.repeat(np.arange(count, dtype=np.int64), seeds.size)
    frontier_nodes = np.tile(seeds, count)

    # Sorted (sim_id * n + node) keys of everything activated so far.
    visited_keys = np.sort(frontier_sim * n + frontier_nodes)
    member_sim = [frontier_sim]
    member_nodes = [frontier_nodes]

    while frontier_nodes.size:
        starts = out_offsets[frontier_nodes]
        degrees = out_offsets[frontier_nodes + 1] - starts
        if int(degrees.sum()) == 0:
            break
        edge_idx = flat_slice_indices(starts, degrees)
        expand_sim = np.repeat(frontier_sim, degrees)
        targets = csr.gather(edge_idx)
        expand_sim, targets = traverse(expand_sim, edge_idx, targets)
        if targets.size == 0:
            break
        keys = expand_sim * n + targets
        # Drop pairs activated in earlier waves ...
        pos = np.searchsorted(visited_keys, keys)
        pos_clipped = np.minimum(pos, visited_keys.size - 1)
        fresh = visited_keys[pos_clipped] != keys
        keys = keys[fresh]
        targets = targets[fresh]
        expand_sim = expand_sim[fresh]
        if keys.size == 0:
            break
        # ... and duplicates within this wave, keeping the first occurrence.
        unique_keys, first_idx = np.unique(keys, return_index=True)
        order = np.sort(first_idx)
        frontier_nodes = targets[order]
        frontier_sim = expand_sim[order]
        visited_keys = np.concatenate([visited_keys, unique_keys])
        visited_keys.sort(kind="stable")
        member_sim.append(frontier_sim)
        member_nodes.append(frontier_nodes)

    return _finalize_batch(member_sim, member_nodes, count, n)


def _simulate_batch_vectorized(
    view: ResidualGraph, seeds: np.ndarray, count: int, rng: np.random.Generator
) -> MCBatch:
    active = view.active_mask
    out_probs = view.base.out_csr()[2]

    def traverse(expand_sim, edge_idx, targets):
        # Residual filter first: coins are only flipped for edges whose
        # target is still active — the per-node reference filters through
        # `out_neighbors` before flipping, and so does `simulate_ic`.
        keep = active[targets]
        targets = targets[keep]
        probs = out_probs[edge_idx[keep]]
        expand_sim = expand_sim[keep]
        if targets.size == 0:
            return expand_sim, targets
        flips = rng.random(targets.size) < probs
        return expand_sim[flips], targets[flips]

    return _frontier_sweep(view, seeds, count, traverse)


# --------------------------------------------------------------------- #
# python reference backend
# --------------------------------------------------------------------- #


def _simulate_batch_python(
    view: ResidualGraph, seeds: np.ndarray, count: int, rng: np.random.Generator
) -> MCBatch:
    """Loop-based reference with the exact RNG contract of the fast path.

    Kept intentionally naive (Python lists, sets and scalar loops): its only
    job is to be obviously correct so the vectorized backend can be checked
    against it seed-for-seed.
    """
    n = view.n
    seed_list = seeds.tolist()
    members: List[List[int]] = [list(seed_list) for _ in range(count)]
    activated: List[Set[int]] = [set(seed_list) for _ in range(count)]
    frontier: List[tuple] = [
        (sim, seed) for sim in range(count) for seed in seed_list
    ]

    while frontier:
        # Gather the wave's live out-edges in frontier order, then flip all
        # coins with one bulk draw (same stream as the vectorized backend).
        layer: List[tuple] = []
        for sim, node in frontier:
            targets, probs, _ = view.out_neighbors(node)
            for target, prob in zip(targets.tolist(), probs.tolist()):
                layer.append((sim, target, prob))
        if not layer:
            break
        flips = rng.random(len(layer))
        next_frontier: List[tuple] = []
        for (sim, target, prob), flip in zip(layer, flips.tolist()):
            if flip < prob and target not in activated[sim]:
                activated[sim].add(target)
                members[sim].append(target)
                next_frontier.append((sim, target))
        frontier = next_frontier

    sizes = np.asarray([len(member) for member in members], dtype=np.int64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = [node for member in members for node in member]
    return MCBatch(
        offsets=offsets,
        nodes=np.asarray(flat, dtype=np.int64),
        n=n,
    )


# --------------------------------------------------------------------- #
# deterministic live-edge replay (realizations / possible worlds)
# --------------------------------------------------------------------- #


def _replay_batch_vectorized(
    view: ResidualGraph, seeds: np.ndarray, live: np.ndarray
) -> MCBatch:
    """Vectorized replay kernel: one deterministic sweep per world row."""
    active = view.active_mask

    def traverse(expand_sim, edge_idx, targets):
        keep = active[targets] & live[expand_sim, edge_idx]
        return expand_sim[keep], targets[keep]

    return _frontier_sweep(view, seeds, int(live.shape[0]), traverse)


def replay_live_edges(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Iterable[int],
    live: np.ndarray,
    return_members: bool = False,
    backend: Optional[str] = None,
) -> np.ndarray | MCBatch:
    """Batched live-edge reachability: one cascade per precomputed world.

    ``live`` is a ``(B, m)`` boolean matrix — row ``b`` is the live/blocked
    state of every edge (indexed by edge id) under realization ``b``.  All
    rows share the same seed set; traversal is restricted to the active
    nodes of ``graph`` exactly like :meth:`repro.diffusion.realization.
    BaseRealization.activated_by`.  Deterministic (no randomness): replaying
    the same worlds always yields the same activated sets, whichever
    registered kernel ``backend`` runs the sweep.

    Returns the per-realization spreads (int64 array of length ``B``), or
    the full :class:`MCBatch` of activated sets when ``return_members``.
    """
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    base = view.base
    n = view.n
    spec = kernels.get_backend(backend)
    live = np.asarray(live, dtype=bool)
    if live.ndim != 2:
        raise ValidationError(
            f"live must be a (B, m) boolean matrix, got shape {live.shape}"
        )
    count = int(live.shape[0])
    if live.shape[1] != base.m:
        raise ValidationError(
            f"live must have one column per edge ({base.m}), got {live.shape[1]}"
        )
    seed_array = _resolve_seeds(view, seeds)
    if count == 0 or seed_array.size == 0:
        empty = _empty_batch(count, n)
        return empty if return_members else empty.spreads()

    batch = spec.replay_batch(view, seed_array, live)
    return batch if return_members else batch.spreads()


def live_edge_reachable(
    graph: ProbabilisticGraph | ResidualGraph,
    seeds: Iterable[int],
    live_mask: np.ndarray,
) -> np.ndarray:
    """Activated nodes of *one* realization (vectorized single-world replay).

    The fast path behind :meth:`repro.diffusion.realization.Realization.
    activated_by`: a one-row :func:`replay_live_edges` sweep returning the
    activated node ids in discovery order.
    """
    batch = replay_live_edges(
        graph, seeds, np.asarray(live_mask, dtype=bool)[None, :], return_members=True
    )
    return batch.nodes
