"""Batched, vectorized generation of random reverse-reachable (RR) sets.

This module is the sampling back end of the whole library.  Instead of
building RR sets one at a time with a per-node Python BFS (the historical
path in :mod:`repro.sampling.rr_sets`), the engine grows *all* RR sets of a
batch simultaneously:

1. every root is drawn in one bulk ``rng.integers`` call over the active
   nodes of the residual view;
2. the reverse BFS advances frontier-at-a-time across the whole batch — one
   expansion gathers the incoming CSR slices of every frontier node of every
   RR set at once, applies the residual ``active`` mask as a single
   vectorized filter, and draws all coin flips of the layer with one
   ``rng.random`` call;
3. discovered ``(rr_id, node)`` pairs are deduplicated with sorted int64
   keys, so membership checks are ``np.searchsorted`` instead of per-set
   Python ``set`` lookups.

The result is a :class:`RRBatch`: the batch in flat CSR-like form
``(offsets, nodes)``, ready to be wrapped by
:class:`repro.sampling.flat_collection.FlatRRCollection` without any
per-set Python objects.

Backends
--------
``generate_rr_batch`` dispatches through the kernel registry
(:mod:`repro.kernels`): ``backend=None`` (the default) honours the
``REPRO_BACKEND`` environment variable and falls back to ``"vectorized"``;
``"auto"`` picks ``"native"`` when it can build, else ``"vectorized"``;
explicit names (``"vectorized"``, ``"python"``, ``"native"``) select one
implementation.  The Python backend is a deliberately simple loop-based
reference implementation of *exactly the same algorithm*: it draws its
roots with the same single bulk call and consumes the same coin-flip
stream in the same frontier order, so for any shared seed every backend
produces bit-for-bit identical batches.  That property is what the
differential tests (``tests/sampling/test_engine_differential.py``) pin
down; the reference backend is the executable specification of the engine's
RNG contract, and it is why ``"auto"`` is stream-safe.

The historical per-set path (:func:`repro.sampling.rr_sets.generate_rr_set`)
remains available as well; it consumes the stream per set rather than per
layer, so it matches the engine statistically but not bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

import numpy as np

from repro import kernels
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class RRBatch:
    """A batch of RR sets in flat CSR-like form.

    ``nodes[offsets[i]:offsets[i + 1]]`` are the members of RR set ``i`` in
    discovery (BFS) order, root first.  ``num_active_nodes`` is ``n_i`` of
    the residual view the batch was sampled on (the RIS scaling factor) and
    ``n`` is the node-id universe of the base graph.
    """

    offsets: np.ndarray
    nodes: np.ndarray
    num_active_nodes: int
    n: int

    def __len__(self) -> int:
        return int(self.offsets.shape[0] - 1)

    @property
    def num_sets(self) -> int:
        """Number of RR sets in the batch."""
        return len(self)

    def sizes(self) -> np.ndarray:
        """Array of RR-set sizes."""
        return np.diff(self.offsets)

    def set_at(self, index: int) -> np.ndarray:
        """Members of RR set ``index`` (a read-only view, discovery order)."""
        return self.nodes[self.offsets[index] : self.offsets[index + 1]]

    def to_sets(self) -> List[Set[int]]:
        """Materialise the batch as a list of Python sets (compat shim)."""
        offsets = self.offsets
        node_list = self.nodes.tolist()
        return [
            set(node_list[offsets[i] : offsets[i + 1]]) for i in range(len(self))
        ]

    def slice(self, start: int, stop: int) -> "RRBatch":
        """Sub-batch holding RR sets ``start:stop`` (offsets rebased to 0)."""
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= len(self):
            raise ValidationError(
                f"slice [{start}, {stop}) out of range for {len(self)} sets"
            )
        lo, hi = self.offsets[start], self.offsets[stop]
        return RRBatch(
            offsets=self.offsets[start : stop + 1] - lo,
            nodes=self.nodes[lo:hi],
            num_active_nodes=self.num_active_nodes,
            n=self.n,
        )


def flat_slice_indices(starts: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Flat indices addressing many CSR slices at once.

    For slice ``i`` covering ``starts[i] .. starts[i] + degrees[i]``, the
    result concatenates all slice positions in order with a single
    repeat/arange construction (no Python loop over slices).
    """
    total = int(degrees.sum())
    cum = np.cumsum(degrees) - degrees
    return np.arange(total, dtype=np.int64) + np.repeat(starts - cum, degrees)


def merge_rr_batches(batches: Sequence[RRBatch]) -> RRBatch:
    """Concatenate flat batches into one without re-walking any RR set.

    This is the merge step of the parallel sampling subsystem
    (:mod:`repro.parallel`): worker shards come back as independent
    ``(offsets, nodes)`` pairs and are stitched together by shifting each
    shard's offsets by the running total — pure array arithmetic, no
    per-set Python objects.  All batches must share ``num_active_nodes``
    (they were sampled on the same residual view); ``n`` is the maximum
    node-id universe.
    """
    if not batches:
        raise ValidationError("merge_rr_batches requires at least one batch")
    if len(batches) == 1:
        return batches[0]
    first = batches[0]
    for batch in batches[1:]:
        if batch.num_active_nodes != first.num_active_nodes:
            raise ValidationError(
                "cannot merge batches sampled on different residual views "
                f"(num_active_nodes {batch.num_active_nodes} != {first.num_active_nodes})"
            )
    offsets_parts = [first.offsets]
    nodes_parts = [first.nodes]
    shift = int(first.offsets[-1])
    for batch in batches[1:]:
        offsets_parts.append(batch.offsets[1:] + shift)
        nodes_parts.append(batch.nodes)
        shift += int(batch.offsets[-1])
    return RRBatch(
        offsets=np.concatenate(offsets_parts),
        nodes=np.concatenate(nodes_parts),
        num_active_nodes=first.num_active_nodes,
        n=max(batch.n for batch in batches),
    )


def _empty_batch(count: int, num_active_nodes: int, n: int) -> RRBatch:
    return RRBatch(
        offsets=np.zeros(count + 1, dtype=np.int64),
        nodes=np.zeros(0, dtype=np.int64),
        num_active_nodes=num_active_nodes,
        n=n,
    )


def _draw_roots(
    view: ResidualGraph,
    count: int,
    rng: np.random.Generator,
    roots: Optional[Sequence[int]],
) -> Optional[np.ndarray]:
    """Resolve the batch's roots (shared by both backends).

    Returns ``None`` when the residual view has no active node and roots
    were not supplied — in that case no randomness is consumed at all,
    mirroring the historical behaviour of ``generate_rr_sets``.
    """
    if roots is not None:
        root_array = np.asarray(roots, dtype=np.int64)
        if root_array.shape != (count,):
            raise ValidationError(
                f"roots must have shape ({count},), got {root_array.shape}"
            )
        if root_array.size and (
            root_array.min() < 0 or root_array.max() >= view.n
        ):
            raise ValidationError("roots contains invalid node ids")
        return root_array
    active = view.active_nodes()
    if active.size == 0:
        return None
    return active[rng.integers(0, active.size, size=count)]


def generate_rr_batch(
    graph: ProbabilisticGraph | ResidualGraph,
    count: int,
    random_state: RandomState = None,
    backend: Optional[str] = None,
    roots: Optional[Sequence[int]] = None,
) -> RRBatch:
    """Generate ``count`` independent RR sets on ``graph`` as one flat batch.

    Parameters
    ----------
    graph:
        Graph or residual view to sample on.
    count:
        Number of RR sets.
    random_state:
        Seed / generator; every backend consumes it identically.
    backend:
        Kernel backend name resolved through the registry
        (:func:`repro.kernels.resolve_backend`): ``None`` honours
        ``REPRO_BACKEND`` and defaults to ``"vectorized"``; ``"auto"``
        picks the fastest available backend — every backend is
        bit-for-bit identical, so the choice never changes the batch.
    roots:
        Optional fixed roots, one per RR set (inactive roots yield empty
        sets).  When omitted, roots are drawn uniformly from the active
        nodes with a single bulk call.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    spec = kernels.get_backend(backend)
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    num_active = view.num_active
    if count == 0:
        return _empty_batch(0, num_active, view.n)
    rng = ensure_rng(random_state)
    root_array = _draw_roots(view, count, rng, roots)
    if root_array is None:
        return _empty_batch(count, num_active, view.n)
    return spec.generate_batch(view, root_array, rng)


# --------------------------------------------------------------------- #
# vectorized backend
# --------------------------------------------------------------------- #


def _generate_batch_vectorized(
    view: ResidualGraph, roots: np.ndarray, rng: np.random.Generator
) -> RRBatch:
    base = view.base
    n = base.n
    active = view.active_mask
    # prepare_csr centralizes the uint32 -> int64 handling of mmap'd
    # ``.rgx`` node arrays: gathered slices upcast through ``csr.gather``.
    csr = kernels.prepare_csr(*base.in_csr())
    in_offsets, in_probs = csr.offsets, csr.probs
    count = roots.shape[0]

    rr_ids = np.arange(count, dtype=np.int64)
    live = active[roots]
    frontier_rr = rr_ids[live]
    frontier_nodes = roots[live].astype(np.int64, copy=False)

    # Sorted (rr_id * n + node) keys of everything discovered so far; node
    # ids are < n so the key uniquely encodes the pair in one int64.
    visited_keys = frontier_rr * n + frontier_nodes  # sorted: rr-major
    member_rr = [frontier_rr]
    member_nodes = [frontier_nodes]

    while frontier_nodes.size:
        starts = in_offsets[frontier_nodes]
        degrees = in_offsets[frontier_nodes + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            break
        # Flat indices of every in-edge of the frontier, in frontier order.
        edge_idx = flat_slice_indices(starts, degrees)
        expand_rr = np.repeat(frontier_rr, degrees)
        sources = csr.gather(edge_idx)
        # Residual filter first: coins are only flipped for live edges, so
        # the flip stream is independent of inactive clutter (and matches
        # the per-node reference, which filters before flipping too).
        keep = active[sources]
        sources = sources[keep]
        probs = in_probs[edge_idx[keep]]
        expand_rr = expand_rr[keep]
        if sources.size == 0:
            break
        flips = rng.random(sources.size) < probs
        sources = sources[flips]
        expand_rr = expand_rr[flips]
        if sources.size == 0:
            break
        keys = expand_rr * n + sources
        # Drop pairs already discovered in earlier layers ...
        pos = np.searchsorted(visited_keys, keys)
        pos_clipped = np.minimum(pos, visited_keys.size - 1)
        fresh = visited_keys[pos_clipped] != keys
        keys = keys[fresh]
        sources = sources[fresh]
        expand_rr = expand_rr[fresh]
        if keys.size == 0:
            break
        # ... and duplicates within this expansion, keeping the first
        # occurrence (np.unique sorts stably when return_index is set).
        unique_keys, first_idx = np.unique(keys, return_index=True)
        order = np.sort(first_idx)
        frontier_nodes = sources[order]
        frontier_rr = expand_rr[order]
        visited_keys = np.concatenate([visited_keys, unique_keys])
        visited_keys.sort(kind="stable")
        member_rr.append(frontier_rr)
        member_nodes.append(frontier_nodes)

    all_rr = np.concatenate(member_rr)
    all_nodes = np.concatenate(member_nodes)
    grouping = np.argsort(all_rr, kind="stable")
    sizes = np.bincount(all_rr, minlength=count)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return RRBatch(
        offsets=offsets,
        nodes=all_nodes[grouping],
        num_active_nodes=view.num_active,
        n=n,
    )


# --------------------------------------------------------------------- #
# python reference backend
# --------------------------------------------------------------------- #


def _generate_batch_python(
    view: ResidualGraph, roots: np.ndarray, rng: np.random.Generator
) -> RRBatch:
    """Loop-based reference with the exact RNG contract of the fast path.

    Kept intentionally naive (Python lists, sets and scalar loops): its only
    job is to be obviously correct so the vectorized backend can be checked
    against it seed-for-seed.
    """
    n = view.n
    count = roots.shape[0]
    members: List[List[int]] = [[] for _ in range(count)]
    seen: List[Set[int]] = [set() for _ in range(count)]

    frontier: List[tuple] = []
    for rr_id, root in enumerate(roots.tolist()):
        if view.is_active(root):
            members[rr_id].append(root)
            seen[rr_id].add(root)
            frontier.append((rr_id, root))

    while frontier:
        # Gather the layer's live in-edges in frontier order, then flip all
        # coins with one bulk draw (same stream as the vectorized backend).
        layer: List[tuple] = []
        for rr_id, node in frontier:
            sources, probs, _ = view.in_neighbors(node)
            for source, prob in zip(sources.tolist(), probs.tolist()):
                layer.append((rr_id, source, prob))
        if not layer:
            break
        flips = rng.random(len(layer))
        next_frontier: List[tuple] = []
        for (rr_id, source, prob), flip in zip(layer, flips.tolist()):
            if flip < prob and source not in seen[rr_id]:
                seen[rr_id].add(source)
                members[rr_id].append(source)
                next_frontier.append((rr_id, source))
        frontier = next_frontier

    sizes = np.asarray([len(member) for member in members], dtype=np.int64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = [node for member in members for node in member]
    return RRBatch(
        offsets=offsets,
        nodes=np.asarray(flat, dtype=np.int64),
        num_active_nodes=view.num_active,
        n=n,
    )
