"""Batched generation of random reverse-reachable (RR) sets on one keyed stream.

This module is the sampling back end of the whole library.  Every RR set
of a batch is a pure function of the batch *key* and the set's index, so
any traversal order, any backend and any sharding sample the same sets.

The keyed stream
----------------
:func:`generate_rr_batch` draws one 64-bit key per batch from the
caller's generator.  With ``G = 0x9E3779B97F4A7C15`` and ``mix64`` the
SplitMix64 finalizer (all arithmetic modulo ``2**64``):

* set ``j`` hashes to ``h_j = mix64(key + j·G)``;
* its root is the view's sorted active-node array at index
  ``floor(u53(mix64(h_j)) · n_active)`` (clamped to the last index), with
  ``u53(x) = (x >> 11) · 2**-53``;
* the in-CSR edge at position ``e`` is live in set ``j`` iff
  ``mix64(h_j + (e+1)·G) >> 11 < ceil(p_e · 2**53)``, the integer form of
  ``u53(...) < p_e``;
* the set is everything that reaches the root over live edges whose
  source is active.

Sets ``[0, a)`` and ``[a, θ)`` drawn under one key (``start=a`` for the
second) therefore concatenate to the batch of θ sets, which is what the
parallel pool's shards and the estimator's sample reuse rely on.

Members are listed in BFS discovery order: the root, then each frontier
node's in-edges in CSR order.  An optional boolean ``stop`` mask ends a
set at its first member in the mask (that member is kept), the
hit-and-stop of SUBSIM (Guo et al., SIGMOD 2020): a count of sets that
contain ``u`` and miss ``C`` is unchanged when each set stops at ``C``.

Backends
--------
``generate_rr_batch`` dispatches through the kernel registry
(:mod:`repro.kernels`): ``backend=None`` honours ``REPRO_BACKEND``, then
``"auto"``, which picks ``"native"`` when it can build and
``"vectorized"`` otherwise.  ``"vectorized"`` grows all sets of a batch
frontier-at-a-time with NumPy; ``"python"`` is a per-set scalar loop, the
literal statement of the stream above; ``"native"`` is a compiled per-set
reverse BFS.  All three return identical batches, truncated or not
(``tests/sampling/test_keyed_stream.py``).
"""

from __future__ import annotations

import math
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


# --------------------------------------------------------------------- #
# the keyed stream
# --------------------------------------------------------------------- #

#: The SplitMix64 increment: consecutive sets and edges are this far apart.
GOLDEN = 0x9E3779B97F4A7C15

_MASK64 = (1 << 64) - 1
_U53 = 2.0**-53
_G = np.uint64(GOLDEN)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def draw_key(random_state: RandomState) -> int:
    """One 64-bit batch key drawn from the caller's generator."""
    return int(ensure_rng(random_state).integers(0, 2**64, dtype=np.uint64))


def mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, in place on a ``uint64`` array."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def mix64_int(z: int) -> int:
    """:func:`mix64` of one Python int (taken modulo ``2**64``)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def set_hashes(key: int, start: int, count: int) -> np.ndarray:
    """``h_j = mix64(key + j·G)`` for ``j`` in ``[start, start + count)``."""
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= _G
    z += np.uint64(key)
    return mix64(z)


def keyed_roots(hashes: np.ndarray, active_nodes: np.ndarray) -> np.ndarray:
    """The root of each set: the active node at ``floor(u53(mix64(h)) · n_active)``."""
    index = (mix64(hashes.copy()) >> _S11).astype(np.float64) * _U53 * active_nodes.size
    return active_nodes[np.minimum(index.astype(np.int64), active_nodes.size - 1)]


def _validated_mask(stop, n: int) -> Optional[np.ndarray]:
    if stop is None:
        return None
    mask = np.asarray(stop, dtype=bool)
    if mask.shape != (n,):
        raise ValidationError(f"stop must have shape ({n},), got {mask.shape}")
    return mask


def _validated_roots(roots, count: int, n: int) -> Optional[np.ndarray]:
    if roots is None:
        return None
    root_array = np.asarray(roots, dtype=np.int64)
    if root_array.shape != (count,):
        raise ValidationError(
            f"roots must have shape ({count},), got {root_array.shape}"
        )
    if root_array.size and (root_array.min() < 0 or root_array.max() >= n):
        raise ValidationError("roots contains invalid node ids")
    return root_array


def generate_rr_batch(
    graph: ProbabilisticGraph | ResidualGraph,
    count: int,
    random_state: RandomState = None,
    backend: Optional[str] = None,
    roots: Optional[Sequence[int]] = None,
    stop: Optional[np.ndarray] = None,
    key: Optional[int] = None,
    start: int = 0,
) -> RRBatch:
    """Generate ``count`` independent RR sets on ``graph`` as one flat batch.

    Parameters
    ----------
    graph:
        Graph or residual view to sample on.
    count:
        Number of RR sets.
    random_state:
        Seed / generator the batch key is drawn from (one draw per
        non-empty batch; unused when ``key`` is given).
    backend:
        Kernel backend name resolved through the registry
        (:func:`repro.kernels.resolve_backend`): ``None`` honours
        ``REPRO_BACKEND``, then ``"auto"``, the fastest available backend
        (``"native"`` where it builds).  Every backend samples the
        identical batch, so the choice never changes results.
    roots:
        Optional fixed roots, one per RR set (inactive roots yield empty
        sets).  When omitted, each set's root comes from the keyed stream.
    stop:
        Optional boolean mask over node ids: each set ends at its first
        member in the mask, which is kept (see the module docstring).
    key / start:
        Draw sets ``start … start + count − 1`` of the stream of ``key``
        instead of sets ``0 … count − 1`` under a freshly drawn key.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if start < 0:
        raise ValidationError(f"start must be >= 0, got {start}")
    spec = kernels.get_backend(backend)
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    num_active = view.num_active
    if count == 0:
        return _empty_batch(0, num_active, view.n)
    if key is None:
        key = draw_key(random_state)
    root_array = _validated_roots(roots, count, view.n)
    stop_mask = _validated_mask(stop, view.n)
    if root_array is None and num_active == 0:
        return _empty_batch(count, num_active, view.n)
    key = int(key) & _MASK64
    return spec.generate_batch(view, key, int(start), count, root_array, stop_mask)


# --------------------------------------------------------------------- #
# vectorized backend
# --------------------------------------------------------------------- #


def _cut_at_stop(rr: np.ndarray, nodes: np.ndarray, hits: np.ndarray):
    """Cut one layer's new members at each set's first stop member.

    ``rr`` is sorted (the layer lists sets in order), so the first hit of a
    set is where its id first appears among the hits.  Returns the members
    to keep (each hit set up to and including its first stop member) and
    the next frontier (the sets with no hit).
    """
    hit_pos = np.flatnonzero(hits)
    hit_rr = rr[hit_pos]
    first = np.ones(hit_rr.size, dtype=bool)
    first[1:] = hit_rr[1:] != hit_rr[:-1]
    cut_rr, cut_pos = hit_rr[first], hit_pos[first]
    slot = np.minimum(np.searchsorted(cut_rr, rr), cut_rr.size - 1)
    ended = cut_rr[slot] == rr
    keep = ~ended | (np.arange(rr.size) <= cut_pos[slot])
    return (rr[keep], nodes[keep]), (rr[~ended], nodes[~ended])


def keyed_coins(hashes: np.ndarray, thresholds: np.ndarray):
    """The keyed-coin test of a batch, for :func:`layered_bfs`.

    Edge ``e`` is live in item ``j`` iff ``mix64(h_j + (e+1)·G) >> 11 <
    thresholds[e]``; ``hashes[j]`` is ``h_j`` of the batch's ``j``-th item.
    """
    # mix64(h_j + (e+1)·G) is mix64(e·G + salted_j): one product per edge.
    salted = hashes + _G

    def live(ids: np.ndarray, edge_idx: np.ndarray) -> np.ndarray:
        coins = edge_idx.view(np.uint64) * _G
        coins += salted[ids]
        return (mix64(coins) >> _S11) < thresholds[edge_idx]

    return live


def layered_bfs(
    csr,
    n: int,
    active: Optional[np.ndarray],
    ids: np.ndarray,
    nodes: np.ndarray,
    count: int,
    live,
    stop: Optional[np.ndarray] = None,
):
    """Grow every item of a batch at once, one BFS layer per step.

    ``ids`` / ``nodes`` are the items' first members, sorted by item and in
    discovery order within an item: at most one per item, or the same
    number for every item.  Each layer gathers the CSR slices of
    every frontier node of every item, asks ``live(expand_ids, edge_idx)``
    which edges are live, drops inactive endpoints among the live edges
    (``active`` is ``None`` on a fully active view) and deduplicates
    ``(item, node)`` pairs with sorted int64 keys.  ``stop`` ends an item
    at its first member in the mask, which is kept.  The frontier stays
    sorted by item and, within an item, in discovery order, so grouping
    the layers by item reproduces per-item BFS order.  Returns the batch's
    ``(offsets, nodes)``.
    """
    # Sorted (id * n + node) keys of everything discovered so far; node
    # ids are < n so the key uniquely encodes the pair in one int64.  With
    # at most one first member per item the keys are sorted already.
    visited_keys = ids * n + nodes
    if ids.size > count:
        visited_keys.sort()
    member_ids = [ids]
    member_nodes = [nodes]
    if stop is not None:
        go_on = ~stop[nodes]
        ids, nodes = ids[go_on], nodes[go_on]

    while nodes.size:
        starts = csr.offsets[nodes]
        degrees = csr.offsets[nodes + 1] - starts
        # Flat indices of every edge of the frontier, in frontier order.
        edge_idx = flat_slice_indices(starts, degrees)
        if edge_idx.size == 0:
            break
        expand_ids = np.repeat(ids, degrees)
        # Coins do not depend on the order edges are met in, so they come
        # first and only live edges have their endpoint read and checked
        # against the residual mask.
        flips = live(expand_ids, edge_idx)
        expand_ids = expand_ids[flips]
        reached = csr.gather(edge_idx[flips])
        if active is not None:
            keep = active[reached]
            reached, expand_ids = reached[keep], expand_ids[keep]
        if reached.size == 0:
            break
        keys = expand_ids * n + reached
        # Drop pairs already discovered in earlier layers ...
        pos = np.minimum(np.searchsorted(visited_keys, keys), visited_keys.size - 1)
        fresh = visited_keys[pos] != keys
        keys, reached, expand_ids = keys[fresh], reached[fresh], expand_ids[fresh]
        if keys.size == 0:
            break
        # ... and duplicates within this expansion, keeping the first
        # occurrence (np.unique sorts stably when return_index is set).
        unique_keys, first_idx = np.unique(keys, return_index=True)
        order = np.sort(first_idx)
        nodes = reached[order]
        ids = expand_ids[order]
        visited_keys = np.concatenate([visited_keys, unique_keys])
        visited_keys.sort(kind="stable")
        if stop is not None:
            hits = stop[nodes]
            if hits.any():
                (kept_ids, kept_nodes), (ids, nodes) = _cut_at_stop(ids, nodes, hits)
                member_ids.append(kept_ids)
                member_nodes.append(kept_nodes)
                continue
        member_ids.append(ids)
        member_nodes.append(nodes)

    all_ids = np.concatenate(member_ids)
    grouping = np.argsort(all_ids, kind="stable")
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_ids, minlength=count), out=offsets[1:])
    return offsets, np.concatenate(member_nodes)[grouping]


def _generate_batch_vectorized(
    view: ResidualGraph,
    key: int,
    start: int,
    count: int,
    roots: Optional[np.ndarray],
    stop: Optional[np.ndarray],
) -> RRBatch:
    """All sets of the batch at once: :func:`layered_bfs` on the in-CSR."""
    base = view.base
    active = view.active_mask
    offsets, sources, probs = base.in_csr()
    # prepare_csr centralizes the uint32 -> int64 handling of mmap'd
    # ``.rgx`` node arrays: gathered slices upcast through ``csr.gather``.
    csr = kernels.prepare_csr(offsets, sources, probs)
    hashes = set_hashes(key, start, count)
    if roots is None:
        roots = keyed_roots(hashes, view.active_nodes())
    live = active[roots]
    offsets, nodes = layered_bfs(
        csr,
        base.n,
        None if view.num_active == base.n else active,
        np.arange(count, dtype=np.int64)[live],
        roots[live],
        count,
        keyed_coins(hashes, kernels.coin_thresholds(probs)),
        stop,
    )
    return RRBatch(
        offsets=offsets, nodes=nodes, num_active_nodes=view.num_active, n=base.n
    )


# --------------------------------------------------------------------- #
# python reference backend
# --------------------------------------------------------------------- #


def _generate_batch_python(
    view: ResidualGraph,
    key: int,
    start: int,
    count: int,
    roots: Optional[np.ndarray],
    stop: Optional[np.ndarray],
) -> RRBatch:
    """The keyed stream, one set at a time, in plain Python.

    Kept intentionally naive (Python ints, lists, sets and scalar loops):
    it is the literal statement of the stream in the module docstring, and
    the other backends are checked against it.
    """
    in_offsets, in_sources, in_probs = view.base.in_csr()
    active_nodes = view.active_nodes().tolist()
    members: List[int] = []
    offsets = [0]
    for j in range(start, start + count):
        h = mix64_int(key + j * GOLDEN)
        if roots is not None:
            root = int(roots[j - start])
        else:
            index = int((mix64_int(h) >> 11) * _U53 * len(active_nodes))
            root = active_nodes[min(index, len(active_nodes) - 1)]
        rr: List[int] = [root] if view.is_active(root) else []
        seen: Set[int] = set(rr)
        stopped = not rr or (stop is not None and bool(stop[root]))
        head = 0
        while head < len(rr) and not stopped:
            node = rr[head]
            head += 1
            for e in range(int(in_offsets[node]), int(in_offsets[node + 1])):
                source = int(in_sources[e])
                if source in seen or not view.is_active(source):
                    continue
                threshold = math.ceil(float(in_probs[e]) * 2**53)
                if mix64_int(h + (e + 1) * GOLDEN) >> 11 < threshold:
                    seen.add(source)
                    rr.append(source)
                    if stop is not None and stop[source]:
                        stopped = True
                        break
        members.extend(rr)
        offsets.append(len(members))
    return RRBatch(
        offsets=np.asarray(offsets, dtype=np.int64),
        nodes=np.asarray(members, dtype=np.int64),
        num_active_nodes=view.num_active,
        n=view.n,
    )
