"""Batched forward simulation of the Independent Cascade model on a keyed stream.

This module is the forward-side twin of :mod:`repro.sampling.engine`.  A
batch of IC cascades shares one seed set, and every cascade is a pure
function of the batch *key* and its index, so any traversal order, any
backend and any sharding simulate the same cascades.

The keyed cascade stream
------------------------
:func:`simulate_ic_batch` draws one 64-bit key per batch from the
caller's generator, as :func:`~repro.sampling.engine.generate_rr_batch`
does.  With ``G`` and ``mix64`` as in :mod:`repro.sampling.engine` (all
arithmetic modulo ``2**64``):

* cascade ``j`` hashes to ``h_j = mix64(key + j·G)``;
* the out-CSR edge at position ``e`` (its edge id) is live in cascade
  ``j`` iff ``mix64(h_j + (e+1)·G) >> 11 < ceil(p_e · 2**53)``;
* the cascade lists the active seeds in first-occurrence order, then
  every node reached over live edges whose target is active, in BFS
  discovery order (each frontier node's out-edges in CSR order).

Cascades ``[0, a)`` and ``[a, B)`` drawn under one key (``start=a`` for
the second) therefore concatenate to the batch of ``B`` cascades, which
is what the parallel pool's shards rely on.  The result is an
:class:`MCBatch`: the activated sets of all cascades in flat CSR-like
form ``(offsets, nodes)`` — per-cascade spreads are ``np.diff(offsets)``.

Backends
--------
``simulate_ic_batch`` dispatches through the kernel registry
(:mod:`repro.kernels`): ``"vectorized"`` grows all cascades of a batch
layer by layer with NumPy (:func:`~repro.sampling.engine.layered_bfs`,
the sweep the RR engine runs), ``"python"`` is a per-cascade scalar loop,
the literal statement of the stream above, and ``"native"`` is a
compiled per-cascade BFS.  All three return identical batches
(``tests/diffusion/test_keyed_cascades.py``).

Live-edge replay
----------------
:func:`replay_live_edges` is the deterministic sibling: instead of keyed
coins it follows precomputed live/blocked edge states (one boolean row
per realization), which batches `Realization.activated_by`-style policy
replay over many realizations — and powers the possible-world
enumeration of :func:`repro.diffusion.spread.exact_expected_spread`.
Realizations keep their own stream: :func:`sample_live_chunks` draws
``rng.random(m)`` rows from the caller's generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from repro import kernels
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.sampling.engine import (
    GOLDEN,
    draw_key,
    keyed_coins,
    layered_bfs,
    mix64_int,
    set_hashes,
)
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState

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
    of the concatenated chunks equals the live mask
    :meth:`~repro.diffusion.realization.Realization.sample` draws with its
    ``i``-th ``rng.random(m)`` call (``probs`` is the edge-id-ordered
    probability array, ``base.out_csr()[2]``).  Every
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
    """Active seeds in first-occurrence order: every cascade's first members.

    Inactive seeds are ignored and duplicates keep their first occurrence.
    Ids outside ``[0, n)`` are rejected: the kernels index arrays with them.
    """
    resolved: List[int] = []
    seen: Set[int] = set()
    for seed in seeds:
        seed = int(seed)
        if not 0 <= seed < view.n:
            raise ValidationError(f"seed {seed} is not a node id in [0, {view.n})")
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
    key: Optional[int] = None,
    start: int = 0,
) -> MCBatch:
    """Run ``count`` independent IC cascades from ``seeds`` as one batch.

    Parameters
    ----------
    graph:
        Graph or residual view to simulate on; propagation never enters
        inactive nodes and inactive seeds are ignored.
    seeds:
        Seed set shared by every cascade of the batch.
    count:
        Number of independent cascades.
    random_state:
        Seed / generator the batch key is drawn from (one draw per
        non-empty batch; unused when ``key`` is given).
    backend:
        Kernel backend name resolved through the registry
        (:func:`repro.kernels.resolve_backend`): ``None`` honours
        ``REPRO_BACKEND``, then ``"auto"``, the fastest available backend
        (``"native"`` where it builds).  Every backend simulates the
        identical batch, so the choice never changes results.
    key / start:
        Draw cascades ``start … start + count − 1`` of the stream of
        ``key`` instead of cascades ``0 … count − 1`` under a freshly
        drawn key.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if start < 0:
        raise ValidationError(f"start must be >= 0, got {start}")
    spec = kernels.get_backend(backend)
    view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
    if count == 0:
        return _empty_batch(0, view.n)
    if key is None:
        key = draw_key(random_state)
    seed_array = _resolve_seeds(view, seeds)
    if seed_array.size == 0:
        return _empty_batch(count, view.n)
    return spec.simulate_batch(view, seed_array, int(key) % 2**64, int(start), count)


# --------------------------------------------------------------------- #
# vectorized backend
# --------------------------------------------------------------------- #


def _sweep(view: ResidualGraph, seeds: np.ndarray, count: int, live) -> MCBatch:
    """:func:`~repro.sampling.engine.layered_bfs` on the out-CSR from shared seeds."""
    base = view.base
    # prepare_csr centralizes the uint32 -> int64 handling of mmap'd
    # ``.rgx`` node arrays: gathered slices upcast through ``csr.gather``.
    csr = kernels.prepare_csr(*base.out_csr())
    offsets, nodes = layered_bfs(
        csr,
        base.n,
        None if view.num_active == base.n else view.active_mask,
        np.repeat(np.arange(count, dtype=np.int64), seeds.size),
        np.tile(seeds, count),
        count,
        live,
    )
    return MCBatch(offsets=offsets, nodes=nodes, n=base.n)


def _simulate_batch_vectorized(
    view: ResidualGraph, seeds: np.ndarray, key: int, start: int, count: int
) -> MCBatch:
    """All cascades of the batch at once, one layer per step, on keyed coins."""
    thresholds = kernels.coin_thresholds(view.base.out_csr()[2])
    live = keyed_coins(set_hashes(key, start, count), thresholds)
    return _sweep(view, seeds, count, live)


def _replay_batch_vectorized(
    view: ResidualGraph, seeds: np.ndarray, live: np.ndarray
) -> MCBatch:
    """One cascade per world row, all worlds at once, one layer per step."""
    return _sweep(
        view, seeds, int(live.shape[0]), lambda ids, edge_idx: live[ids, edge_idx]
    )


# --------------------------------------------------------------------- #
# python reference backend
# --------------------------------------------------------------------- #


def _simulate_batch_python(
    view: ResidualGraph, seeds: np.ndarray, key: int, start: int, count: int
) -> MCBatch:
    """The keyed cascade stream, one cascade at a time, in plain Python.

    Kept intentionally naive (Python ints, lists, sets and scalar loops):
    it is the literal statement of the stream in the module docstring, and
    the other backends are checked against it.
    """
    out_offsets, out_targets, out_probs = view.base.out_csr()
    seed_list = seeds.tolist()
    members: List[int] = []
    offsets = [0]
    for j in range(start, start + count):
        h = mix64_int(key + j * GOLDEN)
        cascade = list(seed_list)
        seen: Set[int] = set(cascade)
        head = 0
        while head < len(cascade):
            node = cascade[head]
            head += 1
            for e in range(int(out_offsets[node]), int(out_offsets[node + 1])):
                target = int(out_targets[e])
                if target in seen or not view.is_active(target):
                    continue
                threshold = math.ceil(float(out_probs[e]) * 2**53)
                if mix64_int(h + (e + 1) * GOLDEN) >> 11 < threshold:
                    seen.add(target)
                    cascade.append(target)
        members.extend(cascade)
        offsets.append(len(members))
    return MCBatch(
        offsets=np.asarray(offsets, dtype=np.int64),
        nodes=np.asarray(members, dtype=np.int64),
        n=view.n,
    )


# --------------------------------------------------------------------- #
# deterministic live-edge replay (realizations / possible worlds)
# --------------------------------------------------------------------- #


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
