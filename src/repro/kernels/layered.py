"""The per-layer forward Monte-Carlo driver of the ``"native"`` backend.

The native kernels (:mod:`repro.kernels.native_backend`) replace the
*per-layer array work* of the NumPy forward engines — CSR gather,
residual filter, coin flips, hash-set dedup, frontier construction —
with one compiled sweep per layer.  The driver here runs the layer loop
so that the stream contract is structurally the ``"vectorized"``
reference's:

1. each layer's buffers are sized by the frontier's degree sum (an
   offsets-only read, an upper bound on the layer's survivors);
2. a compiled sweep walks the frontier's CSR slices in frontier order,
   skips edges whose endpoint is inactive (the residual filter *before*
   any coin is flipped), and draws one coin per live edge straight from
   the generator's C ``next_double`` entry point — the function the
   reference's per-layer ``rng.random`` call loops over — so the consumed
   stream, and the generator's end state for callers that share one
   generator across successive batches, equal the reference's;
3. the sweep applies the strict ``flip < prob`` test and inserts each
   survivor into an open-addressing hash set if absent, in edge order,
   which reproduces the reference's two-stage dedup (drop pairs seen in
   earlier layers, then keep first occurrences within the layer) pair
   for pair.

Live-edge replay runs the same loop with a deterministic sweep (live-mask
lookups instead of coins).  Batches are assembled by a compiled stable
counting sort (``group_pairs``) whose output equals the reference's
stable ``argsort`` + ``bincount`` grouping element for element.

RR sets do not come through here: their keyed stream lets the native
backend run one reverse BFS per set instead.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.graphs.residual import ResidualGraph
from repro.kernels.registry import prepare_csr


def as_uint8_mask(mask: np.ndarray) -> np.ndarray:
    """A boolean mask as a C-contiguous uint8 array (zero-copy if possible)."""
    mask = np.ascontiguousarray(mask)
    if mask.dtype == np.bool_:
        return mask.view(np.uint8)
    return mask.astype(np.uint8)


class _HashSet:
    """Open-addressing int64 key set driven by compiled probe loops.

    The table is a power-of-two int64 array with ``-1`` as the empty
    slot (valid keys ``id*n + node`` are always >= 0); occupancy is
    tracked here and the load factor is kept strictly below one half by
    :meth:`reserve` (growth rehashes through the compiled ``rehash``).
    """

    __slots__ = ("kernels", "table", "size")

    def __init__(self, kernels, expected: int) -> None:
        self.kernels = kernels
        self.table = np.full(_capacity_for(expected), -1, dtype=np.int64)
        self.size = 0

    def reserve(self, incoming: int) -> None:
        needed = _capacity_for(self.size + incoming)
        if needed > self.table.shape[0]:
            grown = np.full(needed, -1, dtype=np.int64)
            self.kernels.rehash(self.table, grown)
            self.table = grown

    def insert_distinct(self, keys: np.ndarray) -> None:
        self.reserve(keys.shape[0])
        self.kernels.insert_keys(keys, self.table)
        self.size += int(keys.shape[0])


def _capacity_for(entries: int) -> int:
    capacity = 16
    while capacity < 2 * (entries + 1):
        capacity <<= 1
    return capacity


def _frontier_sweep(
    kernels,
    bound,
    advance: Callable,
    frontier_ids: np.ndarray,
    frontier_nodes: np.ndarray,
    n: int,
    count: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The layer loop shared by simulate and replay.

    ``advance(ids, nodes, table, next_ids, next_nodes)`` is the layer's
    compiled sweep: it adds each surviving ``(id, node)`` pair not yet in
    ``table`` to the table and the two buffers, and returns how many.
    Forward IC simulation and live-edge replay differ only in that sweep;
    the loop — and therefore the RNG contract — is one piece of code.
    """
    layer_ids = [frontier_ids]
    layer_nodes = [frontier_nodes]
    table = _HashSet(kernels, frontier_ids.shape[0])
    if frontier_ids.size:
        table.insert_distinct(frontier_ids * n + frontier_nodes)

    while frontier_nodes.size:
        capacity = int(bound.degree_sum(frontier_nodes))
        if capacity == 0:
            break
        table.reserve(capacity)
        next_ids = np.empty(capacity, dtype=np.int64)
        next_nodes = np.empty(capacity, dtype=np.int64)
        survivors = int(
            advance(frontier_ids, frontier_nodes, table.table, next_ids, next_nodes)
        )
        table.size += survivors
        if survivors == 0:
            break
        # Slice views, not copies: the buffers are layer-fresh, so the
        # next round never overwrites them.
        frontier_ids = next_ids[:survivors]
        frontier_nodes = next_nodes[:survivors]
        layer_ids.append(frontier_ids)
        layer_nodes.append(frontier_nodes)

    # A stable counting sort by id — identical output to the reference's
    # stable argsort + bincount assembly.
    return kernels.group_pairs(
        np.concatenate(layer_ids), np.concatenate(layer_nodes), count
    )


def simulate_layered(view: ResidualGraph, seeds: np.ndarray, count: int, rng, kernels):
    """Native forward IC simulation (out-CSR, shared seeds).

    Fully-active views take the sweep that never reads the residual mask.
    """
    from repro.diffusion.mc_engine import MCBatch

    n = view.base.n
    bound = kernels.bind(
        prepare_csr(*view.base.out_csr()), as_uint8_mask(view.active_mask), rng
    )
    sweep = bound.sweep_rng_full if view.num_active == n else bound.sweep_rng
    offsets, nodes = _frontier_sweep(
        kernels,
        bound,
        lambda ids, nodes, table, next_ids, next_nodes: sweep(
            ids, nodes, n, table, next_ids, next_nodes
        ),
        np.repeat(np.arange(count, dtype=np.int64), seeds.size),
        np.tile(seeds, count),
        n,
        count,
    )
    return MCBatch(offsets=offsets, nodes=nodes, n=n)


def replay_layered(view: ResidualGraph, seeds: np.ndarray, live: np.ndarray, kernels):
    """Native deterministic live-edge replay (no randomness)."""
    from repro.diffusion.mc_engine import MCBatch

    base = view.base
    n = base.n
    m = base.m
    count = int(live.shape[0])
    bound = kernels.bind(prepare_csr(*base.out_csr()), as_uint8_mask(view.active_mask))
    live_u8 = as_uint8_mask(live)

    frontier_ids = np.repeat(np.arange(count, dtype=np.int64), seeds.size)
    frontier_nodes = np.tile(seeds, count)
    offsets, nodes = _frontier_sweep(
        kernels,
        bound,
        lambda ids, nodes, table, next_ids, next_nodes: bound.replay_advance(
            ids, nodes, live_u8, m, n, table, next_ids, next_nodes
        ),
        frontier_ids,
        frontier_nodes,
        n,
        count,
    )
    return MCBatch(offsets=offsets, nodes=nodes, n=n)
