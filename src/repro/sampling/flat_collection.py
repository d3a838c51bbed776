"""Flat, array-backed RR-set collections with vectorized coverage queries.

:class:`FlatRRCollection` is the production counterpart of
:class:`repro.sampling.rr_collection.RRCollection`.  It answers the same
two questions — ``CovR(S)`` and the marginal ``CovR(u | S)`` — but stores
the batch as flat int64 arrays:

* ``(offsets, nodes)``: CSR over RR-set ids (set ``i`` is
  ``nodes[offsets[i]:offsets[i+1]]``), exactly the layout produced by
  :func:`repro.sampling.engine.generate_rr_batch`.  Node entries are
  stored as ``uint32`` whenever the node-id universe fits (``n < 2**32``,
  which is every realistic graph), halving the collection's member-storage
  footprint; offsets stay ``int64`` (total member counts can exceed 32
  bits).  The dtype is stable across ``extend`` / ``extend_generate`` and
  the parallel pool's merge path, and transparently upcasts to ``int64``
  should the universe ever outgrow ``uint32`` (the overflow guard);
* an inverted CSR index ``node -> rr_ids``, so coverage queries are array
  gathers plus boolean-mask arithmetic instead of Python ``dict``/``set``
  traversals.

``extend`` is O(1) amortized: appended batches are buffered and folded into
the flat storage lazily on the next query.  The inverted index is
*extend-aware*: once built, appending ``m`` sets costs one ``argsort`` of
the appended portion plus a linear append-merge into the existing CSR —
the index over the original sets is never recomputed, so a live
collection (tracked by :class:`repro.sampling.coverage.CoverageCounter`)
grows cheaply: ``extend_generate`` appends ``m`` new sets through the
parallel pool when one is supplied.  The refinement rounds of
HATP/HNTP/ADDATP need a single count per batch and skip the collection
altogether (:mod:`repro.core.estimation`).

Collections live in RAM.  The ones that are kept — NSG/NDG's single batch
and the service's warm collections — fit there; the graphs they are
sampled on can still be mmap'd ``.rgx`` files (:mod:`repro.graphs.binary`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph, as_residual
from repro.sampling.engine import RRBatch, flat_slice_indices
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState


class FlatRRCollection:
    """A batch of RR sets stored as flat arrays with a CSR inverted index.

    Parameters
    ----------
    batch:
        The RR sets as an :class:`~repro.sampling.engine.RRBatch`.
    """

    __slots__ = (
        "_offsets",
        "_nodes",
        "_num_active_nodes",
        "_n",
        "_pending",
        "_inv_offsets",
        "_inv_rr_ids",
        "_inv_synced_sets",
    )

    def __init__(self, batch: RRBatch) -> None:
        if batch.num_active_nodes < 0:
            raise ValidationError("num_active_nodes must be >= 0")
        self._num_active_nodes = int(batch.num_active_nodes)
        self._n = int(batch.n)
        self._pending: List[RRBatch] = []
        self._inv_offsets: Optional[np.ndarray] = None
        self._inv_rr_ids: Optional[np.ndarray] = None
        self._inv_synced_sets = 0
        self._offsets = np.asarray(batch.offsets, dtype=np.int64)
        self._nodes = np.asarray(batch.nodes).astype(
            _node_storage_dtype(self._n), copy=False
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def generate(
        cls,
        graph: ProbabilisticGraph | ResidualGraph,
        count: int,
        random_state: RandomState = None,
        backend: Optional[str] = None,
        n_jobs: Optional[int] = None,
        pool: Optional["SamplingPool"] = None,
    ) -> "FlatRRCollection":
        """Generate ``count`` RR sets on ``graph`` with the batched engine.

        ``pool`` draws the batch on a held
        :class:`~repro.parallel.pool.SamplingPool`; otherwise a pool of
        ``n_jobs`` threads does (``None`` honours ``REPRO_JOBS``, then
        uses every usable core), which splits only batches of at least
        :data:`~repro.parallel.pool.MIN_SPLIT` sets.  Every path samples
        the same keyed stream, so the sets are bit-for-bit independent of
        the thread count.
        """
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        return cls(dispatch_generate(view, count, random_state, backend, n_jobs, pool))

    @classmethod
    def from_rr_sets(
        cls,
        rr_sets: Sequence[Iterable[int]],
        num_active_nodes: int,
        n: Optional[int] = None,
    ) -> "FlatRRCollection":
        """Build a collection from explicit RR sets (tests, hand-built cases)."""
        return cls(_batch_from_sets(rr_sets, num_active_nodes, n))

    def extend(self, rr_sets: Union[RRBatch, Iterable[Iterable[int]]]) -> None:
        """Append RR sets (an ``RRBatch`` or explicit sets); index merged lazily."""
        if isinstance(rr_sets, RRBatch):
            batch = rr_sets
        else:
            batch = _batch_from_sets(list(rr_sets), self._num_active_nodes, self._n)
        if batch.n > self._n:
            self._n = int(batch.n)
        self._pending.append(batch)

    def extend_generate(
        self,
        graph: ProbabilisticGraph | ResidualGraph,
        count: int,
        random_state: RandomState = None,
        backend: Optional[str] = None,
        n_jobs: Optional[int] = None,
        pool: Optional["SamplingPool"] = None,
    ) -> None:
        """Generate ``count`` more RR sets on ``graph`` and append them.

        The incremental twin of :meth:`generate`: a refinement round that
        needs ``θ_i`` sets but already holds ``θ_{i−1}`` calls this with
        ``count = θ_i − θ_{i−1}`` instead of regenerating from scratch.
        The extension must be sampled on the *same* residual state as the
        existing sets (checked through ``num_active_nodes``) — mixing
        scaling factors would silently bias the RIS estimator.  ``pool`` /
        ``n_jobs`` route the new batch exactly as in :meth:`generate`; the extension is a stand-alone
        batch of ``count`` sets under its own key (see
        ``docs/parallelism.md``).
        """
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        view = as_residual(graph) if isinstance(graph, ProbabilisticGraph) else graph
        batch = dispatch_generate(view, count, random_state, backend, n_jobs, pool)
        if batch.num_active_nodes != self._num_active_nodes:
            raise ValidationError(
                "cannot extend a collection with sets sampled on a different "
                f"residual state (num_active_nodes {batch.num_active_nodes} "
                f"!= {self._num_active_nodes})"
            )
        self.extend(batch)

    def _consolidate(self) -> None:
        # The node dtype follows the (possibly grown) universe: downsized
        # storage upcasts to int64 if `extend` ever pushed `n` past the
        # uint32 range — the overflow guard of the compact representation.
        dtype = _node_storage_dtype(self._n)
        if self._nodes.dtype != dtype:
            self._nodes = self._nodes.astype(dtype)
        if not self._pending:
            return
        offsets_parts = [self._offsets]
        nodes_parts = [self._nodes]
        last_offset = int(self._offsets[-1])
        for batch in self._pending:
            offsets_parts.append(last_offset + batch.offsets[1:])
            nodes_parts.append(np.asarray(batch.nodes).astype(dtype, copy=False))
            last_offset += int(batch.offsets[-1])
        self._offsets = np.concatenate(offsets_parts)
        self._nodes = np.concatenate(nodes_parts)
        self._pending = []

    def _index(self) -> tuple:
        """The inverted CSR index ``node -> rr_ids`` (built/merged on demand)."""
        self._consolidate()
        num_sets = int(self._offsets.shape[0] - 1)
        if self._inv_offsets is None:
            counts = np.bincount(self._nodes, minlength=self._n)
            self._inv_offsets = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(counts, out=self._inv_offsets[1:])
            order = np.argsort(self._nodes, kind="stable")
            rr_of_position = np.repeat(
                np.arange(num_sets, dtype=np.int64), np.diff(self._offsets)
            )
            self._inv_rr_ids = rr_of_position[order]
            self._inv_synced_sets = num_sets
        elif self._inv_synced_sets < num_sets:
            self._merge_index(num_sets)
        return self._inv_offsets, self._inv_rr_ids

    def _merge_index(self, num_sets: int) -> None:
        """Append-merge the sets added since the last index build into the CSR.

        Only the appended suffix is sorted; the existing per-node runs are
        copied to their shifted positions with two bulk scatters.  Within a
        node's run rr ids stay ascending (appended ids are all larger), so
        :meth:`sets_containing` keeps returning sorted ids.
        """
        n = self._n
        synced = self._inv_synced_sets
        old_counts = np.diff(self._inv_offsets)
        if old_counts.shape[0] < n:
            old_counts = np.concatenate(
                [old_counts, np.zeros(n - old_counts.shape[0], dtype=np.int64)]
            )
        start = int(self._offsets[synced])
        appended_nodes = self._nodes[start:]
        appended_counts = np.bincount(appended_nodes, minlength=n)
        order = np.argsort(appended_nodes, kind="stable")
        appended_rr = np.repeat(
            np.arange(synced, num_sets, dtype=np.int64),
            np.diff(self._offsets[synced:]),
        )
        new_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(old_counts + appended_counts, out=new_offsets[1:])
        merged = np.empty(int(new_offsets[-1]), dtype=np.int64)
        merged[flat_slice_indices(new_offsets[:-1], old_counts)] = self._inv_rr_ids
        merged[
            flat_slice_indices(new_offsets[:-1] + old_counts, appended_counts)
        ] = appended_rr[order]
        self._inv_offsets = new_offsets
        self._inv_rr_ids = merged
        self._inv_synced_sets = num_sets

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_sets(self) -> int:
        """θ — the number of RR sets in the collection."""
        self._consolidate()
        return int(self._offsets.shape[0] - 1)

    @property
    def num_active_nodes(self) -> int:
        """``n_i`` of the residual graph the sets were sampled on."""
        return self._num_active_nodes

    @property
    def n(self) -> int:
        """Node-id universe of the base graph the sets were sampled on."""
        return self._n

    def flat(self) -> tuple:
        """The consolidated flat ``(offsets, nodes)`` arrays (do not mutate).

        This is the raw CSR the batch engine produced; stateful consumers
        such as :class:`repro.sampling.coverage.CoverageCounter` read it
        directly for bulk gathers instead of going through per-set views.
        """
        self._consolidate()
        return self._offsets, self._nodes

    @property
    def rr_sets(self) -> List[Set[int]]:
        """The RR sets materialised as Python sets (compat; costs O(total size))."""
        self._consolidate()
        offsets = self._offsets
        node_list = self._nodes.tolist()
        return [
            set(node_list[offsets[i] : offsets[i + 1]]) for i in range(self.num_sets)
        ]

    def set_at(self, index: int) -> np.ndarray:
        """Members of RR set ``index`` (read-only view)."""
        self._consolidate()
        return self._nodes[self._offsets[index] : self._offsets[index + 1]]

    def sets_containing(self, node: int) -> np.ndarray:
        """Ids of the RR sets that contain ``node`` (int64 array)."""
        node = int(node)
        if node < 0 or node >= self._n:
            return np.zeros(0, dtype=np.int64)
        inv_offsets, inv_rr_ids = self._index()
        return inv_rr_ids[inv_offsets[node] : inv_offsets[node + 1]]

    def total_size(self) -> int:
        """Sum of RR-set sizes (a proxy for generation cost)."""
        self._consolidate()
        return int(self._nodes.shape[0])

    def sizes(self) -> np.ndarray:
        """Array of RR-set sizes."""
        self._consolidate()
        return np.diff(self._offsets)

    def nodes_appearing(self) -> np.ndarray:
        """Node ids appearing in at least one RR set (sorted)."""
        inv_offsets, _ = self._index()
        return np.nonzero(np.diff(inv_offsets) > 0)[0]

    # ------------------------------------------------------------------ #
    # coverage queries
    # ------------------------------------------------------------------ #

    def covering_ids(self, nodes: Iterable[int]) -> np.ndarray:
        """Concatenated (non-unique) rr ids of the sets touched by ``nodes``.

        One vectorized gather over the inverted CSR: the per-node slices are
        addressed with a single repeat/arange index instead of a Python
        slice per node.  Out-of-range ids are ignored.
        """
        node_array = _as_node_array(nodes)
        if node_array.size == 0:
            return np.zeros(0, dtype=np.int64)
        inv_offsets, inv_rr_ids = self._index()
        node_array = node_array[(node_array >= 0) & (node_array < self._n)]
        starts = inv_offsets[node_array]
        degrees = inv_offsets[node_array + 1] - starts
        if int(degrees.sum()) == 0:
            return np.zeros(0, dtype=np.int64)
        return inv_rr_ids[flat_slice_indices(starts, degrees)]

    def covered_mask(self, nodes: Iterable[int]) -> np.ndarray:
        """Boolean array over RR-set ids marking the sets intersected by ``nodes``."""
        mask = np.zeros(self.num_sets, dtype=bool)
        ids = self.covering_ids(nodes)
        if ids.size:
            mask[ids] = True
        return mask

    def coverage(self, nodes: Iterable[int]) -> int:
        """``CovR(S)``: number of RR sets intersecting ``nodes``."""
        ids = self.covering_ids(nodes)
        if ids.size == 0:
            # Empty conditioning set (or no touched sets): no full-size
            # bool allocation, no index build on a fresh collection.
            return 0
        mask = np.zeros(self.num_sets, dtype=bool)
        mask[ids] = True
        return int(np.count_nonzero(mask))

    def batch_coverage(self, seed_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """``CovR(S_j)`` for many seed sets in one fused index pass.

        The batched twin of :meth:`coverage`, built for the serving
        layer's request coalescer: all member nodes are gathered through
        the inverted CSR with a single repeat/arange index, covered RR-set
        ids are tagged with their owning query, and one ``np.unique`` over
        the tagged ids yields every query's coverage simultaneously —
        agreeing integer-for-integer with per-set :meth:`coverage` calls.
        """
        counts = np.zeros(len(seed_sets), dtype=np.int64)
        if len(seed_sets) == 0 or self.num_sets == 0:
            return counts
        node_chunks = [_as_node_array(nodes) for nodes in seed_sets]
        lengths = np.asarray([chunk.size for chunk in node_chunks], dtype=np.int64)
        if int(lengths.sum()) == 0:
            return counts
        nodes = np.concatenate([c for c in node_chunks if c.size])
        owners = np.repeat(np.arange(len(seed_sets), dtype=np.int64), lengths)
        keep = (nodes >= 0) & (nodes < self._n)
        nodes, owners = nodes[keep], owners[keep]
        if nodes.size == 0:
            return counts
        inv_offsets, inv_rr_ids = self._index()
        starts = inv_offsets[nodes]
        degrees = inv_offsets[nodes + 1] - starts
        if int(degrees.sum()) == 0:
            return counts
        covered = inv_rr_ids[flat_slice_indices(starts, degrees)].astype(np.int64)
        tagged = np.repeat(owners, degrees) * self.num_sets + covered
        unique_owner_sets = np.unique(tagged) // self.num_sets
        counts += np.bincount(unique_owner_sets, minlength=len(seed_sets))
        return counts

    def estimate_spreads(self, seed_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """``Ê[I(S_j)]`` for many seed sets via one :meth:`batch_coverage` call."""
        if self.num_sets == 0:
            return np.zeros(len(seed_sets), dtype=np.float64)
        return (
            self.batch_coverage(seed_sets) * self._num_active_nodes / self.num_sets
        )

    def marginal_coverage(self, node: int, conditioning_set: Iterable[int]) -> int:
        """``CovR(u | S)``: RR sets containing ``u`` but disjoint from ``S``.

        ``conditioning_set`` may be any iterable of node ids; ndarray inputs
        take a pure-array path with no per-call Python-set conversion.
        """
        node = int(node)
        ids = self.sets_containing(node)
        if ids.size == 0:
            return 0
        if isinstance(conditioning_set, np.ndarray):
            conditioning = conditioning_set[conditioning_set != node]
        else:
            conditioning_py = {int(v) for v in conditioning_set}
            conditioning_py.discard(node)
            conditioning = conditioning_py
        if len(conditioning) == 0:
            return int(ids.size)
        mask = self.covered_mask(conditioning)
        return int(ids.size - np.count_nonzero(mask[ids]))

    # ------------------------------------------------------------------ #
    # spread estimation
    # ------------------------------------------------------------------ #

    def estimate_spread(self, nodes: Iterable[int]) -> float:
        """``Ê[I(S)] = CovR(S) * n_i / θ`` (0 when the collection is empty)."""
        if self.num_sets == 0:
            return 0.0
        return self.coverage(nodes) * self._num_active_nodes / self.num_sets

    def estimate_marginal_spread(self, node: int, conditioning_set: Iterable[int]) -> float:
        """``Ê[I(u | S)] = CovR(u | S) * n_i / θ``."""
        if self.num_sets == 0:
            return 0.0
        return (
            self.marginal_coverage(node, conditioning_set)
            * self._num_active_nodes
            / self.num_sets
        )

    def estimate_fraction(self, nodes: Iterable[int]) -> float:
        """Covered fraction ``CovR(S)/θ`` — the ``[0, 1]`` random variable of Lemma 7."""
        if self.num_sets == 0:
            return 0.0
        return self.coverage(nodes) / self.num_sets

    def __len__(self) -> int:
        return self.num_sets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FlatRRCollection sets={self.num_sets} n_i={self._num_active_nodes}>"


def _node_storage_dtype(n: int) -> np.dtype:
    """Member-storage dtype for a node-id universe of size ``n``.

    ``uint32`` halves the flat member arrays whenever every node id fits;
    the int64 fallback is the overflow guard for (hypothetical) universes
    beyond ``2**32`` ids.
    """
    return np.dtype(np.uint32) if 0 <= n < 2**32 else np.dtype(np.int64)


def _as_node_array(nodes: Iterable[int]) -> np.ndarray:
    """Normalise a conditioning set to an int64 array (no-copy for ndarrays)."""
    if isinstance(nodes, np.ndarray):
        return nodes.astype(np.int64, copy=False)
    return np.asarray(list(nodes), dtype=np.int64)


def dispatch_generate(
    view: ResidualGraph,
    count: int,
    random_state: RandomState,
    backend: Optional[str],
    n_jobs: Optional[int],
    pool: Optional["SamplingPool"],
) -> RRBatch:
    """Generate one batch through ``pool``, or a pool of ``n_jobs`` threads.

    The one routing rule behind :meth:`FlatRRCollection.generate` and
    ``extend_generate``; the batch is the one
    :func:`~repro.sampling.engine.generate_rr_batch` returns, whatever the
    thread count.
    """
    from repro.parallel.pool import SamplingPool

    if pool is not None:
        return pool.generate(view, count, random_state, backend=backend)
    with SamplingPool(n_jobs) as pool:
        return pool.generate(view, count, random_state, backend=backend)


def _batch_from_sets(
    rr_sets: Sequence[Iterable[int]],
    num_active_nodes: int,
    n: Optional[int] = None,
) -> RRBatch:
    """Flatten explicit RR sets into an :class:`RRBatch`."""
    materialized = [sorted({int(v) for v in rr}) for rr in rr_sets]
    sizes = np.asarray([len(rr) for rr in materialized], dtype=np.int64)
    offsets = np.zeros(len(materialized) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = [node for rr in materialized for node in rr]
    nodes = np.asarray(flat, dtype=np.int64)
    if nodes.size and nodes.min() < 0:
        raise ValidationError("RR sets contain negative node ids")
    universe = int(nodes.max()) + 1 if nodes.size else 0
    if n is not None:
        universe = max(universe, int(n))
    return RRBatch(
        offsets=offsets,
        nodes=nodes,
        num_active_nodes=int(num_active_nodes),
        n=universe,
    )
