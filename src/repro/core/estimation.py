"""Per-node-iteration front/rear marginal-spread estimation.

HATP, HNTP and ADDATP all run the same inner machinery per examined node:
each refinement round draws two independent RR batches ``R1``, ``R2`` of
the schedule's current size ``θ_i`` and estimates the *front* marginal
spread ``Ê[I(u | S_{i−1})] = Cov_{R1}(u | S_{i−1}) · n_i/θ_i`` and the
*rear* marginal spread
``Ê[I(u | T_{i−1} \\ {u})] = Cov_{R2}(u | T_{i−1} \\ {u}) · n_i/θ_i``.
:class:`FrontRearEstimator` owns that state machine so the three
algorithms share one implementation.

A round needs only those two integers, so the estimator never wraps a
batch in a collection or builds an inverted index: it counts
``Cov(u | C)`` straight from each batch's flat ``(offsets, nodes)`` arrays
(:func:`marginal_count`) and drops the batch.  The conditioning sets are
turned into boolean masks once per node-iteration.

Each batch is drawn stop-truncated (hit-and-stop, SUBSIM; Guo et al.,
SIGMOD 2020): a set ends at its first member of ``C \\ {u}``, or at ``u``
when ``C \\ {u}`` is empty (:func:`stop_mask`).  A truncated set keeps
the member that ended it, so it misses ``C`` exactly when the full set
does, and it holds ``u`` whenever that matters — the count is exactly the
full batch's (``tests/sampling/test_keyed_stream.py``), at a fraction of
the traversal.

Two sampling policies share this counting:

* **regenerate** (``sample_reuse=False``, the default): each round draws
  both batches under fresh keys;
* **reuse** (``sample_reuse=True``): the first round draws one key per
  side, and each later round draws only the new sets
  ``θ_{i−1} … θ_i − 1`` of those keys and *adds* their counts.

Both policies draw through
:func:`~repro.sampling.flat_collection.dispatch_generate` (same pool,
``REPRO_JOBS`` and backend routing as ``FlatRRCollection.generate``;
front before rear).  The collection, its inverted index and
:class:`~repro.sampling.coverage.CoverageCounter` remain for the
many-query callers: the seeding service, the NSG/NDG/IMM greedy and
:class:`~repro.core.oracle.RISSpreadOracle`.

The estimator is valid for one node-iteration only: the conditioning sets
and the residual view are fixed at construction, which is exactly the
window in which the sampling distribution is frozen (seeds are committed
only after the iteration decides).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.residual import ResidualGraph
from repro.parallel.pool import SamplingPool
from repro.sampling.engine import RRBatch, draw_key, flat_slice_indices
from repro.sampling.flat_collection import dispatch_generate
from repro.utils.rng import RandomState


def conditioning_mask(n: int, conditioning: Iterable[int], node: int) -> np.ndarray:
    """Boolean mask of ``C \\ {u}`` over the node-id universe ``[0, n)``.

    Out-of-range ids are ignored and ``u`` itself is excluded, the same
    rule :meth:`FlatRRCollection.marginal_coverage` applies.
    """
    ids = np.fromiter((int(v) for v in conditioning), dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[ids[(ids >= 0) & (ids < n)]] = True
    if 0 <= node < n:
        mask[node] = False
    return mask


def stop_mask(mask: np.ndarray, node: int) -> np.ndarray:
    """Where a set sampled for ``Cov(u | C)`` may end: ``C \\ {u}``, else ``{u}``.

    ``mask`` is the :func:`conditioning_mask` of ``C \\ {u}``.  A set that
    meets ``C`` is not counted whatever else it holds, so it can end
    there; with ``C \\ {u}`` empty, a set counts as soon as it holds
    ``u``.
    """
    if mask.any() or not 0 <= node < mask.shape[0]:
        return mask
    only_node = np.zeros_like(mask)
    only_node[node] = True
    return only_node


def marginal_count(batch: RRBatch, node: int, mask: np.ndarray) -> int:
    """``Cov(u | C)``: RR sets of ``batch`` that contain ``node`` and miss ``mask``.

    One linear pass finds ``u``'s member positions; ``searchsorted`` on
    the offsets maps them to their sets, and only those sets' members are
    tested against the mask (``mask`` from :func:`conditioning_mask`).
    """
    offsets, nodes = batch.offsets, batch.nodes
    positions = np.flatnonzero(nodes == node)
    if positions.size == 0:
        return 0
    set_ids = np.searchsorted(offsets, positions, side="right") - 1
    starts = offsets[set_ids]
    sizes = offsets[set_ids + 1] - starts
    hit = mask[nodes[flat_slice_indices(starts, sizes)]]
    # Every set here holds u, so no segment is empty.
    covered = np.logical_or.reduceat(hit, np.cumsum(sizes) - sizes)
    return int(positions.size - np.count_nonzero(covered))


class FrontRearEstimator:
    """Front/rear spread estimates for one node across refinement rounds.

    Parameters
    ----------
    view:
        Residual view to sample on (frozen for the iteration).
    node:
        The node ``u`` being examined.
    front_conditioning / rear_conditioning:
        ``S_{i−1}`` and ``T_{i−1} \\ {u}`` — fixed for the iteration.
    random_state:
        The algorithm's RNG; each batch key is one draw from it.
    pool:
        Optional persistent :class:`SamplingPool` for generation.
    sample_reuse:
        Select the reuse policy described in the module docstring.
    backend:
        Kernel backend name forwarded to every generation call (``None``
        resolves through the registry's defaults; every registered
        backend samples bit-for-bit identical batches).

    ``thetas`` lists the sample size of every round run so far.
    """

    __slots__ = (
        "_view",
        "_node",
        "_front_mask",
        "_rear_mask",
        "_front_stop",
        "_rear_stop",
        "_keys",
        "_rng",
        "_pool",
        "_reuse",
        "_backend",
        "_num_active",
        "_theta",
        "_front_count",
        "_rear_count",
        "thetas",
    )

    def __init__(
        self,
        view: ResidualGraph,
        node: int,
        front_conditioning: Iterable[int],
        rear_conditioning: Iterable[int],
        random_state: RandomState,
        pool: Optional[SamplingPool] = None,
        sample_reuse: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        self._view = view
        self._node = int(node)
        self._front_mask = conditioning_mask(view.n, front_conditioning, self._node)
        self._rear_mask = conditioning_mask(view.n, rear_conditioning, self._node)
        self._front_stop = stop_mask(self._front_mask, self._node)
        self._rear_stop = stop_mask(self._rear_mask, self._node)
        self._keys: Tuple[Optional[int], Optional[int]] = (None, None)
        self._rng = random_state
        self._pool = pool
        self._reuse = bool(sample_reuse)
        self._backend = backend
        self._num_active = view.num_active
        self._theta = 0
        self._front_count = 0
        self._rear_count = 0
        self.thetas: List[int] = []

    def _count(
        self, count: int, mask: np.ndarray, stop: np.ndarray, key: Optional[int]
    ) -> int:
        """``Cov(u | C)`` of sets ``θ_prev … θ_prev + count − 1`` of one key.

        ``key`` ``None`` draws a fresh key from the algorithm's RNG.
        """
        batch = dispatch_generate(
            self._view, count, self._rng, self._backend, None, self._pool,
            stop=stop, key=key, start=self._theta,
        )
        return marginal_count(batch, self._node, mask)

    def estimates(self, theta: int) -> Tuple[float, float, int]:
        """Run one round at sample size ``theta``.

        Returns ``(front_spread, rear_spread, rr_sets_generated)`` where
        the last entry counts only the RR sets *newly drawn* this round
        (``2·θ`` when regenerating, ``2·(θ − θ_prev)`` when reusing).
        """
        self.thetas.append(int(theta))
        if not self._reuse:
            self._theta = self._front_count = self._rear_count = 0
        generated = 0
        if theta > self._theta:
            extra = theta - self._theta
            if self._reuse and self._keys[0] is None:
                front_key = draw_key(self._rng)
                self._keys = (front_key, draw_key(self._rng))
            front_key, rear_key = self._keys
            self._front_count += self._count(
                extra, self._front_mask, self._front_stop, front_key
            )
            self._rear_count += self._count(
                extra, self._rear_mask, self._rear_stop, rear_key
            )
            self._theta = theta
            generated = 2 * extra
        if self._theta == 0:
            return 0.0, 0.0, generated
        front_spread = self._front_count * self._num_active / self._theta
        rear_spread = self._rear_count * self._num_active / self._theta
        return front_spread, rear_spread, generated
