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
turned into boolean masks once per node-iteration.  Two sampling policies
share this counting:

* **regenerate** (``sample_reuse=False``, the historical default): both
  batches are drawn from scratch every round;
* **reuse** (``sample_reuse=True``): the estimator keeps running counts
  and θ across the iteration's rounds, draws only the ``θ_i − θ_{i−1}``
  new sets per round and *adds* their counts.

Both policies draw their batches through
:func:`~repro.sampling.flat_collection.dispatch_generate`, exactly as
``FlatRRCollection.generate`` and ``extend_generate`` do (same pool,
``REPRO_JOBS`` and backend routing; front before rear), and each count
equals that collection's inverted-index ``marginal_coverage``
(differential-tested in ``tests/core/test_estimation.py``), so the RNG
stream, every estimate and every decision are those of the
collection-based estimator this replaced.  The collection, its inverted
index and :class:`~repro.sampling.coverage.CoverageCounter` remain for
the many-query callers: the seeding service, the NSG/NDG/IMM greedy and
:class:`~repro.core.oracle.RISSpreadOracle`.

The estimator is valid for one node-iteration only: the conditioning sets
and the residual view are fixed at construction, which is exactly the
window in which the sampling distribution is frozen (seeds are committed
only after the iteration decides).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.graphs.residual import ResidualGraph
from repro.parallel.pool import SamplingPool
from repro.sampling.engine import RRBatch, flat_slice_indices
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
        The algorithm's RNG (consumed identically to the historical loop
        on the regenerate path).
    pool:
        Optional persistent :class:`SamplingPool` for generation.
    sample_reuse:
        Select the reuse policy described in the module docstring.
    backend:
        Kernel backend name forwarded to every generation call (``None``
        resolves through the registry's defaults; every registered
        backend samples bit-for-bit identical batches).
    """

    __slots__ = (
        "_view",
        "_node",
        "_front_mask",
        "_rear_mask",
        "_rng",
        "_pool",
        "_reuse",
        "_backend",
        "_num_active",
        "_theta",
        "_front_count",
        "_rear_count",
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
        self._rng = random_state
        self._pool = pool
        self._reuse = bool(sample_reuse)
        self._backend = backend
        self._num_active = view.num_active
        self._theta = 0
        self._front_count = 0
        self._rear_count = 0

    def _count(self, count: int, mask: np.ndarray) -> int:
        """Draw ``count`` RR sets and return their ``Cov(u | C)``."""
        batch = dispatch_generate(
            self._view, count, self._rng, self._backend, None, self._pool
        )
        return marginal_count(batch, self._node, mask)

    def estimates(self, theta: int) -> Tuple[float, float, int]:
        """Run one round at sample size ``theta``.

        Returns ``(front_spread, rear_spread, rr_sets_generated)`` where
        the last entry counts only the RR sets *newly drawn* this round
        (``2·θ`` when regenerating, ``2·(θ − θ_prev)`` when reusing).
        """
        if not self._reuse:
            self._theta = self._front_count = self._rear_count = 0
        generated = 0
        if theta > self._theta:
            extra = theta - self._theta
            self._front_count += self._count(extra, self._front_mask)
            self._rear_count += self._count(extra, self._rear_mask)
            self._theta = theta
            generated = 2 * extra
        if self._theta == 0:
            return 0.0, 0.0, generated
        front_spread = self._front_count * self._num_active / self._theta
        rear_spread = self._rear_count * self._num_active / self._theta
        return front_spread, rear_spread, generated
