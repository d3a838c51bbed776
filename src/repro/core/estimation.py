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

The schedule decides whether a node's rounds keep their sets
(:func:`refine_until_decided`, the round loop the three algorithms share):

* **carry**, when every ``θ_i`` is fixed before any set is drawn
  (``schedule.fixed_thetas``, ADDATP): the first round draws one key per
  side, and each later round draws only the new sets
  ``θ_{i−1} … θ_i − 1`` of those keys and *adds* their counts;
* **regenerate** otherwise (HATP and HNTP, whose next ``(ε_i, ζ_i)``
  follow from the front estimate): each round draws both batches under
  fresh keys.

Either way each side's sets are drawn through a
:class:`~repro.parallel.pool.SamplingPool`: the front key first, then the
rear key (the order of drawing the two batches one after the other), and
a round of at least :data:`~repro.parallel.pool.MIN_SPLIT` sets per side
submits every shard of both sides to the pool at once.  Each task draws
its shard and counts it, and the counts add up, so the round's counts do
not depend on the thread count.  The collection, its inverted index and
:class:`~repro.sampling.coverage.CoverageCounter` remain for the
many-query callers: the seeding service, the NSG/NDG/IMM greedy and
:class:`~repro.core.oracle.RISSpreadOracle`.

The estimator is valid for one node-iteration only: the conditioning sets
and the residual view are fixed at construction, which is exactly the
window in which the sampling distribution is frozen (seeds are committed
only after the iteration decides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.results import CAP_REASONS, IterationRecord, stop_reason
from repro.graphs.residual import ResidualGraph
from repro.parallel.pool import SamplingPool
from repro.sampling.engine import RRBatch, draw_key, flat_slice_indices, generate_rr_batch
from repro.utils.exceptions import SamplingBudgetExceeded
from repro.utils.rng import RandomState
from repro.utils.validation import require, require_positive


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
        The :class:`SamplingPool` whose threads draw the rounds that
        split (``None`` draws every round in the calling thread).
    backend:
        Kernel backend name, resolved once through the registry (``None``
        honours its defaults; every registered backend samples
        bit-for-bit identical batches).

    ``thetas`` lists the sample size of every round run so far.  Rounds
    regenerate unless ``_carry`` is set, which
    :func:`refine_until_decided` does for a schedule whose θ sequence is
    fixed before sampling (see the module docstring).
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
        "_carry",
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
        backend: Optional[str] = None,
    ) -> None:
        self._view = view
        self._node = int(node)
        self._front_mask = conditioning_mask(view.n, front_conditioning, self._node)
        self._rear_mask = conditioning_mask(view.n, rear_conditioning, self._node)
        self._front_stop = stop_mask(self._front_mask, self._node)
        self._rear_stop = stop_mask(self._rear_mask, self._node)
        self._keys: Optional[Tuple[int, int]] = None
        self._rng = random_state
        self._pool = pool if pool is not None else SamplingPool(1)
        self._carry = False
        self._backend = kernels.resolve_backend(backend)
        self._num_active = view.num_active
        self._theta = 0
        self._front_count = 0
        self._rear_count = 0
        self.thetas: List[int] = []

    def _count(self, task) -> int:
        """``Cov(u | C)`` of one side's sets ``θ_prev + a … θ_prev + b − 1``."""
        (key, mask, stop), (lo, hi) = task
        batch = generate_rr_batch(
            self._view, hi - lo, backend=self._backend, stop=stop, key=key,
            start=self._theta + lo,
        )
        return marginal_count(batch, self._node, mask)

    def estimates(self, theta: int) -> Tuple[float, float, int]:
        """Run one round at sample size ``theta``.

        Returns ``(front_spread, rear_spread, rr_sets_generated)`` where
        the last entry counts only the RR sets *newly drawn* this round
        (``2·θ`` when regenerating, ``2·(θ − θ_prev)`` when carrying).
        """
        self.thetas.append(int(theta))
        if not self._carry:
            self._theta = self._front_count = self._rear_count = 0
        generated = 0
        if theta > self._theta:
            extra = theta - self._theta
            if not self._carry or self._keys is None:
                front_key = draw_key(self._rng)
                self._keys = (front_key, draw_key(self._rng))
            sides = (
                (self._keys[0], self._front_mask, self._front_stop),
                (self._keys[1], self._rear_mask, self._rear_stop),
            )
            shards = self._pool.shards(extra)
            tasks = [(side, shard) for side in sides for shard in shards]
            if len(shards) > 1:
                counts = self._pool.map(self._count, tasks)
            else:  # below the split floor both sides run here, in order
                counts = [self._count(task) for task in tasks]
            self._front_count += sum(counts[: len(shards)])
            self._rear_count += sum(counts[len(shards) :])
            self._theta = theta
            generated = 2 * extra
        if self._theta == 0:
            return 0.0, 0.0, generated
        front_spread = self._front_count * self._num_active / self._theta
        rear_spread = self._rear_count * self._num_active / self._theta
        return front_spread, rear_spread, generated


@dataclass(frozen=True)
class RoundCaps:
    """The engine caps on one node's rounds, and what hitting one does.

    ``on_budget="decide"`` decides with the last round's estimates;
    ``"raise"`` raises :class:`~repro.utils.exceptions.SamplingBudgetExceeded`.
    """

    max_rounds: int
    max_samples_per_round: int
    on_budget: str = "decide"

    def __post_init__(self) -> None:
        require_positive(self.max_rounds, "max_rounds")
        require_positive(self.max_samples_per_round, "max_samples_per_round")
        require(self.on_budget in {"decide", "raise"}, "on_budget must be 'decide' or 'raise'")


#: An algorithm's stopping test: ``(state, front_spread, rear_spread) -> (C1, C2)``.
Conditions = Callable[[Any, float, float], Tuple[bool, bool]]


class NodeRounds(NamedTuple):
    """How one node's refinement rounds ended (:func:`refine_until_decided`)."""

    front_spread: float
    rear_spread: float
    thetas: Tuple[int, ...]
    rr_sets_generated: int
    stop_reason: str

    def record(
        self, node: int, action: str, cost: float, newly_activated: int = 0
    ) -> IterationRecord:
        """The node's :class:`IterationRecord`, its spreads net of ``cost``."""
        return IterationRecord(
            node=node,
            action=action,
            front_estimate=self.front_spread - cost,
            rear_estimate=cost - self.rear_spread,
            rounds=len(self.thetas),
            thetas=self.thetas,
            rr_sets_generated=self.rr_sets_generated,
            newly_activated=newly_activated,
            stop_reason=self.stop_reason,
        )


def refine_until_decided(
    estimator: FrontRearEstimator,
    schedule: Any,
    conditions: Conditions,
    num_active: int,
    caps: RoundCaps,
    algorithm: str,
) -> NodeRounds:
    """Run ``estimator``'s rounds at ``schedule``'s sizes until one stops them.

    Each round takes ``θ`` from the schedule and caps it at
    ``caps.max_samples_per_round``, estimates, and stops at the first
    :data:`~repro.core.results.STOP_REASONS` entry that holds: the
    algorithm's ``conditions`` (C1/C'1, C2/C'2), then the caps.  Otherwise
    the schedule refines on the front estimate.  The estimator carries its
    sets across rounds exactly when ``schedule.fixed_thetas``.  A cap that
    stops the rounds raises under ``caps.on_budget == "raise"``.
    """
    estimator._carry = schedule.fixed_thetas
    state = schedule.initial()
    generated = 0
    while True:
        requested = schedule.sample_size(state)
        front, rear, drawn = estimator.estimates(min(requested, caps.max_samples_per_round))
        generated += drawn
        reason = stop_reason(
            *conditions(state, front, rear),
            requested > caps.max_samples_per_round,
            len(estimator.thetas) >= caps.max_rounds,
        )
        if reason is not None:
            break
        state = schedule.refine(state, num_active, front)
    if reason in CAP_REASONS and caps.on_budget == "raise":
        raise SamplingBudgetExceeded(
            f"{algorithm} hit its sampling budget on node {estimator._node} "
            f"(requested {requested} RR sets per collection)"
        )
    return NodeRounds(front, rear, tuple(estimator.thetas), generated, reason)
