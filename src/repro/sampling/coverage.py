"""Stateful, incrementally-maintained coverage counters over RR collections.

Every noise-model algorithm in this repository ultimately asks one of two
questions of a batch of RR sets: ``CovR(S)`` and the marginal
``CovR(u | S)``.  :class:`~repro.sampling.flat_collection.FlatRRCollection`
answers them *statelessly* — each ``marginal_coverage`` call rebuilds the
covered mask of the whole conditioning set from scratch.  That is fine for
one-shot queries but wasteful for **greedy selection** (IMM / NSG / NDG /
the oracle's target builder / the service's ``topk``): the conditioning
set grows by one node per pick, yet every pick used to rescan every
candidate's ``sets_containing`` list against the mask.  (The refinement
rounds of HATP / HNTP / ADDATP need one ``Cov(u | C)`` per batch and count
it without any collection or index, see :mod:`repro.core.estimation`.)

:class:`CoverageCounter` maintains the counts incrementally, both when
the conditioning set changes and when the collection grows:

* ``cover_counts[j] = |RR_j ∩ S|`` per RR set (a multiset count, so nodes
  can also be *removed* from ``S`` — NDG's shrinking rear set);
* ``marginal_counts[v]`` = number of *uncovered* RR sets containing ``v``
  for every node at once — whole-array ``argmax`` over it is the
  vectorized lazy-greedy selection rule.

Updates are cover-and-subtract passes over the collection's CSR storage:
adding nodes to ``S`` gathers the touched rr ids through the inverted
index, finds the newly covered sets, and subtracts their members from the
per-node counts with one ``bincount``; :meth:`sync` absorbs collection
growth by counting ``|RR_j ∩ S|`` for the appended sets only.  All state
is exact (integer counts), so every query agrees bit-for-bit with the
stateless :meth:`FlatRRCollection.marginal_coverage` — the property the
differential tests in ``tests/sampling/test_coverage_counter.py`` pin.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.sampling.engine import flat_slice_indices
from repro.sampling.flat_collection import FlatRRCollection
from repro.utils.exceptions import ValidationError


class CoverageCounter:
    """Incremental ``CovR(S)`` / ``CovR(u | S)`` state over a collection.

    Parameters
    ----------
    collection:
        The :class:`FlatRRCollection` to track.  The counter holds a
        reference and transparently absorbs later ``extend`` /
        ``extend_generate`` growth (see :meth:`sync`); it never mutates
        the collection.
    conditioning:
        Initial conditioning set ``S`` (defaults to empty).
    """

    __slots__ = (
        "_collection",
        "_in_set",
        "_cover_counts",
        "_marginal",
        "_num_synced",
        "_num_covered",
    )

    def __init__(
        self, collection: FlatRRCollection, conditioning: Iterable[int] = ()
    ) -> None:
        self._collection = collection
        offsets, nodes = collection.flat()
        n = collection.n
        num_sets = int(offsets.shape[0] - 1)
        self._in_set = np.zeros(n, dtype=bool)
        self._cover_counts = np.zeros(num_sets, dtype=np.int64)
        self._marginal = np.bincount(nodes, minlength=n).astype(np.int64, copy=False)
        self._num_synced = num_sets
        self._num_covered = 0
        self.add(conditioning)

    # ------------------------------------------------------------------ #
    # state accessors
    # ------------------------------------------------------------------ #

    @property
    def collection(self) -> FlatRRCollection:
        """The tracked collection."""
        return self._collection

    @property
    def num_synced_sets(self) -> int:
        """RR sets of the collection currently folded into the counters."""
        return self._num_synced

    @property
    def marginal_counts(self) -> np.ndarray:
        """Per-node ``CovR(v | S)`` for every ``v ∉ S`` at once (do not mutate).

        Entry ``v`` is the number of RR sets containing ``v`` that are
        disjoint from the conditioning set; nodes *in* the conditioning set
        read 0 (all their sets are covered).  This is the array the
        vectorized lazy greedy takes its ``argmax`` over.
        """
        self.sync()
        return self._marginal

    def conditioning_nodes(self) -> np.ndarray:
        """The current conditioning set ``S`` as a sorted id array."""
        return np.nonzero(self._in_set)[0]

    def contains(self, node: int) -> bool:
        """Whether ``node`` is currently in the conditioning set."""
        node = int(node)
        return 0 <= node < self._in_set.shape[0] and bool(self._in_set[node])

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #

    def sync(self) -> int:
        """Fold any RR sets appended to the collection into the counters.

        Called automatically by every query/update, so callers that extend
        the underlying collection never need to rebuild anything.  Returns the number of sets
        absorbed.  Cost is linear in the *appended* portion only.
        """
        offsets, nodes = self._collection.flat()
        n = self._collection.n
        if n > self._marginal.shape[0]:
            grow = n - self._marginal.shape[0]
            self._marginal = np.concatenate(
                [self._marginal, np.zeros(grow, dtype=np.int64)]
            )
            self._in_set = np.concatenate([self._in_set, np.zeros(grow, dtype=bool)])
        num_sets = int(offsets.shape[0] - 1)
        if num_sets == self._num_synced:
            return 0
        if num_sets < self._num_synced:
            raise ValidationError(
                "tracked collection shrank; CoverageCounter requires append-only growth"
            )
        synced = self._num_synced
        start = int(offsets[synced])
        segment_nodes = nodes[start:]
        segment_sizes = np.diff(offsets[synced:])
        relative_rr = np.repeat(
            np.arange(num_sets - synced, dtype=np.int64), segment_sizes
        )
        in_set = self._in_set[segment_nodes]
        new_cover = np.bincount(
            relative_rr[in_set], minlength=num_sets - synced
        ).astype(np.int64, copy=False)
        self._cover_counts = np.concatenate([self._cover_counts, new_cover])
        covered_new = new_cover > 0
        self._num_covered += int(np.count_nonzero(covered_new))
        uncovered_members = segment_nodes[~covered_new[relative_rr]]
        if uncovered_members.size:
            self._marginal += np.bincount(
                uncovered_members, minlength=self._marginal.shape[0]
            )
        self._num_synced = num_sets
        return num_sets - synced

    def add(self, nodes: Iterable[int]) -> None:
        """Grow the conditioning set: ``S ← S ∪ nodes`` (cover-and-subtract).

        Newly covered RR sets are found with one gather over the inverted
        index; their members are subtracted from ``marginal_counts`` with
        one ``bincount``.  Nodes already in ``S`` (or out of range) are
        ignored.
        """
        self.sync()
        node_array = self._new_members(nodes, expected_state=False)
        if node_array.size == 0:
            return
        self._in_set[node_array] = True
        ids = self._collection.covering_ids(node_array)
        if ids.size == 0:
            return
        increments = np.bincount(ids, minlength=self._cover_counts.shape[0])
        newly_covered = np.nonzero((self._cover_counts == 0) & (increments > 0))[0]
        self._cover_counts += increments
        if newly_covered.size:
            self._num_covered += int(newly_covered.size)
            self._marginal -= self._members_bincount(newly_covered)

    def remove(self, nodes: Iterable[int]) -> None:
        """Shrink the conditioning set: ``S ← S \\ nodes``.

        RR sets whose cover count drops to zero become uncovered again and
        their members are added back to ``marginal_counts`` — this is what
        lets NDG track its *shrinking* rear conditioning set without any
        recount.
        """
        self.sync()
        node_array = self._new_members(nodes, expected_state=True)
        if node_array.size == 0:
            return
        self._in_set[node_array] = False
        ids = self._collection.covering_ids(node_array)
        if ids.size == 0:
            return
        decrements = np.bincount(ids, minlength=self._cover_counts.shape[0])
        self._cover_counts -= decrements
        freed = np.nonzero((self._cover_counts == 0) & (decrements > 0))[0]
        if freed.size:
            self._num_covered -= int(freed.size)
            self._marginal += self._members_bincount(freed)

    # ------------------------------------------------------------------ #
    # coverage queries
    # ------------------------------------------------------------------ #

    def coverage(self) -> int:
        """``CovR(S)``: RR sets intersected by the conditioning set."""
        self.sync()
        return self._num_covered

    def marginal_count(self, node: int) -> int:
        """``CovR(u | S \\ {u})`` — same exclusion rule as ``marginal_coverage``.

        For ``u ∉ S`` this is an O(1) read of ``marginal_counts``; for
        ``u ∈ S`` it counts the sets containing ``u`` whose only cover is
        ``u`` itself (one gather over ``sets_containing(u)``).
        """
        self.sync()
        node = int(node)
        if not 0 <= node < self._marginal.shape[0]:
            return 0
        if self._in_set[node]:
            ids = self._collection.sets_containing(node)
            if ids.size == 0:
                return 0
            return int(np.count_nonzero(self._cover_counts[ids] == 1))
        return int(self._marginal[node])

    # ------------------------------------------------------------------ #
    # spread estimation (RIS identity, mirrors FlatRRCollection)
    # ------------------------------------------------------------------ #

    def estimate_spread(self) -> float:
        """``Ê[I(S)] = CovR(S) · n_i / θ`` for the tracked conditioning set."""
        collection = self._collection
        if collection.num_sets == 0:
            return 0.0
        return self.coverage() * collection.num_active_nodes / collection.num_sets

    def estimate_marginal_spread(self, node: int) -> float:
        """``Ê[I(u | S)] = CovR(u | S) · n_i / θ`` from the live counters."""
        collection = self._collection
        if collection.num_sets == 0:
            return 0.0
        return (
            self.marginal_count(node)
            * collection.num_active_nodes
            / collection.num_sets
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _new_members(
        self, nodes: Iterable[int], expected_state: bool
    ) -> np.ndarray:
        """Unique in-range ids whose membership bit is ``expected_state``."""
        if isinstance(nodes, np.ndarray):
            node_array = nodes.astype(np.int64, copy=False)
        else:
            node_array = np.asarray(list(nodes), dtype=np.int64)
        if node_array.size == 0:
            return node_array
        node_array = np.unique(node_array)
        node_array = node_array[
            (node_array >= 0) & (node_array < self._in_set.shape[0])
        ]
        if node_array.size == 0:
            return node_array
        return node_array[self._in_set[node_array] == expected_state]

    def _members_bincount(self, set_ids: np.ndarray) -> np.ndarray:
        """Histogram of the member nodes of the given RR sets."""
        offsets, nodes = self._collection.flat()
        starts = offsets[set_ids]
        degrees = offsets[set_ids + 1] - starts
        members = nodes[flat_slice_indices(starts, degrees)]
        return np.bincount(members, minlength=self._marginal.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CoverageCounter sets={self._num_synced} "
            f"covered={self._num_covered} |S|={int(self._in_set.sum())}>"
        )
