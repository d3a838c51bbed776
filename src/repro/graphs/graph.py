"""Probabilistic social graph in compressed sparse row (CSR) form.

The whole library works on :class:`ProbabilisticGraph`: a directed graph
with dense integer node ids ``0..n-1`` where every directed edge
``(u, v)`` carries an activation probability ``p(u, v) ∈ (0, 1]`` under the
Independent Cascade model.  Undirected social networks (NetHEPT, DBLP in the
paper) are represented by materialising both directions of every edge.

The representation is two CSR indexes:

* an *outgoing* index used by forward diffusion (`IC` simulation), and
* an *incoming* index used by reverse-reachable (RR) set sampling.

Every directed edge has a stable integer *edge id* (its position in the
outgoing CSR) shared by both indexes, which is what
:class:`repro.diffusion.realization.Realization` keys its live/blocked
status on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.utils.exceptions import ValidationError
from repro.utils.validation import require, require_probability


class ProbabilisticGraph:
    """A directed probabilistic graph stored in CSR form.

    Parameters
    ----------
    n:
        Number of nodes.  Node ids are ``0..n-1``.
    edges:
        Sequence (or ``(m, 2)`` array) of directed edges ``(source, target)``.
    probabilities:
        One activation probability per edge, each in ``(0, 1]``.  If omitted
        every edge gets probability ``1.0``.
    name:
        Optional human-readable name (dataset name, for reporting).
    undirected_input:
        Metadata flag recording that the edge list originated from an
        undirected network (both directions were materialised).  It does not
        change behaviour; it is carried through for Table II style reports.
    """

    __slots__ = (
        "_n",
        "_name",
        "_undirected_input",
        "_out_offsets",
        "_out_sources",
        "_out_targets",
        "_out_probs",
        "_in_offsets",
        "_in_sources",
        "_in_probs",
        "_in_edge_ids",
        "_mmap",
    )

    def __init__(
        self,
        n: int,
        edges: Sequence[Tuple[int, int]] | np.ndarray,
        probabilities: Optional[Sequence[float] | np.ndarray] = None,
        name: str = "",
        undirected_input: bool = False,
    ) -> None:
        require(n >= 0, f"n must be >= 0, got {n}")
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        require(
            edge_array.ndim == 2 and edge_array.shape[1] == 2,
            "edges must be a sequence of (source, target) pairs",
        )
        m = edge_array.shape[0]
        if probabilities is None:
            prob_array = np.ones(m, dtype=np.float64)
        else:
            prob_array = np.asarray(probabilities, dtype=np.float64)
        require(
            prob_array.shape == (m,),
            f"probabilities must have one entry per edge ({m}), got shape {prob_array.shape}",
        )
        if m:
            require(
                int(edge_array.min()) >= 0 and int(edge_array.max()) < n,
                "edge endpoints must be valid node ids in [0, n)",
            )
            if np.any(prob_array <= 0) or np.any(prob_array > 1):
                raise ValidationError("edge probabilities must lie in (0, 1]")
            if np.any(edge_array[:, 0] == edge_array[:, 1]):
                raise ValidationError("self-loops are not allowed")

        self._n = int(n)
        self._name = name
        self._undirected_input = bool(undirected_input)
        self._mmap = None
        self._build_csr(edge_array, prob_array)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _build_csr(self, edge_array: np.ndarray, prob_array: np.ndarray) -> None:
        n = self._n
        m = edge_array.shape[0]

        # Outgoing CSR sorted lexicographically by (source, target); the sort
        # defines the edge ids and makes the representation canonical, i.e.
        # independent of the order the edge list was supplied in.
        order = np.lexsort((edge_array[:, 1], edge_array[:, 0]))
        sources = edge_array[order, 0]
        self._out_sources = np.ascontiguousarray(sources)
        self._out_targets = np.ascontiguousarray(edge_array[order, 1])
        self._out_probs = np.ascontiguousarray(prob_array[order])
        self._out_offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self._out_offsets, sources + 1, 1)
        np.cumsum(self._out_offsets, out=self._out_offsets)

        # Incoming CSR sorted by target, carrying the edge id of each entry.
        in_order = np.argsort(self._out_targets, kind="stable")
        targets_sorted = self._out_targets[in_order]
        self._in_sources = np.ascontiguousarray(sources[in_order])
        self._in_probs = np.ascontiguousarray(self._out_probs[in_order])
        self._in_edge_ids = np.ascontiguousarray(in_order.astype(np.int64))
        self._in_offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self._in_offsets, targets_sorted + 1, 1)
        np.cumsum(self._in_offsets, out=self._in_offsets)

        assert self._out_offsets[-1] == m
        assert self._in_offsets[-1] == m

    @classmethod
    def from_csr_arrays(
        cls,
        n: int,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_probs: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_probs: np.ndarray,
        name: str = "",
        undirected_input: bool = False,
        mmap_info: Optional[object] = None,
    ) -> "ProbabilisticGraph":
        """Rebuild a graph from already-canonical CSR arrays (trusted path).

        The arrays must be exactly what :meth:`out_csr` / :meth:`in_csr` of
        an existing graph return (the canonical lexicographic edge order);
        no validation or re-sorting is performed and the big arrays are
        *referenced, not copied*, so the result is a zero-copy view over the
        caller's buffers — this is how
        :func:`repro.graphs.binary.load_rgx` wraps memory-mapped ``.rgx``
        files.  The two derived indexes that are not part of the canonical
        six arrays — the per-edge source array (an ``O(m)`` repeat) and the
        in-CSR edge ids (a stable argsort, bit-for-bit the one
        :meth:`_build_csr` produces) — are computed *lazily* on first
        access, so opening a memory-mapped graph stays O(header) and the
        construction cost is deferred to the code paths that actually need
        those indexes.

        ``mmap_info`` records how the CSR arrays map onto a backing file
        (see :class:`repro.graphs.binary.RgxMapping`), so the graph can be
        re-opened by path.
        """
        graph = cls.__new__(cls)
        graph._n = int(n)
        graph._name = name
        graph._undirected_input = bool(undirected_input)
        graph._mmap = mmap_info
        graph._out_offsets = out_offsets
        graph._out_targets = out_targets
        graph._out_probs = out_probs
        graph._out_sources = None
        graph._in_offsets = in_offsets
        graph._in_sources = in_sources
        graph._in_probs = in_probs
        graph._in_edge_ids = None
        return graph

    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[Tuple[int, int]] | Iterable[Tuple[int, int, float]],
        probabilities: Optional[Sequence[float]] = None,
        n: Optional[int] = None,
        directed: bool = True,
        name: str = "",
        default_probability: float = 1.0,
    ) -> "ProbabilisticGraph":
        """Build a graph from an edge list.

        Accepts either ``(u, v)`` pairs (probabilities supplied separately or
        defaulting to ``default_probability``) or ``(u, v, p)`` triples.  If
        ``directed`` is ``False`` both directions of every edge are added with
        the same probability.
        """
        pairs: list[Tuple[int, int]] = []
        probs: list[float] = []
        inline_probs = False
        for idx, edge in enumerate(edges):
            if len(edge) == 3:
                u, v, p = edge
                inline_probs = True
            else:
                u, v = edge  # type: ignore[misc]
                if probabilities is not None:
                    p = probabilities[idx]
                else:
                    p = default_probability
            pairs.append((int(u), int(v)))
            probs.append(float(p))
        if inline_probs and probabilities is not None:
            raise ValidationError(
                "pass probabilities either inline as (u, v, p) or via the "
                "probabilities argument, not both"
            )
        if not directed:
            reverse_pairs = [(v, u) for (u, v) in pairs]
            pairs = pairs + reverse_pairs
            probs = probs + list(probs)
        if n is None:
            n = 1 + max((max(u, v) for u, v in pairs), default=-1)
        return cls(
            n=n,
            edges=pairs,
            probabilities=probs,
            name=name,
            undirected_input=not directed,
        )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of *directed* edges (an undirected input counts twice)."""
        return int(self._out_targets.shape[0])

    @property
    def name(self) -> str:
        """Human-readable graph name."""
        return self._name

    @property
    def undirected_input(self) -> bool:
        """Whether the graph was built from an undirected edge list."""
        return self._undirected_input

    @property
    def mmap_info(self) -> Optional[object]:
        """File-backing description when the CSR arrays are memory-mapped.

        ``None`` for in-RAM graphs.  For graphs opened with
        :func:`repro.graphs.binary.load_rgx` this is an
        :class:`~repro.graphs.binary.RgxMapping` recording the byte offset,
        shape and dtype of every CSR array inside the ``.rgx`` file —
        enough for any other process on the host to open the same graph
        by path (the service journal records it this way).
        """
        return self._mmap

    @property
    def num_nodes(self) -> int:
        """Alias for :attr:`n`."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Alias for :attr:`m`."""
        return self.m

    def nodes(self) -> range:
        """All node ids (a ``range`` object)."""
        return range(self._n)

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #

    def out_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(targets, probabilities, edge_ids)`` for ``node``'s out edges."""
        start, end = self._out_offsets[node], self._out_offsets[node + 1]
        edge_ids = np.arange(start, end, dtype=np.int64)
        return self._out_targets[start:end], self._out_probs[start:end], edge_ids

    def in_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sources, probabilities, edge_ids)`` for ``node``'s in edges."""
        start, end = self._in_offsets[node], self._in_offsets[node + 1]
        return (
            self._in_sources[start:end],
            self._in_probs[start:end],
            self.in_edge_ids[start:end],
        )

    @property
    def in_edge_ids(self) -> np.ndarray:
        """Edge id of every in-CSR entry (lazily derived; do not mutate).

        For graphs built through :meth:`from_csr_arrays` (memory-mapped
        ``.rgx`` files) the array is computed on first access — a stable
        argsort of the out-CSR targets, bit-for-bit what
        :meth:`_build_csr` produces eagerly.
        """
        if self._in_edge_ids is None:
            self._in_edge_ids = np.ascontiguousarray(
                np.argsort(self._out_targets, kind="stable").astype(np.int64)
            )
        return self._in_edge_ids

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw incoming CSR ``(offsets, sources, probabilities)`` (no copies; do not mutate).

        This is the zero-overhead access path of the batched RR engine
        (:mod:`repro.sampling.engine`), which gathers whole frontiers of
        in-neighbourhoods at once instead of calling :meth:`in_neighbors`
        node by node.
        """
        return self._in_offsets, self._in_sources, self._in_probs

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw outgoing CSR ``(offsets, targets, probabilities)`` (no copies; do not mutate).

        The forward twin of :meth:`in_csr`: the batched Monte-Carlo engine
        (:mod:`repro.diffusion.mc_engine`) sweeps whole frontiers of
        out-neighbourhoods at once.  Positions in these arrays are the
        canonical edge ids (the ones :class:`repro.diffusion.realization.
        Realization` keys its live mask on).
        """
        return self._out_offsets, self._out_targets, self._out_probs

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node``."""
        return int(self._out_offsets[node + 1] - self._out_offsets[node])

    def in_degree(self, node: int) -> int:
        """Number of incoming edges of ``node``."""
        return int(self._in_offsets[node + 1] - self._in_offsets[node])

    @property
    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for all nodes."""
        return np.diff(self._out_offsets)

    @property
    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees for all nodes."""
        return np.diff(self._in_offsets)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(source, target, probability)`` in edge-id order."""
        for source in range(self._n):
            start, end = self._out_offsets[source], self._out_offsets[source + 1]
            for idx in range(start, end):
                yield source, int(self._out_targets[idx]), float(self._out_probs[idx])

    @property
    def edge_sources(self) -> np.ndarray:
        """Source node of every edge in edge-id order (cached; do not mutate).

        Derived lazily for graphs built through :meth:`from_csr_arrays`
        (an ``O(m)`` repeat over the out-CSR offsets, identical to what
        :meth:`_build_csr` stores eagerly).
        """
        if self._out_sources is None:
            self._out_sources = np.repeat(
                np.arange(self._n, dtype=np.int64), np.diff(self._out_offsets)
            )
        return self._out_sources

    @property
    def edge_targets(self) -> np.ndarray:
        """Target node of every edge in edge-id order (cached; do not mutate)."""
        return self._out_targets

    @property
    def edge_probabilities(self) -> np.ndarray:
        """Probability of every edge in edge-id order (cached; do not mutate).

        The copy-free sibling of :meth:`edge_array` for callers that only
        need the probability column — e.g. realization sampling, which
        draws one Bernoulli flip per edge and has no use for the two
        ``O(m)`` endpoint copies.
        """
        return self._out_probs

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sources, targets, probabilities)`` arrays in edge-id order."""
        return self.edge_sources.copy(), self._out_targets.copy(), self._out_probs.copy()

    def edge_probability(self, source: int, target: int) -> float:
        """Return ``p(source, target)``; raises ``KeyError`` if the edge is absent."""
        targets, probs, _ = self.out_neighbors(source)
        matches = np.nonzero(targets == target)[0]
        if matches.size == 0:
            raise KeyError(f"edge ({source}, {target}) is not in the graph")
        return float(probs[matches[0]])

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``(source, target)`` exists."""
        targets, _, _ = self.out_neighbors(source)
        return bool(np.any(targets == target))

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def with_probabilities(self, probabilities: np.ndarray, name: Optional[str] = None) -> "ProbabilisticGraph":
        """Return a copy of this graph with new edge probabilities.

        ``probabilities`` must be indexed by edge id (the order of
        :meth:`edge_array`).
        """
        sources, targets, _ = self.edge_array()
        return ProbabilisticGraph(
            n=self._n,
            edges=np.column_stack([sources, targets]),
            probabilities=probabilities,
            name=self._name if name is None else name,
            undirected_input=self._undirected_input,
        )

    def with_uniform_probability(self, probability: float) -> "ProbabilisticGraph":
        """Return a copy where every edge has the same probability."""
        require_probability(probability, "probability")
        return self.with_probabilities(np.full(self.m, probability))

    def reverse(self) -> "ProbabilisticGraph":
        """Return the graph with every edge direction flipped."""
        sources, targets, probs = self.edge_array()
        return ProbabilisticGraph(
            n=self._n,
            edges=np.column_stack([targets, sources]),
            probabilities=probs,
            name=f"{self._name}-reversed" if self._name else "",
            undirected_input=self._undirected_input,
        )

    def subgraph(self, keep_nodes: Iterable[int], name: str = "") -> "ProbabilisticGraph":
        """Return the induced subgraph on ``keep_nodes`` with relabelled ids.

        Node ids are remapped to ``0..len(keep_nodes)-1`` following the sorted
        order of ``keep_nodes``.
        """
        keep = np.asarray(sorted(set(int(v) for v in keep_nodes)), dtype=np.int64)
        if keep.size and (keep[0] < 0 or keep[-1] >= self._n):
            raise ValidationError("keep_nodes contains invalid node ids")
        remap = -np.ones(self._n, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        sources, targets, probs = self.edge_array()
        mask = (remap[sources] >= 0) & (remap[targets] >= 0)
        new_edges = np.column_stack([remap[sources[mask]], remap[targets[mask]]])
        return ProbabilisticGraph(
            n=int(keep.size),
            edges=new_edges,
            probabilities=probs[mask],
            name=name or (f"{self._name}-sub" if self._name else ""),
            undirected_input=self._undirected_input,
        )

    # ------------------------------------------------------------------ #
    # dunder conveniences
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        kind = "undirected-input" if self._undirected_input else "directed"
        return f"<ProbabilisticGraph{label} n={self._n} m={self.m} ({kind})>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticGraph):
            return NotImplemented
        if self._n != other._n or self.m != other.m:
            return False
        return (
            np.array_equal(self._out_offsets, other._out_offsets)
            and np.array_equal(self._out_targets, other._out_targets)
            and np.allclose(self._out_probs, other._out_probs)
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are not hashed in practice
        return id(self)
