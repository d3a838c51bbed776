"""Reading and writing graphs as plain-text edge lists.

The format matches what SNAP distributes: one edge per line,
``source target [probability]``, ``#``-prefixed comment lines ignored.
If the probability column is absent the caller chooses a weighting scheme
(the experiments apply weighted cascade, as the paper does).

Parsing is chunked and vectorized: lines are fed to ``np.loadtxt`` in
fixed-size batches, so no per-line Python tuple list is ever built and a
69M-edge SNAP file streams through a bounded working set.  For repeated
runs convert the file once to the binary ``.rgx`` format
(:mod:`repro.graphs.binary`), which skips text parsing entirely and can
be memory-mapped.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.weighting import weighted_cascade
from repro.utils.exceptions import GraphFormatError

PathLike = Union[str, Path]

#: Number of data lines parsed per ``np.loadtxt`` batch.
_CHUNK_LINES = 1 << 16


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def _parse_chunk(lines: List[str], path: Path) -> np.ndarray:
    """Parse a batch of data lines into an ``(k, columns)`` float array."""
    try:
        data = np.loadtxt(lines, dtype=np.float64, ndmin=2, comments=None)
    except ValueError as exc:
        raise GraphFormatError(
            f"{path}: malformed edge list — every data line must be "
            f"'source target [probability]' with numeric fields ({exc})"
        ) from exc
    if data.shape[1] < 2:
        raise GraphFormatError(
            f"{path}: expected 'source target [probability]', got a "
            f"single-column line"
        )
    ids = data[:, :2]
    if np.any(ids < 0) or np.any(ids != np.floor(ids)):
        raise GraphFormatError(
            f"{path}: node ids must be non-negative integers"
        )
    return data


def load_edge_list(
    path: PathLike,
    directed: bool = True,
    name: Optional[str] = None,
    apply_weighted_cascade: bool = True,
    default_probability: float = 1.0,
) -> ProbabilisticGraph:
    """Load a graph from a SNAP-style edge-list file.

    Parameters
    ----------
    path:
        Text file (optionally gzip-compressed) with ``u v [p]`` lines.
    directed:
        Whether the file lists directed edges.  Undirected files get both
        directions materialised.
    name:
        Graph name; defaults to the file stem.
    apply_weighted_cascade:
        When ``True`` and the file has no probability column, assign
        ``p(u, v) = 1/indeg(v)``; otherwise use ``default_probability``.
    """
    path = Path(path)
    if not path.exists():
        raise GraphFormatError(f"graph file not found: {path}")

    pair_parts: List[np.ndarray] = []
    prob_parts: List[np.ndarray] = []
    has_probability = False
    chunk: List[str] = []

    def flush() -> None:
        nonlocal has_probability
        if not chunk:
            return
        data = _parse_chunk(chunk, path)
        pair_parts.append(data[:, :2].astype(np.int64))
        if data.shape[1] >= 3:
            has_probability = True
            prob_parts.append(np.ascontiguousarray(data[:, 2]))
        else:
            prob_parts.append(
                np.full(data.shape[0], default_probability, dtype=np.float64)
            )
        chunk.clear()

    with _open_text(path, "r") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped[0] in "#%":
                continue
            chunk.append(stripped)
            if len(chunk) >= _CHUNK_LINES:
                flush()
        flush()

    if pair_parts:
        pairs = np.concatenate(pair_parts)
        probs = np.concatenate(prob_parts)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
        probs = np.empty(0, dtype=np.float64)

    keep = pairs[:, 0] != pairs[:, 1]
    if not bool(keep.all()):
        pairs = pairs[keep]
        probs = probs[keep]
    if not directed:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
        probs = np.concatenate([probs, probs])

    n = int(pairs.max()) + 1 if pairs.size else 0
    graph = ProbabilisticGraph(n, pairs, probs, name=name or path.stem)
    if not has_probability and apply_weighted_cascade:
        graph = weighted_cascade(graph)
    return graph


def save_edge_list(
    graph: ProbabilisticGraph,
    path: PathLike,
    include_probabilities: bool = True,
) -> None:
    """Write ``graph`` to ``path`` as an edge list (one directed edge per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _open_text(path, "w") as handle:
        handle.write(f"# {graph.name or 'graph'}: n={graph.n} m={graph.m}\n")
        for source, target, probability in graph.edges():
            if include_probabilities:
                handle.write(f"{source} {target} {probability:.10g}\n")
            else:
                handle.write(f"{source} {target}\n")


def roundtrip_equal(graph: ProbabilisticGraph, path: PathLike) -> bool:
    """Save then reload ``graph`` and report whether the result is identical.

    Convenience used by tests and sanity checks.  When ``path`` ends in
    ``.rgx`` the binary format is used and the comparison is exact —
    including graphs with isolated trailing nodes, which a plain edge
    list cannot represent (``n`` is stored explicitly in the binary
    header).  For text paths the edge-list caveat stands: a graph whose
    highest-numbered nodes have no edges reloads with a smaller ``n``,
    and this helper reports ``False``.
    """
    path = Path(path)
    if path.suffix == ".rgx":
        from repro.graphs.binary import load_rgx, write_rgx

        write_rgx(graph, path)
        reloaded = load_rgx(path, mmap=False)
        ours_out = graph.out_csr()
        theirs_out = reloaded.out_csr()
        ours_in = graph.in_csr()
        theirs_in = reloaded.in_csr()
        return (
            reloaded.n == graph.n
            and reloaded.m == graph.m
            and all(
                np.array_equal(a, b)
                for a, b in zip(ours_out + ours_in, theirs_out + theirs_in)
            )
        )
    save_edge_list(graph, path)
    reloaded = load_edge_list(path, directed=True, apply_weighted_cascade=False)
    if reloaded.n < graph.n:
        # Isolated trailing nodes are not representable in an edge list.
        return False
    return reloaded.m == graph.m
