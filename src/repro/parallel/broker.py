"""Shared-memory graph broker: publish a graph's CSR once, attach zero-copy.

RR-set generation reads three immutable arrays — the incoming CSR
``(offsets, sources, probabilities)`` of the base graph — and batched
forward Monte-Carlo simulation reads the mirror-image outgoing CSR
``(offsets, targets, probabilities)``; both share one small mutable array,
the residual view's boolean ``active`` mask.  Shipping those through pickle
on every task would copy the whole graph per shard;
:class:`SharedGraphBroker` instead publishes them into POSIX shared memory
*once per graph*:

* the parent creates one ``multiprocessing.shared_memory`` segment per
  array and keeps writable views (the mask is rewritten in place before
  each generation round; the CSR arrays are never touched again);
* workers attach by segment name in their initializer and wrap the buffers
  in NumPy arrays — no copy, no pickling, O(1) per worker regardless of
  graph size;
* :class:`SharedCSRGraph` / :class:`SharedResidualView` give the attached
  buffers the exact interface slice of
  :class:`~repro.graphs.graph.ProbabilisticGraph` /
  :class:`~repro.graphs.residual.ResidualGraph` that the sampling engine
  consumes (``in_csr``, ``active_mask``, ``num_active``, ...), so
  :func:`repro.sampling.engine.generate_rr_batch` runs unmodified inside a
  worker.

Graphs opened from a memory-mapped ``.rgx`` file
(:func:`repro.graphs.binary.load_rgx`) skip the per-publish copy entirely:
their CSR already lives in a file, so the broker publishes those arrays as
``(path, offset)`` specs and workers attach with read-only ``np.memmap``
views — one file on disk serves every sampling/eval/service worker on the
host, and only the small mutable active mask goes through ``/dev/shm``.

Cleanup is belt-and-braces: ``close()`` is idempotent, and a
``weakref.finalize`` hook unlinks the segments even if the owner is
garbage-collected without an explicit close (error or interrupt paths).
The parent is the single owner of the segments' lifetime: worker
attachments re-register the names with the shared ``resource_tracker``
(an idempotent no-op) but never unregister or unlink them.

Segments are named ``repro-shm-<owner pid>-<token>`` and registered with
the shared-memory janitor (:mod:`repro.parallel.janitor`), which unlinks
them on interpreter exit and SIGTERM; segments orphaned by an unclean
death (SIGKILL of the whole process group) can be swept later with
``repro-experiments clean-shm``.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import ProbabilisticGraph
from repro.parallel import janitor
from repro.utils.exceptions import ValidationError, WorkerError

logger = logging.getLogger("repro.parallel")

#: All array keys a broker may publish, in publication order.  The
#: incoming CSR feeds reverse RR-set sampling, the outgoing CSR feeds the
#: batched forward Monte-Carlo engine; a broker publishes only the
#: requested directions (plus the mask), so RR-only pools never publish
#: the outgoing CSR.
SHARED_ARRAY_KEYS = (
    "in_offsets",
    "in_sources",
    "in_probs",
    "out_offsets",
    "out_targets",
    "out_probs",
    "active_mask",
)

#: CSR array keys per direction.
DIRECTION_KEYS = {
    "in": ("in_offsets", "in_sources", "in_probs"),
    "out": ("out_offsets", "out_targets", "out_probs"),
}


@dataclass(frozen=True)
class SharedArraySpec:
    """Addressing information for one published array (picklable).

    Two flavours: shared-memory segments (``name`` set, ``path`` ``None``)
    and file-backed arrays (``path``/``offset`` set, ``name`` empty) for
    graphs opened from an ``.rgx`` file — workers then attach with one
    read-only ``np.memmap`` instead of a copied ``/dev/shm`` segment, so
    one file on disk serves every worker on the host.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str
    path: Optional[str] = None
    offset: int = 0


@dataclass(frozen=True)
class SharedGraphSpec:
    """Everything a worker needs to attach to a published graph (picklable)."""

    n: int
    m: int
    arrays: Dict[str, SharedArraySpec]


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a janitor-tagged segment, retrying on (unlikely) name clashes."""
    for _ in range(8):
        try:
            return shared_memory.SharedMemory(
                create=True, size=size, name=janitor.tagged_segment_name()
            )
        except FileExistsError:  # pragma: no cover - 32-bit token clash
            continue
    raise WorkerError(
        "could not allocate a uniquely named shared-memory segment "
        "(repeated name clashes in /dev/shm)"
    )


def _unlink_segments(segments: List[shared_memory.SharedMemory]) -> None:
    """Close and unlink owned segments, tolerating repeated/partial teardown."""
    for segment in segments:
        try:
            segment.close()
        except Exception:  # pragma: no cover - defensive teardown
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - defensive teardown
            pass
    segments.clear()


class SharedGraphBroker:
    """Owns the shared-memory publication of one graph's sampling arrays.

    Parameters
    ----------
    base:
        The immutable base graph whose CSR indexes are published.  The
        active mask segment starts all-active; callers update it through
        :meth:`set_mask` before dispatching work.
    directions:
        Which CSR directions to publish: ``"in"`` (reverse RR sampling),
        ``"out"`` (forward Monte-Carlo simulation), or both.  Publishing
        only the direction a pool actually uses keeps RR-only workloads at
        their pre-forward-engine shared-memory footprint.
    """

    def __init__(
        self,
        base: ProbabilisticGraph,
        directions: Tuple[str, ...] = ("in", "out"),
    ) -> None:
        for direction in directions:
            if direction not in DIRECTION_KEYS:
                raise ValidationError(
                    f"unknown CSR direction {direction!r}; available: in, out"
                )
        if not directions:
            raise ValidationError("at least one CSR direction must be published")
        self._base = base
        self._segments: List[shared_memory.SharedMemory] = []
        self._views: Dict[str, np.ndarray] = {}
        specs: Dict[str, SharedArraySpec] = {}
        arrays: Dict[str, np.ndarray] = {}
        if "in" in directions:
            in_offsets, in_sources, in_probs = base.in_csr()
            arrays.update(
                in_offsets=in_offsets, in_sources=in_sources, in_probs=in_probs
            )
        if "out" in directions:
            out_offsets, out_targets, out_probs = base.out_csr()
            arrays.update(
                out_offsets=out_offsets, out_targets=out_targets, out_probs=out_probs
            )
        arrays["active_mask"] = np.ones(base.n, dtype=bool)
        # A graph opened from an .rgx file already has its CSR on disk:
        # publish those arrays by (path, offset) instead of copying them
        # into segments.  Only the mutable active mask still needs one.
        mapping = getattr(base, "mmap_info", None)
        file_arrays = getattr(mapping, "arrays", None) or {}
        key = "(none)"
        try:
            for key in SHARED_ARRAY_KEYS:
                if key not in arrays:
                    continue
                if key != "active_mask" and key in file_arrays:
                    offset, shape, dtype = file_arrays[key]
                    specs[key] = SharedArraySpec(
                        name="",
                        shape=tuple(shape),
                        dtype=dtype,
                        path=mapping.path,
                        offset=int(offset),
                    )
                    continue
                array = np.ascontiguousarray(arrays[key])
                segment = _create_segment(max(array.nbytes, 1))
                self._segments.append(segment)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                self._views[key] = view
                specs[key] = SharedArraySpec(
                    name=segment.name, shape=array.shape, dtype=array.dtype.str
                )
        except Exception as exc:
            published = [spec.name for spec in specs.values()]
            logger.warning(
                "publishing %r failed while creating %d segment(s): %s — "
                "unlinking the partial publication",
                key,
                len(self._segments),
                exc,
            )
            _unlink_segments(self._segments)
            raise WorkerError(
                f"could not publish graph array {key!r} to shared memory: {exc}",
                segments=published,
            ) from exc
        except BaseException:  # interrupts: release, do not re-wrap
            _unlink_segments(self._segments)
            raise
        self._spec = SharedGraphSpec(n=base.n, m=base.m, arrays=specs)
        # Unlinks survive lost references (error/interrupt paths) — the
        # finalizer must not capture `self`, only the segment list.  The
        # janitor additionally unlinks on interpreter exit and SIGTERM.
        self._finalizer = weakref.finalize(self, _unlink_segments, self._segments)
        janitor.register_segments(self._segments)

    @property
    def base(self) -> ProbabilisticGraph:
        """The graph whose arrays are published."""
        return self._base

    @property
    def spec(self) -> SharedGraphSpec:
        """Picklable attachment spec handed to worker initializers."""
        return self._spec

    @property
    def closed(self) -> bool:
        """Whether the segments have been released."""
        return not self._segments

    def set_mask(self, active_mask: np.ndarray) -> None:
        """Overwrite the published active mask in place (parent side)."""
        if self.closed:
            raise ValidationError("broker is closed")
        mask = np.asarray(active_mask, dtype=bool)
        if mask.shape != (self._base.n,):
            raise ValidationError(
                f"active_mask must have shape ({self._base.n},), got {mask.shape}"
            )
        np.copyto(self._views["active_mask"], mask)

    def close(self) -> None:
        """Release all segments (idempotent; safe while workers are gone)."""
        # Views alias the segment buffers; drop them before closing or the
        # exported-pointer check in SharedMemory.close() fails.
        self._views = {}
        self._finalizer.detach()
        _unlink_segments(self._segments)

    def __enter__(self) -> "SharedGraphBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- #
# worker-side attachment
# --------------------------------------------------------------------- #


class SharedCSRGraph:
    """The base-graph interface slice the sampling and MC engines need.

    Duck-types :class:`~repro.graphs.graph.ProbabilisticGraph` for RR-set
    generation (``in_csr()`` / ``in_neighbors()``) and for batched forward
    simulation (``out_csr()`` / ``out_neighbors()``) over arrays that live
    in attached shared memory.
    """

    __slots__ = (
        "_n",
        "_m",
        "_in_offsets",
        "_in_sources",
        "_in_probs",
        "_out_offsets",
        "_out_targets",
        "_out_probs",
    )

    def __init__(
        self,
        n: int,
        m: int,
        in_offsets: Optional[np.ndarray] = None,
        in_sources: Optional[np.ndarray] = None,
        in_probs: Optional[np.ndarray] = None,
        out_offsets: Optional[np.ndarray] = None,
        out_targets: Optional[np.ndarray] = None,
        out_probs: Optional[np.ndarray] = None,
    ) -> None:
        self._n = int(n)
        self._m = int(m)
        self._in_offsets = in_offsets
        self._in_sources = in_sources
        self._in_probs = in_probs
        self._out_offsets = out_offsets
        self._out_targets = out_targets
        self._out_probs = out_probs

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return self._m

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw incoming CSR ``(offsets, sources, probabilities)`` (shared; do not mutate)."""
        if self._in_offsets is None:
            raise ValidationError(
                "the incoming CSR was not published for this graph "
                "(broker directions did not include 'in')"
            )
        return self._in_offsets, self._in_sources, self._in_probs

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw outgoing CSR ``(offsets, targets, probabilities)`` (shared; do not mutate)."""
        if self._out_offsets is None:
            raise ValidationError(
                "the outgoing CSR was not published for this graph "
                "(broker directions did not include 'out')"
            )
        return self._out_offsets, self._out_targets, self._out_probs

    def in_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, probabilities, csr_positions)`` of ``node``'s in-edges."""
        self.in_csr()
        start, end = self._in_offsets[node], self._in_offsets[node + 1]
        return (
            self._in_sources[start:end],
            self._in_probs[start:end],
            np.arange(start, end, dtype=np.int64),
        )

    def out_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(targets, probabilities, edge_ids)`` of ``node``'s out-edges."""
        self.out_csr()
        start, end = self._out_offsets[node], self._out_offsets[node + 1]
        return (
            self._out_targets[start:end],
            self._out_probs[start:end],
            np.arange(start, end, dtype=np.int64),
        )


class SharedResidualView:
    """The residual-view interface slice the sampling engine needs.

    Mirrors :class:`~repro.graphs.residual.ResidualGraph` over a
    :class:`SharedCSRGraph` plus the shared active mask.  Instantiated per
    task so the lazily cached aggregates always reflect the mask contents
    at dispatch time.
    """

    __slots__ = ("_base", "_active", "_num_active", "_active_nodes")

    def __init__(self, base: SharedCSRGraph, active_mask: np.ndarray) -> None:
        self._base = base
        self._active = active_mask
        self._num_active: Optional[int] = None
        self._active_nodes: Optional[np.ndarray] = None

    @property
    def base(self) -> SharedCSRGraph:
        """The shared base graph."""
        return self._base

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean activity mask (aliases shared memory; do not mutate)."""
        return self._active

    @property
    def n(self) -> int:
        """Number of nodes of the base graph."""
        return self._base.n

    @property
    def num_active(self) -> int:
        """Number of active nodes (cached per task)."""
        if self._num_active is None:
            self._num_active = int(np.count_nonzero(self._active))
        return self._num_active

    def active_nodes(self) -> np.ndarray:
        """Ids of active nodes (cached per task)."""
        if self._active_nodes is None:
            self._active_nodes = np.nonzero(self._active)[0]
        return self._active_nodes

    def is_active(self, node: int) -> bool:
        """Whether ``node`` is active."""
        return bool(self._active[node])

    def in_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Active in-neighbours of ``node`` as ``(sources, probs, positions)``."""
        sources, probs, positions = self._base.in_neighbors(node)
        keep = self._active[sources]
        return sources[keep], probs[keep], positions[keep]

    def out_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Active out-neighbours of ``node`` as ``(targets, probs, edge_ids)``."""
        targets, probs, edge_ids = self._base.out_neighbors(node)
        keep = self._active[targets]
        return targets[keep], probs[keep], edge_ids[keep]


def attach_shared_graph(
    spec: SharedGraphSpec,
) -> Tuple[SharedCSRGraph, np.ndarray, List[shared_memory.SharedMemory]]:
    """Attach to a published graph; returns ``(graph, mask, handles)``.

    The returned segment handles must be kept alive as long as the arrays
    are used (the arrays alias their buffers).  Attaching re-registers the
    names with the (shared) ``resource_tracker``; that is an idempotent
    no-op, and the publishing broker's single unlink deregisters them, so
    workers must not unregister themselves.
    """
    handles: List[shared_memory.SharedMemory] = []
    arrays: Dict[str, np.ndarray] = {}

    def _release_handles() -> None:
        for segment in handles:
            try:
                segment.close()
            except Exception:
                pass

    key = "(none)"
    array_spec = None
    try:
        for key in SHARED_ARRAY_KEYS:
            if key not in spec.arrays:
                continue
            array_spec = spec.arrays[key]
            if array_spec.path is not None:
                # File-backed (.rgx) array: attach by path, no segment.
                arrays[key] = np.memmap(
                    array_spec.path,
                    dtype=np.dtype(array_spec.dtype),
                    mode="r",
                    offset=array_spec.offset,
                    shape=array_spec.shape,
                )
                continue
            segment = shared_memory.SharedMemory(name=array_spec.name)
            handles.append(segment)
            arrays[key] = np.ndarray(
                array_spec.shape, dtype=np.dtype(array_spec.dtype), buffer=segment.buf
            )
    except FileNotFoundError as exc:
        _release_handles()
        if array_spec is not None and array_spec.path is not None:
            raise ValidationError(
                f"backing graph file {array_spec.path!r} (graph array "
                f"{key!r}) does not exist; it was moved or deleted after "
                f"the graph was opened — restore the .rgx file or reopen "
                f"the graph before creating the pool."
            ) from exc
        raise ValidationError(
            f"shared-memory segment {array_spec.name!r} (graph array {key!r}) "
            f"does not exist; the publishing process most likely exited or "
            f"closed its SharedGraphBroker while this worker was attaching. "
            f"Recreate the pool; `repro-experiments clean-shm` sweeps any "
            f"segments a dead owner left behind."
        ) from exc
    except Exception as exc:
        _release_handles()
        logger.warning(
            "attaching to published graph failed at array %r (segment %s): %s",
            key,
            getattr(array_spec, "name", "?"),
            exc,
        )
        raise WorkerError(
            f"could not attach to shared graph array {key!r}: {exc}",
            segments=[getattr(array_spec, "name", "?")],
        ) from exc
    except BaseException:  # interrupts: release, do not re-wrap
        _release_handles()
        raise
    graph = SharedCSRGraph(
        spec.n,
        spec.m,
        in_offsets=arrays.get("in_offsets"),
        in_sources=arrays.get("in_sources"),
        in_probs=arrays.get("in_probs"),
        out_offsets=arrays.get("out_offsets"),
        out_targets=arrays.get("out_targets"),
        out_probs=arrays.get("out_probs"),
    )
    return graph, arrays["active_mask"], handles
