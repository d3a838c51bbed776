"""Shared-memory graph broker: publish a graph's CSR once, attach zero-copy.

An evaluation worker (:mod:`repro.parallel.eval_pool`) runs whole
adaptive sessions, so it needs the base graph's incoming CSR
``(offsets, sources, probabilities)`` for reverse RR sampling and its
outgoing CSR ``(offsets, targets, probabilities)`` for forward cascades.
Pickling those six immutable arrays per task would copy the graph per
session; :class:`SharedGraphBroker` instead publishes them into POSIX
shared memory *once per graph*:

* the parent creates one ``multiprocessing.shared_memory`` segment per
  array;
* workers attach by segment name in their initializer
  (:func:`attach_shared_graph`) and resurrect a full
  :class:`~repro.graphs.graph.ProbabilisticGraph` over the buffers — no
  copy, no pickling, O(1) per worker regardless of graph size.

Graphs opened from a memory-mapped ``.rgx`` file
(:func:`repro.graphs.binary.load_rgx`) skip the per-publish copy entirely:
their CSR already lives in a file, so the broker publishes those arrays as
``(path, offset)`` specs and workers attach with read-only ``np.memmap``
views — one file on disk serves every evaluation worker on the host, and
nothing goes through ``/dev/shm``.

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

#: The array keys a broker publishes, in publication order: the incoming
#: CSR (reverse RR sampling), then the outgoing CSR (forward cascades).
SHARED_ARRAY_KEYS = (
    "in_offsets",
    "in_sources",
    "in_probs",
    "out_offsets",
    "out_targets",
    "out_probs",
)


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
    name: str = ""


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
    """Owns the shared-memory publication of one graph's CSR arrays.

    Parameters
    ----------
    base:
        The immutable base graph whose incoming and outgoing CSR indexes
        are published.
    """

    def __init__(self, base: ProbabilisticGraph) -> None:
        self._base = base
        self._segments: List[shared_memory.SharedMemory] = []
        self._closed = False
        in_offsets, in_sources, in_probs = base.in_csr()
        out_offsets, out_targets, out_probs = base.out_csr()
        arrays = dict(
            in_offsets=in_offsets, in_sources=in_sources, in_probs=in_probs,
            out_offsets=out_offsets, out_targets=out_targets, out_probs=out_probs,
        )
        # A graph opened from an .rgx file already has its CSR on disk:
        # publish those arrays by (path, offset) instead of copying them
        # into segments.
        mapping = getattr(base, "mmap_info", None)
        file_arrays = getattr(mapping, "arrays", None) or {}
        specs: Dict[str, SharedArraySpec] = {}
        key = "(none)"
        try:
            for key in SHARED_ARRAY_KEYS:
                if key in file_arrays:
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
                np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)[...] = array
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
        self._spec = SharedGraphSpec(n=base.n, m=base.m, arrays=specs, name=base.name)
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
        return self._closed

    def close(self) -> None:
        """Release all segments (idempotent; safe while workers are gone)."""
        self._closed = True
        self._finalizer.detach()
        _unlink_segments(self._segments)

    def __enter__(self) -> "SharedGraphBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_shared_graph(
    spec: SharedGraphSpec,
) -> Tuple[ProbabilisticGraph, List[shared_memory.SharedMemory]]:
    """Attach to a published graph; returns ``(graph, handles)``.

    ``graph`` is a full :class:`~repro.graphs.graph.ProbabilisticGraph`
    over the published buffers (zero-copy).  The returned segment handles
    must be kept alive as long as the graph is used (its arrays alias their
    buffers).  Attaching re-registers the names with the (shared)
    ``resource_tracker``; that is an idempotent no-op, and the publishing
    broker's single unlink deregisters them, so workers must not
    unregister themselves.
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
        graph = ProbabilisticGraph.from_csr_arrays(
            spec.n,
            arrays["out_offsets"],
            arrays["out_targets"],
            arrays["out_probs"],
            arrays["in_offsets"],
            arrays["in_sources"],
            arrays["in_probs"],
            name=spec.name,
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
    return graph, handles
