"""Versioned binary on-disk graph format (``.rgx``) with memory-mapped loads.

The text edge lists of :mod:`repro.graphs.io` are fine for NetHEPT-sized
inputs, but parsing 69 million LiveJournal edges per run — and holding the
parsed graph fully in RAM per process — is what kept Table II on scaled
proxies.  ``.rgx`` stores a :class:`~repro.graphs.graph.ProbabilisticGraph`
exactly as the engines consume it:

* a fixed little-endian header (magic, version, ``n``, ``m``, flags, name);
* the six canonical CSR arrays, 64-byte aligned, in a fixed order:
  ``out_offsets`` (int64, n+1), ``out_targets`` (uint32, m),
  ``out_probs`` (float64, m), ``in_offsets`` (int64, n+1),
  ``in_sources`` (uint32, m), ``in_probs`` (float64, m).

Node ids are stored as ``uint32`` (every SNAP graph fits; writing a graph
with ``n > 2**32`` raises :class:`~repro.utils.exceptions.GraphFormatError`),
halving the id arrays relative to the in-RAM int64 layout.  Because the
arrays are the *canonical* CSR (the lexicographic edge order
:meth:`ProbabilisticGraph._build_csr` defines), :func:`load_rgx` hands them
straight to :meth:`ProbabilisticGraph.from_csr_arrays` — no re-sorting, no
validation pass over ``m`` elements.  With ``mmap=True`` (the default) the
arrays are ``np.memmap`` views, so opening LiveJournal is O(header) and the
graph page-faults in lazily; the loaded graph carries an
:class:`RgxMapping`, the picklable recipe for re-opening the same arrays by
path (the service journal records a graph this way).  Evaluation workers
forked from the process that opened the file inherit its mapping.

The results produced on an ``.rgx``-backed graph are bit-for-bit identical
to the in-RAM path: the stored arrays hold the exact same values (uint32 vs
int64 ids are value-equal, and the engines normalise gathered ids to int64
before any arithmetic that could differ), pinned by the differential tests
in ``tests/graphs/test_binary_io.py`` and
``tests/parallel/test_mmap_attach.py``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.graphs.graph import ProbabilisticGraph
from repro.utils.exceptions import GraphFormatError

PathLike = Union[str, Path]

#: File magic of the repro graph exchange format.
RGX_MAGIC = b"RGX1"

#: Current format version.
RGX_VERSION = 1

#: Fixed header size in bytes (magic + fields + reserved padding).
HEADER_SIZE = 64

#: Alignment of every array section (cache-line / page friendly).
ALIGNMENT = 64

#: ``(name, dtype, length_of)`` of the array sections, in file order.
#: ``length_of`` is ``"n1"`` for ``n + 1`` entries or ``"m"`` for ``m``.
ARRAY_LAYOUT = (
    ("out_offsets", np.dtype("<i8"), "n1"),
    ("out_targets", np.dtype("<u4"), "m"),
    ("out_probs", np.dtype("<f8"), "m"),
    ("in_offsets", np.dtype("<i8"), "n1"),
    ("in_sources", np.dtype("<u4"), "m"),
    ("in_probs", np.dtype("<f8"), "m"),
)

#: Header struct: magic, version, n, m, flags, name_len, data_start.
_HEADER = struct.Struct("<4sIQQIIQ")

_FLAG_UNDIRECTED = 1

#: Header flag: the file carries a per-section CRC32 table after the last
#: array section.  Files without the flag (pre-checksum writers) read
#: exactly as before; files with it are byte-identical up to the table, so
#: older readers — whose size check is ``size < total`` — still load them.
_FLAG_CHECKSUMS = 2

#: Bytes per checksum-table entry (one little-endian uint32 CRC32).
_CHECKSUM_ENTRY = 4


@dataclass(frozen=True)
class RgxMapping:
    """How a graph's CSR arrays map onto a backing ``.rgx`` file.

    ``arrays`` maps the CSR array names (``out_offsets`` …
    ``in_probs``) to ``(byte_offset, shape, dtype_str)`` triples.  Any
    process can rebuild the exact arrays with one ``np.memmap`` per entry
    — this is the picklable "attach by path" recipe.
    """

    path: str
    n: int
    m: int
    arrays: Dict[str, Tuple[int, Tuple[int, ...], str]]


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _section_offsets(n: int, m: int, name_len: int) -> Tuple[Dict[str, Tuple[int, int]], int]:
    """Byte offset and length of every section; returns ``(sections, total)``."""
    offset = _aligned(HEADER_SIZE + name_len)
    data_start = offset
    sections: Dict[str, Tuple[int, int]] = {}
    for key, dtype, length_of in ARRAY_LAYOUT:
        count = n + 1 if length_of == "n1" else m
        sections[key] = (offset, count)
        offset = _aligned(offset + count * dtype.itemsize)
    return sections, offset, data_start


def _checksum_table_span(total: int) -> Tuple[int, int]:
    """``(offset, size)`` of the CRC32 table appended after the sections."""
    offset = _aligned(total)
    return offset, len(ARRAY_LAYOUT) * _CHECKSUM_ENTRY


def write_rgx(
    graph: ProbabilisticGraph, path: PathLike, checksums: bool = True
) -> Path:
    """Write ``graph`` to ``path`` in the binary ``.rgx`` format.

    The file round-trips exactly: ``n`` is stored explicitly, so graphs
    with isolated trailing nodes — which a plain edge list cannot
    represent — reload identically (``load_rgx(path) == graph``).

    With ``checksums=True`` (default) a CRC32 per array section is
    appended after the last section and flagged in the header, enabling
    ``load_rgx(path, verify=True)`` / :func:`verify_rgx` to detect silent
    on-disk corruption.  The sections themselves are byte-identical either
    way, so pre-checksum readers load checksummed files unchanged.
    """
    path = Path(path)
    n, m = graph.n, graph.m
    if n > 2**32:
        raise GraphFormatError(
            f"cannot write {path}: the .rgx format stores node ids as "
            f"uint32, which caps n at 2**32 ({n} nodes given); shard the "
            f"graph or extend the format with a 64-bit id section"
        )
    out_offsets, out_targets, out_probs = graph.out_csr()
    in_offsets, in_sources, in_probs = graph.in_csr()
    name_bytes = (graph.name or "").encode("utf-8")
    if len(name_bytes) > 2**16:
        name_bytes = name_bytes[: 2**16]
    sections, total, data_start = _section_offsets(n, m, len(name_bytes))
    arrays = {
        "out_offsets": np.ascontiguousarray(out_offsets, dtype="<i8"),
        "out_targets": np.ascontiguousarray(out_targets, dtype="<u4"),
        "out_probs": np.ascontiguousarray(out_probs, dtype="<f8"),
        "in_offsets": np.ascontiguousarray(in_offsets, dtype="<i8"),
        "in_sources": np.ascontiguousarray(in_sources, dtype="<u4"),
        "in_probs": np.ascontiguousarray(in_probs, dtype="<f8"),
    }
    flags = _FLAG_UNDIRECTED if graph.undirected_input else 0
    if checksums:
        flags |= _FLAG_CHECKSUMS
    header = _HEADER.pack(
        RGX_MAGIC, RGX_VERSION, n, m, flags, len(name_bytes), data_start
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(b"\x00" * (HEADER_SIZE - _HEADER.size))
        handle.write(name_bytes)
        crcs = []
        for key, dtype, _length_of in ARRAY_LAYOUT:
            offset, _count = sections[key]
            handle.seek(offset)
            payload = arrays[key].tobytes()
            handle.write(payload)
            crcs.append(zlib.crc32(payload) & 0xFFFFFFFF)
        handle.truncate(total)
        if checksums:
            table_offset, table_size = _checksum_table_span(total)
            handle.seek(table_offset)
            handle.write(np.asarray(crcs, dtype="<u4").tobytes())
            handle.truncate(table_offset + table_size)
    return path


def read_header(path: PathLike) -> Tuple[int, int, int, str, int]:
    """Parse and validate an ``.rgx`` header.

    Returns ``(n, m, flags, name, data_start)``; raises
    :class:`GraphFormatError` with an actionable message for anything that
    is not a well-formed version-1 file.
    """
    path = Path(path)
    if not path.exists():
        raise GraphFormatError(f"graph file not found: {path}")
    size = path.stat().st_size
    if size < HEADER_SIZE:
        raise GraphFormatError(
            f"{path}: file is {size} bytes, smaller than the fixed "
            f"{HEADER_SIZE}-byte .rgx header — truncated or not an .rgx file"
        )
    with open(path, "rb") as handle:
        raw = handle.read(HEADER_SIZE)
        magic, version, n, m, flags, name_len, data_start = _HEADER.unpack(
            raw[: _HEADER.size]
        )
        if magic != RGX_MAGIC:
            raise GraphFormatError(
                f"{path}: bad magic {magic!r} (expected {RGX_MAGIC!r}) — "
                f"not an .rgx graph file; text edge lists go through "
                f"repro.graphs.io.load_edge_list instead"
            )
        if version != RGX_VERSION:
            raise GraphFormatError(
                f"{path}: unsupported .rgx version {version} (this build "
                f"reads version {RGX_VERSION}); re-run "
                f"`repro-experiments convert-graph` with this library"
            )
        if n > 2**32:
            raise GraphFormatError(
                f"{path}: header claims n={n}, beyond the uint32 node-id "
                f"range of format version 1 — corrupt header"
            )
        if name_len > 2**16 or data_start < HEADER_SIZE or data_start > size:
            raise GraphFormatError(
                f"{path}: malformed header (name_len={name_len}, "
                f"data_start={data_start}, file size {size})"
            )
        handle.seek(HEADER_SIZE)
        name = handle.read(name_len).decode("utf-8", errors="replace")
    sections, total, expected_start = _section_offsets(int(n), int(m), name_len)
    if data_start != expected_start:
        raise GraphFormatError(
            f"{path}: malformed header (data_start={data_start}, expected "
            f"{expected_start} for n={n}, m={m}, name_len={name_len})"
        )
    if size < total:
        raise GraphFormatError(
            f"{path}: file is {size} bytes but n={n}, m={m} needs {total} — "
            f"the file is truncated; re-run the conversion"
        )
    return int(n), int(m), int(flags), name, int(data_start)


def verify_rgx(path: PathLike) -> Dict[str, int]:
    """Recompute and check every section CRC32 of a checksummed ``.rgx``.

    Returns ``{section: crc}`` on success.  Raises
    :class:`GraphFormatError` when any section's bytes no longer match
    their stored checksum (silent on-disk corruption, torn writes), when
    the checksum table itself is truncated, or when the file predates
    checksumming — an unchecksummed file *cannot* be verified, and saying
    so loudly beats a false "ok".
    """
    path = Path(path)
    n, m, flags, name, _data_start = read_header(path)
    if not flags & _FLAG_CHECKSUMS:
        raise GraphFormatError(
            f"{path}: file carries no section checksums (written by a "
            f"pre-checksum writer or with checksums=False) and cannot be "
            f"verified; re-run `repro-experiments convert-graph` to produce "
            f"a checksummed file"
        )
    name_len = len(name.encode("utf-8"))
    sections, total, _start = _section_offsets(n, m, name_len)
    table_offset, table_size = _checksum_table_span(total)
    size = path.stat().st_size
    if size < table_offset + table_size:
        raise GraphFormatError(
            f"{path}: checksum table is truncated (file is {size} bytes, "
            f"table ends at {table_offset + table_size}) — the file was cut "
            f"short after writing; re-run the conversion"
        )
    checked: Dict[str, int] = {}
    with open(path, "rb") as handle:
        handle.seek(table_offset)
        table = np.frombuffer(handle.read(table_size), dtype="<u4")
        for index, (key, dtype, _length_of) in enumerate(ARRAY_LAYOUT):
            offset, count = sections[key]
            handle.seek(offset)
            payload = handle.read(count * dtype.itemsize)
            if len(payload) != count * dtype.itemsize:
                raise GraphFormatError(
                    f"{path}: section {key!r} is truncated — re-run the "
                    f"conversion"
                )
            crc = zlib.crc32(payload) & 0xFFFFFFFF
            stored = int(table[index])
            if crc != stored:
                raise GraphFormatError(
                    f"{path}: checksum mismatch in section {key!r} (stored "
                    f"0x{stored:08x}, computed 0x{crc:08x}) — the file is "
                    f"corrupt on disk; re-run the conversion or restore it "
                    f"from a good copy"
                )
            checked[key] = crc
    return checked


def _mapping_for(path: Path, n: int, m: int, name_len: int) -> RgxMapping:
    sections, _total, _start = _section_offsets(n, m, name_len)
    arrays = {
        key: (sections[key][0], (sections[key][1],), dtype.str)
        for key, dtype, _length_of in ARRAY_LAYOUT
    }
    return RgxMapping(path=str(path.resolve()), n=n, m=m, arrays=arrays)


def map_rgx_arrays(mapping: RgxMapping) -> Dict[str, np.ndarray]:
    """Memory-map every CSR array described by ``mapping`` (read-only).

    This is the attach-by-path primitive behind :func:`load_rgx`: one
    ``np.memmap`` per array, no copies.
    """
    path = Path(mapping.path)
    if not path.exists():
        raise GraphFormatError(
            f"backing graph file {path} does not exist; it was moved or "
            f"deleted after the graph was opened — reconvert or restore it"
        )
    arrays: Dict[str, np.ndarray] = {}
    for key, (offset, shape, dtype) in mapping.arrays.items():
        arrays[key] = np.memmap(
            path, dtype=np.dtype(dtype), mode="r", offset=offset, shape=shape
        )
    return arrays


def load_rgx(
    path: PathLike, mmap: bool = True, verify: bool = False
) -> ProbabilisticGraph:
    """Load an ``.rgx`` graph.

    With ``mmap=True`` (default) the CSR arrays are read-only
    ``np.memmap`` views: the open is O(header), pages fault in on first
    touch, and one file serves every process on the host (forked
    evaluation workers inherit the mapping, and the graph's
    :attr:`~repro.graphs.graph.ProbabilisticGraph.mmap_info` lets any
    other process open it by path).  With ``mmap=False`` the arrays are read
    fully into RAM — the layout the in-memory constructors produce.

    ``verify=True`` runs :func:`verify_rgx` first — a full sequential
    read checking every section against its stored CRC32 — and raises
    :class:`GraphFormatError` on corruption or on unchecksummed files.
    The default stays ``False``: verification costs one pass over the
    whole file, defeating the O(header) open that mmap exists for.
    """
    path = Path(path)
    if verify:
        verify_rgx(path)
    n, m, flags, name, _data_start = read_header(path)
    name_len = len(name.encode("utf-8"))
    mapping = _mapping_for(path, n, m, name_len)
    if mmap:
        arrays = map_rgx_arrays(mapping)
    else:
        arrays = {}
        with open(path, "rb") as handle:
            for key, (offset, shape, dtype) in mapping.arrays.items():
                handle.seek(offset)
                arrays[key] = np.fromfile(
                    handle, dtype=np.dtype(dtype), count=int(np.prod(shape))
                )
    graph = ProbabilisticGraph.from_csr_arrays(
        n,
        arrays["out_offsets"],
        arrays["out_targets"],
        arrays["out_probs"],
        arrays["in_offsets"],
        arrays["in_sources"],
        arrays["in_probs"],
        name=name,
        undirected_input=bool(flags & _FLAG_UNDIRECTED),
        mmap_info=mapping if mmap else None,
    )
    return graph


def convert_edge_list(
    source: PathLike,
    destination: PathLike,
    directed: bool = True,
    apply_weighted_cascade: bool = True,
    default_probability: float = 1.0,
    name: Optional[str] = None,
) -> Tuple[int, int]:
    """One-shot streaming conversion of a SNAP edge list to ``.rgx``.

    Parses the text file in fixed-size chunks through the vectorized
    reader (:func:`repro.graphs.io.load_edge_list` — no per-line Python
    tuples are ever materialised), builds the canonical CSR once, applies
    weighted-cascade probabilities when the file has no probability column
    (matching the paper's Section VI-A), and writes the binary file.
    Returns ``(n, m)`` of the converted graph.
    """
    from repro.graphs.io import load_edge_list

    graph = load_edge_list(
        source,
        directed=directed,
        name=name,
        apply_weighted_cascade=apply_weighted_cascade,
        default_probability=default_probability,
    )
    write_rgx(graph, destination)
    return graph.n, graph.m
