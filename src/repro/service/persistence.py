"""Crash-safe warm restart: journal and restore of :class:`ServiceState`.

The service's answers are pure functions of ``(master seed, graph index,
residual digest, query)`` — so a warm restart does not need to persist
any computation, only the *identities* that derive it.  The journal under
``--state-dir`` therefore holds four small pieces:

``manifest.json``
    The determinism parameters (``seed``, ``num_samples``,
    ``mc_simulations``) plus a format version.  Written atomically
    (temp + rename) so a crash can never leave a half manifest.
``graphs.jsonl``
    One line per registered graph: version, costs, metadata, and where
    the CSR bytes live.  A graph loaded from an ``.rgx`` file is recorded
    **by path** (attach-by-path — the same trick the shared-memory broker
    uses, so journaling LiveJournal costs one line, not 1 GB); an in-RAM
    graph is snapshotted once to ``<state-dir>/graphs/<version>.rgx``.
``answers.jsonl``
    One line per cached answer (key + value), appended and flushed as
    each answer is cached.  ``flush`` per line is deliberate and
    sufficient: after SIGKILL the OS still owns the page cache, so every
    completed line survives; only a torn *final* line is possible, and
    the reader drops it.
``collections.jsonl``
    The warm-collection keys — ``(version, digest, samples)`` plus the
    removed-node list the digest was computed from (digests are one-way,
    so the removed list is what lets restore rebuild the residual view).
    Restore regenerates each collection from its deterministic stream:
    bit-for-bit the collection that was lost, per the module contract of
    :mod:`repro.service.state`.

Restore (:func:`restore_state`) rebuilds a :class:`ServiceState` whose
answers are **bit-for-bit identical** to the killed process's: the
manifest pins the streams, graph registration order pins the indices, and
the replayed answer cache pins everything already answered.  Appending is
idempotent across restarts because :meth:`StateJournal.attach` compacts —
it rewrites each file from live state (temp + rename) before appending.

See ``docs/robustness.md``, "Service resilience".
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from repro.utils.env import read_env
from repro.utils.exceptions import ValidationError

PathLike = Union[str, Path]

#: Journal directory knob (unset = no persistence).
STATE_DIR_ENV_VAR = "REPRO_SERVICE_STATE_DIR"

#: Journal format version (bump on incompatible layout changes).  Format 2
#: marks journals written on the keyed RR stream: collections regenerate
#: from that stream, so answers cached under the earlier stream (format 1)
#: would disagree with them.
JOURNAL_FORMAT = 2

MANIFEST_NAME = "manifest.json"
GRAPHS_NAME = "graphs.jsonl"
ANSWERS_NAME = "answers.jsonl"
COLLECTIONS_NAME = "collections.jsonl"


def resolve_state_dir(state_dir: Optional[PathLike] = None) -> Optional[Path]:
    """Journal directory: explicit value wins, then env, else none."""
    if state_dir is None:
        state_dir = read_env(STATE_DIR_ENV_VAR)
        if state_dir is None:
            return None
    return Path(state_dir)


def has_journal(state_dir: PathLike) -> bool:
    """Whether ``state_dir`` holds a restorable journal (a manifest)."""
    return (Path(state_dir) / MANIFEST_NAME).exists()


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_jsonl(path: Path) -> List[Dict[str, Any]]:
    """Parse a journal file, tolerating exactly one torn final line.

    A SIGKILL can cut the last ``write`` short; every earlier line was
    flushed whole.  Mid-file corruption is a different animal (disk
    damage, manual edits) and raises loudly instead of silently skipping.
    """
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    records: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            if index == len(lines) - 1:
                break  # torn final line: the crash cut it short — drop it
            raise ValidationError(
                f"{path}:{index + 1}: corrupt journal line (not valid JSON); "
                f"the journal was damaged after writing — delete the state "
                f"dir to cold-start, or restore it from a good copy"
            )
    return records


def _tuplize(value: Any) -> Any:
    """Undo JSON's tuple→list coercion on frozen cache-key components.

    :func:`repro.service.cache.freeze` emits only scalars and (nested)
    tuples, and JSON round-trips scalars exactly (shortest-repr floats),
    so list→tuple recursion reconstructs keys bit-for-bit.
    """
    if isinstance(value, list):
        return tuple(_tuplize(item) for item in value)
    return value


class StateJournal:
    """Append-only journal of one :class:`ServiceState`'s warm identity.

    Writers call :meth:`attach` once (compacting rewrite of every file
    from live state), then the state appends through
    :meth:`record_graph` / :meth:`record_answer` /
    :meth:`record_collection` as it runs.  Every append is flushed before
    returning, so a SIGKILL at any instant loses at most the line being
    written — which the reader tolerates.
    """

    def __init__(self, state_dir: PathLike) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / "graphs").mkdir(exist_ok=True)
        self._lock = threading.Lock()
        self._handles: Dict[str, IO[str]] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def _append(self, name: str, record: Dict[str, Any]) -> None:
        with self._lock:
            if self._closed:
                return
            handle = self._handles.get(name)
            if handle is None:
                handle = open(
                    self.state_dir / name, "a", encoding="utf-8"
                )
                self._handles[name] = handle
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def _graph_record(self, state: "ServiceState", entry: Any) -> Dict[str, Any]:
        from repro.graphs.binary import write_rgx

        mapping = entry.graph.mmap_info
        if mapping is not None:
            source = str(mapping.path)
        else:
            source = str(self.state_dir / "graphs" / f"{entry.version}.rgx")
            if not Path(source).exists():
                write_rgx(entry.graph, source)
        return {
            "version": entry.version,
            "source": source,
            "costs": {str(node): cost for node, cost in entry.costs.items()},
            "metadata": entry.metadata,
        }

    def record_graph(self, state: "ServiceState", entry: Any) -> None:
        """Journal one registered graph (snapshotting its bytes if needed)."""
        self._append(GRAPHS_NAME, self._graph_record(state, entry))

    def record_answer(self, key: Tuple[Any, ...], value: Dict[str, Any]) -> None:
        """Journal one cached answer as it is cached."""
        self._append(ANSWERS_NAME, {"key": list(key), "value": value})

    def record_collection(
        self,
        version: str,
        digest: str,
        samples: int,
        removed: Optional[Tuple[int, ...]],
    ) -> None:
        """Journal one warm-collection key (skipped when the removed list
        behind a non-trivial digest is unknown — it cannot be rebuilt)."""
        if digest != "full" and removed is None:
            return
        self._append(
            COLLECTIONS_NAME,
            {
                "version": version,
                "digest": digest,
                "samples": samples,
                "removed": list(removed or ()),
            },
        )

    def attach(self, state: "ServiceState") -> None:
        """Compact the journal to ``state``'s current contents.

        Each file is rewritten whole via temp + rename — a crash mid-attach
        leaves either the old journal or the new one, never a mix — and
        subsequent appends continue on the renamed files.  Attaching the
        journal a service was just restored *from* is therefore idempotent
        (and doubles as compaction of any duplicate appended lines).
        """
        with self._lock:
            if self._closed:
                raise ValidationError("the state journal is closed")
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()
            _atomic_write_json(
                self.state_dir / MANIFEST_NAME,
                {
                    "format": JOURNAL_FORMAT,
                    "seed": state._seed,
                    "num_samples": state._num_samples,
                    "mc_simulations": state._mc_simulations,
                },
            )
            self._rewrite(
                GRAPHS_NAME,
                [
                    self._graph_record(state, entry)
                    for entry in state._graphs.values()
                ],
            )
            answers = state.answer_cache
            self._rewrite(
                ANSWERS_NAME,
                [
                    {"key": list(key), "value": answers.peek(key)}
                    for key in answers.keys()
                ],
            )
            collections = []
            for key in state.collection_cache.keys():
                version, digest, samples = key
                removed = state._removed_by_digest.get((version, digest))
                if digest != "full" and removed is None:
                    continue
                collections.append(
                    {
                        "version": version,
                        "digest": digest,
                        "samples": samples,
                        "removed": list(removed or ()),
                    }
                )
            self._rewrite(COLLECTIONS_NAME, collections)

    def _rewrite(self, name: str, records: List[Dict[str, Any]]) -> None:
        path = self.state_dir / name
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def close(self) -> None:
        """Flush and close the append handles (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()


# --------------------------------------------------------------------- #
# restore
# --------------------------------------------------------------------- #


def read_manifest(state_dir: PathLike) -> Dict[str, Any]:
    """Parse and validate ``manifest.json`` of a journal directory."""
    path = Path(state_dir) / MANIFEST_NAME
    if not path.exists():
        raise ValidationError(
            f"no journal manifest at {path}; the state dir was never "
            f"attached (or the path is wrong)"
        )
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    fmt = manifest.get("format")
    if fmt != JOURNAL_FORMAT:
        raise ValidationError(
            f"{path}: journal format {fmt!r} is not supported (this build "
            f"reads format {JOURNAL_FORMAT}); delete the state dir to "
            f"cold-start"
        )
    return manifest


def restore_state(
    state_dir: PathLike,
    n_jobs: Optional[int] = None,
    cache_size: Optional[int] = None,
    collection_capacity: Optional[int] = None,
    fault_plan: Optional[Any] = None,
    rebuild_collections: bool = True,
    backend: Optional[str] = None,
) -> "ServiceState":
    """Rebuild a :class:`ServiceState` from a journal directory.

    The determinism parameters come from the manifest — never from the
    caller — so the restored service's streams (and therefore answers)
    are bit-for-bit those of the process that wrote the journal.
    Execution-shape knobs (``n_jobs``, cache capacities, the kernel
    ``backend``) are free to differ: the determinism contract guarantees
    they cannot change answers.  With ``rebuild_collections=True`` the journaled warm
    collections are regenerated eagerly so the first queries after
    restart hit warm state instead of paying generation latency.
    """
    from repro.graphs.binary import load_rgx
    from repro.service.state import ServiceState

    state_dir = Path(state_dir)
    manifest = read_manifest(state_dir)
    state = ServiceState(
        num_samples=int(manifest["num_samples"]),
        mc_simulations=int(manifest["mc_simulations"]),
        seed=int(manifest["seed"]),
        n_jobs=n_jobs,
        cache_size=cache_size,
        collection_capacity=collection_capacity,
        fault_plan=fault_plan,
        backend=backend,
    )
    try:
        graphs: Dict[str, Dict[str, Any]] = {}
        for record in _read_jsonl(state_dir / GRAPHS_NAME):
            graphs[str(record["version"])] = record  # last line wins
        for version, record in graphs.items():
            graph = load_rgx(record["source"], mmap=True)
            state.register_graph(
                graph,
                costs={
                    int(node): float(cost)
                    for node, cost in (record.get("costs") or {}).items()
                },
                version=version,
                metadata=record.get("metadata") or {},
            )
        if rebuild_collections:
            seen = set()
            for record in _read_jsonl(state_dir / COLLECTIONS_NAME):
                key = (
                    str(record["version"]),
                    str(record["digest"]),
                    int(record["samples"]),
                )
                if key in seen:
                    continue
                seen.add(key)
                _rebuild_collection(state, record)
        for record in _read_jsonl(state_dir / ANSWERS_NAME):
            key = _tuplize(record["key"])
            state.answer_cache.put(key, record["value"])
    except BaseException:
        state.close()
        raise
    return state


def _rebuild_collection(state: "ServiceState", record: Dict[str, Any]) -> None:
    """Regenerate one journaled warm collection (identical bytes)."""
    try:
        entry = state.entry(record["version"])
    except ValidationError:
        return  # the graph line was lost to a torn write; skip its warmth
    removed = [int(v) for v in record.get("removed") or ()]
    view, _mask, digest = state._residual_view(entry, removed)
    if digest != str(record["digest"]):
        # The digest algorithm changed (or the journal was edited): the
        # rebuilt collection would live under a different key — skip.
        return
    samples = int(record["samples"])
    num = None if samples == state._num_samples else samples
    if removed:
        state._removed_by_digest[(entry.version, digest)] = tuple(sorted(set(removed)))
    state.collection_for(entry, view, digest, num_samples=num)


# Imported lazily for type checkers only; runtime imports stay local to
# avoid a service.state <-> service.persistence cycle.
try:  # pragma: no cover
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        from repro.service.state import ServiceState
except ImportError:  # pragma: no cover
    pass
