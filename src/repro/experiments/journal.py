"""Checkpoint/resume journals for the experiment sweeps.

A paper-scale sweep (fig. 2–9, the ablations) is hours of compute spread
over many *data points* — one ``(instance, algorithm)`` evaluation each.
Before this module, any interruption (preemption, OOM, ctrl-C) threw the
whole sweep away.  A :class:`ResultJournal` makes sweeps restartable:

* every completed data point is appended to a JSON-lines file
  (``results/<experiment>.journal.jsonl``) *as soon as it finishes* —
  one ``{"key": ..., "payload": ...}`` object per line, flushed and
  fsynced so a hard kill loses at most the point in flight;
* re-running the same sweep with ``--resume`` replays completed points
  from the journal and computes only the missing ones.

Bit-for-bit resume needs one more ingredient than the journal itself:
the RNG stream of point ``i`` must not depend on whether points
``0..i-1`` were computed or skipped.  Every driver therefore derives
**one spawned child stream per data point** (and per algorithm) from the
sweep generator (``rng.spawn(n_points)``) instead of threading a single
shared generator through the loop.  The spawn layout is a pure function
of the master seed and the point list, and it is the same with or
without a journal: the journal only replays and records, through
:func:`checkpointed`, so an interrupted-and-resumed sweep produces
byte-identical artifacts to an uninterrupted run, journaled or not.

Payloads are :class:`~repro.experiments.runner.AggregateOutcome` objects
(or small JSON dicts for driver-specific extras) serialized with
:func:`outcome_to_payload` / :func:`outcome_from_payload`.  Python's
``json`` round-trips floats through their shortest repr, which is exact
for binary64 — reconstruction is bit-for-bit, which the resume tests
pin.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Iterable, List, Optional

from repro.utils.exceptions import ValidationError


def outcome_to_payload(outcome) -> Dict[str, object]:
    """JSON-safe dict for one :class:`AggregateOutcome` (exact round-trip)."""
    return dataclasses.asdict(outcome)


def outcome_from_payload(payload: Dict[str, object]):
    """Rebuild the :class:`AggregateOutcome` a payload was made from."""
    # Deferred import: runner imports this module's sibling machinery.
    from repro.experiments.runner import AggregateOutcome

    try:
        return AggregateOutcome(**payload)
    except TypeError as exc:
        raise ValidationError(
            f"journal payload does not describe an AggregateOutcome: {exc}; "
            "the journal was probably written by an incompatible version — "
            "delete it and re-run without --resume"
        ) from exc


def checkpointed(journal: Optional["ResultJournal"], key: str, compute):
    """Replay ``key``'s outcome from ``journal``, or compute and record it.

    ``compute`` is a zero-argument callable returning an
    :class:`AggregateOutcome`; with no journal it simply runs.  Callers
    hand ``compute`` an already-spawned RNG stream, so whether a point is
    replayed or recomputed never shifts another point's randomness.
    """
    if journal is not None and key in journal:
        return outcome_from_payload(journal.get(key))
    outcome = compute()
    if journal is not None:
        journal.record(key, outcome_to_payload(outcome))
    return outcome


def journal_path(experiment: str, results_dir: str = "results") -> str:
    """Default journal location for one experiment id."""
    return os.path.join(results_dir, f"{experiment}.journal.jsonl")


class ResultJournal:
    """An append-only JSONL checkpoint store keyed by data-point name.

    ``resume=True`` loads whatever a previous (interrupted) run recorded;
    ``resume=False`` truncates any existing file and starts fresh.  Keys
    are free-form strings chosen by the drivers (they encode dataset,
    cost setting, sweep coordinate and algorithm, e.g.
    ``"epinions/degree/k=50/HATP"``); recording a key again overwrites
    its in-memory payload and appends a superseding line.

    The file handle is opened lazily on first :meth:`record` and every
    line is flushed *and* fsynced — a checkpoint that only exists in a
    dead process's page cache is no checkpoint.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = str(path)
        self.resume = bool(resume)
        self._entries: Dict[str, Dict[str, object]] = {}
        self._handle = None
        if self.resume:
            self._load()
        elif os.path.exists(self.path):
            os.unlink(self.path)

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            raw_lines = handle.readlines()
        good_end = 0
        for lineno, raw in enumerate(raw_lines, start=1):
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                good_end += len(raw)
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                payload = entry["payload"]
            except (json.JSONDecodeError, KeyError, TypeError):
                # A hard kill can tear the final line mid-write; everything
                # before it is intact.  Truncate the torn tail so the next
                # record starts on a clean line (otherwise the fragment
                # would swallow it and corrupt the journal for good).
                if lineno == len(raw_lines):
                    with open(self.path, "rb+") as trunc:
                        trunc.truncate(good_end)
                    return
                raise ValidationError(
                    f"corrupt journal line {lineno} in {self.path}; "
                    "delete the file and re-run without --resume"
                ) from None
            self._entries[str(key)] = payload
            good_end += len(raw)

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #

    def __contains__(self, key: str) -> bool:
        return str(key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Dict[str, object]:
        """Payload recorded for ``key`` (KeyError when absent)."""
        return self._entries[str(key)]

    def keys(self) -> List[str]:
        """All recorded keys (insertion order)."""
        return list(self._entries)

    def has_all(self, keys: Iterable[str]) -> bool:
        """Whether every key of an (expensive) data point is recorded."""
        return all(str(key) in self._entries for key in keys)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record(self, key: str, payload: Dict[str, object]) -> None:
        """Persist one completed data point (flushed and fsynced)."""
        key = str(key)
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            # Append: resumed runs extend the journal they loaded.
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps({"key": key, "payload": payload}) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._entries[key] = payload

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "resume" if self.resume else "fresh"
        return f"<ResultJournal {self.path!r} {mode} entries={len(self)}>"
