"""Shared-memory janitor: tagged segment names, exit hooks, orphan sweeps.

``multiprocessing.shared_memory`` names its segments ``psm_<random>`` —
anonymous, owner-less strings.  When a driver dies without cleanup (SIGKILL,
OOM-killer taking the whole process group, a crashed container), its
segments stay in ``/dev/shm`` with nothing connecting them back to the
dead process, and nothing reclaiming the memory.

This module closes that hole in three layers:

1. **Tagged names** — every segment a
   :class:`~repro.parallel.broker.SharedGraphBroker` creates is named
   ``repro-shm-<owner pid>-<token>`` (:func:`tagged_segment_name`), so any
   process can later decide whether a segment's owner is still alive.
2. **Exit hooks** — brokers register their segment lists here
   (:func:`register_segments`); an ``atexit`` hook unlinks whatever is
   still registered on interpreter shutdown, and a chained ``SIGTERM``
   handler does the same before re-delivering the signal (SIGTERM by
   default skips ``atexit``).  ``SIGKILL`` cannot be caught — that is
   what layer 3 is for.
3. **Orphan sweeps** — :func:`clean_orphan_segments` scans ``/dev/shm``
   for ``repro-shm-*`` segments whose owner pid no longer exists and
   unlinks them; exposed as ``repro-experiments clean-shm``.

The sweep unlinks the files directly instead of attaching through
``SharedMemory`` — attaching would register the orphan with *this*
process's resource tracker, and the owner's tracker is as dead as the
owner.
"""

from __future__ import annotations

import atexit
import logging
import os
import secrets
import signal
from typing import List, Optional

logger = logging.getLogger("repro.parallel")

#: Prefix of every shared-memory segment this library creates.
SEGMENT_PREFIX = "repro-shm"

#: Where POSIX shared memory lives on Linux.
DEFAULT_SHM_DIR = "/dev/shm"

#: Live segment lists registered by brokers of this process.  Entries are
#: the brokers' own mutable lists: a closed broker's list is empty, so the
#: hooks naturally skip it.
_REGISTRY: List[list] = []

_HOOKS_INSTALLED = False

#: Pid the hooks were installed in.  Forked children inherit the handler,
#: the atexit registration and ``_REGISTRY`` itself — but the segments
#: belong to the parent, so cleanup must be a no-op anywhere else (a pool
#: worker SIGTERM'd during executor teardown must not unlink the graph
#: out from under the surviving workers).
_OWNER_PID: Optional[int] = None


def tagged_segment_name() -> str:
    """A fresh segment name carrying this process's pid as owner tag."""
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


def owner_pid(segment_name: str) -> Optional[int]:
    """The owner pid encoded in a tagged segment name (``None`` if untagged)."""
    name = segment_name.lstrip("/")
    if not name.startswith(SEGMENT_PREFIX + "-"):
        return None
    fields = name[len(SEGMENT_PREFIX) + 1 :].split("-", 1)
    try:
        return int(fields[0])
    except (ValueError, IndexError):
        return None


def pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


# --------------------------------------------------------------------- #
# layer 2: exit hooks for this process's own segments
# --------------------------------------------------------------------- #


def _cleanup_registered() -> None:
    """Unlink every still-registered segment of this process (best effort)."""
    if _OWNER_PID is not None and os.getpid() != _OWNER_PID:
        return  # forked child: the registry describes the parent's segments
    for segments in _REGISTRY:
        for segment in list(segments):
            try:
                segment.close()
            except Exception:
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            except Exception:  # pragma: no cover - defensive teardown
                pass
        segments.clear()


def _sigterm_handler(signum, frame):  # pragma: no cover - exercised via subprocess
    _cleanup_registered()
    # Restore the default disposition and re-deliver, so the process still
    # dies with the standard SIGTERM exit status.
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_hooks() -> None:
    global _HOOKS_INSTALLED, _OWNER_PID
    if _HOOKS_INSTALLED and _OWNER_PID == os.getpid():
        return
    if _HOOKS_INSTALLED:
        # First broker created *after a fork*: the inherited registry
        # entries are the parent's, not ours — drop them.
        _REGISTRY.clear()
    _HOOKS_INSTALLED = True
    _OWNER_PID = os.getpid()
    atexit.register(_cleanup_registered)
    try:
        if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sigterm_handler)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def register_segments(segments: list) -> None:
    """Track a broker's segment list for unlink-on-exit.

    The *list object itself* is registered (not a copy): the broker keeps
    mutating it, and ``close()`` empties it, which is how the hooks know
    there is nothing left to do.
    """
    _install_hooks()
    # A long-lived driver churns through many brokers; drop spent lists.
    _REGISTRY[:] = [entry for entry in _REGISTRY if entry]
    _REGISTRY.append(segments)


# --------------------------------------------------------------------- #
# layer 3: sweeping orphans left by dead owners
# --------------------------------------------------------------------- #


def list_library_segments(shm_dir: str = DEFAULT_SHM_DIR) -> List[str]:
    """Names of every ``repro-shm-*`` segment currently in ``shm_dir``."""
    try:
        entries = os.listdir(shm_dir)
    except (FileNotFoundError, NotADirectoryError):
        return []
    return sorted(name for name in entries if name.startswith(SEGMENT_PREFIX + "-"))


def clean_orphan_segments(shm_dir: str = DEFAULT_SHM_DIR) -> List[str]:
    """Unlink library segments whose owner process is dead; return their names.

    Segments owned by live processes are left alone, as are files whose
    owner tag cannot be parsed (they may not be ours).  Safe to run at any
    time, from any process — this is what ``repro-experiments clean-shm``
    calls.
    """
    removed: List[str] = []
    for name in list_library_segments(shm_dir):
        pid = owner_pid(name)
        if pid is None or pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except FileNotFoundError:
            continue
        except OSError as exc:  # pragma: no cover - permissions, races
            logger.warning("could not remove orphan segment %s: %s", name, exc)
            continue
        logger.warning("removed orphan shared-memory segment %s (owner %d dead)", name, pid)
        removed.append(name)
    return removed
