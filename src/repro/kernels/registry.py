"""The kernel registry: a fixed table of backends for the three hot kernels.

Each backend is a :class:`KernelBackend` — a ``(generate_batch,
simulate_batch, replay_batch)`` triple under a name — and every caller
reaches an implementation exclusively through :func:`resolve_backend` +
:func:`get_backend`, so ``sampling/engine.py``, ``diffusion/mc_engine.py``,
the pools and the service never name an implementation directly.

Contracts
---------
* **Determinism** — RR generation samples the keyed stream of
  :mod:`repro.sampling.engine`: every set is a pure function of the batch
  key and its index, so every backend returns the identical batch, with
  or without a ``stop`` mask.  Forward simulation consumes the caller's
  generator, one draw per live edge in frontier-then-edge order, and
  every backend consumes that stream identically.  ``"auto"`` —
  ``"native"`` when its probe passes, else ``"vectorized"`` — therefore
  never perturbs results.
* **Defaults** — ``backend=None`` resolves through the ``REPRO_BACKEND``
  environment variable and falls back to ``"vectorized"`` (the MC entry
  points resolve through ``REPRO_MC_BACKEND`` with default ``"python"``).
* **Availability** — ``"native"`` needs a C compiler.  Without one it
  stays in the table (so error messages can name it), an explicit
  request raises the probe's reason as a
  :class:`~repro.utils.exceptions.ValidationError`, and ``"auto"`` falls
  back to ``"vectorized"`` silently.

Every backend reads the ``uint32`` node arrays of mmap'd ``.rgx`` graphs
in place; :meth:`PreparedCSR.gather` is the one place gathered node ids
are upcast to int64.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.utils.env import read_env
from repro.utils.exceptions import ValidationError

#: Environment variable consulted when a caller leaves ``backend`` unset.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The resolve-time wildcard: ``"native"`` when it can build, else
#: ``"vectorized"``.
AUTO = "auto"

#: Every backend name, in listing order.
_NAMES = ("vectorized", "python", "native")


@dataclass(frozen=True)
class KernelBackend:
    """A loaded backend: its name and the three kernel entry points.

    ``generate_batch(view, key, start, count, roots, stop)`` grows sets
    ``start … start + count − 1`` of the keyed RR stream (reverse BFS;
    ``roots`` and ``stop`` may be ``None``),
    ``simulate_batch(view, seeds, count, rng)`` runs forward IC cascades,
    ``replay_batch(view, seeds, live)`` replays precomputed live-edge
    worlds deterministically.  All three receive pre-validated
    arguments from their entry points in :mod:`repro.sampling.engine` /
    :mod:`repro.diffusion.mc_engine`.
    """

    name: str
    generate_batch: Callable
    simulate_batch: Callable
    replay_batch: Callable


#: Backends loaded in this process (``"native"`` compiles or dlopens its
#: kernels on first load; pool workers load once, not once per shard).
_LOADED: Dict[str, KernelBackend] = {}


def _load(name: str) -> KernelBackend:
    backend = _LOADED.get(name)
    if backend is None:
        if name == "native":
            from repro.kernels import native_backend

            backend = native_backend.load()
        else:
            from repro.kernels import reference

            backend = reference.load(name)
        _LOADED[name] = backend
    return backend


def _unavailable_reason(name: str) -> Optional[str]:
    """``None`` when ``name`` can load, else why not (only native can fail)."""
    if name != "native" or name in _LOADED:
        return None
    from repro.kernels import native_backend

    return native_backend.probe()


def registered_backends() -> Tuple[str, ...]:
    """Every backend name in the table, available or not."""
    return _NAMES


def available_backends() -> Tuple[str, ...]:
    """The backends that can load on this machine."""
    return tuple(name for name in _NAMES if _unavailable_reason(name) is None)


def resolve_backend(
    backend: Optional[str] = None,
    env_var: str = BACKEND_ENV_VAR,
    default: str = "vectorized",
) -> str:
    """Resolve a backend request to a concrete backend name.

    * an explicit value wins; ``None`` falls back to ``env_var``
      (``REPRO_BACKEND`` for the sampling/kernel knob,
      ``REPRO_MC_BACKEND`` for the Monte-Carlo strategy knob), then to
      ``default``;
    * ``"auto"`` picks ``"native"`` when it is available, else
      ``"vectorized"`` (both are bit-for-bit identical, so this is
      stream-safe);
    * an unknown name raises the shared error listing every backend; a
      known-but-unavailable name raises the probe's reason.
    """
    source = None
    if backend is None:
        backend = read_env(env_var)
        if backend is None:
            backend = default
        else:
            source = env_var
    name = str(backend).strip().lower()
    if name == AUTO:
        return "native" if _unavailable_reason("native") is None else "vectorized"
    origin = f" (from {source})" if source else ""
    if name not in _NAMES:
        raise ValidationError(
            f"unknown backend {backend!r}{origin}; "
            f"registered backends: {', '.join(_NAMES + (AUTO,))}"
        )
    reason = _unavailable_reason(name)
    if reason is not None:
        raise ValidationError(
            f"backend {name!r}{origin} is registered but not available: "
            f"{reason}; use backend='auto' to pick the fastest available "
            f"backend automatically"
        )
    return name


def get_backend(backend: Optional[str] = None, **resolve_kwargs) -> KernelBackend:
    """Load the backend ``resolve_backend`` picks for ``backend``."""
    return _load(resolve_backend(backend, **resolve_kwargs))


def warm_up(backend: str) -> None:
    """Load ``backend`` now, so its one-off cost lands outside timed work.

    ``"native"`` compiles (or finds cached) and dlopens its kernels here;
    pool workers call this per task, and every call after the first is a
    dict lookup.
    """
    _load(resolve_backend(backend))


# --------------------------------------------------------------------- #
# CSR preparation (the single home of the uint32 -> int64 cast)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PreparedCSR:
    """A CSR triple with int64 offsets and float64 probabilities.

    ``nodes`` keeps its storage dtype (mmap'd ``uint32`` for ``.rgx``
    graphs, so the pages stay shared).  Gathered node-id slices go
    through :meth:`gather` — the one place the uint32→int64 upcast
    happens, instead of ``.astype`` calls scattered over the backends.
    """

    offsets: np.ndarray
    nodes: np.ndarray
    probs: np.ndarray

    def gather(self, edge_idx: np.ndarray) -> np.ndarray:
        """Node ids at ``edge_idx`` as int64 (no copy when already int64)."""
        return self.nodes[edge_idx].astype(np.int64, copy=False)


def prepare_csr(offsets: np.ndarray, nodes: np.ndarray, probs: np.ndarray) -> PreparedCSR:
    """Normalise a raw CSR triple; ``nodes`` is read in place."""
    offsets = np.asarray(offsets)
    if offsets.dtype != np.int64:
        offsets = offsets.astype(np.int64)
    probs = np.asarray(probs)
    if probs.dtype != np.float64:
        probs = probs.astype(np.float64)
    return PreparedCSR(offsets=offsets, nodes=np.asarray(nodes), probs=probs)


#: Coin thresholds per probability array: ``id(probs) -> (ref, thresholds)``.
_THRESHOLDS: Dict[int, Tuple[weakref.ref, np.ndarray]] = {}


def coin_thresholds(probs: np.ndarray) -> np.ndarray:
    """``ceil(p · 2**53)`` per edge as ``uint64`` (cached per ``probs`` array).

    An edge is live when its 53-bit keyed coin is below its threshold, the
    exact integer form of ``u53 < p``.  The cache is keyed on the
    probability array a graph's ``in_csr()`` returns, and an entry lives
    as long as that array does.
    """
    ident = id(probs)
    entry = _THRESHOLDS.get(ident)
    if entry is not None and entry[0]() is probs:
        return entry[1]
    thresholds = np.ceil(np.asarray(probs, dtype=np.float64) * 2.0**53).astype(np.uint64)
    _THRESHOLDS[ident] = (
        weakref.ref(probs, lambda _, ident=ident: _THRESHOLDS.pop(ident, None)),
        thresholds,
    )
    return thresholds
