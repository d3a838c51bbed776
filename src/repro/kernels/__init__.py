"""Kernel registry and compute backends for the three hot kernels.

The library's hot loops — batched reverse-BFS RR sampling
(:mod:`repro.sampling.engine`), forward IC simulation and deterministic
live-edge replay (:mod:`repro.diffusion.mc_engine`) — are dispatched
through a fixed table of three backends, each a ``(generate_batch,
simulate_batch, replay_batch)`` triple:

``"vectorized"``
    The NumPy frontier-at-a-time engines (the default).
``"python"``
    Naive loop-based executable specifications of the keyed streams: a
    per-set loop for RR sets and a per-cascade loop for forward
    simulation.
``"native"``
    One C BFS compiled once per machine with the system C compiler and
    opened through ``ctypes``, instantiated per RR set, per cascade and
    per replayed world.

``resolve_backend("auto")`` picks ``"native"`` when it can build and
``"vectorized"`` otherwise; because every backend samples the identical
streams, the choice never changes results.  ``backend=None`` (the
default everywhere) resolves through ``REPRO_BACKEND`` and falls back to
``"vectorized"``.

See ``docs/performance.md`` ("Kernel registry & compiled backends").
"""

from __future__ import annotations

from repro.kernels.registry import (
    AUTO,
    BACKEND_ENV_VAR,
    KernelBackend,
    PreparedCSR,
    available_backends,
    coin_thresholds,
    get_backend,
    prepare_csr,
    registered_backends,
    resolve_backend,
    warm_up,
)

__all__ = [
    "AUTO",
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "PreparedCSR",
    "available_backends",
    "coin_thresholds",
    "get_backend",
    "prepare_csr",
    "registered_backends",
    "resolve_backend",
    "warm_up",
]
