"""Kernel registry and compute backends for the three hot kernels.

The library's hot loops — batched reverse-BFS RR sampling
(:mod:`repro.sampling.engine`), forward IC simulation and deterministic
live-edge replay (:mod:`repro.diffusion.mc_engine`) — are dispatched
through a fixed table of three backends, each a ``(generate_batch,
simulate_batch, replay_batch)`` triple:

``"vectorized"``
    The NumPy frontier-at-a-time engine (the default and the bit-for-bit
    reference the other backends are differential-tested against).
``"python"``
    The naive loop-based executable specification of the RNG contract.
``"native"``
    cffi/C kernels compiled once per machine with the system C compiler.

``resolve_backend("auto")`` picks ``"native"`` when it can build and
``"vectorized"`` otherwise; because every backend consumes the identical
RNG coin stream, the choice never changes results.  ``backend=None``
(the default everywhere) resolves through ``REPRO_BACKEND`` and falls
back to ``"vectorized"``, so defaults preserve the historical streams
bit-for-bit.

See ``docs/performance.md`` ("Kernel registry & compiled backends").
"""

from __future__ import annotations

from repro.kernels.registry import (
    AUTO,
    BACKEND_ENV_VAR,
    KernelBackend,
    PreparedCSR,
    available_backends,
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
    "get_backend",
    "prepare_csr",
    "registered_backends",
    "resolve_backend",
    "warm_up",
]
