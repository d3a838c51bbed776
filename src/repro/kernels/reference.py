"""Registry wrappers for the NumPy / pure-Python kernels.

``"vectorized"`` is the NumPy frontier-at-a-time engine.  ``"python"``
is the deliberately naive loop-based specification of the streams every
backend samples: a per-set loop over the keyed RR stream and a
per-cascade forward simulation.  Both live in
:mod:`repro.sampling.engine` / :mod:`repro.diffusion.mc_engine`; this
module only adapts them to the registry's kernel-triple interface
(imported lazily — the engines import the registry at module load, so
the reverse import happens strictly at call time).

Live-edge replay is deterministic (no coins), so both names share the
vectorized replay implementation: a ``backend="python"`` replay request
is simply the same sweep.
"""

from __future__ import annotations

from repro.kernels.registry import KernelBackend


def _replay_vectorized(view, seeds, live):
    from repro.diffusion import mc_engine

    return mc_engine._replay_batch_vectorized(view, seeds, live)


def load(name: str) -> KernelBackend:
    """The ``"vectorized"`` or ``"python"`` kernel triple."""
    from repro.diffusion import mc_engine
    from repro.sampling import engine

    if name == "python":
        generate, simulate = engine._generate_batch_python, mc_engine._simulate_batch_python
    else:
        generate, simulate = (
            engine._generate_batch_vectorized,
            mc_engine._simulate_batch_vectorized,
        )
    return KernelBackend(
        name=name,
        generate_batch=generate,
        simulate_batch=simulate,
        replay_batch=_replay_vectorized,
    )
