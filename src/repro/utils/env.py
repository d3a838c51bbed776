"""One shared reader for the library's environment knobs.

The ``REPRO_*`` environment variables are read through the helpers here
(a string, an integer or a float), so a malformed value fails the same way
everywhere: a :class:`~repro.utils.exceptions.ValidationError` that names
the variable, shows the offending value, and says what a well-formed value
looks like.

The knobs themselves keep living next to the subsystems they configure
(``REPRO_JOBS`` in :mod:`repro.parallel.pool`, ``REPRO_EVAL_JOBS`` in
:mod:`repro.parallel.eval_pool`, ``REPRO_BACKEND`` in
:mod:`repro.kernels.registry`, ``REPRO_FAULT_SPEC`` in
:mod:`repro.parallel.faults`); this module only owns the parsing.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.utils.exceptions import ValidationError


def read_env(name: str) -> Optional[str]:
    """The stripped value of ``name``, or ``None`` when unset or blank."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    raw = raw.strip()
    return raw or None


def read_env_int(name: str, hint: str = "e.g. 4, or -1 for all cores") -> Optional[int]:
    """Parse ``name`` as an integer knob (``None`` when unset/blank)."""
    raw = read_env(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"{name} must be an integer ({hint}), got {raw!r}; "
            f"fix or unset the variable"
        ) from None


def read_env_float(name: str, hint: str = "e.g. 30 or 0.5 (seconds)") -> Optional[float]:
    """Parse ``name`` as a float knob (``None`` when unset/blank)."""
    raw = read_env(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(
            f"{name} must be a number ({hint}), got {raw!r}; "
            f"fix or unset the variable"
        ) from None
