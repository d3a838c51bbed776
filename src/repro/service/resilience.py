"""Shared resilience vocabulary of the serving tier.

The service answers a query in exactly one of two shapes: a **real
answer** (the deterministic payload of :mod:`repro.service.state`) or a
**structured error answer** — a flat JSON object with an ``"error"``
message and a machine-readable ``"code"``::

    {"error": "query deadline of 50.0 ms expired", "code": "timeout"}
    {"error": "...", "code": "shed", "retry_after_ms": 12.5}

Error answers are ordinary batch results: an invalid or expired query is
answered in place instead of raising out of
:meth:`~repro.service.state.ServiceState.execute_batch`, so one bad
request can never poison the other members of its fused batch (the
serving-tier analogue of the PR-6 supervision ladder).  This module owns
the two directions of that convention — :func:`error_answer` builds the
dict from a typed exception, :func:`raise_error_answer` restores the
typed exception for in-process callers — plus the HTTP status mapping
(:func:`error_status`) and the resolution of the two resilience knobs:

``REPRO_SERVICE_DEADLINE_MS``
    Default per-query deadline (a query's own ``deadline_ms`` field
    wins; unset means no deadline).
``REPRO_SERVICE_MAX_INFLIGHT``
    Bound on concurrently admitted ``/query`` requests in the server.

See ``docs/robustness.md``, "Service resilience".
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.utils.env import read_env_float, read_env_int
from repro.utils.exceptions import (
    DeadlineExceeded,
    InjectedFault,
    ReproError,
    ServiceOverloadError,
    ValidationError,
    WorkerError,
)

#: Default per-query deadline in milliseconds (unset = no deadline).
DEADLINE_MS_ENV_VAR = "REPRO_SERVICE_DEADLINE_MS"

#: Bound on concurrently admitted /query requests (unset = unbounded).
MAX_INFLIGHT_ENV_VAR = "REPRO_SERVICE_MAX_INFLIGHT"

#: Machine-readable error codes and the HTTP status each maps to.
ERROR_STATUS = {
    "invalid": 400,
    "timeout": 504,
    "shed": 429,
    "worker": 500,
}


def resolve_deadline_ms(deadline_ms: Optional[float] = None) -> Optional[float]:
    """Per-query deadline in ms: explicit value wins, then env, else none."""
    if deadline_ms is None:
        deadline_ms = read_env_float(
            DEADLINE_MS_ENV_VAR, hint="milliseconds, e.g. 500"
        )
        if deadline_ms is None:
            return None
    deadline_ms = float(deadline_ms)
    if not deadline_ms > 0:  # NaN too: it would never expire
        raise ValidationError(
            f"deadline_ms must be > 0 milliseconds, got {deadline_ms}"
        )
    return deadline_ms


def resolve_max_inflight(max_inflight: Optional[int] = None) -> Optional[int]:
    """Inflight-request bound: explicit value wins, then env, else unbounded."""
    if max_inflight is None:
        max_inflight = read_env_int(
            MAX_INFLIGHT_ENV_VAR, hint="e.g. 64 concurrent queries"
        )
        if max_inflight is None:
            return None
    max_inflight = int(max_inflight)
    if max_inflight < 1:
        raise ValidationError(f"max_inflight must be >= 1, got {max_inflight}")
    return max_inflight


# --------------------------------------------------------------------- #
# structured error answers
# --------------------------------------------------------------------- #


def error_answer(exc: BaseException) -> Dict[str, Any]:
    """The structured error answer of a typed service exception."""
    if isinstance(exc, DeadlineExceeded):
        return {"error": str(exc), "code": "timeout"}
    if isinstance(exc, ServiceOverloadError):
        return {
            "error": str(exc),
            "code": "shed",
            "retry_after_ms": exc.retry_after_ms,
        }
    if isinstance(exc, (InjectedFault, WorkerError)):
        return {"error": str(exc), "code": "worker"}
    return {"error": str(exc), "code": "invalid"}


def is_error_answer(answer: Mapping[str, Any]) -> bool:
    """Whether ``answer`` is a structured error rather than a real answer."""
    return "error" in answer


def error_status(answer: Mapping[str, Any]) -> int:
    """HTTP status of a structured error answer (500 for unknown codes)."""
    return ERROR_STATUS.get(str(answer.get("code", "worker")), 500)


def raise_error_answer(answer: Mapping[str, Any]) -> None:
    """Re-raise the typed exception a structured error answer encodes.

    The inverse of :func:`error_answer` for in-process callers
    (:meth:`ServiceState.query`): batch execution answers errors in place
    to protect the batch, but a direct caller still gets the typed
    exception raised — ``except ValidationError`` keeps working.
    """
    if not is_error_answer(answer):
        return
    code = str(answer.get("code", "worker"))
    message = str(answer.get("error"))
    if code == "timeout":
        raise DeadlineExceeded(message)
    if code == "shed":
        raise ServiceOverloadError(
            message, retry_after_ms=float(answer.get("retry_after_ms", 0.0))
        )
    if code == "worker":
        raise WorkerError(message, tier="service")
    raise ValidationError(message)
