"""Exception hierarchy used across the library.

All exceptions raised intentionally by :mod:`repro` derive from
:class:`ReproError` so callers can catch library errors without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised intentionally by the library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, wrong shape, ...)."""


class ConfigurationError(ReproError, ValueError):
    """An experiment or algorithm configuration is inconsistent."""


class GraphFormatError(ReproError, ValueError):
    """An on-disk graph description could not be parsed."""


class WorkerError(ReproError, RuntimeError):
    """A parallel worker task failed beyond recovery.

    Raised by the supervised dispatch layer (:mod:`repro.parallel.supervisor`)
    when a session or scoring task has exhausted its retries *and* its
    in-process fallback also failed.  The attributes attach the task
    context that a bare re-raise used to drop:

    ``tier``
        Which parallel tier failed (``"eval"``).
    ``task``
        A human-readable task label (session index, scoring task, ...).
    """

    def __init__(self, message: str, tier: str = None, task: str = None) -> None:
        super().__init__(message)
        self.tier = tier
        self.task = task


class DeadlineExceeded(ReproError, TimeoutError):
    """A service query ran out of its per-query deadline budget.

    Raised by the serving tier (:mod:`repro.service`) when a query carries
    a ``deadline_ms`` (or the ``REPRO_SERVICE_DEADLINE_MS`` default is
    set) and the deadline passes before an answer is produced.  The HTTP
    layer maps it to a structured ``504``-style JSON error; the query
    never poisons the rest of its fused batch (``docs/robustness.md``,
    "Service resilience").
    """


class ServiceOverloadError(ReproError, RuntimeError):
    """The service shed a request instead of queueing it unboundedly.

    Raised by the admission-control layer (the
    :class:`repro.service.api.SeedingServer` inflight budget).  Carries
    ``retry_after_ms`` — the server's estimate of when capacity frees up —
    which the HTTP layer serialises into the structured ``429`` answer.
    """

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = float(retry_after_ms)


class InjectedFault(ReproError, RuntimeError):
    """An artificial failure raised by the fault-injection harness.

    Only ever raised when a ``poison`` rule of ``REPRO_FAULT_SPEC`` (see
    :mod:`repro.parallel.faults`) matches a task submission — never during
    normal operation.  The chaos tests use it to prove that the supervised
    dispatch layer retries and degrades without changing results.
    """


class SamplingBudgetExceeded(ReproError, RuntimeError):
    """A sampling loop hit its hard budget before meeting its stop rule.

    The noise-model algorithms (:class:`repro.core.addatp.ADDATP` and
    :class:`repro.core.hatp.HATP`) expose ``max_samples_per_round`` /
    ``max_rounds`` budgets so that the pure-Python RR-set engine cannot run
    away on large inputs.  By default hitting the budget makes the algorithm
    fall back to a best-effort decision; callers that prefer a hard failure
    can request ``on_budget="raise"`` and will receive this exception.
    """
