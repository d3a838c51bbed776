"""Deterministic fault injection for the evaluation and service tiers.

The supervised dispatch layer (:mod:`repro.parallel.supervisor`) claims
that a worker crash, a poisoned task, or a stalled future never changes
results — only wall-clock.  This module is how that claim is *tested*:
the ``REPRO_FAULT_SPEC`` environment variable (or an explicit
:class:`FaultPlan`) describes artificial failures that fire at exact,
reproducible points of a run, so the chaos tests in
``tests/parallel/test_faults.py`` can kill an evaluation worker
mid-session and then assert the merged output is bit-for-bit what a
failure-free ``eval_jobs=1`` run produces.

Spec grammar (comma-separated rules)::

    REPRO_FAULT_SPEC = rule[,rule...]
    rule             = kind:tier:nth[:seconds]
    kind             = kill | poison | delay | reject
    tier             = eval | service
    nth              = 0-based task-submission ordinal within the tier
    seconds          = float, required for delay rules

``kill`` and ``poison`` target the ``eval`` worker tier; ``reject``
targets the ``service`` tier, where the unit of submission is one query
reaching :meth:`repro.service.state.ServiceState.execute_batch`, and
answers that query with a structured shed error (the chaos stand-in for
admission control firing) without touching the rest of its fused batch.
``delay`` works at both tiers (at the service tier it stalls batch
execution, creating deadline pressure).

Examples::

    REPRO_FAULT_SPEC=kill:eval:2            # SIGKILL-equivalent on the 3rd session task
    REPRO_FAULT_SPEC=poison:eval:0          # raise InjectedFault in the 1st session task
    REPRO_FAULT_SPEC=delay:eval:1:0.5       # sleep 0.5 s before running the 2nd task
    REPRO_FAULT_SPEC=reject:service:4       # shed the 5th query with a structured 429

Determinism: rules are matched **parent-side, at submission time**,
against a per-pool submission counter — task submission order is itself
deterministic (realization order), so a given spec always hits the same
logical task regardless of which worker picks it up.  The matched action
travels to the worker inside the task payload and is performed there
(:func:`perform_fault`).  Each rule fires exactly once; a retried task
re-submits with a fresh ordinal and therefore runs clean, which is
precisely what lets a chaos run complete with unchanged bytes.  Retries
count as submissions, so ordinals are "submission number", not "task
number" — keep ``nth`` below the first-round task count to target the
initial dispatch.

Faults are **never** injected on the in-process (``eval_jobs=1`` /
degradation) paths: killing the driver itself would prove nothing, and
the in-process run of a task is the recovery mechanism of last resort.
RR and cascade sampling runs on threads of the calling process
(:mod:`repro.parallel.pool`), so it has no worker tier to inject into.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.utils.env import read_env
from repro.utils.exceptions import InjectedFault, ValidationError

#: Environment variable holding the fault specification.
FAULT_SPEC_ENV_VAR = "REPRO_FAULT_SPEC"

#: Recognised fault kinds.
FAULT_KINDS = ("kill", "poison", "delay", "reject")

#: Recognised tiers (the evaluation worker tier and the serving tier).
FAULT_TIERS = ("eval", "service")

#: Which kinds make sense at which tier: ``kill``/``poison`` fire inside
#: worker processes, ``reject`` is a service-level action, ``delay``
#: stalls anything.
KIND_TIERS = {
    "kill": ("eval",),
    "poison": ("eval",),
    "delay": ("eval", "service"),
    "reject": ("service",),
}

#: Exit code used by ``kill`` faults (distinctive in worker post-mortems).
KILL_EXIT_CODE = 70


@dataclass(frozen=True)
class FaultRule:
    """One fault: ``kind`` hits the ``nth`` submission of ``tier``."""

    kind: str
    tier: str
    nth: int
    seconds: float = 0.0


def parse_fault_spec(spec: Optional[str]) -> List[FaultRule]:
    """Parse a ``REPRO_FAULT_SPEC``-style string into rules.

    Raises :class:`~repro.utils.exceptions.ValidationError` with the
    offending rule quoted and the expected grammar on any malformed input.
    """
    if spec is None or not spec.strip():
        return []
    rules: List[FaultRule] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise ValidationError(
                f"malformed fault rule {chunk!r}: expected "
                f"kind:tier:nth[:seconds] (e.g. kill:eval:2)"
            )
        kind, tier, nth_raw = parts[0].strip().lower(), parts[1].strip().lower(), parts[2]
        if kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {parts[0]!r} in rule {chunk!r}; "
                f"available: {', '.join(FAULT_KINDS)}"
            )
        if tier not in FAULT_TIERS:
            raise ValidationError(
                f"unknown fault tier {parts[1]!r} in rule {chunk!r}; "
                f"available: {', '.join(FAULT_TIERS)}"
            )
        if tier not in KIND_TIERS[kind]:
            raise ValidationError(
                f"fault rule {chunk!r}: kind {kind!r} is only valid at "
                f"tier(s) {', '.join(KIND_TIERS[kind])}"
            )
        try:
            nth = int(nth_raw)
        except ValueError:
            raise ValidationError(
                f"fault rule {chunk!r} needs an integer submission ordinal, "
                f"got {nth_raw!r}"
            ) from None
        if nth < 0:
            raise ValidationError(
                f"fault rule {chunk!r}: submission ordinal must be >= 0, got {nth}"
            )
        seconds = 0.0
        if kind == "delay":
            if len(parts) != 4:
                raise ValidationError(
                    f"delay rule {chunk!r} needs a duration: delay:tier:nth:seconds"
                )
            try:
                seconds = float(parts[3])
            except ValueError:
                raise ValidationError(
                    f"delay rule {chunk!r} needs a numeric duration, got {parts[3]!r}"
                ) from None
            if seconds < 0:
                raise ValidationError(
                    f"delay rule {chunk!r}: duration must be >= 0, got {seconds}"
                )
        elif len(parts) == 4:
            raise ValidationError(
                f"fault rule {chunk!r}: only delay rules take a fourth field"
            )
        rules.append(FaultRule(kind=kind, tier=tier, nth=nth, seconds=seconds))
    return rules


class FaultPlan:
    """Parent-side matcher: counts task submissions, arms matching rules.

    Each pool holds its own plan (constructed from ``REPRO_FAULT_SPEC``
    by default), so counters are per-pool and a spec targets the Nth
    submission of *that* pool's tier.  A rule fires at most once.
    """

    def __init__(self, rules: Sequence[FaultRule] = ()) -> None:
        self._pending: List[FaultRule] = list(rules)
        self._counters = {tier: 0 for tier in FAULT_TIERS}

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """Plan described by ``REPRO_FAULT_SPEC`` (empty when unset)."""
        return cls(parse_fault_spec(read_env(FAULT_SPEC_ENV_VAR)))

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> "FaultPlan":
        """Plan described by an explicit spec string."""
        return cls(parse_fault_spec(spec))

    @property
    def armed(self) -> bool:
        """Whether any rule is still waiting to fire."""
        return bool(self._pending)

    def take(self, tier: str) -> Optional[FaultRule]:
        """Consume and return the rule matching this submission, if any.

        Called once per task submission; advances the tier's submission
        counter either way so rule matching is a pure function of the
        submission sequence.
        """
        ordinal = self._counters[tier]
        self._counters[tier] = ordinal + 1
        for index, rule in enumerate(self._pending):
            if rule.tier == tier and rule.nth == ordinal:
                del self._pending[index]
                return rule
        return None


def perform_fault(rule: Optional[FaultRule]) -> None:
    """Execute a matched rule — runs *inside the worker*, before the task.

    ``kill`` exits the worker process abruptly (``os._exit``, no cleanup —
    the closest in-process stand-in for SIGKILL/OOM), which breaks the
    executor exactly like a real crash.  ``poison`` raises
    :class:`~repro.utils.exceptions.InjectedFault`.  ``delay`` sleeps, so
    a task-timeout supervisor sees a straggler.
    """
    if rule is None:
        return
    if rule.kind == "delay":
        time.sleep(rule.seconds)
    elif rule.kind == "kill":
        os._exit(KILL_EXIT_CODE)
    elif rule.kind == "poison":
        raise InjectedFault(
            f"injected fault: poisoned {rule.tier} submission #{rule.nth}"
        )
    else:  # pragma: no cover - reject is consumed service-side
        raise ValidationError(
            f"fault kind {rule.kind!r} cannot be performed inside a worker"
        )
