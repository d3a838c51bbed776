"""Tests for the exception hierarchy."""

from __future__ import annotations

import pickle

import pytest

from repro.utils.exceptions import (
    ConfigurationError,
    DeadlineExceeded,
    GraphFormatError,
    InjectedFault,
    ReproError,
    SamplingBudgetExceeded,
    ServiceOverloadError,
    ValidationError,
    WorkerError,
)


@pytest.mark.parametrize(
    "exception_type",
    [
        ValidationError,
        ConfigurationError,
        GraphFormatError,
        SamplingBudgetExceeded,
        WorkerError,
        DeadlineExceeded,
        ServiceOverloadError,
        InjectedFault,
    ],
)
def test_all_derive_from_repro_error(exception_type):
    assert issubclass(exception_type, ReproError)


def test_validation_error_is_value_error():
    assert issubclass(ValidationError, ValueError)
    assert issubclass(ConfigurationError, ValueError)


def test_budget_error_is_runtime_error():
    assert issubclass(SamplingBudgetExceeded, RuntimeError)


def test_catching_base_catches_all():
    with pytest.raises(ReproError):
        raise GraphFormatError("bad file")


class TestWorkerError:
    def test_carries_tier_and_task(self):
        error = WorkerError("session 2/5 failed", tier="eval", task="session 2/5")
        assert isinstance(error, RuntimeError)
        assert str(error) == "session 2/5 failed"
        assert (error.tier, error.task) == ("eval", "session 2/5")

    def test_context_survives_pickling(self):
        # The error may cross a process boundary on its way to the caller.
        error = WorkerError("died", tier="service", task="query 7")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is WorkerError
        assert (str(copy), copy.tier, copy.task) == ("died", "service", "query 7")

    def test_names_no_shared_memory_segments(self):
        with pytest.raises(TypeError):
            WorkerError("died", tier="eval", segments=["repro-0"])
        assert not hasattr(WorkerError("died"), "segments")
