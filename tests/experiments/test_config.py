"""Tests for experiment configuration presets."""

from __future__ import annotations

import pytest

from repro.experiments.config import (
    PAPER,
    PROFIT_ALGORITHMS,
    RUNTIME_ALGORITHMS,
    SCALES,
    SMALL,
    SMOKE,
    EngineParameters,
    get_scale,
)
from repro.utils.exceptions import ConfigurationError


class TestPresets:
    def test_registry_contains_three_scales(self):
        assert set(SCALES) == {"smoke", "small", "paper"}

    def test_get_scale_case_insensitive(self):
        assert get_scale("SMOKE") is SMOKE
        assert get_scale("Paper") is PAPER

    def test_get_scale_unknown(self):
        with pytest.raises(ConfigurationError):
            get_scale("gigantic")

    def test_paper_scale_matches_paper_grid(self):
        assert PAPER.k_values == (10, 25, 50, 100, 200, 500)
        assert PAPER.lambda_values == (200.0, 300.0, 400.0, 500.0)
        assert PAPER.num_realizations == 20
        assert PAPER.dataset_nodes["livejournal"] == 4_850_000

    def test_smoke_is_small_enough_for_ci(self):
        assert max(SMOKE.dataset_nodes.values()) <= 500
        assert SMOKE.num_realizations <= 3

    def test_nodes_for_unknown_dataset(self):
        with pytest.raises(ConfigurationError):
            SMOKE.nodes_for("orkut")

    def test_with_engine_override(self):
        modified = SMOKE.with_engine(max_samples_per_round=7)
        assert modified.engine.max_samples_per_round == 7
        assert SMOKE.engine.max_samples_per_round != 7  # original untouched

    def test_algorithm_lists(self):
        assert "HATP" in PROFIT_ALGORITHMS
        assert "Baseline" in PROFIT_ALGORITHMS
        assert "Baseline" not in RUNTIME_ALGORITHMS
        assert "ARS" not in RUNTIME_ALGORITHMS


class TestEngineParameters:
    def test_paper_defaults(self):
        engine = EngineParameters()
        assert engine.epsilon == 0.05
        assert engine.epsilon0 == 0.5
        assert engine.initial_scaled_error == 64.0

    def test_nsg_ndg_samples_defaults_to_cap(self):
        engine = EngineParameters(max_samples_per_round=123)
        assert engine.nsg_ndg_samples() == 123

    def test_nsg_ndg_samples_explicit(self):
        engine = EngineParameters(baseline_sample_size=999)
        assert engine.nsg_ndg_samples() == 999


class TestSamplingJobs:
    """The no-nested-pool policy never changes which RR stream sessions sample."""

    def test_unset_n_jobs_is_never_forced(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_EVAL_JOBS", raising=False)
        for eval_jobs in (None, 1, 2):
            assert EngineParameters(eval_jobs=eval_jobs).sampling_jobs() is None

    def test_set_n_jobs_becomes_one_only_under_eval_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_EVAL_JOBS", raising=False)
        assert EngineParameters(n_jobs=4).sampling_jobs() == 4
        assert EngineParameters(n_jobs=4, eval_jobs=1).sampling_jobs() == 4
        assert EngineParameters(n_jobs=4, eval_jobs=2).sampling_jobs() == 1
        monkeypatch.setenv("REPRO_EVAL_JOBS", "2")
        assert EngineParameters(n_jobs=4).sampling_jobs() == 1

    def test_environment_worker_count_counts_as_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_JOBS", raising=False)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert EngineParameters(eval_jobs=1).sampling_jobs() is None
        assert EngineParameters(eval_jobs=2).sampling_jobs() == 1
