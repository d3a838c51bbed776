"""Tests for the per-figure experiment drivers (smoke scale, tiny overrides).

These tests run every driver end-to-end on very small instances: the goal
is to verify the plumbing (correct series, correct sweep axes, sensible
values), not the paper's quantitative conclusions — those are exercised at
a larger scale by the benchmark harness and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.experiments import (
    SMOKE,
    epsilon_sensitivity,
    hatp_vs_nonadaptive_selector,
    profit_and_runtime,
    profit_relative_range,
    profit_series,
    reproduce_table2,
    runtime_series,
    sample_size_scaling,
    sweep_target_sizes,
)
from repro.experiments.ablations import (
    adaptivity_ablation,
    dynamic_threshold_ablation,
    error_mode_ablation,
    sample_cap_ablation,
)
from repro.experiments.config import EngineParameters
from repro.experiments.journal import ResultJournal
from repro.parallel.eval_pool import EvaluationPool


#: A deliberately tiny scale so every driver runs in a couple of seconds.
TINY = dataclasses.replace(
    SMOKE,
    dataset_nodes={"nethept": 120, "epinions": 120, "dblp": 120, "livejournal": 120},
    k_values=(3, 5),
    lambda_values=(0.5, 1.0),
    num_realizations=2,
    num_rr_sets_instance=300,
    engine=EngineParameters(
        max_rounds=3,
        max_samples_per_round=150,
        addatp_max_rounds=3,
        addatp_max_samples_per_round=150,
    ),
    include_addatp_up_to_k=3,
    datasets=("nethept",),
    epsilon_values=(0.05, 0.25),
    sample_scale_factors=(1, 2),
)


def assert_finite(values):
    assert all(value is None or math.isfinite(value) for value in values)


class TestTable2:
    def test_rows_cover_requested_datasets(self):
        rows = reproduce_table2(TINY, dataset_names=("nethept", "epinions"), random_state=0)
        assert [row["dataset"] for row in rows] == ["NetHEPT", "Epinions"]
        for row in rows:
            assert row["proxy_n"] == 120
            assert row["proxy_m"] > 0

    def test_directedness_matches_paper(self):
        rows = reproduce_table2(TINY, dataset_names=("nethept", "epinions"), random_state=0)
        assert rows[0]["proxy_type"] == "undirected"
        assert rows[1]["proxy_type"] == "directed"


class TestProfitAndRuntimeSweeps:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_target_sizes("nethept", "degree", TINY, random_state=0)

    def test_sweep_covers_all_k(self, sweep):
        assert sorted(sweep) == [3, 5]

    def test_profit_series_structure(self, sweep):
        result = profit_series("nethept", "degree", TINY, sweep=sweep)
        assert result.x_values == [3, 5]
        assert {"HATP", "HNTP", "NSG", "NDG", "ARS", "Baseline"} <= set(result.series)
        for values in result.series.values():
            assert_finite(values)

    def test_addatp_only_below_cutoff(self, sweep):
        result = profit_series("nethept", "degree", TINY, sweep=sweep)
        addatp = result.series["ADDATP"]
        assert addatp[0] is not None  # k=3 <= cutoff
        assert addatp[1] is None  # k=5 > cutoff

    def test_runtime_series_structure(self, sweep):
        result = runtime_series("nethept", "degree", TINY, sweep=sweep)
        assert set(result.series) == {"HATP", "ADDATP", "HNTP", "NSG", "NDG"}
        for name, values in result.series.items():
            for value in values:
                assert value is None or value >= 0

    def test_profit_and_runtime_shared_sweep(self):
        both = profit_and_runtime("nethept", "uniform", TINY, random_state=0)
        assert set(both) == {"profit", "runtime"}
        assert both["profit"].x_values == both["runtime"].x_values


class TestSensitivityAndScaling:
    def test_epsilon_sensitivity_series(self):
        result = epsilon_sensitivity(
            dataset="nethept", k=4, scale=TINY, epsilon_values=(0.05, 0.25), random_state=0
        )
        assert result.x_values == [0.05, 0.25]
        assert len(result.series["HATP-profit"]) == 2
        assert profit_relative_range(result) >= 0.0

    def test_sample_size_scaling_series(self):
        result = sample_size_scaling(
            dataset="nethept", k=4, scale=TINY, scale_factors=(1, 2), base_samples=100,
            random_state=0,
        )
        assert result.x_values == [1, 2]
        assert set(result.series) == {
            "NSG-profit", "NDG-profit", "NSG-runtime", "NDG-runtime",
        }
        # runtime must grow (weakly) with the sample budget
        assert result.series["NSG-runtime"][1] >= result.series["NSG-runtime"][0] * 0.5


class TestPredefinedCost:
    def test_hatp_vs_ndg_series(self):
        result = hatp_vs_nonadaptive_selector(
            "ndg", dataset="nethept", scale=TINY, lambda_values=(0.5, 1.0),
            max_target_size=6, random_state=0,
        )
        assert result.x_values == [0.5, 1.0]
        assert set(result.series) == {"HATP", "NDG"}
        assert len(result.metadata["target_sizes"]) == 2

    def test_hatp_vs_nsg_experiment_id(self):
        result = hatp_vs_nonadaptive_selector(
            "nsg", dataset="nethept", scale=TINY, lambda_values=(0.5,),
            max_target_size=6, random_state=0,
        )
        assert result.experiment_id == "fig8"
        assert "NSG" in result.series

    def test_invalid_selector(self):
        from repro.utils.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            hatp_vs_nonadaptive_selector("magic", scale=TINY)


class TestAblations:
    def test_error_mode_ablation(self):
        result = error_mode_ablation(dataset="nethept", k=3, scale=TINY, random_state=0)
        assert set(result.series) == {"HATP", "ADDATP"}
        assert result.x_values == ["profit", "rr_sets", "runtime_s"]

    def test_adaptivity_ablation(self):
        result = adaptivity_ablation(dataset="nethept", k=3, scale=TINY, random_state=0)
        assert set(result.series) == {"HATP", "HNTP"}

    def test_sample_cap_ablation(self):
        result = sample_cap_ablation(
            dataset="nethept", k=3, scale=TINY, caps=[50, 100], random_state=0
        )
        assert result.x_values == [50, 100]
        assert len(result.series["HATP-profit"]) == 2

    def test_dynamic_threshold_ablation(self):
        result = dynamic_threshold_ablation(dataset="nethept", k=3, scale=TINY, random_state=0)
        assert set(result) == {
            "fixed_profit", "dynamic_profit", "fixed_rr_sets", "dynamic_rr_sets",
        }


def _comparable(outcome):
    """Everything of an AggregateOutcome except the measured runtime."""
    return (
        outcome.per_realization_profits,
        outcome.per_realization_spreads,
        outcome.per_realization_seeds,
        outcome.per_realization_costs,
        outcome.total_rr_sets,
        outcome.cap_forced_frac,
    )


class TestOneEvaluationStream:
    """A journal and the eval worker count never change a driver's outcomes."""

    @staticmethod
    def _modes(tmp_path):
        """``(scale, journal)`` for: plain, a fresh journal, two eval workers."""
        with_workers = dataclasses.replace(
            TINY, engine=dataclasses.replace(TINY.engine, eval_jobs=2)
        )
        return [
            (TINY, None),
            (TINY, ResultJournal(tmp_path / "journal.jsonl")),
            (with_workers, None),
        ]

    def test_sweep_target_sizes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_JOBS", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        runs = []
        for scale, journal in self._modes(tmp_path):
            sweep = sweep_target_sizes(
                "nethept", "degree", scale, random_state=0, journal=journal
            )
            runs.append(
                {
                    (k, name): _comparable(outcome)
                    for k, outcomes in sweep.items()
                    for name, outcome in outcomes.items()
                }
            )
            if journal is not None:
                journal.close()
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_error_mode_ablation(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_JOBS", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        runs = []
        for scale, journal in self._modes(tmp_path):
            result = error_mode_ablation(
                dataset="nethept", k=3, scale=scale, random_state=0, journal=journal
            )
            # profit and rr_sets; runtime_s is measured, not sampled.
            runs.append({name: values[:2] for name, values in result.series.items()})
            if journal is not None:
                journal.close()
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_default_sweep_starts_no_processes(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_JOBS", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)

        def refuse(self):
            raise AssertionError("the default evaluation path started a worker pool")

        monkeypatch.setattr(EvaluationPool, "_ensure_workers", refuse)
        sweep = sweep_target_sizes("nethept", "degree", TINY, random_state=0)
        assert sorted(sweep) == [3, 5]
