"""Tests for the ``python -m repro.experiments`` command-line interface."""

from __future__ import annotations

import dataclasses

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import SMOKE
from repro.experiments.config import EngineParameters


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    """Swap the smoke preset for an even smaller one so CLI tests stay fast."""
    tiny = dataclasses.replace(
        SMOKE,
        dataset_nodes={"nethept": 100, "epinions": 100, "dblp": 100, "livejournal": 100},
        k_values=(3,),
        lambda_values=(0.5,),
        num_realizations=1,
        num_rr_sets_instance=200,
        engine=EngineParameters(
            max_rounds=2,
            max_samples_per_round=100,
            addatp_max_rounds=2,
            addatp_max_samples_per_round=100,
        ),
        include_addatp_up_to_k=0,
        datasets=("nethept",),
        epsilon_values=(0.05,),
        sample_scale_factors=(1,),
    )
    monkeypatch.setattr(cli, "get_scale", lambda name: tiny)
    return tiny


class TestArgumentParsing:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_known_experiments_listed(self):
        assert "fig2" in cli.EXPERIMENTS
        assert "table2" in cli.EXPERIMENTS
        assert len(cli.EXPERIMENTS) == 10

    def test_clean_shm_is_not_a_subcommand(self, capsys):
        # No code creates shared-memory segments, so nothing sweeps them.
        with pytest.raises(SystemExit) as exited:
            cli.main(["clean-shm"])
        assert exited.value.code == 2
        assert "invalid choice: 'clean-shm'" in capsys.readouterr().err


class TestExecution:
    def test_table2_prints_rows(self, capsys):
        assert cli.main(["table2", "--datasets", "nethept"]) == 0
        output = capsys.readouterr().out
        assert "NetHEPT" in output

    def test_fig2_prints_series(self, capsys):
        assert cli.main(["fig2", "--datasets", "nethept", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "HATP" in output and "Baseline" in output

    def test_fig4b_single_dataset(self, capsys):
        assert cli.main(["fig4b", "--dataset", "nethept"]) == 0
        assert "HATP-profit" in capsys.readouterr().out

    def test_fig9_with_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig9.csv"
        assert cli.main(["fig9", "--dataset", "nethept", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "NSG-profit" in csv_path.read_text()

    def test_fig7_runs(self, capsys):
        assert cli.main(["fig7", "--dataset", "nethept"]) == 0
        assert "HATP" in capsys.readouterr().out
