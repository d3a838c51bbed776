"""Tests for the shared evaluation machinery."""

from __future__ import annotations

import pytest

from repro import kernels
from repro.core.hatp import HATP
from repro.diffusion.realization import sample_realizations
from repro.experiments.config import SMOKE, EngineParameters
from repro.experiments.journal import (
    ResultJournal,
    outcome_from_payload,
    outcome_to_payload,
)
from repro.experiments.runner import (
    AlgorithmSpec,
    build_standard_suite,
    evaluate_adaptive,
    evaluate_nonadaptive,
    evaluate_suite,
)


#: Every kernel backend importable on this machine.
AVAILABLE_BACKENDS = kernels.available_backends()


@pytest.fixture(scope="module")
def fast_engine() -> EngineParameters:
    return EngineParameters(
        max_rounds=3,
        max_samples_per_round=150,
        addatp_max_rounds=3,
        addatp_max_samples_per_round=150,
    )


class TestBuildStandardSuite:
    def test_full_lineup(self, fast_engine):
        names = [spec.name for spec in build_standard_suite(fast_engine)]
        assert names == ["HATP", "ADDATP", "HNTP", "NSG", "NDG", "ARS", "Baseline"]

    def test_addatp_exclusion(self, fast_engine):
        names = [spec.name for spec in build_standard_suite(fast_engine, include_addatp=False)]
        assert "ADDATP" not in names

    def test_runtime_lineup(self, fast_engine):
        names = [
            spec.name
            for spec in build_standard_suite(
                fast_engine, include_ars=False, include_baseline=False
            )
        ]
        assert "ARS" not in names and "Baseline" not in names

    def test_kinds(self, fast_engine):
        kinds = {spec.name: spec.kind for spec in build_standard_suite(fast_engine)}
        assert kinds["HATP"] == "adaptive"
        assert kinds["ARS"] == "adaptive"
        assert kinds["NSG"] == "nonadaptive"
        assert kinds["Baseline"] == "fixed"


class TestEvaluation:
    def test_evaluate_adaptive_aggregates(self, small_instance, small_proxy, fast_engine):
        realizations = sample_realizations(small_proxy, 2, random_state=0)
        spec = AlgorithmSpec(
            name="HATP",
            kind="adaptive",
            factory=lambda inst, rng: HATP(
                inst.target,
                max_rounds=fast_engine.max_rounds,
                max_samples_per_round=fast_engine.max_samples_per_round,
                random_state=rng,
            ),
        )
        outcome = evaluate_adaptive(spec, small_instance, realizations, random_state=1)
        assert outcome.algorithm == "HATP"
        assert len(outcome.per_realization_profits) == 2
        assert outcome.total_rr_sets > 0
        assert outcome.mean_seeds <= small_instance.k

    def test_evaluate_fixed_baseline(self, small_instance, small_proxy):
        realizations = sample_realizations(small_proxy, 3, random_state=0)
        spec = AlgorithmSpec(
            name="Baseline", kind="fixed", factory=lambda inst, rng: list(inst.target)
        )
        outcome = evaluate_nonadaptive(spec, small_instance, realizations, random_state=1)
        assert outcome.mean_seeds == small_instance.k
        assert outcome.mean_seed_cost == pytest.approx(small_instance.target_cost())

    def test_evaluate_suite_shares_realizations(self, small_instance, fast_engine):
        suite = build_standard_suite(fast_engine, include_addatp=False)
        outcomes = evaluate_suite(suite, small_instance, num_realizations=2, random_state=0)
        assert set(outcomes) == {"HATP", "HNTP", "NSG", "NDG", "ARS", "Baseline"}
        for outcome in outcomes.values():
            assert len(outcome.per_realization_profits) == 2

    def test_outcome_row_keys(self, small_instance, small_proxy):
        realizations = sample_realizations(small_proxy, 1, random_state=0)
        spec = AlgorithmSpec(
            name="Baseline", kind="fixed", factory=lambda inst, rng: list(inst.target)
        )
        row = evaluate_nonadaptive(spec, small_instance, realizations).as_row()
        assert {"algorithm", "profit", "spread", "seeds", "cost", "runtime_s"} <= set(row)

    def test_per_realization_series_are_kept(self, small_instance, fast_engine):
        # The aggregate must retain the full per-realization series (in
        # realization order) so a parallel merge stays auditable and plots
        # can show variance bands.
        suite = build_standard_suite(fast_engine, include_addatp=False)
        outcomes = evaluate_suite(suite, small_instance, num_realizations=2, random_state=0)
        for outcome in outcomes.values():
            assert len(outcome.per_realization_spreads) == 2
            assert len(outcome.per_realization_seeds) == 2
            assert len(outcome.per_realization_costs) == 2
            for profit, spread, cost in zip(
                outcome.per_realization_profits,
                outcome.per_realization_spreads,
                outcome.per_realization_costs,
            ):
                assert profit == pytest.approx(spread - cost)


#: Pinned outcomes of the one evaluation stream (evaluate_suite on the
#: shared fixtures: realizations and one algorithm stream per spec, all
#: spawned from the suite generator; RR sets from the keyed stream, which
#: also calibrates the instance).  Any accidental re-threading of RNG
#: state shows up here immediately.
SUITE_SNAPSHOT = {
    "HATP": {
        "profits": [-4.281489094876754, -1.6931548991886345, 18.204563400540913],
        "rr_sets": 4654,
    },
    "ADDATP": {
        "profits": [-16.13271571266518, -1.7210499083533044, 17.241756746093806],
        "rr_sets": 3236,
    },
    "HNTP": {
        "profits": [-4.281489094876754, -0.2814890948767541, 21.718510905123246],
        "rr_sets": 1944,
    },
    "NSG": {
        "profits": [-8.318682440429647, -6.318682440429647, 10.681317559570353],
        "rr_sets": 150,
    },
    "NDG": {
        "profits": [-4.281489094876754, -0.2814890948767541, 21.718510905123246],
        "rr_sets": 150,
    },
    "ARS": {
        "profits": [-5.7861382630708675, -1.9349116452824378, -0.8326299450119805],
        "rr_sets": 0,
    },
    "Baseline": {
        "profits": [-20.516486507812395, -8.516486507812395, 11.483513492187605],
        "rr_sets": 0,
    },
}


class TestDeterminismContract:
    """The one-stream contract of docs/parallelism.md."""

    @pytest.fixture(scope="class")
    def snapshot_engine(self) -> EngineParameters:
        return EngineParameters(
            max_rounds=3,
            max_samples_per_round=150,
            addatp_max_rounds=3,
            addatp_max_samples_per_round=150,
        )

    def test_default_path_reproduces_suite_snapshot(
        self, small_instance, snapshot_engine, monkeypatch
    ):
        monkeypatch.delenv("REPRO_EVAL_JOBS", raising=False)
        suite = build_standard_suite(snapshot_engine)
        outcomes = evaluate_suite(
            suite, small_instance, num_realizations=3, random_state=2020
        )
        assert set(outcomes) == set(SUITE_SNAPSHOT)
        for name, pinned in SUITE_SNAPSHOT.items():
            assert outcomes[name].per_realization_profits == pytest.approx(
                pinned["profits"], rel=1e-12, abs=1e-12
            ), name
            assert outcomes[name].total_rr_sets == pinned["rr_sets"], name

    def test_journal_and_eval_jobs_leave_outcomes_unchanged(
        self, small_instance, snapshot_engine, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_EVAL_JOBS", raising=False)
        suite = build_standard_suite(snapshot_engine)

        def run(**kwargs):
            outcomes = evaluate_suite(
                suite, small_instance, num_realizations=3, random_state=2020, **kwargs
            )
            return {
                name: (
                    outcome.per_realization_profits,
                    outcome.per_realization_spreads,
                    outcome.total_rr_sets,
                )
                for name, outcome in outcomes.items()
            }

        plain = run()
        with ResultJournal(tmp_path / "suite.jsonl") as journal:
            assert run(journal=journal) == plain
        assert run(eval_jobs=1) == plain
        assert run(eval_jobs=2) == plain


class TestCapForcedFraction:
    """``AggregateOutcome.cap_forced_frac``: which share of decisions a cap made."""

    def test_capped_engines_let_the_caps_decide(self, small_instance, fast_engine):
        for engine in (fast_engine, SMOKE.engine):
            outcomes = evaluate_suite(
                build_standard_suite(engine),
                small_instance,
                num_realizations=3,
                random_state=2020,
            )
            for name in ("HATP", "ADDATP", "HNTP"):
                assert outcomes[name].cap_forced_frac == 1.0, name
            # No stop reasons: no rounds, so no fraction.
            for name in ("NSG", "NDG", "ARS", "Baseline"):
                assert outcomes[name].cap_forced_frac is None, name
            assert outcomes["HATP"].as_row()["cap_forced_frac"] == 1.0
            assert outcomes["Baseline"].as_row()["cap_forced_frac"] is None

    def test_uncapped_engine_lets_the_conditions_decide(self, small_instance):
        uncapped = EngineParameters(
            max_rounds=30,
            max_samples_per_round=10**7,
            addatp_max_rounds=30,
            addatp_max_samples_per_round=10**7,
        )
        suite = [
            spec
            for spec in build_standard_suite(uncapped)
            if spec.name in ("HATP", "ADDATP", "HNTP")
        ]
        outcomes = evaluate_suite(
            suite, small_instance, num_realizations=1, random_state=2020
        )
        for name in ("HATP", "ADDATP", "HNTP"):
            assert outcomes[name].cap_forced_frac == 0.0, name

    def test_payloads_without_the_field_load_as_none(self, small_instance, small_proxy):
        realizations = sample_realizations(small_proxy, 2, random_state=0)
        spec = AlgorithmSpec(
            name="Baseline", kind="fixed", factory=lambda inst, rng: list(inst.target)
        )
        outcome = evaluate_nonadaptive(spec, small_instance, realizations)
        payload = outcome_to_payload(outcome)
        del payload["cap_forced_frac"]
        assert outcome_from_payload(payload) == outcome


class TestBackendThroughEvaluationPool:
    """Kernel backends travel into eval workers via the pickled factories.

    ``EngineParameters.backend`` rides inside each algorithm factory
    (``functools.partial`` over the engine), so ``eval_jobs > 1`` workers
    sample RR sets with the compiled kernels.  Every backend draws the
    identical RR sets from the identical streams, so the whole-session
    outcomes must be bit-for-bit independent of both the backend and the
    worker count.
    """

    @pytest.fixture(scope="class")
    def snapshot_engine(self) -> EngineParameters:
        return EngineParameters(
            max_rounds=3,
            max_samples_per_round=150,
            addatp_max_rounds=3,
            addatp_max_samples_per_round=150,
        )

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_eval_jobs_outcomes_are_backend_invariant(
        self, small_instance, snapshot_engine, backend
    ):
        from dataclasses import replace

        def hatp_suite(engine):
            suite = build_standard_suite(
                engine, include_addatp=False, include_baseline=False, include_ars=False
            )
            return [spec for spec in suite if spec.name == "HATP"]

        compiled = evaluate_suite(
            hatp_suite(replace(snapshot_engine, backend=backend)),
            small_instance,
            num_realizations=3,
            random_state=2020,
            eval_jobs=2,
        )
        reference = evaluate_suite(
            hatp_suite(replace(snapshot_engine, backend="vectorized")),
            small_instance,
            num_realizations=3,
            random_state=2020,
            eval_jobs=1,
        )
        assert compiled["HATP"].per_realization_profits == pytest.approx(
            reference["HATP"].per_realization_profits, rel=0, abs=0
        )
        assert compiled["HATP"].total_rr_sets == reference["HATP"].total_rr_sets
