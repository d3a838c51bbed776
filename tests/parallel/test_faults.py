"""Chaos tests: injected faults must change wall-clock only, never bytes.

This is the fault-injection harness exercising the full supervision
ladder of :mod:`repro.parallel.supervisor` end to end on the evaluation
pool:

* a **killed** worker breaks the executor → pool rebuild + replay of the
  incomplete tasks;
* a **poisoned** task raises → deterministic retry runs it clean;
* a **delayed** task against a small ``task_timeout`` → in-process
  degradation.

In every case the assertion is the same one the determinism contract
makes possible: the chaos run's output is bit-for-bit what a
failure-free ``eval_jobs=1`` run produces, and a session abandoned after
its timeout does not hold up the pool's ``close()``.  The resume tests
interrupt a journaled sweep and check ``--resume`` reproduces the
uninterrupted artifacts exactly.
"""

from __future__ import annotations

import dataclasses
import signal
import time
from functools import partial

import numpy as np
import pytest

from repro.core.targets import build_spread_calibrated_instance
from repro.diffusion.realization import sample_realizations
from repro.experiments import SMOKE
from repro.experiments.config import EngineParameters
from repro.experiments.journal import ResultJournal
from repro.experiments.reporting import collect_figure_rows, write_rows_csv
from repro.experiments.runner import _make_hatp
from repro.experiments.sensitivity import epsilon_sensitivity
from repro.graphs.datasets import load_proxy
from repro.parallel.eval_pool import (
    EvaluationPool,
    RealizationTicket,
    as_tickets,
    parallel_evaluate_adaptive,
)
from repro.parallel.faults import (
    FAULT_SPEC_ENV_VAR,
    FaultPlan,
    FaultRule,
    parse_fault_spec,
    perform_fault,
)
from repro.utils.exceptions import InjectedFault, ValidationError


@pytest.fixture(scope="module")
def eval_graph():
    return load_proxy("nethept", nodes=100, random_state=7)


@pytest.fixture(scope="module")
def instance(eval_graph):
    return build_spread_calibrated_instance(
        eval_graph, k=5, cost_setting="degree", num_rr_sets=300, random_state=11
    )


@pytest.fixture(scope="module")
def fast_engine():
    return EngineParameters(
        max_rounds=2,
        max_samples_per_round=120,
        addatp_max_rounds=2,
        addatp_max_samples_per_round=120,
    )


# --------------------------------------------------------------------- #
# spec parsing and plan semantics
# --------------------------------------------------------------------- #


class TestParseFaultSpec:
    def test_empty_specs(self):
        assert parse_fault_spec(None) == []
        assert parse_fault_spec("") == []
        assert parse_fault_spec("  ,  ") == []

    def test_single_rules(self):
        assert parse_fault_spec("kill:eval:2") == [
            FaultRule(kind="kill", tier="eval", nth=2)
        ]
        assert parse_fault_spec("poison:eval:0") == [
            FaultRule(kind="poison", tier="eval", nth=0)
        ]
        assert parse_fault_spec("delay:eval:1:0.5") == [
            FaultRule(kind="delay", tier="eval", nth=1, seconds=0.5)
        ]

    def test_comma_separated_rules_and_case(self):
        rules = parse_fault_spec("KILL:Eval:0, reject:service:3")
        assert [r.kind for r in rules] == ["kill", "reject"]
        assert [r.tier for r in rules] == ["eval", "service"]

    @pytest.mark.parametrize(
        "spec",
        [
            "kill:eval",  # too few fields
            "kill:eval:1:2:3",  # too many fields
            "explode:eval:0",  # unknown kind
            "kill:gpu:0",  # unknown tier
            "kill:sampling:0",  # sampling runs on threads: no worker tier
            "killpool:service:0",  # no worker pool under the service
            "kill:eval:two",  # non-integer ordinal
            "kill:eval:-1",  # negative ordinal
            "delay:eval:0",  # delay without a duration
            "delay:eval:0:soon",  # non-numeric duration
            "delay:eval:0:-1",  # negative duration
            "kill:eval:0:1.0",  # only delay takes a 4th field
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            parse_fault_spec(spec)


class TestFaultPlan:
    def test_take_matches_submission_ordinal(self):
        plan = FaultPlan.from_spec("kill:eval:1")
        assert plan.armed
        assert plan.take("eval") is None  # submission #0
        rule = plan.take("eval")  # submission #1
        assert rule == FaultRule(kind="kill", tier="eval", nth=1)
        assert not plan.armed
        assert plan.take("eval") is None  # rules fire exactly once

    def test_counters_are_per_tier(self):
        plan = FaultPlan.from_spec("poison:eval:0")
        # Service submissions must not advance the eval counter.
        assert plan.take("service") is None
        assert plan.take("service") is None
        assert plan.take("eval") == FaultRule(kind="poison", tier="eval", nth=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_SPEC_ENV_VAR, "delay:eval:2:0.1")
        plan = FaultPlan.from_env()
        assert plan.armed
        monkeypatch.delenv(FAULT_SPEC_ENV_VAR)
        assert not FaultPlan.from_env().armed

    def test_perform_fault_none_is_noop(self):
        perform_fault(None)

    def test_perform_fault_poison_raises(self):
        with pytest.raises(InjectedFault):
            perform_fault(FaultRule(kind="poison", tier="eval", nth=0))

    def test_perform_fault_delay_returns(self):
        perform_fault(FaultRule(kind="delay", tier="eval", nth=0, seconds=0.0))


# --------------------------------------------------------------------- #
# eval tier chaos
# --------------------------------------------------------------------- #


def _record_key(record):
    """Everything of a SessionRecord except the measured runtime."""
    return (
        record.index,
        record.profit,
        record.spread,
        record.num_seeds,
        record.seed_cost,
        record.rr_sets,
    )


def _eval_tickets():
    return [
        RealizationTicket.from_state(s) for s in np.random.default_rng(17).spawn(3)
    ]


class TestEvalChaos:
    @pytest.fixture(scope="class")
    def serial_records(self, instance, fast_engine):
        factory = partial(_make_hatp, fast_engine, 1)
        records = parallel_evaluate_adaptive(
            factory, instance, _eval_tickets(), random_state=17, eval_jobs=1
        )
        return [_record_key(r) for r in records]

    def _chaotic_records(self, eval_graph, instance, fast_engine, spec, **pool_kwargs):
        factory = partial(_make_hatp, fast_engine, 1)
        plan = FaultPlan.from_spec(spec)
        with EvaluationPool(
            eval_graph, eval_jobs=2, fault_plan=plan, **pool_kwargs
        ) as pool:
            records = parallel_evaluate_adaptive(
                factory, instance, _eval_tickets(), random_state=17, pool=pool
            )
        assert not plan.armed
        return [_record_key(r) for r in records]

    def test_killed_session_worker_matches(
        self, eval_graph, instance, fast_engine, serial_records
    ):
        chaotic = self._chaotic_records(eval_graph, instance, fast_engine, "kill:eval:0")
        assert chaotic == serial_records

    def test_poisoned_session_retries_and_matches(
        self, eval_graph, instance, fast_engine, serial_records
    ):
        chaotic = self._chaotic_records(
            eval_graph, instance, fast_engine, "poison:eval:1"
        )
        assert chaotic == serial_records

    def test_delayed_session_degrades_and_matches(
        self, eval_graph, instance, fast_engine, serial_records
    ):
        chaotic = self._chaotic_records(
            eval_graph, instance, fast_engine, "delay:eval:0:2.0", task_timeout=0.2
        )
        assert chaotic == serial_records

    def test_timed_out_session_does_not_hold_close(
        self, eval_graph, instance, fast_engine, serial_records
    ):
        # The abandoned worker would sleep for 30 s; closing the pool
        # kills it instead of waiting for it.
        started = time.perf_counter()
        chaotic = self._chaotic_records(
            eval_graph, instance, fast_engine, "delay:eval:0:30", task_timeout=0.2
        )
        assert time.perf_counter() - started < 10.0
        assert chaotic == serial_records

    def test_timed_out_scoring_task_does_not_hold_close(self, eval_graph, instance):
        realizations = sample_realizations(eval_graph, 3, random_state=6)
        seeds = instance.target[:3]
        expected = [float(r.spread(seeds)) for r in realizations]
        plan = FaultPlan.from_spec("delay:eval:0:30")
        started = time.perf_counter()
        with EvaluationPool(
            eval_graph, eval_jobs=2, fault_plan=plan, task_timeout=0.2
        ) as pool:
            scored = pool.score_selection(seeds, as_tickets(realizations))
            assert not pool.running  # the timed-out call dropped its workers
        assert time.perf_counter() - started < 10.0
        assert scored == expected

    def test_stalled_worker_is_killed_when_its_call_returns(
        self, eval_graph, instance, monkeypatch
    ):
        realizations = sample_realizations(eval_graph, 4, random_state=6)
        seeds = instance.target[:3]
        expected = [float(r.spread(seeds)) for r in realizations]
        plan = FaultPlan.from_spec("delay:eval:0:30")
        with EvaluationPool(
            eval_graph, eval_jobs=2, fault_plan=plan, task_timeout=0.2
        ) as pool:
            workers = []
            score_local = pool._score_local

            def degrade(seeds, ticket):
                # The timed-out task degrades while its worker still sleeps.
                workers.extend(pool._executor._processes.values())
                return score_local(seeds, ticket)

            monkeypatch.setattr(pool, "_score_local", degrade)
            first = pool.score_selection(seeds, as_tickets(realizations))
            assert pool._ladder.timeouts == 1
            # Before close(): the stalled worker is gone, so it cannot hold
            # a slot of the next call.
            for worker in workers:
                worker.join(timeout=5.0)
            assert -signal.SIGKILL in [worker.exitcode for worker in workers]
            second = pool.score_selection(seeds, as_tickets(realizations))
        assert first == expected
        assert second == expected

    def test_killed_scoring_worker_matches(self, eval_graph, instance):
        realizations = sample_realizations(eval_graph, 4, random_state=6)
        seeds = instance.target[:3]
        expected = [float(r.spread(seeds)) for r in realizations]
        plan = FaultPlan.from_spec("kill:eval:1")
        with EvaluationPool(eval_graph, eval_jobs=2, fault_plan=plan) as pool:
            scored = pool.score_selection(seeds, as_tickets(realizations))
        assert scored == expected
        assert not plan.armed


# --------------------------------------------------------------------- #
# interrupt + resume identity
# --------------------------------------------------------------------- #


def _profit_rows(result):
    return [
        row
        for row in collect_figure_rows(result)
        if "runtime" not in str(row.get("series", ""))
    ]


class TestResumeIdentity:
    @pytest.fixture()
    def tiny_scale(self):
        return dataclasses.replace(
            SMOKE,
            dataset_nodes={
                "nethept": 100,
                "epinions": 100,
                "dblp": 100,
                "livejournal": 100,
            },
            k_values=(3,),
            num_realizations=2,
            num_rr_sets_instance=200,
            engine=EngineParameters(
                max_rounds=2,
                max_samples_per_round=100,
                addatp_max_rounds=2,
                addatp_max_samples_per_round=100,
            ),
            epsilon_values=(0.05, 0.2, 0.5),
        )

    def test_interrupted_sweep_resumes_bit_for_bit(self, tiny_scale, tmp_path):
        path = tmp_path / "fig4b.journal.jsonl"
        run = partial(
            epsilon_sensitivity, dataset="nethept", scale=tiny_scale, random_state=3
        )

        with ResultJournal(path, resume=False) as journal:
            full = run(journal=journal)
        complete_lines = path.read_text().splitlines()
        assert len(complete_lines) == 3

        # Simulate a hard kill after the first ε point: the rest of the
        # journal is gone and the second line was torn mid-write.
        path.write_text(complete_lines[0] + "\n" + complete_lines[1][:17])
        with ResultJournal(path, resume=True) as journal:
            assert len(journal) == 1
            resumed = run(journal=journal)
            assert len(journal) == 3

        assert resumed.x_values == full.x_values
        # Profits are sampled quantities: bit-for-bit equality is the
        # whole point of per-point spawned streams + exact JSON floats.
        assert resumed.series["HATP-profit"] == full.series["HATP-profit"]
        # The replayed point's runtime comes straight from the journal.
        assert resumed.series["HATP-runtime"][0] == full.series["HATP-runtime"][0]

        # The exported CSV artifact matches too (runtime rows excluded —
        # recomputed points re-measure wall-clock, the one non-sampled field).
        full_csv, resumed_csv = tmp_path / "full.csv", tmp_path / "resumed.csv"
        write_rows_csv(_profit_rows(full), full_csv)
        write_rows_csv(_profit_rows(resumed), resumed_csv)
        assert resumed_csv.read_text() == full_csv.read_text()

        # The healed journal (torn tail truncated, points re-recorded)
        # loads cleanly a second time with all three points.
        with ResultJournal(path, resume=True) as journal:
            assert len(journal) == 3

    def test_completed_sweep_replays_without_recompute(self, tiny_scale, tmp_path):
        path = tmp_path / "fig4b.journal.jsonl"
        run = partial(
            epsilon_sensitivity, dataset="nethept", scale=tiny_scale, random_state=3
        )
        with ResultJournal(path, resume=False) as journal:
            full = run(journal=journal)
        before = path.read_text()
        with ResultJournal(path, resume=True) as journal:
            replayed = run(journal=journal)
        # Everything (runtimes included) comes from the journal, and the
        # file is untouched — nothing was recomputed or re-recorded.
        assert replayed.series == full.series
        assert path.read_text() == before
