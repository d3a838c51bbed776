"""Chaos tests: injected faults must change wall-clock only, never bytes.

This is the fault-injection harness exercising the full supervision
ladder of :mod:`repro.parallel.supervisor` end to end:

* a **killed** worker breaks the executor → pool rebuild + replay of the
  incomplete tasks;
* a **poisoned** task raises → deterministic retry runs it clean;
* a **delayed** task against a small ``task_timeout`` → in-process
  degradation.

In every case the assertion is the same one the determinism contract
makes possible: the chaos run's output is bit-for-bit what a
failure-free ``n_jobs=1`` run produces.  The janitor tests pin the
shared-memory hygiene the ladder depends on (tagged names, exit hooks,
orphan sweeps), and the resume tests interrupt a journaled sweep and
check ``--resume`` reproduces the uninterrupted artifacts exactly.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
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
from repro.graphs import generators
from repro.graphs.datasets import load_proxy
from repro.graphs.weighting import weighted_cascade
from repro.parallel import SamplingPool, janitor, parallel_generate_rr_batch
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
def graph():
    """A ~200-node heavy-tailed graph under weighted cascade."""
    return weighted_cascade(generators.barabasi_albert(200, 3, random_state=21))


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
        assert parse_fault_spec("kill:sampling:2") == [
            FaultRule(kind="kill", tier="sampling", nth=2)
        ]
        assert parse_fault_spec("poison:eval:0") == [
            FaultRule(kind="poison", tier="eval", nth=0)
        ]
        assert parse_fault_spec("delay:sampling:1:0.5") == [
            FaultRule(kind="delay", tier="sampling", nth=1, seconds=0.5)
        ]

    def test_comma_separated_rules_and_case(self):
        rules = parse_fault_spec("KILL:Sampling:0, poison:eval:3")
        assert [r.kind for r in rules] == ["kill", "poison"]
        assert [r.tier for r in rules] == ["sampling", "eval"]

    @pytest.mark.parametrize(
        "spec",
        [
            "kill:sampling",  # too few fields
            "kill:sampling:1:2:3",  # too many fields
            "explode:sampling:0",  # unknown kind
            "kill:gpu:0",  # unknown tier
            "kill:sampling:two",  # non-integer ordinal
            "kill:sampling:-1",  # negative ordinal
            "delay:sampling:0",  # delay without a duration
            "delay:sampling:0:soon",  # non-numeric duration
            "delay:sampling:0:-1",  # negative duration
            "kill:sampling:0:1.0",  # only delay takes a 4th field
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            parse_fault_spec(spec)


class TestFaultPlan:
    def test_take_matches_submission_ordinal(self):
        plan = FaultPlan.from_spec("kill:sampling:1")
        assert plan.armed
        assert plan.take("sampling") is None  # submission #0
        rule = plan.take("sampling")  # submission #1
        assert rule == FaultRule(kind="kill", tier="sampling", nth=1)
        assert not plan.armed
        assert plan.take("sampling") is None  # rules fire exactly once

    def test_counters_are_per_tier(self):
        plan = FaultPlan.from_spec("poison:eval:0")
        # Sampling submissions must not advance the eval counter.
        assert plan.take("sampling") is None
        assert plan.take("sampling") is None
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
        perform_fault(FaultRule(kind="delay", tier="sampling", nth=0, seconds=0.0))


# --------------------------------------------------------------------- #
# sampling tier chaos
# --------------------------------------------------------------------- #


def _assert_batches_equal(serial, chaotic):
    assert np.array_equal(serial.offsets, chaotic.offsets)
    assert np.array_equal(serial.nodes, chaotic.nodes)
    assert serial.num_active_nodes == chaotic.num_active_nodes


class TestSamplingChaos:
    def test_killed_shard_worker_rebuilds_and_matches(self, graph):
        serial = parallel_generate_rr_batch(graph, 200, 7, n_jobs=1)
        plan = FaultPlan.from_spec("kill:sampling:1")
        with SamplingPool(graph, n_jobs=2, fault_plan=plan) as pool:
            chaotic = pool.generate(graph, 200, 7)
            _assert_batches_equal(serial, chaotic)
            assert not plan.armed
            # The rebuilt pool keeps working (and stays deterministic).
            again = pool.generate(graph, 200, 7)
            _assert_batches_equal(serial, again)

    def test_two_kills_in_one_wave_rebuild_and_match(self, graph):
        # Both workers die in the same round (every worker gone at once):
        # one rebuild must replay every incomplete shard, in order.
        serial = parallel_generate_rr_batch(graph, 200, 13, n_jobs=1)
        plan = FaultPlan.from_spec("kill:sampling:0,kill:sampling:1")
        with SamplingPool(graph, n_jobs=2, fault_plan=plan) as pool:
            chaotic = pool.generate(graph, 200, 13)
            _assert_batches_equal(serial, chaotic)
            assert pool.supervision_stats.rebuilds >= 1
            # The rebuilt pool keeps working deterministically.
            _assert_batches_equal(serial, pool.generate(graph, 200, 13))
        assert not plan.armed

    def test_kill_during_rebuild_degrades_and_matches(self, graph):
        # The second kill lands on a *replayed* submission — the pool
        # breaks again mid-recovery, and the ladder's last rung (degrade
        # everything incomplete in-process) still produces exact bytes.
        serial = parallel_generate_rr_batch(graph, 200, 17, n_jobs=1)
        plan = FaultPlan.from_spec("kill:sampling:0,kill:sampling:4")
        with SamplingPool(graph, n_jobs=2, fault_plan=plan) as pool:
            chaotic = pool.generate(graph, 200, 17)
            _assert_batches_equal(serial, chaotic)
            stats = pool.supervision_stats
            assert stats.rebuilds >= 1
        assert not plan.armed

    def test_supervision_stats_accumulate_across_rounds(self, graph):
        plan = FaultPlan.from_spec("kill:sampling:0,kill:sampling:6")
        with SamplingPool(graph, n_jobs=2, fault_plan=plan) as pool:
            pool.generate(graph, 200, 19)
            first = dataclasses.replace(pool.supervision_stats)
            pool.generate(graph, 200, 23)
            second = pool.supervision_stats
            assert second.rebuilds >= first.rebuilds
            assert second.as_dict()["rebuilds"] == second.rebuilds

    def test_poisoned_shard_retries_clean_and_matches(self, graph):
        serial = parallel_generate_rr_batch(graph, 200, 3, n_jobs=1)
        plan = FaultPlan.from_spec("poison:sampling:0")
        with SamplingPool(graph, n_jobs=2, fault_plan=plan) as pool:
            chaotic = pool.generate(graph, 200, 3)
        _assert_batches_equal(serial, chaotic)
        assert not plan.armed

    def test_delayed_shard_degrades_on_timeout_and_matches(self, graph):
        serial = parallel_generate_rr_batch(graph, 130, 5, n_jobs=1)
        plan = FaultPlan.from_spec("delay:sampling:0:1.5")
        with SamplingPool(
            graph, n_jobs=2, fault_plan=plan, task_timeout=0.2
        ) as pool:
            chaotic = pool.generate(graph, 130, 5)
        _assert_batches_equal(serial, chaotic)

    def test_env_spec_reaches_the_pool(self, graph, monkeypatch):
        # The CI chaos matrix sets REPRO_FAULT_SPEC ambiently; the default
        # FaultPlan.from_env() wiring must pick it up with no explicit plan.
        serial = parallel_generate_rr_batch(graph, 200, 11, n_jobs=1)
        monkeypatch.setenv(FAULT_SPEC_ENV_VAR, "poison:sampling:1")
        with SamplingPool(graph, n_jobs=2) as pool:
            chaotic = pool.generate(graph, 200, 11)
        _assert_batches_equal(serial, chaotic)

    def test_faults_never_fire_in_process(self, graph):
        # n_jobs=1 never submits, so the plan stays armed and results are
        # the plain sequential ones — fault injection cannot kill the driver.
        plan = FaultPlan.from_spec("kill:sampling:0")
        with SamplingPool(graph, n_jobs=1, fault_plan=plan) as pool:
            batch = pool.generate(graph, 100, 0)
        assert len(batch) == 100
        assert plan.armed


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
# janitor: tagged names, orphan sweeps, exit hooks
# --------------------------------------------------------------------- #


def _spawn_and_reap_pid() -> int:
    """Pid of an already-finished (and reaped) subprocess — guaranteed dead."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


_POOL_SCRIPT = textwrap.dedent(
    """
    import time
    from repro.graphs import generators
    from repro.graphs.weighting import weighted_cascade
    from repro.parallel import SamplingPool

    graph = weighted_cascade(generators.barabasi_albert(120, 2, random_state=0))
    pool = SamplingPool(graph, n_jobs=2)
    pool.generate(graph, 128, 0)
    for spec in pool._broker.spec.arrays.values():
        print(spec.name, flush=True)
    print("READY", flush=True)
    time.sleep(120)
    """
)


def _spawn_pool_subprocess():
    """Start a driver subprocess with live shared memory; return (proc, names)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _POOL_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    names = []
    for line in proc.stdout:
        line = line.strip()
        if line == "READY":
            break
        if line:
            names.append(line)
    assert names, "subprocess reported no shared-memory segments"
    return proc, names


def _kill_group(proc) -> None:
    """SIGKILL the subprocess's whole session (driver and pool workers).

    ``start_new_session=True`` makes the child a session leader, so its
    pid doubles as the process-group id even after the leader itself dies.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class TestJanitor:
    def test_tagged_name_round_trip(self):
        name = janitor.tagged_segment_name()
        assert name.startswith(f"{janitor.SEGMENT_PREFIX}-{os.getpid()}-")
        assert janitor.owner_pid(name) == os.getpid()
        assert janitor.owner_pid("/" + name) == os.getpid()

    def test_owner_pid_of_foreign_names(self):
        assert janitor.owner_pid("psm_4f2a91c3") is None
        assert janitor.owner_pid("repro-shm-notapid-aa") is None

    def test_pid_alive(self):
        assert janitor.pid_alive(os.getpid())
        assert not janitor.pid_alive(_spawn_and_reap_pid())

    def test_broker_segments_carry_owner_tag(self, graph):
        with SamplingPool(graph, n_jobs=2) as pool:
            pool.generate(graph, 100, 0)
            names = [spec.name for spec in pool._broker.spec.arrays.values()]
        assert names
        for name in names:
            assert janitor.owner_pid(name) == os.getpid()

    def test_orphan_sweep_removes_only_dead_owners(self, tmp_path):
        dead = _spawn_and_reap_pid()
        dead_file = tmp_path / f"{janitor.SEGMENT_PREFIX}-{dead}-aabb"
        live_file = tmp_path / f"{janitor.SEGMENT_PREFIX}-{os.getpid()}-ccdd"
        foreign_file = tmp_path / "psm_unrelated"
        for f in (dead_file, live_file, foreign_file):
            f.write_bytes(b"x")
        listed = janitor.list_library_segments(str(tmp_path))
        assert dead_file.name in listed and live_file.name in listed
        assert foreign_file.name not in listed

        removed = janitor.clean_orphan_segments(str(tmp_path))
        assert removed == [dead_file.name]
        assert not dead_file.exists()
        assert live_file.exists()
        assert foreign_file.exists()

    def test_sweep_of_missing_directory(self, tmp_path):
        assert janitor.clean_orphan_segments(str(tmp_path / "nope")) == []
        assert janitor.list_library_segments(str(tmp_path / "nope")) == []

    def test_sigterm_unlinks_segments(self):
        # A SIGTERM'd driver must leave no segments behind: the chained
        # handler unlinks before re-delivering the signal.
        proc, names = _spawn_pool_subprocess()
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            _kill_group(proc)
        assert proc.returncode == -signal.SIGTERM
        for name in names:
            assert not os.path.exists(os.path.join(janitor.DEFAULT_SHM_DIR, name))

    def test_sigkill_orphans_are_swept(self):
        # SIGKILL cannot be caught — the segments leak by design, and the
        # clean-shm sweep (layer 3) is what reclaims them.
        proc, names = _spawn_pool_subprocess()
        try:
            _kill_group(proc)
            proc.wait(timeout=30)
        finally:
            _kill_group(proc)
        leaked = [
            n for n in names if os.path.exists(os.path.join(janitor.DEFAULT_SHM_DIR, n))
        ]
        assert leaked, "SIGKILL should have leaked the segments for the sweep to find"
        removed = janitor.clean_orphan_segments()
        for name in leaked:
            assert name in removed
            assert not os.path.exists(os.path.join(janitor.DEFAULT_SHM_DIR, name))


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
