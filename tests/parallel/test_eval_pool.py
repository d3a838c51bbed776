"""EvaluationPool: eval_jobs invariance, tickets, lifecycle, knob resolution.

The central assertion is that for a shared seed the session-level pool
produces bit-for-bit the same per-realization outcomes at
``eval_jobs=2+`` as the in-process ``eval_jobs=1`` path, which is also
the default (``eval_jobs=None``, no env); the stream itself is pinned by
the snapshot tests in ``tests/experiments/test_runner.py``.
"""

from __future__ import annotations

from functools import partial
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.targets import build_spread_calibrated_instance
from repro.diffusion.realization import (
    LazyRealization,
    Realization,
    sample_realizations,
)
from repro.experiments.config import EngineParameters
from repro.experiments.runner import (
    AlgorithmSpec,
    _make_ars,
    _make_hatp,
    build_standard_suite,
    evaluate_adaptive,
    evaluate_nonadaptive,
    evaluate_suite,
)
from repro.graphs.datasets import load_proxy
from repro.graphs.graph import ProbabilisticGraph
from repro.parallel.eval_pool import (
    EVAL_JOBS_ENV_VAR,
    EvaluationPool,
    RealizationTicket,
    as_tickets,
    parallel_evaluate_adaptive,
    resolve_eval_jobs,
)
from repro.parallel.pool import available_cpus
from repro.utils.exceptions import ValidationError


@pytest.fixture(scope="module")
def graph() -> ProbabilisticGraph:
    """A ~120-node NetHEPT proxy with weighted-cascade probabilities."""
    return load_proxy("nethept", nodes=120, random_state=7)


@pytest.fixture(scope="module")
def instance(graph):
    return build_spread_calibrated_instance(
        graph, k=6, cost_setting="degree", num_rr_sets=400, random_state=11
    )


@pytest.fixture(scope="module")
def fast_engine() -> EngineParameters:
    return EngineParameters(
        max_rounds=3,
        max_samples_per_round=150,
        addatp_max_rounds=3,
        addatp_max_samples_per_round=150,
    )


@pytest.fixture(scope="module")
def worker_pool(graph):
    """One persistent 2-worker pool shared by the differential tests."""
    with EvaluationPool(graph, eval_jobs=2) as pool:
        yield pool


def _comparable(outcome):
    """Everything of an AggregateOutcome except the measured runtimes."""
    return (
        outcome.per_realization_profits,
        outcome.per_realization_spreads,
        outcome.per_realization_seeds,
        outcome.per_realization_costs,
        outcome.mean_profit,
        outcome.std_profit,
        outcome.total_rr_sets,
    )


class TestResolveEvalJobs:
    def test_explicit_values(self):
        assert resolve_eval_jobs(1) == 1
        assert resolve_eval_jobs(4) == 4
        assert resolve_eval_jobs(-1) == available_cpus()

    def test_none_without_env_is_one(self, monkeypatch):
        monkeypatch.delenv(EVAL_JOBS_ENV_VAR, raising=False)
        assert resolve_eval_jobs(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(EVAL_JOBS_ENV_VAR, "3")
        assert resolve_eval_jobs(None) == 3
        monkeypatch.setenv(EVAL_JOBS_ENV_VAR, "-1")
        assert resolve_eval_jobs(None) == available_cpus()

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValidationError):
            resolve_eval_jobs(0)
        with pytest.raises(ValidationError):
            resolve_eval_jobs(-2)
        monkeypatch.setenv(EVAL_JOBS_ENV_VAR, "many")
        with pytest.raises(ValidationError):
            resolve_eval_jobs(None)


class TestRealizationTicket:
    def test_state_ticket_is_reusable(self, graph):
        state = np.random.default_rng(5)
        ticket = RealizationTicket.from_state(state)
        first = ticket.realize(graph)
        second = ticket.realize(graph)
        # realize() must not consume the state: same world every time.
        assert np.array_equal(first.live_mask, second.live_mask)

    def test_state_ticket_matches_direct_sampling(self, graph):
        ticket = RealizationTicket.from_state(np.random.SeedSequence(9))
        direct = Realization.sample(graph, np.random.SeedSequence(9))
        assert np.array_equal(ticket.realize(graph).live_mask, direct.live_mask)

    def test_packed_ticket_round_trip(self, graph):
        realization = Realization.sample(graph, 3)
        ticket = RealizationTicket.from_realization(realization)
        assert ticket.packed_mask is not None
        rebuilt = ticket.realize(graph)
        assert np.array_equal(rebuilt.live_mask, realization.live_mask)

    def test_packed_ticket_checks_edge_count(self, graph):
        other = load_proxy("epinions", nodes=80, random_state=1)
        ticket = RealizationTicket.from_realization(Realization.sample(other, 0))
        if other.m != graph.m:
            with pytest.raises(ValidationError):
                ticket.realize(graph)

    def test_lazy_realizations_rejected(self, graph):
        with pytest.raises(ValidationError):
            as_tickets([LazyRealization(graph, 0)])

    def test_empty_ticket_rejected(self, graph):
        with pytest.raises(ValidationError):
            RealizationTicket().realize(graph)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 2020])
    def test_pool_matches_in_process_bit_for_bit(
        self, graph, instance, fast_engine, worker_pool, seed
    ):
        factory = partial(_make_hatp, fast_engine, 1)
        tickets = [
            RealizationTicket.from_state(s)
            for s in np.random.default_rng(seed).spawn(4)
        ]
        serial = parallel_evaluate_adaptive(
            factory, instance, tickets, random_state=seed, eval_jobs=1
        )
        parallel = parallel_evaluate_adaptive(
            factory, instance, tickets, random_state=seed, pool=worker_pool
        )
        assert [r.index for r in parallel] == [0, 1, 2, 3]
        for a, b in zip(serial, parallel):
            assert (a.index, a.profit, a.spread, a.num_seeds, a.seed_cost, a.rr_sets) == (
                b.index,
                b.profit,
                b.spread,
                b.num_seeds,
                b.seed_cost,
                b.rr_sets,
            )

    def test_evaluate_suite_jobs_invariance(self, instance, fast_engine):
        suite = build_standard_suite(fast_engine, include_addatp=False)
        one = evaluate_suite(
            suite, instance, num_realizations=3, random_state=2020, eval_jobs=1
        )
        four = evaluate_suite(
            suite, instance, num_realizations=3, random_state=2020, eval_jobs=4
        )
        assert set(one) == set(four)
        for name in one:
            assert _comparable(one[name]) == _comparable(four[name]), name

    def test_packed_mask_path_matches_state_path(
        self, graph, instance, fast_engine, worker_pool
    ):
        # The same worlds, shipped once as spawned states and once as
        # packed masks, must produce identical sessions.
        factory = partial(_make_hatp, fast_engine, 1)
        states = np.random.default_rng(13).spawn(3)
        tickets = [RealizationTicket.from_state(s) for s in states]
        worlds = [t.realize(graph) for t in tickets]
        via_states = parallel_evaluate_adaptive(
            factory, instance, tickets, random_state=1, pool=worker_pool
        )
        via_masks = parallel_evaluate_adaptive(
            factory, instance, worlds, random_state=1, pool=worker_pool
        )
        assert [(r.profit, r.rr_sets) for r in via_states] == [
            (r.profit, r.rr_sets) for r in via_masks
        ]

    def test_score_selection_matches_sequential(self, graph, instance, worker_pool):
        realizations = sample_realizations(graph, 4, random_state=6)
        seeds = instance.target[:3]
        expected = [float(r.spread(seeds)) for r in realizations]
        scored = worker_pool.score_selection(
            seeds, as_tickets(realizations), graph=graph
        )
        assert scored == expected

    def test_score_selection_rejects_foreign_graph(self, worker_pool):
        other = load_proxy("epinions", nodes=80, random_state=1)
        tickets = as_tickets(sample_realizations(other, 1, random_state=0))
        with pytest.raises(ValidationError):
            worker_pool.score_selection([0], tickets, graph=other)

    def test_evaluate_nonadaptive_pool_scoring(self, graph, instance, worker_pool):
        realizations = sample_realizations(graph, 4, random_state=6)
        spec = AlgorithmSpec(name="ARS", kind="adaptive", factory=_make_ars)
        baseline_spec = AlgorithmSpec(
            name="Baseline",
            kind="fixed",
            factory=lambda inst, rng: list(inst.target),
        )
        sequential = evaluate_nonadaptive(
            baseline_spec, instance, realizations, random_state=1
        )
        pooled = evaluate_nonadaptive(
            baseline_spec,
            instance,
            realizations,
            random_state=1,
            eval_pool=worker_pool,
        )
        assert _comparable(sequential) == _comparable(pooled)

    def test_adaptive_default_path_accepts_tickets(self, graph, instance, fast_engine):
        # Eager worlds and the tickets made from them run the same sessions.
        spec = AlgorithmSpec(
            name="HATP", kind="adaptive", factory=partial(_make_hatp, fast_engine, None)
        )
        realizations = sample_realizations(graph, 2, random_state=4)
        tickets = as_tickets(realizations)
        direct = evaluate_adaptive(spec, instance, realizations, random_state=8)
        via_tickets = evaluate_adaptive(spec, instance, tickets, random_state=8)
        assert _comparable(direct) == _comparable(via_tickets)


class TestLifecycle:
    def test_single_job_pool_never_starts_workers(self, graph, instance, fast_engine):
        with EvaluationPool(graph, eval_jobs=1) as pool:
            records = parallel_evaluate_adaptive(
                partial(_make_hatp, fast_engine, 1),
                instance,
                sample_realizations(graph, 2, random_state=0),
                random_state=0,
                pool=pool,
            )
            assert len(records) == 2
            assert not pool.running

    def test_close_is_idempotent_and_unlinks(self, graph, instance, fast_engine):
        pool = EvaluationPool(graph, eval_jobs=2)
        pool.run_sessions(
            partial(_make_hatp, fast_engine, 1),
            instance,
            as_tickets(sample_realizations(graph, 2, random_state=0)),
            np.random.default_rng(0).spawn(2),
        )
        assert pool.running
        names = [spec.name for spec in pool._broker.spec.arrays.values()]
        pool.close()
        pool.close()
        assert not pool.running
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(ValidationError):
            pool.run_sessions(_make_ars, instance, [], [])
        with pytest.raises(ValidationError):
            pool.score_selection([0], [])

    def test_worker_error_propagates_and_pool_survives(
        self, graph, instance, worker_pool
    ):
        # A factory that raises inside the worker must surface in the
        # parent without wedging the pool.
        tickets = as_tickets(sample_realizations(graph, 3, random_state=0))
        states = np.random.default_rng(0).spawn(3)
        with pytest.raises(ValidationError):
            worker_pool.run_sessions(_raising_factory, instance, tickets, states)
        records = worker_pool.run_sessions(_make_ars, instance, tickets, states)
        assert len(records) == 3

    def test_mismatched_states_rejected(self, graph, instance, worker_pool):
        tickets = as_tickets(sample_realizations(graph, 2, random_state=0))
        with pytest.raises(ValidationError):
            worker_pool.run_sessions(_make_ars, instance, tickets, [0])

    def test_foreign_instance_rejected(self, graph, worker_pool):
        other = load_proxy("epinions", nodes=80, random_state=1)
        foreign = build_spread_calibrated_instance(
            other, k=4, cost_setting="uniform", num_rr_sets=200, random_state=2
        )
        with pytest.raises(ValidationError):
            worker_pool.run_sessions(_make_ars, foreign, [], [])

    def test_residual_views_rejected(self, graph):
        from repro.graphs.residual import ResidualGraph

        with pytest.raises(ValidationError):
            EvaluationPool(ResidualGraph(graph), eval_jobs=1)


def _raising_factory(inst, rng):
    raise ValidationError("factory exploded (on purpose)")


class TestWorkerGraphReconstruction:
    def test_from_csr_arrays_round_trip(self, graph):
        rebuilt = ProbabilisticGraph.from_csr_arrays(
            graph.n, *graph.out_csr(), *graph.in_csr(), name=graph.name
        )
        assert rebuilt.n == graph.n and rebuilt.m == graph.m
        assert np.array_equal(rebuilt.edge_sources, graph.edge_sources)
        assert np.array_equal(rebuilt.edge_targets, graph.edge_targets)
        assert np.array_equal(rebuilt.edge_probabilities, graph.edge_probabilities)
        for node in (0, 5, graph.n - 1):
            for ours, theirs in zip(rebuilt.in_neighbors(node), graph.in_neighbors(node)):
                assert np.array_equal(ours, theirs)

    def test_rebuilt_graph_samples_identical_worlds(self, graph):
        rebuilt = ProbabilisticGraph.from_csr_arrays(
            graph.n, *graph.out_csr(), *graph.in_csr()
        )
        ours = Realization.sample(rebuilt, 42)
        theirs = Realization.sample(graph, 42)
        assert np.array_equal(ours.live_mask, theirs.live_mask)
