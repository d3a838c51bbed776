"""Tests for HATP (noise model, hybrid error)."""

from __future__ import annotations

import pytest

from repro.core.hatp import HATP
from repro.core.session import AdaptiveSession
from repro.diffusion.realization import Realization
from repro.graphs.generators import path_graph, star_graph
from repro.graphs.toy import TOY_NODE_IDS, toy_costs, toy_fig1_realization
from repro.utils.exceptions import SamplingBudgetExceeded, ValidationError


def make_session(graph, costs, seed=0):
    return AdaptiveSession(graph, Realization.sample(graph, seed), costs)


class TestConstruction:
    def test_rejects_empty_target(self):
        with pytest.raises(ValidationError):
            HATP([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            HATP([2, 2])

    def test_epsilon0_must_dominate_epsilon(self):
        with pytest.raises(ValidationError):
            HATP([1], epsilon=0.5, epsilon0=0.1)

    def test_properties(self):
        algorithm = HATP([1, 2], epsilon=0.1)
        assert algorithm.epsilon == 0.1
        assert algorithm.target == [1, 2]


class TestConditionOne:
    def test_select_side_fires(self):
        # overwhelming front+rear estimate versus a tiny cost
        assert HATP._condition_one(100.0, 100.0, 1.0, 0.1, cost=1.0)

    def test_reject_side_fires(self):
        assert HATP._condition_one(0.0, 0.0, 0.5, 0.1, cost=10.0)

    def test_undecided_in_the_middle(self):
        # estimates straddle the cost within the error budget
        assert not HATP._condition_one(10.0, 10.0, 8.0, 0.3, cost=10.0)

    def test_one_sided_rear_test(self):
        assert HATP._condition_one(0.0, 50.0, 1.0, 0.1, cost=10.0)

    def test_one_sided_front_test(self):
        assert HATP._condition_one(1.0, 100.0, 0.5, 0.1, cost=5.0)


class TestDecisions:
    def test_selects_clearly_profitable_hub(self, star6):
        costs = {0: 1.0}
        result = HATP([0], random_state=0, max_samples_per_round=400).run(
            make_session(star6, costs)
        )
        assert result.seeds == [0]
        assert result.realized_profit == pytest.approx(5.0)

    def test_rejects_clearly_unprofitable_leaf(self, star6):
        costs = {1: 4.0}
        result = HATP([1], random_state=0, max_samples_per_round=400).run(
            make_session(star6, costs)
        )
        assert result.seeds == []

    def test_skips_activated_candidates(self, path4):
        costs = {0: 0.1, 2: 0.1}
        result = HATP([0, 2], random_state=0, max_samples_per_round=200).run(
            make_session(path4, costs)
        )
        assert result.seeds == [0]
        actions = {record.node: record.action for record in result.iterations}
        assert actions[2] == "skipped-activated"

    def test_toy_example_walkthrough(self):
        """HATP reproduces the Fig. 1 adaptive outcome (seeds {v2, v6}, profit 3)."""
        realization, graph = toy_fig1_realization()
        costs = toy_costs()
        session = AdaptiveSession(graph, realization, costs)
        target = [TOY_NODE_IDS["v2"], TOY_NODE_IDS["v1"], TOY_NODE_IDS["v6"]]
        result = HATP(target, random_state=3, max_samples_per_round=3000, max_rounds=12).run(
            session
        )
        assert set(result.seeds) == {TOY_NODE_IDS["v2"], TOY_NODE_IDS["v6"]}
        assert result.realized_profit == pytest.approx(3.0)

    def test_result_bookkeeping(self, star6):
        costs = {0: 1.0, 3: 1.0}
        result = HATP([0, 3], random_state=0, max_samples_per_round=200).run(
            make_session(star6, costs)
        )
        assert result.algorithm == "HATP"
        assert result.rr_sets_generated > 0
        assert result.extra["epsilon"] == 0.05
        assert len(result.iterations) == 2


class TestBudgets:
    def test_budget_raise_mode(self, star6):
        algorithm = HATP(
            [0],
            initial_scaled_error=0.1,
            epsilon0=0.06,
            epsilon=0.05,
            max_samples_per_round=2,
            max_rounds=1,
            on_budget="raise",
            random_state=0,
        )
        # cost 6 sits inside the undecided band of C'1 for exact estimates
        # (f_est = r_est = 6 on the deterministic star), so only the budget
        # can end the round.
        with pytest.raises(SamplingBudgetExceeded):
            algorithm.run(make_session(star6, {0: 6.0}))

    def test_budget_decide_mode_terminates(self, star6):
        algorithm = HATP(
            [0, 1],
            initial_scaled_error=0.1,
            epsilon0=0.06,
            max_samples_per_round=2,
            max_rounds=1,
            on_budget="decide",
            random_state=0,
        )
        result = algorithm.run(make_session(star6, {0: 3.0, 1: 3.0}))
        assert len(result.iterations) == 2


class TestEfficiencyVersusADDATP:
    def test_hatp_uses_fewer_rr_sets_than_addatp(self, small_proxy, small_instance):
        """The headline claim (Theorem 5 against Theorem 3): hybrid error
        needs fewer samples.  The caps sit far above both runs, so C1/C2
        and C'1/C'2 decide every node, not the engine."""
        from repro.core.addatp import ADDATP

        target = small_instance.target[:3]

        def run(algorithm_class):
            session = AdaptiveSession(
                small_proxy, Realization.sample(small_proxy, 3), small_instance.costs
            )
            return algorithm_class(
                target, random_state=7, max_samples_per_round=10**7, max_rounds=30
            ).run(session)

        hatp = run(HATP)
        addatp = run(ADDATP)
        assert hatp.extra["budget_hits"] == addatp.extra["budget_hits"] == 0
        assert hatp.rr_sets_generated < addatp.rr_sets_generated

    def test_reproducible_decisions(self, small_proxy, small_instance):
        def run_once():
            session = AdaptiveSession(
                small_proxy, Realization.sample(small_proxy, 9), small_instance.costs
            )
            return HATP(
                small_instance.target, random_state=11, max_samples_per_round=200, max_rounds=4
            ).run(session)

        assert run_once().seeds == run_once().seeds
