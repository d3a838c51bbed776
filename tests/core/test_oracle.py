"""Tests for the spread / profit oracles."""

from __future__ import annotations

import pytest

from repro.core.oracle import (
    ExactSpreadOracle,
    MonteCarloSpreadOracle,
    ProfitOracle,
    RISSpreadOracle,
)
from repro.graphs.generators import path_graph
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph
from repro.utils.exceptions import ValidationError


class TestExactOracle:
    def test_expected_spread(self, diamond):
        assert ExactSpreadOracle().expected_spread(diamond, [0]) == pytest.approx(2.75)

    def test_marginal_spread(self, diamond):
        oracle = ExactSpreadOracle()
        expected = oracle.expected_spread(diamond, [0, 3]) - oracle.expected_spread(diamond, [0])
        assert oracle.marginal_spread(diamond, 3, [0]) == pytest.approx(expected)

    def test_guard(self):
        big = ProbabilisticGraph.from_edge_list(
            [(i, i + 1, 0.5) for i in range(30)], n=31
        )
        with pytest.raises(ValidationError):
            ExactSpreadOracle(max_edges=10).expected_spread(big, [0])


class TestSamplingOracles:
    @pytest.mark.parametrize(
        "oracle",
        [MonteCarloSpreadOracle(2000, random_state=0), RISSpreadOracle(4000, random_state=0)],
        ids=["monte-carlo", "ris"],
    )
    def test_matches_exact_on_diamond(self, diamond, oracle):
        assert oracle.expected_spread(diamond, [0]) == pytest.approx(2.75, abs=0.15)

    def test_monte_carlo_marginal(self, diamond):
        oracle = MonteCarloSpreadOracle(2000, random_state=0)
        exact = ExactSpreadOracle().marginal_spread(diamond, 3, [0])
        assert oracle.marginal_spread(diamond, 3, [0]) == pytest.approx(exact, abs=0.15)

    def test_ris_marginal_respects_conditioning(self, path4):
        oracle = RISSpreadOracle(500, random_state=0)
        # node 1 conditioned on node 0 adds nothing on a deterministic path
        assert oracle.marginal_spread(path4, 1, [0]) == 0.0

    def test_oracles_work_on_residual_views(self, diamond):
        residual = ResidualGraph(diamond).without([1])
        assert ExactSpreadOracle().expected_spread(residual, [0]) == pytest.approx(2.0)


class TestVectorizedMonteCarloOracle:
    """The batched query API (shared realization streams across queries)."""

    @pytest.mark.parametrize("num_simulations", [0, -5])
    def test_simulation_count_below_one_is_refused(self, num_simulations):
        with pytest.raises(ValidationError, match="num_simulations must be >= 1"):
            MonteCarloSpreadOracle(num_simulations)

    def test_expected_spread_matches_exact(self, diamond):
        with MonteCarloSpreadOracle(4000, random_state=0, backend="vectorized") as oracle:
            assert oracle.backend == "vectorized"
            assert oracle.expected_spread(diamond, [0]) == pytest.approx(2.75, abs=0.15)

    def test_marginal_spreads_match_per_query_oracle(self, diamond):
        oracle = MonteCarloSpreadOracle(6000, random_state=0, backend="vectorized")
        exact = ExactSpreadOracle()
        spreads = oracle.marginal_spreads(diamond, [1, 2, 3, 0], [0])
        assert spreads[3] == 0.0  # candidate already in the conditioning set
        for index, node in enumerate((1, 2, 3)):
            assert spreads[index] == pytest.approx(
                exact.marginal_spread(diamond, node, [0]), abs=0.15
            )

    def test_marginal_spread_pair_matches_exact(self, diamond):
        oracle = MonteCarloSpreadOracle(6000, random_state=0, backend="vectorized")
        exact = ExactSpreadOracle()
        front, rear = oracle.marginal_spread_pair(diamond, 3, [0], [1, 2])
        assert front == pytest.approx(exact.marginal_spread(diamond, 3, [0]), abs=0.15)
        assert rear == pytest.approx(exact.marginal_spread(diamond, 3, [1, 2]), abs=0.15)

    def test_marginal_spread_pair_member_sides_read_zero(self, diamond):
        oracle = MonteCarloSpreadOracle(500, random_state=0, backend="vectorized")
        front, rear = oracle.marginal_spread_pair(diamond, 3, [3], [0])
        assert front == 0.0 and rear > 0.0
        both = oracle.marginal_spread_pair(diamond, 3, [3], [3, 0])
        assert both == (0.0, 0.0)

    def test_pooled_oracle_lifecycle_and_spread(self, diamond):
        with MonteCarloSpreadOracle(
            1000, random_state=0, backend="vectorized", n_jobs=2
        ) as oracle:
            estimate = oracle.expected_spread(diamond, [0])
            assert estimate == pytest.approx(2.75, abs=0.25)
            assert oracle._pool is not None
        assert oracle._pool is None  # context exit released the workers
        oracle.close()  # idempotent

    def test_adg_through_vectorized_pair(self, star6):
        from repro.core.adg import ADG
        from repro.core.session import AdaptiveSession
        from repro.diffusion.realization import Realization

        # hub spreads to 6 nodes at cost 1 -> must be selected, exactly as
        # with the exact oracle (deterministic star, MC noise-free).
        oracle = ProfitOracle(
            MonteCarloSpreadOracle(200, random_state=0, backend="vectorized"),
            {0: 1.0},
        )
        session = AdaptiveSession(star6, Realization.sample(star6, 0), {0: 1.0})
        result = ADG([0], oracle).run(session)
        assert result.seeds == [0]
        assert result.realized_profit == pytest.approx(5.0)


class TestProfitOracle:
    def test_expected_profit(self, diamond):
        oracle = ProfitOracle(ExactSpreadOracle(), {0: 1.0})
        assert oracle.expected_profit(diamond, [0]) == pytest.approx(1.75)

    def test_marginal_profit_definition3(self, diamond):
        oracle = ProfitOracle(ExactSpreadOracle(), {3: 0.5})
        expected = ExactSpreadOracle().marginal_spread(diamond, 3, [0]) - 0.5
        assert oracle.marginal_profit(diamond, 3, [0]) == pytest.approx(expected)

    def test_marginal_profit_zero_for_member(self, diamond):
        oracle = ProfitOracle(ExactSpreadOracle(), {0: 1.0})
        assert oracle.marginal_profit(diamond, 0, [0, 2]) == 0.0

    def test_cost_of_unknown_node_is_zero(self, diamond):
        oracle = ProfitOracle(ExactSpreadOracle(), {})
        assert oracle.cost([0, 1]) == 0.0
        assert oracle.expected_profit(diamond, [0]) == pytest.approx(2.75)

    def test_marginal_profit_pair_fallback_matches_two_calls(self, diamond):
        # ExactSpreadOracle has no batched pair: the pair must equal the
        # historical two sequential marginal_profit calls exactly.
        oracle = ProfitOracle(ExactSpreadOracle(), {3: 0.5})
        pair = oracle.marginal_profit_pair(diamond, 3, [0], [1, 2])
        assert pair == (
            oracle.marginal_profit(diamond, 3, [0]),
            oracle.marginal_profit(diamond, 3, [1, 2]),
        )

    def test_marginal_profits_batch(self, diamond):
        oracle = ProfitOracle(ExactSpreadOracle(), {3: 0.5})
        profits = oracle.marginal_profits(diamond, [3, 0], [0])
        assert profits[0] == pytest.approx(oracle.marginal_profit(diamond, 3, [0]))
        assert profits[1] == 0.0  # member of the conditioning set

    def test_marginal_profits_batched_oracle(self, diamond):
        mc = MonteCarloSpreadOracle(4000, random_state=0, backend="vectorized")
        oracle = ProfitOracle(mc, {3: 0.5})
        exact = ProfitOracle(ExactSpreadOracle(), {3: 0.5})
        profits = oracle.marginal_profits(diamond, [3, 1], [0])
        assert profits[0] == pytest.approx(
            exact.marginal_profit(diamond, 3, [0]), abs=0.15
        )
        assert profits[1] == pytest.approx(
            exact.marginal_profit(diamond, 1, [0]), abs=0.15
        )
