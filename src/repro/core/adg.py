"""ADG — Adaptive Double Greedy under the oracle model (Algorithm 2).

ADG examines the target nodes one by one.  For the candidate ``u_i`` on the
current residual graph ``G_i`` it compares

* the *front profit* ``ρ_f = ∆_{G_i}(u_i | S_{i−1})`` — the expected
  marginal profit of seeding ``u_i`` on top of the already-selected seeds,
  and
* the *rear profit* ``ρ_r = −∆_{G_i}(u_i | T_{i−1} \\ {u_i})`` — the
  expected marginal profit of *abandoning* ``u_i`` given that the remaining
  candidates stay in play.

If ``ρ_f ≥ ρ_r`` the node is seeded, the activation feedback ``A(u_i)`` is
observed, and the residual graph shrinks; otherwise the node is dropped
from the candidate set.  With access to exact expected spreads (the oracle
model) the paper proves this policy is a 1/3 approximation of the optimal
adaptive policy (Theorem 1).

When ADG is driven by the RIS oracle
(:class:`repro.core.oracle.RISSpreadOracle`), every oracle query samples a
fresh batch through the vectorized engine of
:mod:`repro.sampling.engine`, so the oracle-model algorithm shares the
same fast sampling substrate as the noise-model ones.  Both per-node
marginals are requested through
:meth:`~repro.core.oracle.ProfitOracle.marginal_profit_pair`: oracles with
a batched pair query (the Monte-Carlo oracle) answer the front and rear
queries from one shared realization batch, while every other oracle
answers two sequential queries, front first.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.oracle import ProfitOracle
from repro.core.results import IterationRecord, SeedingResult
from repro.core.session import AdaptiveSession
from repro.utils.timer import Timer
from repro.utils.validation import require


class ADG:
    """Adaptive double greedy under the oracle model.

    Parameters
    ----------
    target:
        The target candidate set ``T`` (examined in the given order; the
        guarantee holds for any fixed order).
    oracle:
        A :class:`~repro.core.oracle.ProfitOracle` able to answer expected
        marginal-profit queries on residual graphs.
    """

    name = "ADG"

    def __init__(self, target: Sequence[int], oracle: ProfitOracle) -> None:
        require(len(target) > 0, "target set must not be empty")
        self._target: List[int] = [int(v) for v in target]
        require(len(set(self._target)) == len(self._target), "target set contains duplicates")
        self._oracle = oracle

    @property
    def target(self) -> List[int]:
        """The target candidate set, in examination order."""
        return list(self._target)

    @property
    def oracle(self) -> ProfitOracle:
        """The profit oracle used for decisions."""
        return self._oracle

    def run(self, session: AdaptiveSession) -> SeedingResult:
        """Execute Algorithm 2 against ``session`` and return the outcome."""
        timer = Timer().start()
        selected: List[int] = []
        candidates = set(self._target)
        iterations: List[IterationRecord] = []
        oracle_queries = 0

        for node in self._target:
            if session.is_activated(node):
                candidates.discard(node)
                iterations.append(IterationRecord(node=node, action="skipped-activated"))
                continue

            residual = session.residual
            front_profit, rear_raw = self._oracle.marginal_profit_pair(
                residual, node, selected, candidates - {node}
            )
            rear_profit = -rear_raw
            oracle_queries += 2

            if front_profit >= rear_profit:
                newly_activated = session.commit_seed(node)
                selected.append(node)
                iterations.append(
                    IterationRecord(
                        node=node,
                        action="selected",
                        front_estimate=front_profit,
                        rear_estimate=rear_profit,
                        newly_activated=len(newly_activated),
                    )
                )
            else:
                candidates.discard(node)
                iterations.append(
                    IterationRecord(
                        node=node,
                        action="rejected",
                        front_estimate=front_profit,
                        rear_estimate=rear_profit,
                    )
                )

        timer.stop()
        return SeedingResult(
            algorithm=self.name,
            seeds=selected,
            realized_spread=session.realized_spread,
            realized_profit=session.realized_profit,
            seed_cost=session.seed_cost,
            rr_sets_generated=oracle_queries,
            runtime_seconds=timer.elapsed,
            iterations=iterations,
            extra={"oracle": type(self._oracle.spread_oracle).__name__},
        )
