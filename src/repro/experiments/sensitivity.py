"""Sensitivity of HATP to the relative-error threshold ε — Figure 4(b).

The paper varies ε ∈ {0.05, 0.1, 0.15, 0.2, 0.25} with k = 500 on Epinions
under the degree-proportional cost setting and observes that the achieved
profit barely moves — HATP is robust to its only tuning knob.  This driver
reproduces that sweep at the configured scale.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Optional, Sequence

from repro.core.targets import build_spread_calibrated_instance
from repro.experiments.config import ExperimentScale, SMOKE
from repro.experiments.journal import ResultJournal, checkpointed
from repro.experiments.results import SeriesResult
from repro.experiments.runner import AlgorithmSpec, _make_hatp, evaluate_adaptive
from repro.diffusion.realization import sample_realizations
from repro.graphs import datasets as dataset_registry
from repro.parallel.eval_pool import EvaluationPool
from repro.utils.rng import RandomState, ensure_rng


def epsilon_sensitivity(
    dataset: str = "epinions",
    k: Optional[int] = None,
    cost_setting: str = "degree",
    scale: ExperimentScale = SMOKE,
    epsilon_values: Optional[Sequence[float]] = None,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> SeriesResult:
    """Fig. 4(b): HATP profit as a function of the relative-error threshold ε.

    Each ε value runs on its own spawned RNG stream.  With a ``journal``,
    each ε value checkpoints as it completes, so ``--resume`` recomputes
    only missing points.
    """
    rng = ensure_rng(random_state)
    graph = dataset_registry.load_proxy(
        dataset, nodes=scale.nodes_for(dataset), random_state=rng
    )
    k = k if k is not None else max(scale.k_values)
    k = min(k, graph.n)
    instance = build_spread_calibrated_instance(
        graph,
        k=k,
        cost_setting=cost_setting,
        num_rr_sets=scale.num_rr_sets_instance,
        random_state=rng,
    )
    realizations = sample_realizations(graph, scale.num_realizations, rng)
    engine = scale.engine

    values = list(epsilon_values if epsilon_values is not None else scale.epsilon_values)
    jobs = engine.sampling_jobs()
    profits = []
    runtimes = []
    with EvaluationPool(instance.graph, eval_jobs=engine.eval_jobs) as pool:
        for epsilon, point_rng in zip(values, rng.spawn(len(values))):
            eps_engine = replace(
                engine, epsilon=epsilon, epsilon0=max(engine.epsilon0, epsilon)
            )
            spec = AlgorithmSpec(
                name=f"HATP(eps={epsilon})",
                kind="adaptive",
                factory=partial(_make_hatp, eps_engine, jobs),
            )
            outcome = checkpointed(
                journal,
                f"fig4b/{dataset}/{cost_setting}/k={k}/eps={epsilon}",
                partial(
                    evaluate_adaptive,
                    spec,
                    instance,
                    realizations,
                    point_rng,
                    eval_pool=pool,
                ),
            )
            profits.append(outcome.mean_profit)
            runtimes.append(outcome.selection_runtime_seconds)

    return SeriesResult(
        experiment_id="fig4b",
        title="Sensitivity of HATP to the relative error ε",
        dataset=dataset,
        x_name="epsilon",
        x_values=values,
        series={"HATP-profit": profits, "HATP-runtime": runtimes},
        metadata={"k": k, "cost_setting": cost_setting, "scale": scale.name},
    )


def profit_relative_range(result: SeriesResult, series_name: str = "HATP-profit") -> float:
    """Max-to-min relative span of a series (the paper's "nearly steady" check)."""
    values = [v for v in result.series[series_name] if v is not None]
    if not values:
        return 0.0
    top, bottom = max(values), min(values)
    reference = max(abs(top), 1e-12)
    return (top - bottom) / reference
