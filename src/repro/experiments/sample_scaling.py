"""NSG / NDG with scaled sample sizes — Figure 9 of the paper.

To show that the adaptive advantage does not come from using more samples,
the paper multiplies the RR-set budget of the nonadaptive NSG and NDG by
{1, 2, 4, 8, 16, 32} (Epinions, k = 500, degree-proportional costs) and
observes that (a) their running time grows linearly with the sample size
while (b) their profit stays essentially flat — extra samples do not close
the gap to the adaptive algorithms.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Optional, Sequence

from repro.core.targets import build_spread_calibrated_instance
from repro.diffusion.realization import sample_realizations
from repro.experiments.config import ExperimentScale, SMOKE
from repro.experiments.journal import ResultJournal, checkpointed
from repro.experiments.results import SeriesResult
from repro.experiments.runner import (
    AlgorithmSpec,
    _make_ndg,
    _make_nsg,
    evaluate_nonadaptive,
)
from repro.graphs import datasets as dataset_registry
from repro.parallel.eval_pool import EvaluationPool
from repro.utils.rng import RandomState, ensure_rng


def sample_size_scaling(
    dataset: str = "epinions",
    k: Optional[int] = None,
    cost_setting: str = "degree",
    scale: ExperimentScale = SMOKE,
    scale_factors: Optional[Sequence[int]] = None,
    base_samples: Optional[int] = None,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> SeriesResult:
    """Fig. 9: profit and running time of NSG/NDG versus sample-size scale.

    Each ``(factor, algorithm)`` evaluation runs on its own spawned RNG
    stream.  With a ``journal``, each one checkpoints as it completes, so
    ``--resume`` recomputes only missing points.
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
    factors = list(scale_factors if scale_factors is not None else scale.sample_scale_factors)
    base = base_samples if base_samples is not None else scale.engine.nsg_ndg_samples()

    engine = scale.engine
    jobs = engine.sampling_jobs()
    nsg_profit, nsg_runtime, ndg_profit, ndg_runtime = [], [], [], []
    with EvaluationPool(instance.graph, eval_jobs=engine.eval_jobs) as pool:
        for factor, point_rng in zip(factors, rng.spawn(len(factors))):
            scaled_engine = replace(engine, baseline_sample_size=base * factor)
            outcomes = {}
            for (name, maker), alg_state in zip(
                (("NSG", _make_nsg), ("NDG", _make_ndg)), point_rng.spawn(2)
            ):
                spec = AlgorithmSpec(
                    name=name,
                    kind="nonadaptive",
                    factory=partial(maker, scaled_engine, jobs),
                )
                outcomes[name] = checkpointed(
                    journal,
                    f"fig9/{dataset}/{cost_setting}/k={k}/x{factor}/{name}",
                    partial(
                        evaluate_nonadaptive,
                        spec,
                        instance,
                        realizations,
                        alg_state,
                        eval_pool=pool,
                    ),
                )
            nsg_profit.append(outcomes["NSG"].mean_profit)
            nsg_runtime.append(outcomes["NSG"].selection_runtime_seconds)
            ndg_profit.append(outcomes["NDG"].mean_profit)
            ndg_runtime.append(outcomes["NDG"].selection_runtime_seconds)

    return SeriesResult(
        experiment_id="fig9",
        title="NSG / NDG with scaled sample sizes",
        dataset=dataset,
        x_name="scale",
        x_values=factors,
        series={
            "NSG-profit": nsg_profit,
            "NDG-profit": ndg_profit,
            "NSG-runtime": nsg_runtime,
            "NDG-runtime": ndg_runtime,
        },
        metadata={
            "k": k,
            "cost_setting": cost_setting,
            "base_samples": base,
            "scale": scale.name,
        },
    )
