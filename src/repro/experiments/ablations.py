"""Ablation studies of the design choices DESIGN.md calls out.

These are not paper figures; they isolate the ingredients that produce the
paper's headline results:

* :func:`error_mode_ablation` — additive-only (ADDATP) versus hybrid
  (HATP) error on identical instances and realizations: sampling cost and
  profit.
* :func:`adaptivity_ablation` — HATP versus HNTP with *identical* error
  schedules, isolating the value of observing market feedback.
* :func:`sample_cap_ablation` — how sensitive HATP's profit is to the
  pure-Python engine's per-round sample cap (the practical budget this
  reproduction adds); mirrors Fig. 9's message that profit saturates with
  sample size.
* :func:`dynamic_threshold_ablation` — ADDATP with the fixed C2 threshold
  versus the dynamic-threshold extension discussed after Theorem 2.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Optional

from repro.core.targets import build_spread_calibrated_instance
from repro.diffusion.realization import sample_realizations
from repro.experiments.config import ExperimentScale, SMOKE
from repro.experiments.journal import ResultJournal, checkpointed
from repro.experiments.results import SeriesResult
from repro.experiments.runner import (
    AlgorithmSpec,
    _make_addatp,
    _make_hatp,
    _make_hntp,
    evaluate_adaptive,
    evaluate_nonadaptive,
)
from repro.graphs import datasets as dataset_registry
from repro.parallel.eval_pool import EvaluationPool
from repro.utils.rng import RandomState, ensure_rng


def _instance_and_realizations(
    dataset: str,
    k: int,
    cost_setting: str,
    scale: ExperimentScale,
    random_state: RandomState,
):
    rng = ensure_rng(random_state)
    graph = dataset_registry.load_proxy(
        dataset, nodes=scale.nodes_for(dataset), random_state=rng
    )
    instance = build_spread_calibrated_instance(
        graph,
        k=min(k, graph.n),
        cost_setting=cost_setting,
        num_rr_sets=scale.num_rr_sets_instance,
        random_state=rng,
    )
    realizations = sample_realizations(graph, scale.num_realizations, rng)
    return instance, realizations, rng


def error_mode_ablation(
    dataset: str = "nethept",
    k: int = 10,
    cost_setting: str = "degree",
    scale: ExperimentScale = SMOKE,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> SeriesResult:
    """Hybrid (HATP) versus additive (ADDATP) error: profit and RR-set cost."""
    instance, realizations, rng = _instance_and_realizations(
        dataset, k, cost_setting, scale, random_state
    )
    engine = scale.engine
    jobs = engine.sampling_jobs()
    hatp_spec = AlgorithmSpec(
        name="HATP", kind="adaptive", factory=partial(_make_hatp, engine, jobs)
    )
    addatp_spec = AlgorithmSpec(
        name="ADDATP", kind="adaptive", factory=partial(_make_addatp, engine, jobs)
    )
    prefix = f"ablation-error-mode/{dataset}/{cost_setting}/k={k}/"
    hatp_state, addatp_state = rng.spawn(2)
    with EvaluationPool(instance.graph, eval_jobs=engine.eval_jobs) as pool:
        hatp = checkpointed(
            journal,
            prefix + "HATP",
            partial(
                evaluate_adaptive,
                hatp_spec,
                instance,
                realizations,
                hatp_state,
                eval_pool=pool,
            ),
        )
        addatp = checkpointed(
            journal,
            prefix + "ADDATP",
            partial(
                evaluate_adaptive,
                addatp_spec,
                instance,
                realizations,
                addatp_state,
                eval_pool=pool,
            ),
        )
    return SeriesResult(
        experiment_id="ablation-error-mode",
        title="Hybrid vs additive sampling error",
        dataset=dataset,
        x_name="metric",
        x_values=["profit", "rr_sets", "runtime_s"],
        series={
            "HATP": [hatp.mean_profit, float(hatp.total_rr_sets), hatp.selection_runtime_seconds],
            "ADDATP": [
                addatp.mean_profit,
                float(addatp.total_rr_sets),
                addatp.selection_runtime_seconds,
            ],
        },
        metadata={"k": k, "cost_setting": cost_setting, "scale": scale.name},
    )


def adaptivity_ablation(
    dataset: str = "nethept",
    k: int = 10,
    cost_setting: str = "degree",
    scale: ExperimentScale = SMOKE,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> SeriesResult:
    """HATP (adaptive) versus HNTP (nonadaptive) with identical error schedules."""
    instance, realizations, rng = _instance_and_realizations(
        dataset, k, cost_setting, scale, random_state
    )
    engine = scale.engine
    jobs = engine.sampling_jobs()
    hatp_spec = AlgorithmSpec(
        name="HATP", kind="adaptive", factory=partial(_make_hatp, engine, jobs)
    )
    hntp_spec = AlgorithmSpec(
        name="HNTP", kind="nonadaptive", factory=partial(_make_hntp, engine, jobs)
    )
    prefix = f"ablation-adaptivity/{dataset}/{cost_setting}/k={k}/"
    hatp_state, hntp_state = rng.spawn(2)
    with EvaluationPool(instance.graph, eval_jobs=engine.eval_jobs) as pool:
        adaptive = checkpointed(
            journal,
            prefix + "HATP",
            partial(
                evaluate_adaptive,
                hatp_spec,
                instance,
                realizations,
                hatp_state,
                eval_pool=pool,
            ),
        )
        nonadaptive = checkpointed(
            journal,
            prefix + "HNTP",
            partial(
                evaluate_nonadaptive,
                hntp_spec,
                instance,
                realizations,
                hntp_state,
                eval_pool=pool,
            ),
        )
    return SeriesResult(
        experiment_id="ablation-adaptivity",
        title="Adaptive vs nonadaptive hybrid-error double greedy",
        dataset=dataset,
        x_name="metric",
        x_values=["profit", "seeds", "runtime_s"],
        series={
            "HATP": [adaptive.mean_profit, adaptive.mean_seeds, adaptive.selection_runtime_seconds],
            "HNTP": [
                nonadaptive.mean_profit,
                nonadaptive.mean_seeds,
                nonadaptive.selection_runtime_seconds,
            ],
        },
        metadata={"k": k, "cost_setting": cost_setting, "scale": scale.name},
    )


def sample_cap_ablation(
    dataset: str = "nethept",
    k: int = 10,
    cost_setting: str = "degree",
    scale: ExperimentScale = SMOKE,
    caps: Optional[list] = None,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> SeriesResult:
    """HATP profit as a function of the per-round RR-set cap."""
    instance, realizations, rng = _instance_and_realizations(
        dataset, k, cost_setting, scale, random_state
    )
    engine = scale.engine
    jobs = engine.sampling_jobs()
    cap_values = caps if caps is not None else [100, 200, 400, 800]
    prefix = f"ablation-sample-cap/{dataset}/{cost_setting}/k={k}/"
    profits, rr_counts = [], []
    with EvaluationPool(instance.graph, eval_jobs=engine.eval_jobs) as pool:
        for cap, state in zip(cap_values, rng.spawn(len(cap_values))):
            capped_engine = replace(engine, max_samples_per_round=cap)
            spec = AlgorithmSpec(
                name=f"HATP(cap={cap})",
                kind="adaptive",
                factory=partial(_make_hatp, capped_engine, jobs),
            )
            outcome = checkpointed(
                journal,
                f"{prefix}cap={cap}",
                partial(
                    evaluate_adaptive,
                    spec,
                    instance,
                    realizations,
                    state,
                    eval_pool=pool,
                ),
            )
            profits.append(outcome.mean_profit)
            rr_counts.append(float(outcome.total_rr_sets))
    return SeriesResult(
        experiment_id="ablation-sample-cap",
        title="HATP profit vs per-round sample cap",
        dataset=dataset,
        x_name="cap",
        x_values=cap_values,
        series={"HATP-profit": profits, "HATP-rr-sets": rr_counts},
        metadata={"k": k, "cost_setting": cost_setting, "scale": scale.name},
    )


def dynamic_threshold_ablation(
    dataset: str = "nethept",
    k: int = 10,
    cost_setting: str = "degree",
    scale: ExperimentScale = SMOKE,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> Dict[str, float]:
    """ADDATP with fixed versus dynamic C2 threshold (the (1−ε)/3 extension)."""
    instance, realizations, rng = _instance_and_realizations(
        dataset, k, cost_setting, scale, random_state
    )
    engine = scale.engine
    jobs = engine.sampling_jobs()
    prefix = f"ablation-dynamic-threshold/{dataset}/{cost_setting}/k={k}/"
    outcomes = {}
    with EvaluationPool(instance.graph, eval_jobs=engine.eval_jobs) as pool:
        for name, dynamic_threshold, state in zip(
            ("ADDATP-fixed", "ADDATP-dynamic"), (False, True), rng.spawn(2)
        ):
            spec = AlgorithmSpec(
                name,
                "adaptive",
                partial(_make_addatp, engine, jobs, dynamic_threshold=dynamic_threshold),
            )
            outcomes[name] = checkpointed(
                journal,
                prefix + name,
                partial(
                    evaluate_adaptive, spec, instance, realizations, state, eval_pool=pool
                ),
            )
    fixed, dynamic = outcomes["ADDATP-fixed"], outcomes["ADDATP-dynamic"]
    return {
        "fixed_profit": fixed.mean_profit,
        "dynamic_profit": dynamic.mean_profit,
        "fixed_rr_sets": float(fixed.total_rr_sets),
        "dynamic_rr_sets": float(dynamic.total_rr_sets),
    }
