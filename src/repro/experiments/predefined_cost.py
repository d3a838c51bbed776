"""Profit with predefined costs — Figures 7 and 8 of the paper.

Procedure 2 (Section VI-D): every node receives a cost *before* the target
set exists, controlled by the ratio λ = c(V)/n; a nonadaptive algorithm
(NDG for Fig. 7, NSG for Fig. 8) run over the whole graph produces the
target set ``T``, and HATP then refines ``T`` adaptively.  The figures
compare the profit of HATP's refined seeding against the profit of simply
seeding the nonadaptive algorithm's output, for λ ∈ {200, 300, 400, 500}
under the degree-proportional and uniform cost settings (the paper shows
LiveJournal; the driver defaults to its proxy).

Note on λ: the paper's λ values are calibrated to graphs with millions of
nodes.  On a scaled proxy the same absolute values would exceed any node's
spread and the profitable target set would be empty, so the scale presets
specify proportionally smaller λ grids — the *shape* (smaller λ → larger
target → bigger adaptive advantage) is what this experiment preserves.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.targets import build_predefined_cost_instance
from repro.diffusion.realization import sample_realizations
from repro.experiments.config import ExperimentScale, SMOKE
from repro.experiments.journal import (
    ResultJournal,
    checkpointed,
    outcome_from_payload,
)
from repro.experiments.results import SeriesResult
from repro.experiments.runner import (
    AlgorithmSpec,
    _make_baseline,
    _make_hatp,
    evaluate_adaptive,
    evaluate_nonadaptive,
)
from repro.graphs import datasets as dataset_registry
from repro.parallel.eval_pool import EvaluationPool
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng


def hatp_vs_nonadaptive_selector(
    selector: str = "ndg",
    dataset: str = "livejournal",
    cost_setting: str = "degree",
    scale: ExperimentScale = SMOKE,
    lambda_values: Optional[Sequence[float]] = None,
    max_target_size: Optional[int] = 60,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> SeriesResult:
    """HATP versus the nonadaptive selector that produced its target set.

    ``selector`` is ``"ndg"`` (Fig. 7) or ``"nsg"`` (Fig. 8).  The returned
    series contains one profit line for HATP and one for the selector, over
    the λ grid (note the paper plots λ in decreasing order since smaller λ
    means a larger target set).

    Each λ point runs on its own spawned RNG stream, and each of its two
    evaluations on a stream spawned from that.  With a ``journal``, every
    λ point checkpoints its two evaluations (and the derived target size);
    a fully journaled point skips even its instance construction on resume.
    """
    if selector not in {"ndg", "nsg"}:
        raise ConfigurationError("selector must be 'ndg' or 'nsg'")
    rng = ensure_rng(random_state)
    graph = dataset_registry.load_proxy(
        dataset, nodes=scale.nodes_for(dataset), random_state=rng
    )
    engine = scale.engine
    values = list(lambda_values if lambda_values is not None else scale.lambda_values)
    figure = "fig7" if selector == "ndg" else "fig8"
    hatp_spec = AlgorithmSpec(
        name="HATP",
        kind="adaptive",
        factory=partial(_make_hatp, engine, engine.sampling_jobs()),
    )
    # The nonadaptive selector's own profit is that of seeding its whole
    # output (the target set) in one batch.
    selector_spec = AlgorithmSpec(
        name=selector.upper(), kind="fixed", factory=_make_baseline
    )

    hatp_profits: List[float] = []
    selector_profits: List[float] = []
    target_sizes: List[int] = []
    with EvaluationPool(graph, eval_jobs=engine.eval_jobs) as pool:
        for cost_ratio, point_rng in zip(values, rng.spawn(len(values))):
            prefix = f"{figure}/{dataset}/{cost_setting}/lambda={cost_ratio}/"
            meta_key = prefix + "meta"
            hatp_key = prefix + "HATP"
            selector_key = prefix + selector.upper()
            if journal is not None and journal.has_all(
                [meta_key, hatp_key, selector_key]
            ):
                target_sizes.append(int(journal.get(meta_key)["target_size"]))
                hatp_profits.append(
                    outcome_from_payload(journal.get(hatp_key)).mean_profit
                )
                selector_profits.append(
                    outcome_from_payload(journal.get(selector_key)).mean_profit
                )
                continue
            instance = build_predefined_cost_instance(
                graph,
                cost_ratio=cost_ratio,
                cost_setting=cost_setting,
                selector=selector,
                num_samples=scale.num_rr_sets_instance,
                max_target_size=max_target_size,
                random_state=point_rng,
            )
            target_sizes.append(instance.k)
            realizations = sample_realizations(graph, scale.num_realizations, point_rng)
            hatp_state, selector_state = point_rng.spawn(2)
            if journal is not None:
                journal.record(meta_key, {"target_size": int(instance.k)})
            hatp_outcome = checkpointed(
                journal,
                hatp_key,
                partial(
                    evaluate_adaptive,
                    hatp_spec,
                    instance,
                    realizations,
                    hatp_state,
                    eval_pool=pool,
                ),
            )
            selector_outcome = checkpointed(
                journal,
                selector_key,
                partial(
                    evaluate_nonadaptive,
                    selector_spec,
                    instance,
                    realizations,
                    selector_state,
                    eval_pool=pool,
                ),
            )
            hatp_profits.append(hatp_outcome.mean_profit)
            selector_profits.append(selector_outcome.mean_profit)

    return SeriesResult(
        experiment_id="fig7" if selector == "ndg" else "fig8",
        title=f"HATP vs {selector.upper()} with predefined costs ({cost_setting})",
        dataset=dataset,
        x_name="lambda",
        x_values=values,
        series={"HATP": hatp_profits, selector.upper(): selector_profits},
        metadata={
            "cost_setting": cost_setting,
            "scale": scale.name,
            "target_sizes": target_sizes,
            "selector": selector,
        },
    )


def reproduce_figure7(
    scale: ExperimentScale = SMOKE,
    dataset: str = "livejournal",
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> Dict[str, SeriesResult]:
    """Fig. 7: HATP vs NDG under both cost settings."""
    return {
        "degree": hatp_vs_nonadaptive_selector(
            "ndg", dataset, "degree", scale, random_state=random_state, journal=journal
        ),
        "uniform": hatp_vs_nonadaptive_selector(
            "ndg", dataset, "uniform", scale, random_state=random_state, journal=journal
        ),
    }


def reproduce_figure8(
    scale: ExperimentScale = SMOKE,
    dataset: str = "livejournal",
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> Dict[str, SeriesResult]:
    """Fig. 8: HATP vs NSG under both cost settings."""
    return {
        "degree": hatp_vs_nonadaptive_selector(
            "nsg", dataset, "degree", scale, random_state=random_state, journal=journal
        ),
        "uniform": hatp_vs_nonadaptive_selector(
            "nsg", dataset, "uniform", scale, random_state=random_state, journal=journal
        ),
    }
