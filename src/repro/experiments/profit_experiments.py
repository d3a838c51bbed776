"""Profit comparisons — Figures 2, 3 and 4(a) of the paper.

* **Fig. 2** — average realized profit versus target size ``k`` under the
  *degree-proportional* cost setting, one panel per dataset.
* **Fig. 3** — the same sweep under the *uniform* cost setting.
* **Fig. 4(a)** — the *random* cost setting (the paper shows Epinions only).

Each data point follows the paper's protocol: build the instance
(top-``k`` influential target, spread-calibrated costs), sample
``num_realizations`` possible worlds, run every algorithm against each of
them and average the realized profits.  The "Baseline" series is the
estimated profit of seeding the whole target set ``T``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.targets import TPMInstance, build_spread_calibrated_instance
from repro.experiments.config import ExperimentScale, SMOKE
from repro.experiments.journal import ResultJournal, outcome_from_payload
from repro.experiments.results import SeriesResult
from repro.experiments.runner import (
    AggregateOutcome,
    build_standard_suite,
    evaluate_suite,
    suite_journal_keys,
)
from repro.graphs import datasets as dataset_registry
from repro.parallel.eval_pool import EvaluationPool
from repro.utils.rng import RandomState, ensure_rng


def sweep_target_sizes(
    dataset: str,
    cost_setting: str,
    scale: ExperimentScale = SMOKE,
    k_values: Optional[Sequence[int]] = None,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> Dict[int, Dict[str, AggregateOutcome]]:
    """Run the full algorithm suite for every target size ``k``.

    Returns ``{k: {algorithm: AggregateOutcome}}`` — the raw material both
    the profit figures (Fig. 2–4) and the running-time figures (Fig. 5–6)
    are extracted from.

    Each ``k`` gets its own spawned RNG stream.  With a ``journal``, every
    ``(k, algorithm)`` evaluation checkpoints as it completes and
    completed points are replayed on resume (a fully journaled ``k``
    skips even its instance construction).
    """
    rng = ensure_rng(random_state)
    graph = dataset_registry.load_proxy(
        dataset, nodes=scale.nodes_for(dataset), random_state=rng
    )
    k_list = list(k_values if k_values is not None else scale.k_values)
    sweep: Dict[int, Dict[str, AggregateOutcome]] = {}
    with EvaluationPool(graph, eval_jobs=scale.engine.eval_jobs) as pool:
        for k, point_rng in zip(k_list, rng.spawn(len(k_list))):
            k = min(k, graph.n)
            suite = build_standard_suite(
                scale.engine, include_addatp=k <= scale.include_addatp_up_to_k
            )
            prefix = f"{dataset}/{cost_setting}/k={k}/"
            keys = suite_journal_keys(suite, prefix)
            if journal is not None and journal.has_all(keys):
                sweep[k] = {
                    spec.name: outcome_from_payload(journal.get(key))
                    for spec, key in zip(suite, keys)
                }
                continue
            instance = build_spread_calibrated_instance(
                graph,
                k=k,
                cost_setting=cost_setting,
                num_rr_sets=scale.num_rr_sets_instance,
                random_state=point_rng,
            )
            sweep[k] = evaluate_suite(
                suite,
                instance,
                num_realizations=scale.num_realizations,
                random_state=point_rng,
                eval_pool=pool,
                journal=journal,
                journal_prefix=prefix,
            )
    return sweep


def profit_series(
    dataset: str,
    cost_setting: str,
    scale: ExperimentScale = SMOKE,
    experiment_id: str = "fig2",
    random_state: RandomState = 0,
    sweep: Optional[Dict[int, Dict[str, AggregateOutcome]]] = None,
    journal: Optional[ResultJournal] = None,
) -> SeriesResult:
    """Profit-versus-``k`` series for one dataset and cost setting."""
    if sweep is None:
        sweep = sweep_target_sizes(
            dataset, cost_setting, scale, random_state=random_state, journal=journal
        )
    k_values = sorted(sweep)
    algorithms: List[str] = []
    for outcomes in sweep.values():
        for name in outcomes:
            if name not in algorithms:
                algorithms.append(name)
    series = {
        name: [
            sweep[k][name].mean_profit if name in sweep[k] else None for k in k_values
        ]
        for name in algorithms
    }
    return SeriesResult(
        experiment_id=experiment_id,
        title=f"Profit vs k ({cost_setting} cost)",
        dataset=dataset,
        x_name="k",
        x_values=list(k_values),
        series=series,
        metadata={"cost_setting": cost_setting, "scale": scale.name},
    )


def reproduce_figure2(
    scale: ExperimentScale = SMOKE,
    datasets: Optional[Sequence[str]] = None,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> Dict[str, SeriesResult]:
    """Fig. 2: profit under the degree-proportional cost setting, per dataset."""
    names = datasets if datasets is not None else scale.datasets
    return {
        name: profit_series(
            name,
            "degree",
            scale,
            experiment_id="fig2",
            random_state=random_state,
            journal=journal,
        )
        for name in names
    }


def reproduce_figure3(
    scale: ExperimentScale = SMOKE,
    datasets: Optional[Sequence[str]] = None,
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> Dict[str, SeriesResult]:
    """Fig. 3: profit under the uniform cost setting, per dataset."""
    names = datasets if datasets is not None else scale.datasets
    return {
        name: profit_series(
            name,
            "uniform",
            scale,
            experiment_id="fig3",
            random_state=random_state,
            journal=journal,
        )
        for name in names
    }


def reproduce_figure4a(
    scale: ExperimentScale = SMOKE,
    dataset: str = "epinions",
    random_state: RandomState = 0,
    journal: Optional[ResultJournal] = None,
) -> SeriesResult:
    """Fig. 4(a): profit under the random cost setting (Epinions in the paper)."""
    return profit_series(
        dataset,
        "random",
        scale,
        experiment_id="fig4a",
        random_state=random_state,
        journal=journal,
    )
