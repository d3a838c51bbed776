"""``fig2-smoke``: the shipped ``reproduce_figure2`` at the SMOKE preset.

``reproduce_figure2`` runs on all four dataset proxies with the default
backends (``vectorized`` RR sampling, ``python`` Monte-Carlo) and
sequential evaluation: capped engines and small batches (θ ≤ 2,500), so
per-call overhead, instance building, the HNTP/NSG/NDG/ARS baselines and
MC scoring all count.  It never enters the ``native`` kernels, so a gain
confined to them should leave this workload unchanged.

Each panel (dataset) is one ``reproduce_figure2`` call, which computes what the
four-dataset call computes for it; a panel is the workload's unit of
latency and a figure (four panels) its unit of work.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

from common import Outcome, fresh_process_s, mean, peak_rss_mib
from metrics import measure_units, unit_latency_summary

DATASETS = ("nethept", "epinions", "dblp", "livejournal")

SETUP_REPS = 5


def smoke_scale(sizes: Dict):
    from dataclasses import replace

    from repro.experiments.config import SMOKE

    if not sizes:
        return SMOKE
    return replace(SMOKE, **sizes)


def check_panel(outcome: Outcome, scale, dataset: str, series) -> None:
    """All seven algorithms present, every value finite, ADDATP gated by k."""
    from repro.experiments.config import PROFIT_ALGORITHMS

    outcome.check(
        set(series.series) == set(PROFIT_ALGORITHMS),
        f"{dataset}: algorithms {sorted(series.series)} != {sorted(PROFIT_ALGORITHMS)}",
    )
    for name in PROFIT_ALGORITHMS:
        values = series.series.get(name, [None] * len(series.x_values))
        for k, value in zip(series.x_values, values):
            if name == "ADDATP" and k > scale.include_addatp_up_to_k:
                outcome.check(value is None, f"{dataset}: ADDATP reported at k={k}")
            else:
                outcome.check(
                    value is not None and math.isfinite(value),
                    f"{dataset}: {name} at k={k} is {value}",
                )


def run_figure(outcome: Outcome, scale, seed: int, index: int, datasets=DATASETS):
    """One figure, panel by panel; returns ``(wall_s, panel_latencies_ms)``."""
    from repro.experiments.profit_experiments import reproduce_figure2

    panels = []
    for dataset in datasets:
        begin = time.perf_counter()
        figure = reproduce_figure2(scale, datasets=[dataset], random_state=_seeds(seed, index))
        panels.append((time.perf_counter() - begin) * 1000.0)
        check_panel(outcome, scale, dataset, figure[dataset])
    return sum(panels) / 1000.0, panels


def _seeds(seed: int, index: int):
    import numpy as np

    return np.random.SeedSequence([int(seed), 0xF162, int(index)])


def _load_graphs(scale, seed: int, datasets) -> None:
    from repro.graphs.datasets import load_proxy

    for dataset in datasets:
        load_proxy(dataset, nodes=scale.nodes_for(dataset), random_state=_seeds(seed, 0))


def setup(seed: int, sizes: Dict, datasets=DATASETS) -> None:
    """What a figure process needs before its first figure: the figure
    code's imports and the proxy graphs."""
    import repro.experiments.profit_experiments  # noqa: F401

    _load_graphs(smoke_scale(sizes), seed, datasets)


def run(seed: int, seconds: float, trace: bool, sizes: Optional[Dict] = None) -> Outcome:
    sizes = dict(sizes or {})
    datasets = sizes.pop("datasets", DATASETS)
    reps = sizes.pop("setup_reps", SETUP_REPS)
    outcome = Outcome()
    scale = smoke_scale(sizes)
    outcome.metrics["setup_s"] = fresh_process_s(
        f"import wl_fig2; wl_fig2.setup({seed}, {sizes!r}, {datasets!r})", reps
    )
    setup(seed, sizes, datasets)


    def unit(index: int):
        return run_figure(outcome, scale, seed, index, datasets)

    walls, latencies = measure_units(
        outcome, seconds, unit, lambda: setup(seed, sizes, datasets), trace
    )
    outcome.metrics["work_s"] = mean(walls)
    outcome.metrics.update(unit_latency_summary(latencies))
    outcome.metrics["peak_rss_mib"] = peak_rss_mib()
    outcome.extra.update(
        figure_s=outcome.metrics["work_s"],
        figures=len(walls),
        panels=sum(map(len, latencies)),
        backend="vectorized",
        mc_backend="python",
    )
    return outcome
