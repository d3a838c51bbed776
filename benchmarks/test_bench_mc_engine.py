"""Microbenchmarks of the batched forward-MC engine vs. the per-cascade loop.

Three metrics, at ``REPRO_BENCH_SCALE``-controlled sizes (``smoke`` /
``small`` / ``paper``), on a generated heavy-tailed graph under weighted
cascade:

* **spread** — ``monte_carlo_spread`` with ``backend="vectorized"`` (one
  batched layer-at-a-time sweep for all 1000 cascades) against
  ``backend="python"`` (the per-cascade scalar loop that states the
  keyed cascade stream; both draw the same cascades);
* **marginal** — ``monte_carlo_marginal_spread`` with both backends (both
  replay the common-random-number cascades of every realization through
  the live-edge engine, whose ``python`` replay is the vectorized sweep:
  bit-for-bit identical estimate);
* **replay** — scoring one seed set against 20 sampled realizations:
  ``batch_realization_spreads`` (one batched live-edge sweep) against the
  per-realization ``BaseRealization.spread`` loop.

The measured series is written to ``benchmarks/output/mc_engine.csv`` and
``benchmarks/output/mc_engine.json`` (the machine-readable twin, diffable
across PRs) and the ISSUE's acceptance bar is asserted: the batched engine
at least 5x faster than the per-cascade loop on the spread metric.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import BENCH_SEED, OUTPUT_DIR
from repro.diffusion.realization import (
    BaseRealization,
    batch_realization_spreads,
    sample_realizations,
)
from repro.diffusion.spread import monte_carlo_marginal_spread, monte_carlo_spread
from repro.experiments.reporting import write_rows_csv, write_rows_json
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade

#: Graph size / simulation counts per benchmark scale.
MC_SCALES = {
    "smoke": {"nodes": 10_000, "sims": 1_000, "marginal_sims": 200},
    "small": {"nodes": 50_000, "sims": 1_000, "marginal_sims": 200},
    "paper": {"nodes": 200_000, "sims": 1_000, "marginal_sims": 200},
}

#: Seed-set size (target-set shaped: the top-k out-degree nodes).
SEED_SET_SIZE = 50

#: Realizations scored by the replay metric (the paper's evaluation count).
REPLAY_REALIZATIONS = 20

#: Acceptance bar: batched vs per-cascade speedup on the spread metric.
REQUIRED_SPEEDUP = 5.0


def _timed(function, warmup=False):
    """One timed run, optionally preceded by one untimed warmup call.

    Both sides of every comparison get a single timed run so the recorded
    speedups are measured symmetrically; the cheap (batched) side warms up
    once first so its one-time allocation/import costs don't pollute the
    series, while the expensive reference — whose per-run cost dwarfs any
    warmup effect — is run exactly once.
    """
    if warmup:
        function()
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def test_bench_mc_engine_series(bench_scale):
    params = MC_SCALES.get(bench_scale.name, MC_SCALES["smoke"])
    graph = weighted_cascade(
        generators.barabasi_albert(params["nodes"], 4, random_state=BENCH_SEED)
    )
    seeds = [int(v) for v in np.argsort(-graph.out_degrees)[:SEED_SET_SIZE]]
    sims = params["sims"]

    # -- spread: batched sweep vs per-cascade keyed reference loop ------ #
    vector_seconds, vector_estimate = _timed(
        lambda: monte_carlo_spread(graph, seeds, sims, BENCH_SEED, backend="vectorized"),
        warmup=True,
    )
    python_seconds, python_estimate = _timed(
        lambda: monte_carlo_spread(graph, seeds, sims, BENCH_SEED, backend="python")
    )
    spread_speedup = python_seconds / max(vector_seconds, 1e-12)
    # One keyed cascade stream: both backends draw the same cascades.
    assert vector_estimate == python_estimate > 0

    # -- marginal: both backends replay one realization stream --------- #
    marginal_sims = params["marginal_sims"]
    probe, conditioning = seeds[0], seeds[1:11]
    marginal_vec_seconds, marginal_vec = _timed(
        lambda: monte_carlo_marginal_spread(
            graph, probe, conditioning, marginal_sims, BENCH_SEED, backend="vectorized"
        ),
        warmup=True,
    )
    marginal_py_seconds, marginal_py = _timed(
        lambda: monte_carlo_marginal_spread(
            graph, probe, conditioning, marginal_sims, BENCH_SEED, backend="python"
        )
    )
    # Identical realization stream -> bit-for-bit identical estimate.
    assert marginal_vec == marginal_py

    # -- replay: batched realization scoring vs per-realization BFS ----- #
    worlds = sample_realizations(graph, REPLAY_REALIZATIONS, BENCH_SEED)
    replay_vec_seconds, replay_spreads = _timed(
        lambda: batch_realization_spreads(worlds, seeds), warmup=True
    )

    def replay_loop():
        return [BaseRealization.spread(world, seeds) for world in worlds]

    replay_py_seconds, loop_spreads = _timed(replay_loop)
    assert replay_spreads.tolist() == loop_spreads  # deterministic replay

    def row(metric, simulations, batched, reference):
        return {
            "scale": bench_scale.name,
            "nodes": graph.n,
            "edges": graph.m,
            "seed_set": len(seeds),
            "simulations": simulations,
            "metric": metric,
            "batched_seconds": batched,
            "reference_seconds": reference,
            "speedup": reference / max(batched, 1e-12),
        }

    rows = [
        row("spread", sims, vector_seconds, python_seconds),
        row("marginal", marginal_sims, marginal_vec_seconds, marginal_py_seconds),
        row("replay", REPLAY_REALIZATIONS, replay_vec_seconds, replay_py_seconds),
    ]
    write_rows_csv(rows, OUTPUT_DIR / "mc_engine.csv")
    write_rows_json(rows, OUTPUT_DIR / "mc_engine.json")

    assert spread_speedup >= REQUIRED_SPEEDUP, (
        f"batched MC engine only {spread_speedup:.1f}x faster than the "
        f"per-cascade loop (sims={sims}, n={graph.n})"
    )
