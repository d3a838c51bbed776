"""Jobs-scaling benchmark of the session-level evaluation pool.

Times a full adaptive evaluation round — one complete HATP seeding
session per realization — at ``eval_jobs ∈ {1, 2, 4}`` on a
``REPRO_BENCH_SCALE``-sized graph, with the pool warmed up so worker
start-up is excluded (the cost a figure driver actually experiences per
``(dataset, k)`` point).  The measured curve is written to
``benchmarks/output/eval_parallel.csv`` / ``.json`` so the perf
trajectory stays diffable across PRs.

Two assertions, mirroring the sampling-pool benchmark:

* every worker count reproduces the ``eval_jobs=1`` per-realization
  records bit-for-bit (the determinism contract, re-checked at benchmark
  scale);
* the ISSUE's acceptance bar — ≥ 2x speedup at 4 workers — is asserted
  when ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` is set *and* the machine has
  ≥ 4 usable cores.  Opt-in because wall-clock speedup depends on the
  host, not the code: a 1-core container physically cannot exhibit
  multi-core speedup, and shared CI runners are too noisy to gate merges
  on a hard perf number.  The curve itself is always recorded.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from functools import partial

import numpy as np

from benchmarks.conftest import BENCH_SEED, OUTPUT_DIR
from repro.core.targets import build_spread_calibrated_instance
from repro.experiments.reporting import write_rows_csv, write_rows_json
from repro.experiments.runner import _make_hatp
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade
from repro.parallel import (
    EvaluationPool,
    RealizationTicket,
    available_cpus,
    parallel_evaluate_adaptive,
)

#: Worker counts the scaling series sweeps.
JOBS_SERIES = (1, 2, 4)

#: Acceptance bar: speedup required at 4 workers (asserted only with
#: ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` on a machine with >= 4 usable cores).
REQUIRED_SPEEDUP_AT_4 = 2.0

#: Evaluation problem sizes per scale: the graph, the target size and the
#: number of whole-session realizations the round fans out.
EVAL_SCALES = {
    "smoke": {"nodes": 300, "k": 8, "realizations": 6},
    "small": {"nodes": 600, "k": 10, "realizations": 10},
    "paper": {"nodes": 1500, "k": 20, "realizations": 20},
}


def _best_of(function, repeats=2):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _record_key(records):
    """The deterministic projection of a session-record list (no runtimes)."""
    return [
        (r.index, r.profit, r.spread, r.num_seeds, r.seed_cost, r.rr_sets)
        for r in records
    ]


def test_bench_eval_jobs_scaling(bench_scale):
    params = EVAL_SCALES.get(bench_scale.name, EVAL_SCALES["smoke"])
    graph = weighted_cascade(
        generators.barabasi_albert(params["nodes"], 4, random_state=BENCH_SEED)
    )
    instance = build_spread_calibrated_instance(
        graph,
        k=params["k"],
        cost_setting="degree",
        num_rr_sets=bench_scale.num_rr_sets_instance,
        random_state=BENCH_SEED,
    )
    # Sessions run on up to max(JOBS_SERIES) workers, so a set sampling
    # worker count becomes n_jobs=1 — the no-nested-pool policy the suite
    # builders apply; unset, every session samples the single-batch stream.
    engine = replace(bench_scale.engine, eval_jobs=max(JOBS_SERIES))
    factory = partial(_make_hatp, engine, engine.sampling_jobs())
    tickets = [
        RealizationTicket.from_state(state)
        for state in np.random.default_rng(BENCH_SEED).spawn(params["realizations"])
    ]

    rows = []
    baseline_seconds = None
    baseline_key = None
    speedups = {}

    for jobs in JOBS_SERIES:
        with EvaluationPool(graph, eval_jobs=jobs) as pool:
            # Warm up: starts the workers and publishes the graph once.
            parallel_evaluate_adaptive(
                factory, instance, tickets, random_state=BENCH_SEED, pool=pool
            )
            seconds, records = _best_of(
                lambda: parallel_evaluate_adaptive(
                    factory, instance, tickets, random_state=BENCH_SEED, pool=pool
                )
            )
        assert len(records) == params["realizations"]
        key = _record_key(records)
        if baseline_key is None:
            baseline_seconds, baseline_key = seconds, key
        else:
            # Determinism contract at benchmark scale.
            assert key == baseline_key
        speedups[jobs] = baseline_seconds / max(seconds, 1e-12)
        rows.append(
            {
                "scale": bench_scale.name,
                "nodes": graph.n,
                "edges": graph.m,
                "k": params["k"],
                "realizations": params["realizations"],
                "eval_jobs": jobs,
                "cpus_available": available_cpus(),
                "seconds": seconds,
                "speedup_vs_1_job": speedups[jobs],
            }
        )

    write_rows_csv(rows, OUTPUT_DIR / "eval_parallel.csv")
    write_rows_json(rows, OUTPUT_DIR / "eval_parallel.json")

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1" and available_cpus() >= 4:
        assert speedups[4] >= REQUIRED_SPEEDUP_AT_4, (
            f"4-worker session pool only {speedups[4]:.2f}x faster than 1 job "
            f"({params['realizations']} realizations, n={graph.n}, "
            f"cpus={available_cpus()})"
        )
