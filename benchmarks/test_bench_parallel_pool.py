"""Jobs-scaling benchmark of the sampling thread pool.

Measures one batch generation at ``n_jobs ∈ {1, 2, 4}`` threads on the
``REPRO_BENCH_SCALE`` graph (same sizes as the engine benchmark), with the
pool warmed up so thread start-up is excluded — the number a long-running
driver actually experiences per round.  The batch is at least
:data:`~repro.parallel.pool.MIN_SPLIT` sets, so every thread count above
one splits it.  The measured curve is written to
``benchmarks/output/parallel_scaling.csv`` / ``.json`` so the perf
trajectory stays diffable across PRs.

Two assertions:

* every worker count reproduces the ``n_jobs=1`` batch bit-for-bit (the
  determinism contract, re-checked at benchmark scale);
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

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, OUTPUT_DIR
from benchmarks.test_bench_rr_engine import ENGINE_SCALES
from repro.experiments.reporting import write_rows_csv, write_rows_json
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade
from repro.parallel import MIN_SPLIT, SamplingPool, available_cpus

#: Worker counts the scaling series sweeps.
JOBS_SERIES = (1, 2, 4)

#: Acceptance bar: speedup required at 4 workers (asserted only with
#: ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` on a machine with >= 4 usable cores).
REQUIRED_SPEEDUP_AT_4 = 2.0


@pytest.fixture(scope="module")
def pool_params(bench_scale):
    return ENGINE_SCALES.get(bench_scale.name, ENGINE_SCALES["smoke"])


@pytest.fixture(scope="module")
def pool_graph(pool_params):
    graph = generators.barabasi_albert(
        pool_params["nodes"], 4, random_state=BENCH_SEED
    )
    return weighted_cascade(graph)


def _best_of(function, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_jobs_scaling(pool_graph, pool_params, bench_scale):
    theta = max(pool_params["theta"], MIN_SPLIT)
    rows = []
    baseline_seconds = None
    baseline_batch = None
    speedups = {}

    for jobs in JOBS_SERIES:
        with SamplingPool(n_jobs=jobs) as pool:
            pool.generate(pool_graph, theta, BENCH_SEED)  # warm up the threads
            seconds, batch = _best_of(
                lambda: pool.generate(pool_graph, theta, BENCH_SEED)
            )
        assert len(batch) == theta
        if baseline_batch is None:
            baseline_seconds, baseline_batch = seconds, batch
        else:
            # Determinism contract at benchmark scale.
            assert np.array_equal(batch.offsets, baseline_batch.offsets)
            assert np.array_equal(batch.nodes, baseline_batch.nodes)
        speedups[jobs] = baseline_seconds / max(seconds, 1e-12)
        rows.append(
            {
                "scale": bench_scale.name,
                "nodes": pool_graph.n,
                "edges": pool_graph.m,
                "theta": theta,
                "n_jobs": jobs,
                "cpus_available": available_cpus(),
                "seconds": seconds,
                "speedup_vs_1_job": speedups[jobs],
            }
        )

    write_rows_csv(rows, OUTPUT_DIR / "parallel_scaling.csv")
    write_rows_json(rows, OUTPUT_DIR / "parallel_scaling.json")

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1" and available_cpus() >= 4:
        assert speedups[4] >= REQUIRED_SPEEDUP_AT_4, (
            f"4-thread pool only {speedups[4]:.2f}x faster than 1 thread "
            f"(theta={theta}, n={pool_graph.n}, cpus={available_cpus()})"
        )
