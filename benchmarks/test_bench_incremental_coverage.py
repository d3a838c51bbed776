"""Benchmark of the counter-based greedy over one RR collection.

Counter-based ``greedy_max_coverage`` (whole-array argmax over live
marginal counts) against the historical per-candidate rescan on the same
collection: identical picks asserted, at least 5x faster.  The series is
written to ``benchmarks/output/incremental_coverage.csv`` / ``.json``
(machine-readable, diffable across changes).

Sizes follow ``REPRO_BENCH_SCALE`` (``smoke``: 10k nodes / θ=2k —
CI-friendly; ``small``: 50k / 8k; ``paper``: 200k / 20k).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import BENCH_SEED, OUTPUT_DIR
from benchmarks.test_bench_rr_engine import ENGINE_SCALES
from tests.baselines.test_imm import rescan_greedy_reference
from repro.baselines.imm import greedy_max_coverage
from repro.experiments.reporting import write_rows_csv, write_rows_json
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade
from repro.sampling.flat_collection import FlatRRCollection

#: Acceptance bar: wall-clock speedup over the rescan.
REQUIRED_GREEDY_SPEEDUP = 5.0

#: Greedy picks per scale (kept modest so the rescan reference stays
#: affordable at the larger scales).
GREEDY_K = 25

_ROWS = []


@pytest.fixture(scope="module")
def scale_params(bench_scale):
    return ENGINE_SCALES.get(bench_scale.name, ENGINE_SCALES["smoke"])


@pytest.fixture(scope="module")
def bench_graph(scale_params):
    graph = generators.barabasi_albert(
        scale_params["nodes"], 4, random_state=BENCH_SEED
    )
    return weighted_cascade(graph)


def test_bench_greedy_selection(bench_graph, scale_params, bench_scale):
    theta = scale_params["theta"]
    collection = FlatRRCollection.generate(bench_graph, theta, BENCH_SEED)
    collection.sets_containing(0)  # build the inverted index outside timing

    start = time.perf_counter()
    counter_result = greedy_max_coverage(collection, GREEDY_K)
    counter_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rescan_result = rescan_greedy_reference(collection, GREEDY_K)
    rescan_seconds = time.perf_counter() - start

    assert counter_result == rescan_result  # pick-for-pick identical
    speedup = rescan_seconds / max(counter_seconds, 1e-12)
    _ROWS.append(
        {
            "scale": bench_scale.name,
            "nodes": bench_graph.n,
            "edges": bench_graph.m,
            "theta": theta,
            "metric": "greedy_selection",
            "k": GREEDY_K,
            "counter_seconds": counter_seconds,
            "rescan_seconds": rescan_seconds,
            "speedup": speedup,
        }
    )
    assert speedup >= REQUIRED_GREEDY_SPEEDUP, (
        f"counter-based greedy only {speedup:.1f}x faster than the rescan "
        f"(theta={theta}, n={bench_graph.n})"
    )


@pytest.fixture(scope="module", autouse=True)
def _write_series():
    yield
    if _ROWS:
        write_rows_csv(_ROWS, OUTPUT_DIR / "incremental_coverage.csv")
        write_rows_json(_ROWS, OUTPUT_DIR / "incremental_coverage.json")
