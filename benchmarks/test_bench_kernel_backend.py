"""Microbenchmarks of the compiled kernel backend vs. ``"vectorized"``.

For the ``native`` backend, when the registry reports it available on
this machine (a C compiler), two series at
``REPRO_BENCH_SCALE``-controlled sizes:

* **generate** — one RR batch of ``theta`` sets through
  :func:`repro.sampling.engine.generate_rr_batch`;
* **simulate** — a forward-IC cascade batch over high-degree seeds
  through :func:`repro.diffusion.mc_engine.simulate_ic_batch`.

Both series re-assert the registry's core contract inline: the compiled
batch must equal the ``"vectorized"`` batch *bit for bit* (same flat
offsets, same node arrays) because every backend consumes the identical
RNG stream.  Equality is checked unconditionally on every run — a
benchmark that got faster by drifting off the stream must fail here,
not in a nightly differential suite.

The measured series is recorded to ``benchmarks/output/kernel_backend.csv``
and its machine-readable twin ``benchmarks/output/kernel_backend.json``.
The ISSUE's acceptance bar — compiled generate and simulate at least 3x
faster than ``"vectorized"`` at the ``small`` scale — is asserted when
``REPRO_BENCH_REQUIRE_SPEEDUP=1`` is set.  Opt-in because wall-clock
factors depend on the host (a loaded CI runner distorts both sides);
the series itself is always recorded.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, OUTPUT_DIR
from benchmarks.test_bench_rr_engine import ENGINE_SCALES
from repro import kernels
from repro.diffusion.mc_engine import simulate_ic_batch
from repro.experiments.reporting import write_rows_csv, write_rows_json
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade
from repro.sampling.engine import generate_rr_batch

#: The backends this module benchmarks: native, when it is available.
COMPILED_BACKENDS = ("native",) if "native" in kernels.available_backends() else ()

#: Acceptance bar: compiled generate/simulate vs the vectorized reference
#: (asserted only with ``REPRO_BENCH_REQUIRE_SPEEDUP=1``).
REQUIRED_SPEEDUP = 3.0

#: Forward-simulation workload: seed-set size and cascade count.
SIMULATE_SEEDS = 50
SIMULATE_CASCADES = {"smoke": 500, "small": 2_000, "paper": 4_000}


@pytest.fixture(scope="module")
def engine_params(bench_scale):
    return ENGINE_SCALES.get(bench_scale.name, ENGINE_SCALES["smoke"])


@pytest.fixture(scope="module")
def engine_graph(engine_params):
    graph = generators.barabasi_albert(
        engine_params["nodes"], 4, random_state=BENCH_SEED
    )
    return weighted_cascade(graph)


@pytest.fixture(scope="module")
def seed_set(engine_graph):
    by_degree = np.argsort(-engine_graph.out_degrees)
    return by_degree[:SIMULATE_SEEDS].astype(np.int64)


def _best_of(function, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _generate(graph, theta, backend):
    # A fresh generator per timed call keeps every backend on the exact
    # same stream (and makes the bit-for-bit comparison meaningful).
    rng = np.random.default_rng(BENCH_SEED)
    return generate_rr_batch(graph, theta, rng, backend=backend)


def _simulate(graph, seeds, cascades, backend):
    rng = np.random.default_rng(BENCH_SEED)
    return simulate_ic_batch(graph, seeds, cascades, random_state=rng, backend=backend)


def test_bench_kernel_backend_series(
    engine_graph, engine_params, bench_scale, seed_set
):
    assert COMPILED_BACKENDS, (
        "no compiled kernel backend available on this machine "
        f"(registered: {kernels.registered_backends()})"
    )
    theta = engine_params["theta"]
    cascades = SIMULATE_CASCADES.get(bench_scale.name, SIMULATE_CASCADES["smoke"])

    # Warm-up outside timing: JIT/compile caches, page in the CSR.
    for backend in COMPILED_BACKENDS:
        kernels.warm_up(backend)
        _generate(engine_graph, min(theta, 200), backend)

    gen_ref_seconds, gen_ref = _best_of(
        lambda: _generate(engine_graph, theta, "vectorized")
    )
    sim_ref_seconds, sim_ref = _best_of(
        lambda: _simulate(engine_graph, seed_set, cascades, "vectorized"), repeats=3
    )

    rows = []
    speedups = {}
    for backend in COMPILED_BACKENDS:
        gen_seconds, gen_batch = _best_of(
            lambda: _generate(engine_graph, theta, backend)
        )
        sim_seconds, sim_batch = _best_of(
            lambda: _simulate(engine_graph, seed_set, cascades, backend), repeats=3
        )

        # The registry contract, re-checked at benchmark scale: compiled
        # batches equal the vectorized reference bit for bit.
        assert np.array_equal(gen_batch.offsets, gen_ref.offsets)
        assert np.array_equal(gen_batch.nodes, gen_ref.nodes)
        assert np.array_equal(sim_batch.offsets, sim_ref.offsets)
        assert np.array_equal(sim_batch.nodes, sim_ref.nodes)

        for metric, compiled_seconds, reference_seconds, workload in (
            ("generate", gen_seconds, gen_ref_seconds, theta),
            ("simulate", sim_seconds, sim_ref_seconds, cascades),
        ):
            speedup = reference_seconds / max(compiled_seconds, 1e-12)
            speedups[(backend, metric)] = speedup
            rows.append(
                {
                    "scale": bench_scale.name,
                    "nodes": engine_graph.n,
                    "edges": engine_graph.m,
                    "backend": backend,
                    "metric": metric,
                    "workload": workload,
                    "compiled_seconds": compiled_seconds,
                    "reference_seconds": reference_seconds,
                    "speedup": speedup,
                    "bit_identical": True,
                }
            )

    write_rows_csv(rows, OUTPUT_DIR / "kernel_backend.csv")
    write_rows_json(rows, OUTPUT_DIR / "kernel_backend.json")

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1":
        for (backend, metric), speedup in speedups.items():
            assert speedup >= REQUIRED_SPEEDUP, (
                f"backend {backend!r} only {speedup:.2f}x faster than "
                f"'vectorized' on {metric} (theta={theta}, "
                f"cascades={cascades}, n={engine_graph.n})"
            )
