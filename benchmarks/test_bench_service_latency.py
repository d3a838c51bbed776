"""Latency/throughput benchmark of the long-lived seeding service.

Boots an in-process :class:`~repro.service.api.SeedingServer` on an
ephemeral port, drives the deterministic mixed workload of
:mod:`repro.service.loadgen` in both driving modes — a closed loop at
fixed concurrency (the throughput ceiling) and an open loop at a fixed
arrival rate (latency under offered load) — and writes the measured
series to ``benchmarks/output/service_latency.{csv,json}`` so the
service's perf trajectory stays diffable across PRs.

Assertions pin the *mechanisms*, not host-dependent wall-clock:

* the answer cache serves a non-zero share of the hot-pool repeats;
* coalescing is observable (at least one executed batch bundled > 1
  request — queries that arrive while a batch runs pile up behind it);
* no query errors, and p99 stays under a deliberately generous bound
  that only a hung batch or a leaked future would breach.
"""

from __future__ import annotations

import asyncio
import os

from benchmarks.conftest import OUTPUT_DIR
from repro.service.api import SeedingServer
from repro.service.cli import build_service_state
from repro.service.loadgen import build_query_stream, run_load
from repro.experiments.reporting import write_rows_csv, write_rows_json

#: Master seed of the benchmark workload (matches the other benches).
BENCH_SEED = 2020

#: Generous p99 bound (ms): catches hangs, not host speed differences.
P99_BOUND_MS = 2000.0

#: Queries per driving mode per scale.
QUERY_COUNTS = {"smoke": 150, "small": 400, "paper": 1000}


async def _drive_mode(server, mode, num_queries, **kwargs):
    queries = build_query_stream(
        num_queries,
        server.state.entry().graph.n,
        seed=BENCH_SEED,
        mc_simulations=100,
    )
    return await run_load("127.0.0.1", server.port, queries, mode=mode, **kwargs)


def test_bench_service_latency():
    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    num_queries = QUERY_COUNTS.get(scale, QUERY_COUNTS["smoke"])

    async def scenario():
        state = build_service_state(
            dataset="nethept",
            nodes=400,
            num_samples=1500,
            mc_simulations=100,
            seed=BENCH_SEED,
        )
        server = SeedingServer(state, port=0)
        try:
            await server.start()
            closed = await _drive_mode(
                server, "closed", num_queries, concurrency=8
            )
            opened = await _drive_mode(
                server, "open", num_queries, concurrency=32, rate=200.0
            )
        finally:
            await server.close()
        return closed, opened

    closed, opened = asyncio.run(scenario())

    rows = [
        closed.row(dataset="nethept", seed=BENCH_SEED, scale=scale),
        opened.row(dataset="nethept", seed=BENCH_SEED, scale=scale),
    ]
    write_rows_csv(rows, OUTPUT_DIR / "service_latency.csv")
    write_rows_json(rows, OUTPUT_DIR / "service_latency.json")

    for result, row in ((closed, rows[0]), (opened, rows[1])):
        assert result.errors == 0, row
        assert result.completed == num_queries, row
        assert result.percentile(99) < P99_BOUND_MS, row
    # The hot pool must have produced answer-cache hits, and concurrent
    # queries must have observably coalesced.
    assert rows[0]["cache_hits"] + rows[1]["cache_hits"] > 0, rows
    assert max(rows[0]["max_batch_size"], rows[1]["max_batch_size"]) > 1, rows
