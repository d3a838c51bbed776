"""Resilience benchmark: the service under deadlines, shedding and chaos.

Boots in-process servers in four configurations and drives the
deterministic mixed workload against each:

* ``baseline`` — no resilience knobs (the PR-7 behaviour);
* ``deadline`` — a deliberately hopeless 1 ms default deadline, so cold
  queries 504/degrade while warm cache hits keep answering;
* ``shed`` — ``max_inflight=1`` under concurrency 8, forcing structured
  429s from admission control;
* ``chaos`` — a service-tier fault plan injecting a delay and a reject
  mid-run.

The committed series is ``benchmarks/output/service_resilience.{csv,json}``.
Assertions pin the chaos invariant, not host speed:

* **zero hung connections** — every driven query is accounted for as a
  completion, a structured shed, or a structured deadline (errors == 0);
* **zero wrong answers** — every 200 the loaded server produced for the
  hot-pool queries equals the bit-for-bit reference of an unloaded,
  unfaulted in-process state;
* each non-baseline phase actually exercised its mechanism (sheds,
  deadline expiries, injected faults > 0), and every server finishes
  healthy.
"""

from __future__ import annotations

import asyncio
import os

from benchmarks.conftest import OUTPUT_DIR
from repro.parallel.faults import FaultPlan
from repro.service.api import SeedingServer
from repro.service.cli import build_service_state
from repro.service.loadgen import ServiceClient, build_query_stream, run_load
from repro.experiments.reporting import write_rows_csv, write_rows_json

BENCH_SEED = 2020

#: Generous p99 bound (ms): catches hangs, not host speed differences.
P99_BOUND_MS = 2000.0

QUERY_COUNTS = {"smoke": 120, "small": 300, "paper": 800}

DATASET = "nethept"
NODES = 400
NUM_SAMPLES = 1200


def _make_state(fault_plan=None):
    return build_service_state(
        dataset=DATASET,
        nodes=NODES,
        num_samples=NUM_SAMPLES,
        mc_simulations=100,
        seed=BENCH_SEED,
        fault_plan=fault_plan,
    )


async def _run_phase(phase, num_queries, *, fault_plan=None, **server_kwargs):
    state = _make_state(fault_plan)
    server = SeedingServer(state, port=0, **server_kwargs)
    hot_answers = {}
    try:
        await server.start()
        queries = build_query_stream(
            num_queries, state.entry().graph.n, seed=BENCH_SEED,
            mc_simulations=100,
        )
        result = await run_load(
            "127.0.0.1", server.port, queries, mode="closed", concurrency=8
        )
        # Re-ask the hot-pool queries once each with no pressure: every
        # 200 must now be the true answer (compared against the clean
        # reference below — the "zero wrong answers" checksum).
        client = ServiceClient("127.0.0.1", server.port)
        try:
            for query in _hot_pool(state.entry().graph.n):
                status, answer = await client.request("POST", "/query", query)
                if status == 200:
                    hot_answers[_key(query)] = _strip(answer)
        finally:
            await client.aclose()
    finally:
        await server.close()
    return result, hot_answers


def _hot_pool(num_nodes):
    stream = build_query_stream(
        200, num_nodes, seed=BENCH_SEED, mc_simulations=100
    )
    seen, pool = set(), []
    for query in stream:
        key = _key(query)
        if query["op"] == "spread" and key not in seen:
            seen.add(key)
            pool.append(query)
    return pool[:8]


def _key(query):
    return (query["op"], tuple(query.get("seeds") or ()))


def _strip(answer):
    return {
        k: v for k, v in answer.items() if k not in ("cached", "degraded")
    }


def test_bench_service_resilience():
    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    num_queries = QUERY_COUNTS.get(scale, QUERY_COUNTS["smoke"])

    async def scenario():
        phases = {}
        phases["baseline"] = await _run_phase("baseline", num_queries)
        phases["deadline"] = await _run_phase(
            "deadline", num_queries, deadline_ms=1.0
        )
        phases["shed"] = await _run_phase("shed", num_queries, max_inflight=1)
        phases["chaos"] = await _run_phase(
            "chaos",
            num_queries,
            fault_plan=FaultPlan.from_spec(
                "delay:service:3:0.05,reject:service:7"
            ),
        )
        return phases

    phases = asyncio.run(scenario())

    # The clean reference: an unloaded, unfaulted in-process state.
    reference_state = _make_state()
    try:
        reference = {
            _key(q): _strip(reference_state.query(q))
            for q in _hot_pool(reference_state.entry().graph.n)
        }
    finally:
        reference_state.close()

    rows = []
    wrong_answers = 0
    for phase, (result, hot_answers) in phases.items():
        accounted = (
            result.completed + result.shed + result.deadline_expired
            + result.errors
        )
        row = result.row(
            phase=phase,
            dataset=DATASET,
            seed=BENCH_SEED,
            scale=scale,
            accounted=accounted,
            wrong_answers=sum(
                1
                for key, answer in hot_answers.items()
                if answer != reference[key]
            ),
        )
        wrong_answers += row["wrong_answers"]
        rows.append(row)
    write_rows_csv(rows, OUTPUT_DIR / "service_resilience.csv")
    write_rows_json(rows, OUTPUT_DIR / "service_resilience.json")

    by_phase = {row["phase"]: row for row in rows}
    for phase, row in by_phase.items():
        # Zero hung connections: everything driven is accounted for, and
        # nothing was a transport error or an unstructured failure.
        assert row["errors"] == 0, row
        assert row["accounted"] == num_queries, row
        assert row["healthy"] is True, row
        assert row["p99_ms"] < P99_BOUND_MS, row
    # Zero wrong-answer checksums across every phase.
    assert wrong_answers == 0, rows
    # Each mechanism demonstrably fired.
    assert by_phase["baseline"]["shed"] == 0, by_phase["baseline"]
    assert by_phase["baseline"]["deadline_expired"] == 0, by_phase["baseline"]
    assert by_phase["deadline"]["deadline_expired"] > 0, by_phase["deadline"]
    assert by_phase["shed"]["shed"] > 0, by_phase["shed"]
    assert (
        by_phase["chaos"]["queries"] + by_phase["chaos"]["shed"] > 0
    ), by_phase["chaos"]
