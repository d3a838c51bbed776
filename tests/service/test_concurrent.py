"""S3 — concurrency semantics of the served state.

Many interleaved asyncio clients hammer one :class:`ServiceState` through
the batcher and the HTTP server; every answer must be bit-for-bit the
answer sequential unbatched execution produces, however the requests
happen to coalesce, and the deterministic mode must reproduce its pinned
RNG stream under concurrency.

No pytest-asyncio: each test drives its own loop with ``asyncio.run``.
"""

import asyncio

import pytest

from repro.graphs.generators import erdos_renyi
from repro.graphs.toy import toy_costs, toy_graph
from repro.service.api import SeedingServer
from repro.service.batcher import RequestBatcher
from repro.service.loadgen import ServiceClient, build_query_stream
from repro.service.state import ServiceState

SEED = 77
NUM_SAMPLES = 300


def fresh_state():
    state = ServiceState(num_samples=NUM_SAMPLES, mc_simulations=100, seed=SEED)
    state.register_graph(toy_graph(), costs=toy_costs())
    return state


def strip(answer):
    """Drop the transport-only ``cached`` flag before comparing answers."""
    return {k: v for k, v in answer.items() if k != "cached"}


def sequential_reference(queries):
    """The ground truth: one fresh state answering one query at a time."""
    with fresh_state() as state:
        return [strip(state.query(dict(q))) for q in queries]


@pytest.fixture(scope="module")
def workload():
    queries = build_query_stream(60, 7, seed=123, mc_simulations=60)
    return queries, sequential_reference(queries)


class TestInterleavedClientsThroughBatcher:
    def test_concurrent_submits_match_sequential(self, workload):
        queries, reference = workload

        async def scenario():
            with fresh_state() as state:
                batcher = RequestBatcher(
                    state.execute_batch, window_ms=10.0, max_batch=16
                )
                answers = await asyncio.gather(
                    *(batcher.submit(dict(q)) for q in queries)
                )
                await batcher.aclose()
                return [strip(a) for a in answers], batcher.stats

        answers, stats = asyncio.run(scenario())
        assert answers == reference
        # The run must actually have coalesced — otherwise this test
        # degenerates into the sequential case it is meant to contrast.
        assert stats.coalesced_batches >= 1
        assert stats.max_batch_size > 1

    def test_staggered_arrival_does_not_change_answers(self, workload):
        queries, reference = workload

        async def scenario():
            with fresh_state() as state:
                batcher = RequestBatcher(state.execute_batch, window_ms=2.0)

                async def client(indices):
                    out = {}
                    for i in indices:
                        out[i] = strip(await batcher.submit(dict(queries[i])))
                        await asyncio.sleep(0)
                    return out

                # Four clients walk disjoint striped slices concurrently,
                # so batches mix unrelated queries in arbitrary ways.
                slices = [range(k, len(queries), 4) for k in range(4)]
                merged = {}
                for part in await asyncio.gather(*(client(s) for s in slices)):
                    merged.update(part)
                await batcher.aclose()
                return [merged[i] for i in range(len(queries))]

        answers = asyncio.run(scenario())
        assert answers == reference


class TestInterleavedClientsOverHTTP:
    def test_http_fanout_matches_sequential(self, workload):
        queries, reference = workload

        async def scenario():
            server = SeedingServer(fresh_state(), port=0, window_ms=10.0)
            await server.start()
            clients = [ServiceClient("127.0.0.1", server.port) for _ in range(8)]
            try:

                async def drive(client, indices):
                    out = {}
                    for i in indices:
                        status, answer = await client.request(
                            "POST", "/query", queries[i]
                        )
                        assert status == 200, answer
                        out[i] = strip(answer)
                    return out

                slices = [range(k, len(queries), 8) for k in range(8)]
                merged = {}
                for part in await asyncio.gather(
                    *(drive(c, s) for c, s in zip(clients, slices))
                ):
                    merged.update(part)
                metrics = server.metrics()
            finally:
                for c in clients:
                    await c.aclose()
                await server.close()
            return [merged[i] for i in range(len(queries))], metrics

        answers, metrics = asyncio.run(scenario())
        assert answers == reference
        assert metrics["batcher"]["max_batch_size"] > 1
        # The hot pool of the workload must have produced cache hits
        # (fast-path or in-batch), observable in the counters.
        state_hits = metrics["state"]["answer_cache"]["hits"]
        assert state_hits + metrics["server"]["cache_fast_hits"] > 0


class TestDeterministicModeUnderConcurrency:
    def test_pinned_stream_survives_concurrent_fanout(self):
        # The same pinned literals as TestDeterminismContract in
        # test_state.py — now produced under concurrent batched load.
        probes = [
            {"op": "spread", "seeds": [1, 2]},
            {"op": "topk", "k": 2},
            {"op": "mc_spread", "seeds": [1], "simulations": 64},
        ]

        async def scenario():
            with ServiceState(num_samples=300, seed=42) as state:
                state.register_graph(toy_graph())
                batcher = RequestBatcher(state.execute_batch, window_ms=10.0)
                noise = [
                    {"op": "spread", "seeds": [i % 7]} for i in range(20)
                ]
                results = await asyncio.gather(
                    *(batcher.submit(q) for q in noise + probes)
                )
                await batcher.aclose()
                return results[len(noise):]

        spread, topk, mc = asyncio.run(scenario())
        assert spread["spread"] == pytest.approx(2.7533333333333334)
        assert topk["seeds"] == [5, 1]
        assert mc["spread"] == pytest.approx(2.859375)

    def test_two_concurrent_runs_agree(self):
        graph = erdos_renyi(40, 0.08, random_state=5)
        queries = build_query_stream(30, 40, seed=9, mc_simulations=50)

        async def run_once():
            with ServiceState(num_samples=250, seed=3) as state:
                state.register_graph(graph)
                batcher = RequestBatcher(state.execute_batch, window_ms=5.0)
                answers = await asyncio.gather(
                    *(batcher.submit(dict(q)) for q in queries)
                )
                await batcher.aclose()
                return [strip(a) for a in answers]

        assert asyncio.run(run_once()) == asyncio.run(run_once())
