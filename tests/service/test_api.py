"""End-to-end tests of the asyncio HTTP API: round-trips on an ephemeral
port, the error surface, graceful shutdown — including SIGTERM landing
mid-batch in a real subprocess — and shared-memory hygiene.

No pytest-asyncio: each test drives its own loop with ``asyncio.run``.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.graphs.toy import toy_costs, toy_graph
from repro.service.api import SeedingServer
from repro.service.loadgen import ServiceClient
from repro.service.state import ServiceState

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_state():
    state = ServiceState(num_samples=300, mc_simulations=100, seed=7)
    state.register_graph(toy_graph(), costs=toy_costs())
    return state


def make_server(state=None, **kwargs):
    if state is None:
        state = make_state()
    return SeedingServer(state, port=0, **kwargs)


async def with_server(scenario, **kwargs):
    """Boot an ephemeral-port server, run ``scenario(server, client)``."""
    server = make_server(**kwargs)
    await server.start()
    client = ServiceClient("127.0.0.1", server.port)
    try:
        return await scenario(server, client)
    finally:
        await client.aclose()
        await server.close()


class TestRoundTrips:
    def test_healthz_and_query(self):
        async def scenario(server, client):
            status, health = await client.request("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["versions"] == ["g0"]
            status, answer = await client.request(
                "POST", "/query", {"op": "spread", "seeds": [1, 2]}
            )
            assert status == 200
            assert answer["spread"] > 0
            assert answer["cached"] is False
            return answer

        first = asyncio.run(with_server(scenario))

        async def repeat(server, client):
            await client.request("POST", "/query", {"op": "spread", "seeds": [1, 2]})
            status, answer = await client.request(
                "POST", "/query", {"op": "spread", "seeds": [1, 2]}
            )
            metrics = server.metrics()
            return answer, metrics

        answer, metrics = asyncio.run(with_server(repeat))
        # The repeat takes the cache fast path and reproduces the answer.
        assert answer["cached"] is True
        assert answer["spread"] == first["spread"]
        assert metrics["server"]["cache_fast_hits"] == 1

    def test_all_operations_over_http(self):
        async def scenario(server, client):
            answers = {}
            for payload in (
                {"op": "spread", "seeds": [0], "removed": [5]},
                {"op": "marginal", "node": 4, "conditioning": [1]},
                {"op": "topk", "k": 2, "budget": 4.0},
                {"op": "mc_spread", "seeds": [2], "simulations": 50},
            ):
                status, answer = await client.request("POST", "/query", payload)
                assert status == 200, answer
                answers[payload["op"]] = answer
            return answers

        answers = asyncio.run(with_server(scenario))
        assert answers["topk"]["cost"] <= 4.0
        assert answers["mc_spread"]["simulations"] == 50

    def test_concurrent_clients_coalesce(self, hold):
        async def scenario(server, client):
            clients = [ServiceClient("127.0.0.1", server.port) for _ in range(6)]
            try:
                payloads = [{"op": "spread", "seeds": [i]} for i in range(6)]
                requests = [
                    asyncio.ensure_future(c.request("POST", "/query", p))
                    for c, p in zip(clients, payloads)
                ]
                # The first batch holds the batch thread until all six
                # queries have been submitted behind it.
                await hold.release_when_submitted(server.batcher, 6)
                results = await asyncio.gather(*requests)
            finally:
                for c in clients:
                    await c.aclose()
            assert all(status == 200 for status, _ in results)
            return server.metrics()

        state = make_state()
        state.execute_batch = hold.wrap(state.execute_batch)
        metrics = asyncio.run(with_server(scenario, state=state))
        # Observable coalescing: six concurrent queries, > 1 per batch.
        assert metrics["batcher"]["max_batch_size"] > 1

    def test_metrics_endpoint_shape(self):
        async def scenario(server, client):
            for seeds in ([1], [1], [2]):
                await client.request("POST", "/query", {"op": "spread", "seeds": seeds})
            status, metrics = await client.request("GET", "/metrics")
            assert status == 200
            return metrics

        metrics = asyncio.run(with_server(scenario))
        answer_cache = metrics["state"]["answer_cache"]
        # One hit or miss per query: the batch's re-check of a cold query
        # does not count it a second time.
        assert (answer_cache["hits"], answer_cache["misses"]) == (1, 2)
        assert answer_cache["hit_rate"] == pytest.approx(1 / 3)
        assert metrics["batcher"]["requests"] == 2
        assert metrics["server"]["requests_served"] >= 3


class TestErrorSurface:
    def test_bad_json_is_400(self):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            body = b"{not json"
            writer.write(
                b"POST /query HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return status_line

        status_line = asyncio.run(with_server(scenario))
        assert b"400" in status_line

    def test_unknown_op_is_400(self):
        async def scenario(server, client):
            return await client.request("POST", "/query", {"op": "explode"})

        status, payload = asyncio.run(with_server(scenario))
        assert status == 400
        assert "unknown op" in payload["error"]

    def test_out_of_range_node_is_400(self):
        async def scenario(server, client):
            bad = await client.request("POST", "/query", {"op": "spread", "seeds": [0, 999]})
            good = await client.request("POST", "/query", {"op": "spread", "seeds": [0]})
            return bad, good

        (bad_status, bad), (good_status, good) = asyncio.run(with_server(scenario))
        assert bad_status == 400
        assert bad["error"] == "seeds: node id 999 is outside [0, 7)"
        assert good_status == 200 and good["seeds"] == [0]

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"op": "topk", "k": "x"}, "k"),
            ({"op": "topk", "k": 2, "budget": "x"}, "budget"),
            ({"op": "mc_spread", "seeds": [1], "simulations": "x"}, "simulations"),
            ({"op": "spread", "seeds": [1], "samples": "x"}, "samples"),
            ({"op": "spread", "seeds": [1], "removed": [None]}, "removed"),
            ({"op": "spread", "seeds": "12"}, "seeds"),
            ({"op": "topk", "k": 2.7}, "k"),
            ({"op": "spread", "seeds": [1], "deadline_ms": "x"}, "deadline_ms"),
            ({"op": "spread", "seeds": [1], "deadline_ms": [5]}, "deadline_ms"),
            ({"op": "spread", "seeds": [1], "deadline_ms": float("nan")}, "deadline_ms"),
        ],
    )
    def test_bad_field_is_400_and_spares_its_batchmates(self, bad, field):
        good = {"op": "spread", "seeds": [1]}

        async def scenario(server, client):
            other = ServiceClient("127.0.0.1", server.port)
            try:
                return await asyncio.gather(
                    client.request("POST", "/query", bad),
                    other.request("POST", "/query", good),
                )
            finally:
                await other.aclose()

        async def alone(server, client):
            return await client.request("POST", "/query", good)

        (bad_status, bad_answer), (good_status, good_answer) = asyncio.run(
            with_server(scenario)
        )
        assert bad_status == 400
        assert bad_answer["code"] == "invalid"
        assert bad_answer["error"].startswith(field)
        assert (good_status, good_answer) == asyncio.run(with_server(alone))

    def test_refused_query_never_reaches_the_cache(self):
        # A query that fails admission is answered before any cache
        # lookup, whatever the cache holds.
        bad = {"op": "spread", "seeds": [0, 999]}

        async def scenario(server, client):
            await client.request("POST", "/query", {"op": "spread", "seeds": [0]})
            lookups = server.state.answer_cache.stats.queries
            reply = await client.request("POST", "/query", bad)
            assert server.state.answer_cache.stats.queries == lookups
            return reply, server.metrics()

        (status, answer), metrics = asyncio.run(with_server(scenario))
        assert status == 400
        assert answer == {"error": "seeds: node id 999 is outside [0, 7)", "code": "invalid"}
        assert metrics["server"]["cache_fast_hits"] == 0
        assert metrics["batcher"]["requests"] == 1

    def test_unknown_path_is_404_and_get_query_is_405(self):
        async def scenario(server, client):
            missing = await client.request("GET", "/nope")
            wrong_method = await client.request("GET", "/query")
            return missing, wrong_method

        (s404, _), (s405, p405) = asyncio.run(with_server(scenario))
        assert s404 == 404
        assert s405 == 405 and "POST" in p405["error"]

    def test_non_object_body_is_400(self):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            body = json.dumps([1, 2, 3]).encode()
            writer.write(
                b"POST /query HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return status_line

        status_line = asyncio.run(with_server(scenario))
        assert b"400" in status_line


class TestNoBatchWindow:
    def test_server_takes_no_window(self):
        with make_state() as state:
            with pytest.raises(TypeError):
                SeedingServer(state, port=0, window_ms=5.0)

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_batch_ms_is_not_an_option(self, command, capsys):
        from repro.service import cli

        parser = {
            "serve": cli._build_serve_parser,
            "loadgen": cli._build_loadgen_parser,
        }[command]()
        with pytest.raises(SystemExit):
            parser.parse_args(["--batch-ms", "5"])
        assert "unrecognized arguments: --batch-ms" in capsys.readouterr().err


class TestShutdown:
    def test_post_shutdown_stops_serve_forever(self):
        async def scenario():
            server = make_server()
            await server.start()
            serving = asyncio.ensure_future(
                server.serve_forever(install_signal_handlers=False)
            )
            client = ServiceClient("127.0.0.1", server.port)
            try:
                status, _ = await client.request("POST", "/shutdown")
                assert status == 200
            finally:
                await client.aclose()
            await asyncio.wait_for(serving, timeout=10.0)
            return server

        server = asyncio.run(scenario())
        assert server.closed
        assert server.state.closed

    def test_close_is_idempotent(self):
        async def scenario():
            server = make_server()
            await server.start()
            await server.close()
            await server.close()
            return server

        server = asyncio.run(scenario())
        assert server.closed and server.state.closed

    def test_queries_after_close_are_rejected(self):
        async def scenario():
            server = make_server()
            await server.start()
            await server.close()
            status, payload = await server._dispatch(
                "POST", "/query", json.dumps({"op": "spread", "seeds": [1]}).encode()
            )
            return status, payload

        status, payload = asyncio.run(scenario())
        assert status == 503
        assert "shutting down" in payload["error"]


class TestSigtermSubprocess:
    """S6: SIGTERM mid-traffic must shut the real server down cleanly."""

    def test_sigterm_mid_batch_exits_cleanly(self, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            PYTHONUNBUFFERED="1",
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "serve",
                "--port",
                "0",
                "--samples",
                "400",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on http://" in banner, banner
            port = int(banner.rsplit(":", 1)[1].split()[0])

            async def fire_and_kill():
                clients = [ServiceClient("127.0.0.1", port) for _ in range(4)]
                try:
                    tasks = [
                        asyncio.ensure_future(
                            c.request(
                                "POST",
                                "/query",
                                {"op": "mc_spread", "seeds": [i], "simulations": 400},
                            )
                        )
                        for i, c in enumerate(clients)
                    ]
                    await asyncio.sleep(0.05)  # let the queries reach the batcher
                    proc.send_signal(signal.SIGTERM)  # lands mid-batch
                    done = await asyncio.gather(*tasks, return_exceptions=True)
                finally:
                    for c in clients:
                        await c.aclose()
                return done

            outcomes = asyncio.run(fire_and_kill())
            # In-flight queries either complete (drained) or see the socket
            # close — never hang; the gather above must not time out.
            assert len(outcomes) == 4
            assert proc.wait(timeout=20) == 0, proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
