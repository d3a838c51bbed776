"""Service resilience: deadlines, admission control, degraded answers.

Covers the three layers separately and end to end:

* :mod:`repro.service.resilience` — knob resolution, the
  structured-error-answer convention and its typed inverse;
* :class:`ServiceState` — deadlines armed at admission, expired queries
  answered in place (poison isolation), degraded cache fallbacks,
  per-query θ overrides;
* :class:`SeedingServer` — 429 shedding at the inflight bound, 504
  deadline responses, degraded 200s, and the enriched ``/healthz``
  verdict.
"""

import asyncio
import dataclasses
import time

import pytest

from repro.graphs.toy import toy_costs, toy_graph
from repro.service.api import SeedingServer
from repro.service.loadgen import ServiceClient
from repro.service.resilience import (
    error_answer,
    error_status,
    is_error_answer,
    raise_error_answer,
    resolve_deadline_ms,
    resolve_max_inflight,
)
from repro.service.state import ServiceState
from repro.utils.exceptions import (
    DeadlineExceeded,
    InjectedFault,
    ServiceOverloadError,
    ValidationError,
    WorkerError,
)


def make_state(**kwargs):
    kwargs.setdefault("num_samples", 300)
    kwargs.setdefault("mc_simulations", 100)
    kwargs.setdefault("seed", 7)
    state = ServiceState(**kwargs)
    state.register_graph(toy_graph(), costs=toy_costs())
    return state


def stamp_expired(state, request):
    """``request`` admitted with a deadline that passed before execution."""
    return dataclasses.replace(
        state.admit(request), deadline=time.monotonic() - 0.01
    )


class TestKnobs:
    def test_explicit_values_win_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DEADLINE_MS", "100")
        monkeypatch.setenv("REPRO_SERVICE_MAX_INFLIGHT", "6")
        assert resolve_deadline_ms(250.0) == 250.0
        assert resolve_max_inflight(10) == 10
        assert resolve_deadline_ms() == 100.0
        assert resolve_max_inflight() == 6

    def test_unset_means_unbounded(self):
        assert resolve_deadline_ms() is None
        assert resolve_max_inflight() is None

    @pytest.mark.parametrize("value", [0, -1])
    def test_bounds_must_be_positive(self, value):
        with pytest.raises(ValidationError):
            resolve_deadline_ms(value)
        with pytest.raises(ValidationError):
            resolve_max_inflight(value)

    def test_nan_deadline_rejected(self, monkeypatch):
        # A NaN deadline would never expire: NaN <= 0 is false.
        with pytest.raises(ValidationError):
            resolve_deadline_ms(float("nan"))
        monkeypatch.setenv("REPRO_SERVICE_DEADLINE_MS", "nan")
        with pytest.raises(ValidationError):
            resolve_deadline_ms()


class TestDeadlineStamping:
    """``admit`` arms the deadline once, as an absolute monotonic time."""

    def test_query_field_wins_over_default(self):
        with make_state() as state:
            query = state.admit(
                {"op": "spread", "deadline_ms": 50.0}, default_deadline_ms=5000.0
            )
        left = query.deadline - time.monotonic()
        assert 0 < left <= 0.05

    def test_default_applies_when_query_is_silent(self):
        with make_state() as state:
            query = state.admit({"op": "spread"}, default_deadline_ms=1000.0)
        assert query.deadline > time.monotonic()

    def test_no_deadline_leaves_request_untouched(self):
        request = {"op": "spread"}
        with make_state() as state:
            assert state.admit(request).deadline is None
        assert request == {"op": "spread"}

    def test_bad_deadline_rejected(self):
        with make_state() as state:
            with pytest.raises(ValidationError, match="^deadline_ms"):
                state.admit({"op": "spread", "deadline_ms": 0})


class TestErrorAnswers:
    @pytest.mark.parametrize(
        "exc, code, status, reraised",
        [
            (DeadlineExceeded("late"), "timeout", 504, DeadlineExceeded),
            (
                ServiceOverloadError("full", retry_after_ms=7.5),
                "shed", 429, ServiceOverloadError,
            ),
            (WorkerError("died", tier="service"), "worker", 500, WorkerError),
            # Worker-tier chaos collapses onto WorkerError on the way back:
            # the injection detail matters to the ladder, not to callers.
            (InjectedFault("chaos"), "worker", 500, WorkerError),
            (ValidationError("bad"), "invalid", 400, ValidationError),
        ],
    )
    def test_round_trip(self, exc, code, status, reraised):
        answer = error_answer(exc)
        assert is_error_answer(answer)
        assert answer["code"] == code
        assert error_status(answer) == status
        with pytest.raises(reraised):
            raise_error_answer(answer)

    def test_shed_answer_carries_retry_after(self):
        answer = error_answer(ServiceOverloadError("full", retry_after_ms=7.5))
        assert answer["retry_after_ms"] == 7.5

    def test_real_answers_pass_through(self):
        answer = {"op": "spread", "spread": 1.0}
        assert not is_error_answer(answer)
        raise_error_answer(answer)  # no-op


class TestStateDeadlines:
    def test_expired_query_is_answered_in_place(self):
        with make_state() as state:
            batch = [
                {"op": "spread", "seeds": [1]},
                stamp_expired(state, {"op": "spread", "seeds": [2]}),
                {"op": "topk", "k": 2},
            ]
            answers = state.execute_batch(batch)
            assert answers[0]["spread"] > 0
            assert answers[1]["code"] == "timeout"
            assert answers[2]["seeds"]
            assert state.metrics()["resilience"]["deadline_expired"] == 1

    def test_expired_query_with_exact_cache_hit_is_served_normally(self):
        # The cache-hit check runs before the deadline check on purpose: a
        # hit costs nothing, so an expired query with an exact cached
        # answer gets the real answer, not a 504 and not a degraded flag.
        with make_state() as state:
            warm = state.query({"op": "spread", "seeds": [1]})
            answer = state.execute_batch(
                [stamp_expired(state, {"op": "spread", "seeds": [1]})]
            )[0]
            assert answer["cached"] is True
            assert "degraded" not in answer
            assert answer["spread"] == warm["spread"]

    def test_query_restores_the_typed_raise(self):
        with make_state() as state:
            with pytest.raises(DeadlineExceeded):
                state.query(stamp_expired(state, {"op": "spread", "seeds": [1]}))

    def test_batchmates_survive_a_poison_request(self):
        with make_state() as state:
            answers = state.execute_batch(
                [
                    {"op": "spread", "seeds": [1]},
                    {"op": "nonsense"},
                    {"op": "marginal", "node": 2},
                ]
            )
            assert answers[0]["spread"] > 0
            assert answers[1]["code"] == "invalid"
            assert "unknown op" in answers[1]["error"]
            assert answers[2]["marginal_spread"] >= 0

    def test_error_answers_are_never_cached(self):
        with make_state() as state:
            state.execute_batch([stamp_expired(state, {"op": "spread", "seeds": [3]})])
            answer = state.query({"op": "spread", "seeds": [3]})
            assert answer["cached"] is False
            assert answer["spread"] > 0


class TestSamplesOverride:
    def test_override_is_cached_under_its_own_key(self):
        with make_state() as state:
            default = state.query({"op": "spread", "seeds": [1]})
            bigger = state.query({"op": "spread", "seeds": [1], "samples": 600})
            assert state.try_cached({"op": "spread", "seeds": [1]})["spread"] \
                == default["spread"]
            hit = state.try_cached({"op": "spread", "seeds": [1], "samples": 600})
            assert hit["spread"] == bigger["spread"]

    def test_override_matches_unbatched_execution(self):
        with make_state() as a, make_state() as b:
            batched = a.execute_batch(
                [
                    {"op": "spread", "seeds": [1], "samples": 500},
                    {"op": "spread", "seeds": [2], "samples": 500},
                    {"op": "spread", "seeds": [1]},
                ]
            )
            sequential = [
                b.query({"op": "spread", "seeds": [1], "samples": 500}),
                b.query({"op": "spread", "seeds": [2], "samples": 500}),
                b.query({"op": "spread", "seeds": [1]}),
            ]
            for x, y in zip(batched, sequential):
                assert x["spread"] == y["spread"]

    def test_degraded_falls_back_to_default_theta(self):
        with make_state() as state:
            warm = state.query({"op": "spread", "seeds": [4]})
            answer = state.execute_batch(
                [stamp_expired(state, {"op": "spread", "seeds": [4], "samples": 5000})]
            )[0]
            assert answer["degraded"] is True
            assert answer["spread"] == warm["spread"]

    def test_bad_samples_rejected_in_place(self):
        with make_state() as state:
            answer = state.execute_batch(
                [{"op": "spread", "seeds": [1], "samples": 0}]
            )[0]
            assert answer["code"] == "invalid"


async def with_server(scenario, *, state=None, **kwargs):
    server = SeedingServer(
        state if state is not None else make_state(), port=0, **kwargs
    )
    await server.start()
    client = ServiceClient("127.0.0.1", server.port)
    try:
        return await scenario(server, client)
    finally:
        await client.aclose()
        await server.close()


class TestServerResilience:
    def test_deadline_504_then_degraded_200(self):
        async def scenario(server, client):
            # Instantly-expiring deadline, cold cache: a structured 504.
            status, answer = await client.request(
                "POST",
                "/query",
                {"op": "spread", "seeds": [1], "deadline_ms": 0.001},
            )
            assert status == 504 and answer["code"] == "timeout"
            # Warm the cache at the default θ, then ask for a *larger* θ
            # with a hopeless deadline: the exact key misses, the deadline
            # fires, and the default-θ answer is served flagged degraded.
            status, warm = await client.request(
                "POST", "/query", {"op": "spread", "seeds": [1]}
            )
            assert status == 200
            status, answer = await client.request(
                "POST",
                "/query",
                {
                    "op": "spread", "seeds": [1],
                    "samples": 5000, "deadline_ms": 0.001,
                },
            )
            assert status == 200 and answer["degraded"] is True
            assert answer["spread"] == warm["spread"]
            return server.metrics()

        metrics = asyncio.run(with_server(scenario))
        assert metrics["server"]["deadline_expired"] >= 1
        assert metrics["server"]["degraded_served"] >= 1

    def test_bad_deadline_is_a_400(self):
        async def scenario(server, client):
            status, answer = await client.request(
                "POST", "/query", {"op": "spread", "deadline_ms": -5}
            )
            assert status == 400 and "deadline_ms" in answer["error"]

        asyncio.run(with_server(scenario))

    def test_max_inflight_sheds_429(self, hold):
        async def scenario(server, client):
            clients = [ServiceClient("127.0.0.1", server.port) for _ in range(6)]
            try:
                requests = [
                    asyncio.ensure_future(
                        c.request("POST", "/query", {"op": "spread", "seeds": [i]})
                    )
                    for i, c in enumerate(clients)
                ]
                # The one admitted query holds the batch thread, so the
                # first reply is a shed one.
                await asyncio.wait(requests, return_when=asyncio.FIRST_COMPLETED)
                hold.release()
                results = await asyncio.gather(*requests)
            finally:
                for c in clients:
                    await c.aclose()
            statuses = sorted(status for status, _ in results)
            shed = [a for s, a in results if s == 429]
            assert 200 in statuses
            assert shed, statuses
            assert all(a["code"] == "shed" for a in shed)
            assert all(a["retry_after_ms"] > 0 for a in shed)
            return server.metrics()

        state = make_state()
        state.execute_batch = hold.wrap(state.execute_batch)
        metrics = asyncio.run(with_server(scenario, state=state, max_inflight=1))
        assert metrics["server"]["shed_requests"] >= 1

    def test_healthz_reports_queue_and_pool_state(self):
        async def scenario(server, client):
            await client.request("POST", "/query", {"op": "spread", "seeds": [1]})
            status, health = await client.request("GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["pending_queries"] == 0
            assert health["inflight"] == 0
            assert health["last_success_age_s"] is not None

        asyncio.run(with_server(scenario))

    def test_default_deadline_knob_applies(self):
        async def scenario(server, client):
            status, answer = await client.request(
                "POST", "/query", {"op": "spread", "seeds": [2]}
            )
            # The configured default is generous; the query finishes.
            assert status == 200 and answer["spread"] > 0

        asyncio.run(with_server(scenario, deadline_ms=30000.0))
