"""Service-tier chaos: every injected fault yields a correct answer or a
clean structured error — never a hang, never a wrong answer.

The ``REPRO_FAULT_SPEC`` grammar has a ``service`` tier: ``delay``
stalls a submission inside batch execution, and ``reject`` sheds it with
a structured 429-style answer.  The assertions mirror the worker-tier
chaos suite: whatever the fault, the surviving answers are bit-for-bit
the answers of an unfaulted run.
"""

import pytest

from repro.graphs.toy import toy_costs, toy_graph
from repro.parallel.faults import FAULT_SPEC_ENV_VAR, FaultPlan, parse_fault_spec
from repro.service.state import ServiceState
from repro.utils.exceptions import ServiceOverloadError, ValidationError

QUERIES = [
    {"op": "spread", "seeds": [0, 3]},
    {"op": "topk", "k": 2},
    {"op": "marginal", "node": 2},
    {"op": "mc_spread", "seeds": [1], "simulations": 50},
]


def make_state(fault_plan=None, **kwargs):
    kwargs.setdefault("num_samples", 200)
    kwargs.setdefault("mc_simulations", 100)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("n_jobs", 1)
    state = ServiceState(fault_plan=fault_plan, **kwargs)
    state.register_graph(toy_graph(), costs=toy_costs())
    return state


def reference_answers():
    with make_state() as state:
        return [state.query(q) for q in QUERIES]


def strip(answer):
    return {k: v for k, v in answer.items() if k not in ("cached", "degraded")}


class TestSpecGrammar:
    def test_service_tier_parses(self):
        rules = parse_fault_spec("reject:service:1,delay:service:2:0.1")
        assert [r.kind for r in rules] == ["reject", "delay"]
        assert all(r.tier == "service" for r in rules)

    @pytest.mark.parametrize(
        "spec", ["reject:eval:0", "kill:service:0", "poison:service:0"]
    )
    def test_kind_tier_mismatches_rejected(self, spec):
        with pytest.raises(ValidationError, match="only valid at tier"):
            parse_fault_spec(spec)


class TestServiceChaos:
    def test_delay_changes_latency_never_answers(self):
        serial = reference_answers()
        plan = FaultPlan.from_spec("delay:service:0:0.05")
        with make_state(fault_plan=plan) as state:
            chaotic = [state.query(q) for q in QUERIES]
        for a, b in zip(serial, chaotic):
            assert strip(a) == strip(b)
        assert not plan.armed

    def test_reject_sheds_one_query_cleanly(self):
        serial = reference_answers()
        plan = FaultPlan.from_spec("reject:service:1")
        with make_state(fault_plan=plan) as state:
            answers = state.execute_batch(QUERIES)
        # Submission #1 is shed with a structured error; everyone else
        # gets exactly the unfaulted answer.
        assert answers[1]["code"] == "shed"
        assert answers[1]["retry_after_ms"] > 0
        for index in (0, 2, 3):
            assert strip(answers[index]) == strip(serial[index])

    def test_rejected_query_raises_typed_for_direct_callers(self):
        plan = FaultPlan.from_spec("reject:service:0")
        with make_state(fault_plan=plan) as state:
            with pytest.raises(ServiceOverloadError, match="injected fault"):
                state.query(QUERIES[0])
            # The shed answer was not cached: the retry computes cleanly.
            assert strip(state.query(QUERIES[0])) == strip(reference_answers()[0])

    def test_env_spec_reaches_the_state(self, monkeypatch):
        serial = reference_answers()
        monkeypatch.setenv(FAULT_SPEC_ENV_VAR, "reject:service:0")
        with make_state() as state:  # default plan comes from the env
            answer = state.execute_batch([QUERIES[0]])[0]
            assert answer["code"] == "shed"
            assert strip(state.query(QUERIES[0])) == strip(serial[0])

    def test_faults_injected_counter(self):
        plan = FaultPlan.from_spec("delay:service:0:0.01,delay:service:2:0.01")
        with make_state(fault_plan=plan) as state:
            for query in QUERIES:
                state.query(query)
            assert state.metrics()["resilience"]["faults_injected"] == 2
