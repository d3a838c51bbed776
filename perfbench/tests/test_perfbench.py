"""The benchmark's own tests: every workload runs at a tiny size, and
every output check catches an injected fault."""

from __future__ import annotations

import dataclasses
import json

import pytest

import compare
import wl_fig2
import wl_service
import wl_session
from common import Outcome
from metrics import PER_LAYER, layer_metrics
from spans import Span

TINY_SESSION = {"nodes": 120, "k": 8, "setup_reps": 1}


@pytest.fixture(scope="module")
def session_inputs():
    wl_session.build_native()
    inputs = wl_session.Inputs(TINY_SESSION["nodes"], TINY_SESSION["k"])
    return inputs, inputs.realization()


def test_session_workload_passes_its_checks():
    outcome = wl_session.run(3, 0.1, trace=False, sizes=TINY_SESSION)
    assert outcome.correct, outcome.problems
    assert outcome.attempted == 3
    assert outcome.metrics["work_s"] > 0 and outcome.metrics["setup_s"] > 0


def test_traced_session_reports_every_layer_metric():
    outcome = wl_session.run(3, 0.1, trace=True, sizes=TINY_SESSION)
    assert outcome.correct, outcome.problems
    local = {name for name in PER_LAYER if not name.startswith("service.")}
    assert local <= set(outcome.metrics)
    assert outcome.metrics["core.cap_forced_frac"] == 0.0
    assert outcome.metrics["kernels.rr_sets"] > 0
    assert 0.0 < outcome.metrics["trace.attributed_frac"] < 1.0


def _unit_spans(with_query_layer: bool):
    """One HATP session whose kernels and collection queries take 6 and 2 of
    its 10 s, then an answer check outside the session."""
    spans = [
        Span(1, None, "core.decision", 0.0, 10.0),
        Span(2, 1, "kernels.generate", 1.0, 7.0),
        Span(4, None, "diffusion.realizations", 10.0, 30.0),
    ]
    if with_query_layer:
        spans.append(Span(3, 1, "collection.query", 7.0, 9.0))
    return spans


def test_attribution_counts_named_layers_inside_the_unit_only():
    metrics = layer_metrics(_unit_spans(True), 1)
    assert metrics["trace.attributed_frac"] == pytest.approx(0.8)
    assert metrics["core.decision_s"] == pytest.approx(2.0)
    assert metrics["diffusion.realizations_s"] == 0.0
    # A layer left unwrapped becomes the session's own time.
    metrics = layer_metrics(_unit_spans(False), 1)
    assert metrics["trace.attributed_frac"] == pytest.approx(0.6)


def test_session_check_catches_a_cap_decision(session_inputs):
    inputs, world = session_inputs
    result, _, _ = wl_session.run_session(inputs, world, 3, 0, max_samples=20)
    assert result.extra["budget_hits"] > 0
    outcome = Outcome()
    wl_session.check_session(outcome, inputs, world, result)
    assert outcome.failed == 1 and "budget_hits" in outcome.problems[0]


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda r, t: dataclasses.replace(r, realized_profit=r.realized_profit + 1.0), "profit"),
        (lambda r, t: dataclasses.replace(r, seeds=r.seeds + [max(t) + 1]), "outside"),
    ],
)
def test_session_check_catches_a_wrong_answer(session_inputs, fault, message):
    inputs, world = session_inputs
    result, _, _ = wl_session.run_session(inputs, world, 3, 0)
    outcome = Outcome()
    wl_session.check_session(outcome, inputs, world, result)
    assert outcome.failed == 0, outcome.problems
    bad = fault(result, inputs.instance.target)
    outcome = Outcome()
    wl_session.check_session(outcome, inputs, world, bad)
    assert outcome.failed >= 1 and message in " ".join(outcome.problems)


TINY_FIGURE = {"k_values": (3, 12), "num_realizations": 1, "num_rr_sets_instance": 200}


@pytest.fixture(scope="module")
def figure_panel():
    scale = wl_fig2.smoke_scale(TINY_FIGURE)
    outcome = Outcome()
    wl_fig2.run_figure(outcome, scale, 5, 0, datasets=("nethept",))
    assert outcome.failed == 0, outcome.problems
    from repro.experiments.profit_experiments import reproduce_figure2

    series = reproduce_figure2(scale, datasets=["nethept"], random_state=5)["nethept"]
    return scale, series


def test_fig2_workload_passes_its_checks():
    sizes = dict(TINY_FIGURE, datasets=("nethept", "epinions"), setup_reps=1)
    outcome = wl_fig2.run(5, 0.1, trace=False, sizes=sizes)
    assert outcome.correct, outcome.problems
    assert outcome.metrics["latency_p99_ms"] >= outcome.metrics["latency_p50_ms"] > 0


def _tampered(series, name, index, value):
    values = dict(series.series)
    values[name] = list(values[name])
    values[name][index] = value
    return dataclasses.replace(series, series=values)


@pytest.mark.parametrize(
    "edit",
    [
        lambda s: _tampered(s, "HATP", 0, float("nan")),
        lambda s: _tampered(s, "NSG", 1, None),
        lambda s: _tampered(s, "ADDATP", 1, 3.0),  # k=12 is beyond include_addatp_up_to_k
        lambda s: dataclasses.replace(
            s, series={k: v for k, v in s.series.items() if k != "ARS"}
        ),
    ],
)
def test_fig2_check_catches_a_wrong_figure(figure_panel, edit):
    scale, series = figure_panel
    outcome = Outcome()
    wl_fig2.check_panel(outcome, scale, "nethept", edit(series))
    assert outcome.failed >= 1


TINY_SERVICE = {"nodes": 400, "rate": 200.0, "open_queries": 80, "closed_queries": 80, "setup_reps": 1}


def test_service_workload_passes_its_checks():
    outcome = wl_service.run(7, 1.0, trace=False, sizes=TINY_SERVICE)
    assert outcome.correct, outcome.problems
    assert outcome.metrics["latency_p50_ms"] > 0 and outcome.metrics["peak_rss_mib"] > 0


def test_service_stream_addresses_residual_states():
    queries = wl_service.build_stream(7, 2000, 400)
    states = {tuple(q["removed"]) for q in queries if "removed" in q}
    assert len(states) == wl_service.RESIDUAL_STATES
    assert all(q["op"] != "mc_spread" for q in queries if "removed" in q)


def test_service_verification_catches_a_wrong_answer():
    from repro.service.cli import build_service_state

    queries = wl_service.build_stream(7, 30, TINY_SERVICE["nodes"])
    state = build_service_state(
        dataset=wl_service.DATASET, nodes=TINY_SERVICE["nodes"], backend=wl_service.BACKEND
    )
    try:
        answers = [json.loads(json.dumps(state.query(dict(q)))) for q in queries]
    finally:
        state.close()
    records = [wl_service.Record(q, 0.0, 0.0, 0.0, 200, a) for q, a in zip(queries, answers)]
    outcome = Outcome()
    wl_service.verify_answers(outcome, records, 7, TINY_SERVICE["nodes"])
    assert outcome.attempted == len(records) and outcome.failed == 0, outcome.problems
    spread = next(r for r in records if r.query["op"] == "spread")
    spread.payload = dict(spread.payload, spread=spread.payload["spread"] + 1.0)
    outcome = Outcome()
    wl_service.verify_answers(outcome, records, 7, TINY_SERVICE["nodes"])
    assert outcome.failed == 1


def test_growing_generator_lag_is_detected():
    assert not wl_service.lag_grows([1.0] * 100)
    assert wl_service.lag_grows([float(i) for i in range(100)])


@pytest.mark.parametrize(
    "parent, change, bound, expected",
    [
        ([10.0] * 5 + [10.2] * 5, [9.0] * 10, 0.1, "better"),
        ([10.0] * 5 + [10.2] * 5, [12.0] * 10, 0.1, "worse"),
        ([10.0] * 5 + [10.2] * 5, [10.1] * 10, 0.1, "unchanged"),
        ([5.0, 15.0] * 5, [10.5] * 10, 0.1, "unresolved"),
        ([10.0, 11.0] * 5, [10.5] * 10, None, "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, bound, expected):
    assert compare.verdict(parent, change, lower_better=True, bound=bound) == expected
