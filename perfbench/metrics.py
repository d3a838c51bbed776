"""Metric names, units and the per-layer derivation from traced spans.

End-to-end metrics are reported by every workload, each measuring the
workload's own unit of work (see ``run.py``).  Per-layer metrics come
from a traced run; a layer the workload never enters reports 0.  Layer
times are self times (span time minus child-span time) per unit of work:
per session, per figure, or per 1000 service queries.  Only spans inside
a unit count: those under an :data:`ENCLOSING` call.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from common import mean, median, percentile
from spans import LayerSummary, Span, Tracer, within

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "work_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER: Dict[str, str] = {
    "sampling.root_draw_s": "s",
    "kernels.generate_s": "s",
    "kernels.generate_calls": "count",
    "kernels.rr_sets": "count",
    "kernels.rr_members": "count",
    "kernels.rr_bytes": "bytes",
    "kernels.simulate_s": "s",
    "collection.build_s": "s",
    "collection.query_s": "s",
    "collection.query_calls": "count",
    "coverage.counter_s": "s",
    "core.estimation_s": "s",
    "core.rounds": "count",
    "core.rr_sets_per_decision": "count",
    "core.decision_s": "s",
    "core.cap_forced_frac": "fraction",
    "core.commit_s": "s",
    "core.instance_s": "s",
    "baselines.select_s": "s",
    "diffusion.mc_s": "s",
    "diffusion.realizations_s": "s",
    "graphs.load_s": "s",
    "runner.self_s": "s",
    "service.execute_ms_p50": "ms",
    "service.execute_ms_p99": "ms",
    "service.generate_ms": "ms",
    "service.generations": "count",
    "service.cached_ms": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.batch_size_mean": "count",
    "service.coalesced_frac": "fraction",
    "service.http_ms_p50": "ms",
    "service.answer_hit_rate": "fraction",
    "service.collection_hit_rate": "fraction",
    "service.gen_lag_ms_p99": "ms",
    "trace.overhead_frac": "fraction",
    "trace.attributed_frac": "fraction",
}

#: The calls that enclose one unit of work: an HATP session, a figure
#: panel, a batch the service executes.  Their self time is whatever no
#: named layer below them claims.
ENCLOSING = ("core.decision", "runner", "service.state")


class DecisionTally:
    """Observer of ``core.decision`` spans: what the policies decided.

    ``budget_hits`` counts nodes whose decision an engine cap forced;
    ``examined`` counts nodes the policy estimated (selected or rejected).
    """

    def __init__(self) -> None:
        self.examined = 0
        self.budget_hits = 0
        self.rr_sets = 0

    def __call__(self, args, result, span: Span) -> None:
        iterations = getattr(result, "iterations", None)
        if iterations is None:  # HNTP.select: a nonadaptive selection
            return
        self.examined += sum(
            1 for record in iterations if record.action in ("selected", "rejected")
        )
        self.budget_hits += int(result.extra.get("budget_hits", 0))
        self.rr_sets += int(result.rr_sets_generated)


def layer_metrics(
    spans: List[Span],
    units: float,
    tally: Optional[DecisionTally] = None,
    setup_spans: Iterable[Span] = (),
) -> Dict[str, float]:
    """Per-layer metrics of the spans of ``units`` units of work."""
    spans = within(spans, ENCLOSING)
    s = LayerSummary(spans)
    per = 1.0 / units if units else 0.0
    metrics = {
        "sampling.root_draw_s": s.self_s["sampling.engine"] * per,
        "kernels.generate_s": s.total_s["kernels.generate"] * per,
        "kernels.generate_calls": s.calls["kernels.generate"] * per,
        "kernels.rr_sets": s.counts["rr_sets"] * per,
        "kernels.rr_members": s.counts["rr_members"] * per,
        "kernels.rr_bytes": s.counts["rr_bytes"] * per,
        "kernels.simulate_s": (s.total_s["kernels.simulate"] + s.total_s["kernels.replay"])
        * per,
        "collection.build_s": s.self_s["collection.build"] * per,
        "collection.query_s": s.self_s["collection.query"] * per,
        "collection.query_calls": s.outer_calls["collection.query"] * per,
        "coverage.counter_s": s.self_s["coverage.counter"] * per,
        "core.estimation_s": s.self_s["core.estimation"] * per,
        "core.rounds": s.calls["core.estimation"] * per,
        "core.decision_s": s.self_s["core.decision"] * per,
        "core.commit_s": s.self_s["core.session"] * per,
        "core.instance_s": s.self_s["core.targets"] * per,
        "baselines.select_s": s.self_s["baselines"] * per,
        "diffusion.mc_s": s.self_s["diffusion.mc"] * per,
        "diffusion.realizations_s": s.self_s["diffusion.realizations"] * per,
        "runner.self_s": s.self_s["runner"] * per,
        "trace.attributed_frac": attributed_frac(spans),
    }
    if tally is not None and tally.examined:
        metrics["core.rr_sets_per_decision"] = tally.rr_sets / tally.examined
        metrics["core.cap_forced_frac"] = tally.budget_hits / tally.examined
    setup = LayerSummary(list(setup_spans))
    metrics["graphs.load_s"] = setup.total_s["graphs"]
    return metrics


def attributed_frac(spans: List[Span]) -> float:
    """Share of the units' time that the named layers below the enclosing
    calls account for: 1 - (enclosing self time) / (enclosing calls' time).

    ``spans`` are those of the units (see :func:`spans.within`).  A layer
    left unwrapped shows up as enclosing self time and lowers the share.
    """
    total = sum(span.duration for span in spans if span.parent is None)
    if not total:
        return 0.0
    own = LayerSummary(spans).self_s
    return 1.0 - sum(own[layer] for layer in ENCLOSING) / total


def latency_summary(values_ms: List[float]) -> Dict[str, float]:
    """p50/p99 of one large sample of answers (the service's queries)."""
    return {
        "latency_p50_ms": median(values_ms),
        "latency_p99_ms": percentile(values_ms, 99.0),
    }


def unit_latency_summary(units_ms: List[List[float]]) -> Dict[str, float]:
    """Latency of a few large units whose answers line up across units.

    Answer ``i`` of every unit is the same request: the same dataset panel
    of a figure, or the same target node of a session in the same world
    (a run draws one realization for all its sessions, which differ only
    in HATP's random stream).  Each answer's typical latency is its mean
    over the run's units, which averages the host's speed over the whole
    run; the metrics are the 50th and 99th percentiles of those typical
    latencies.
    """
    typical = [mean(column) for column in zip(*units_ms)]
    return {
        "latency_p50_ms": median(typical),
        "latency_p99_ms": percentile(typical, 99.0),
    }


def measure_units(
    outcome,
    seconds: float,
    unit: Callable[[int], Tuple[float, List[float]]],
    setup: Callable[[], object],
    trace: bool,
) -> Tuple[List[float], List[List[float]]]:
    """Run ``unit(0)``, ``unit(1)``, ... for ``seconds``; returns walls and latencies.

    The next unit starts only when the pace so far says it ends within
    ``seconds``, so a run measures whole units (at least one) and a slow
    host measures fewer of them.  With ``trace`` every index runs twice,
    untraced and traced, alternating which goes first, after one traced
    ``setup()``.  The per-layer metrics (per traced unit), the tracing
    overhead and the spans land in ``outcome``.  Walls and latencies always
    come from untraced runs.
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        tally = DecisionTally()
        tracer.observers["core.decision"] = tally
        tracer.install()
        setup()
        tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []
    walls: List[float] = []
    latencies: List[List[float]] = []
    traced_walls: List[float] = []
    begin = time.perf_counter()
    count = 0
    while not count or (time.perf_counter() - begin) * (count + 1) / count <= seconds:
        index = count
        count += 1
        order = (False,) if tracer is None else ((False, True), (True, False))[index % 2]
        for traced in order:
            if traced:
                tracer.install()
            try:
                wall, answers = unit(index)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                traced_walls.append(wall)
            else:
                walls.append(wall)
                latencies.append(answers)
    if tracer is not None:
        outcome.metrics.update(layer_metrics(tracer.spans, count, tally, setup_spans))
        outcome.metrics["trace.overhead_frac"] = (
            median([t / u for t, u in zip(traced_walls, walls)]) - 1.0
        )
        outcome.spans = tracer.dump()
    return walls, latencies
