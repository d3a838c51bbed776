"""``session-faithful``: uncapped HATP sessions, the paper-faithful unit.

HATP runs with ``max_rounds=30`` and ``max_samples_per_round=10**7`` on
the regenerate path with the ``native`` kernels, on the 600-node NetHEPT
proxy with k=50 and degree-proportional costs, every session against one
fixed realization.  With these caps the stopping conditions C'1/C'2
decide every node (``budget_hits == 0`` is checked), and the kernel
batches are large.

The graph, the instance and the realization are fixed, like a benchmark
dataset; the workload seed draws each session's HATP random stream.  So
decision ``i`` is the same request in every session of every run.  A
session's *decisions* are the node iterations of Algorithm 4: the
benchmark's session object stamps the start of each one, which is when
the policy asks the market whether the node is already active.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from common import Outcome, build_native, fresh_process_s, mean, median, peak_rss_mib
from metrics import measure_units, unit_latency_summary

DATASET = "nethept"
NODES = 600
K = 50
INSTANCE_RR_SETS = 3000
MAX_ROUNDS = 30
MAX_SAMPLES_PER_ROUND = 10**7
BACKEND = "native"

SETUP_REPS = 5
#: Seed of the fixed graph, instance and realization.
DATASET_SEED = 2020


def _stream(seed: int, *words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E55, *words]))


class Inputs:
    """The fixed graph and instance of the workload."""

    def __init__(self, nodes: int = NODES, k: int = K) -> None:
        from repro.core.targets import build_spread_calibrated_instance
        from repro.graphs.datasets import load_proxy

        self.graph = load_proxy(DATASET, nodes, random_state=_stream(DATASET_SEED, 1))
        self.instance = build_spread_calibrated_instance(
            self.graph,
            k=k,
            cost_setting="degree",
            num_rr_sets=INSTANCE_RR_SETS,
            random_state=_stream(DATASET_SEED, 2),
        )

    def realization(self):
        """The hidden world every session faces."""
        from repro.diffusion.realization import Realization

        return Realization.sample(self.graph, _stream(DATASET_SEED, 3))


def _session_class():
    from repro.core.session import AdaptiveSession

    class TimedSession(AdaptiveSession):
        """Stamps the start of every node decision (HATP asks first thing)."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.marks: List[float] = []

        def is_activated(self, node: int) -> bool:
            self.marks.append(time.perf_counter())
            return super().is_activated(node)

    return TimedSession


def run_session(
    inputs: Inputs, realization, seed: int, index: int, max_samples: int = MAX_SAMPLES_PER_ROUND
):
    """One HATP session; returns ``(result, wall_s, decision_latencies_ms)``."""
    from repro.core.hatp import HATP

    session = _session_class()(inputs.graph, realization, inputs.instance.costs)
    policy = HATP(
        inputs.instance.target,
        max_rounds=MAX_ROUNDS,
        max_samples_per_round=max_samples,
        backend=BACKEND,
        random_state=_stream(seed, 100, index),
    )
    begin = time.perf_counter()
    result = policy.run(session)
    end = time.perf_counter()
    bounds = session.marks + [end]
    latencies = [(b - a) * 1000.0 for a, b in zip(bounds, bounds[1:])]
    return result, end - begin, latencies


def check_session(outcome: Outcome, inputs: Inputs, realization, result) -> None:
    """The session's output checks; every failed check counts as failed."""
    target = set(inputs.instance.target)
    costs = inputs.instance.costs
    outcome.check(
        int(result.extra.get("budget_hits", -1)) == 0,
        f"budget_hits={result.extra.get('budget_hits')} (a cap decided a node)",
    )
    outcome.check(
        set(result.seeds) <= target, f"seeds outside the target: {set(result.seeds) - target}"
    )
    spread = realization.spread(result.seeds)
    expected = spread - sum(costs.get(s, 0.0) for s in result.seeds)
    outcome.check(
        abs(result.realized_profit - expected) <= 1e-9 * max(1.0, abs(expected)),
        f"realized profit {result.realized_profit} != spread - cost = {expected}",
    )


def setup(seed: int, nodes: int = NODES, k: int = K) -> Inputs:
    """What a session process needs before its first session."""
    from repro import kernels

    kernels.warm_up(BACKEND)
    inputs = Inputs(nodes, k)
    inputs.realization()
    return inputs


def run(seed: int, seconds: float, trace: bool, sizes: Optional[Dict] = None) -> Outcome:
    sizes = sizes or {}
    outcome = Outcome()
    build_native()
    nodes, k = sizes.get("nodes", NODES), sizes.get("k", K)
    outcome.metrics["setup_s"] = fresh_process_s(
        f"import wl_session; wl_session.setup({seed}, {nodes}, {k})",
        sizes.get("setup_reps", SETUP_REPS),
    )
    inputs = setup(seed, nodes, k)

    world = inputs.realization()
    rr_sets = []

    def unit(index: int):
        result, wall, latencies = run_session(inputs, world, seed, index)
        check_session(outcome, inputs, world, result)
        rr_sets.append(result.rr_sets_generated)
        return wall, latencies

    walls, latencies = measure_units(
        outcome, seconds, unit, lambda: setup(seed, nodes, k), trace
    )
    outcome.metrics["work_s"] = mean(walls)
    outcome.metrics.update(unit_latency_summary(latencies))
    outcome.metrics["peak_rss_mib"] = peak_rss_mib()
    outcome.extra.update(
        session_s=outcome.metrics["work_s"],
        sessions=len(walls),
        decisions=sum(map(len, latencies)),
        rr_sets_per_session=median(rr_sets),
        backend=BACKEND,
        mc_backend="none",
    )
    return outcome
