"""Shared evaluation machinery for the experiment drivers.

The paper's protocol (Section VI-A): for every configuration, sample 20
realizations of the graph and report each algorithm's *average realized
profit* over them.  Adaptive algorithms interact with each realization
through an :class:`~repro.core.session.AdaptiveSession`; nonadaptive
algorithms pick their seed set once (it cannot depend on the realization)
and are scored against the same 20 possible worlds.

:func:`build_standard_suite` constructs the exact algorithm line-up of the
profit figures — HATP, ADDATP, HNTP, NSG, NDG, ARS and the Baseline (the
whole target set) — parameterised by an
:class:`~repro.experiments.config.EngineParameters`.

One evaluation stream: every evaluation runs through an
:class:`~repro.parallel.eval_pool.EvaluationPool` (in-process at one
job), with one spawned algorithm stream per realization.  Realizations
are spawned children of the suite generator, and each spec of a suite
gets its own spawned algorithm stream, so the outcomes are bit-for-bit
independent of the ``eval_jobs`` worker count and of whether a
:class:`~repro.experiments.journal.ResultJournal` records them.  The
suite builders hand algorithm factories as pickled ``functools.partial``
objects over module-level constructors so complete sessions can run in
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.baselines.ndg import NDG
from repro.baselines.nsg import NSG
from repro.baselines.random_set import AdaptiveRandomSet
from repro.core.addatp import ADDATP
from repro.core.hatp import HATP
from repro.core.hntp import HNTP
from repro.core.profit import total_cost
from repro.core.results import NonadaptiveSelection, stop_counts
from repro.core.targets import TPMInstance
from repro.diffusion.realization import BaseRealization
from repro.experiments.config import EngineParameters
from repro.experiments.journal import ResultJournal, checkpointed
from repro.parallel.eval_pool import (
    EvaluationPool,
    RealizationTicket,
    SessionRecord,
    as_tickets,
    parallel_evaluate_adaptive,
    pool_for,
)
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.timer import Timer

#: What the evaluation functions accept as "one possible world": a sampled
#: realization, or a ticket that re-samples it wherever it is needed.
RealizationLike = Union[BaseRealization, RealizationTicket]


@dataclass(frozen=True)
class AlgorithmSpec:
    """How to build and run one algorithm inside an experiment.

    ``kind`` is ``"adaptive"`` (factory returns an object with
    ``run(session)``), ``"nonadaptive"`` (factory returns an object with
    ``select(graph, costs)``), or ``"fixed"`` (factory returns a seed list
    directly — used for the Baseline, i.e. seeding the whole target set).
    """

    name: str
    kind: str
    factory: Callable[[TPMInstance, np.random.Generator], object]


@dataclass
class AggregateOutcome:
    """Average outcome of one algorithm over the evaluation realizations.

    Besides the means, the full per-realization series are kept — profits,
    spreads, seed counts and seed costs, all in realization order — so a
    parallel evaluation's merge order stays auditable and downstream plots
    can draw variance bands instead of bare means.

    ``cap_forced_frac`` is the share of decided nodes (iteration records
    with a ``stop_reason``) whose rounds an engine cap ended rather than
    the paper's stopping conditions; ``None`` when no record has a stop
    reason (ARS, NSG, NDG, the Baseline).
    """

    algorithm: str
    mean_profit: float
    std_profit: float
    mean_spread: float
    mean_seeds: float
    mean_seed_cost: float
    selection_runtime_seconds: float
    total_rr_sets: int
    cap_forced_frac: Optional[float] = None
    per_realization_profits: List[float] = field(default_factory=list)
    per_realization_spreads: List[float] = field(default_factory=list)
    per_realization_seeds: List[float] = field(default_factory=list)
    per_realization_costs: List[float] = field(default_factory=list)

    def as_row(self) -> Dict[str, object]:
        """Dictionary row for tabular reporting."""
        return {
            "algorithm": self.algorithm,
            "profit": round(self.mean_profit, 3),
            "profit_std": round(self.std_profit, 3),
            "spread": round(self.mean_spread, 2),
            "seeds": round(self.mean_seeds, 2),
            "cost": round(self.mean_seed_cost, 2),
            "runtime_s": round(self.selection_runtime_seconds, 4),
            "rr_sets": self.total_rr_sets,
            "cap_forced_frac": (
                None if self.cap_forced_frac is None else round(self.cap_forced_frac, 3)
            ),
        }


def _aggregate(
    algorithm: str,
    profits: Sequence[float],
    spreads: Sequence[float],
    seeds: Sequence[float],
    costs: Sequence[float],
    runtime: float,
    rr_sets: int,
    cap_forced: int = 0,
    decided: int = 0,
) -> AggregateOutcome:
    profits = np.asarray(profits, dtype=np.float64)
    return AggregateOutcome(
        algorithm=algorithm,
        mean_profit=float(profits.mean()) if profits.size else 0.0,
        std_profit=float(profits.std(ddof=0)) if profits.size else 0.0,
        mean_spread=float(np.mean(spreads)) if len(spreads) else 0.0,
        mean_seeds=float(np.mean(seeds)) if len(seeds) else 0.0,
        mean_seed_cost=float(np.mean(costs)) if len(costs) else 0.0,
        selection_runtime_seconds=runtime,
        total_rr_sets=int(rr_sets),
        cap_forced_frac=cap_forced / decided if decided else None,
        per_realization_profits=[float(p) for p in profits],
        per_realization_spreads=[float(s) for s in spreads],
        per_realization_seeds=[float(s) for s in seeds],
        per_realization_costs=[float(c) for c in costs],
    )


def _outcome_from_records(
    algorithm: str, records: Sequence[SessionRecord]
) -> AggregateOutcome:
    """Aggregate per-realization session records (already in realization order)."""
    total_runtime = sum(record.runtime_seconds for record in records)
    return _aggregate(
        algorithm,
        [record.profit for record in records],
        [record.spread for record in records],
        [float(record.num_seeds) for record in records],
        [record.seed_cost for record in records],
        total_runtime / max(len(records), 1),
        sum(record.rr_sets for record in records),
        sum(record.cap_forced for record in records),
        sum(record.decided for record in records),
    )


def evaluate_adaptive(
    spec: AlgorithmSpec,
    instance: TPMInstance,
    realizations: Sequence[RealizationLike],
    random_state: RandomState = None,
    eval_jobs: Optional[int] = None,
    eval_pool: Optional[EvaluationPool] = None,
) -> AggregateOutcome:
    """Run an adaptive algorithm once per realization and average the outcomes.

    Each realization's session gets its own algorithm stream, spawned
    from ``random_state``, and runs through ``eval_pool`` (or an
    ephemeral :class:`EvaluationPool` of ``eval_jobs`` workers); the
    per-realization outcomes are bit-for-bit independent of the worker
    count.
    """
    records = parallel_evaluate_adaptive(
        spec.factory,
        instance,
        realizations,
        random_state=random_state,
        eval_jobs=eval_jobs,
        pool=eval_pool,
    )
    return _outcome_from_records(spec.name, records)


def evaluate_nonadaptive(
    spec: AlgorithmSpec,
    instance: TPMInstance,
    realizations: Sequence[RealizationLike],
    random_state: RandomState = None,
    eval_jobs: Optional[int] = None,
    eval_pool: Optional[EvaluationPool] = None,
) -> AggregateOutcome:
    """Select once on the full graph, then score against every realization.

    Selection is a single pass in the parent.  The chosen seed set is
    scored through :meth:`EvaluationPool.score_selection` on ``eval_pool``
    (or an ephemeral pool of ``eval_jobs`` workers); replay is
    deterministic given the realization, so the outcomes are identical
    for every worker count.  Tickets pass straight through to the
    workers, so the worlds are never materialized in the parent and
    nothing ``O(m)`` is pickled.
    """
    rng = ensure_rng(random_state)
    tickets = as_tickets(realizations)
    algorithm = spec.factory(instance, rng)
    timer = Timer().start()
    cap_forced = decided = 0
    if spec.kind == "fixed":
        seeds_chosen: List[int] = list(algorithm)  # type: ignore[arg-type]
        selection_runtime = 0.0
        rr_sets = 0
    else:
        selection: NonadaptiveSelection = algorithm.select(instance.graph, instance.costs)
        seeds_chosen = list(selection.seeds)
        selection_runtime = selection.runtime_seconds
        rr_sets = selection.rr_sets_generated
        cap_forced, decided = stop_counts(selection.iterations)
    timer.stop()

    with pool_for(instance.graph, eval_jobs, eval_pool) as pool:
        spreads = pool.score_selection(seeds_chosen, tickets, graph=instance.graph)
    seed_cost = total_cost(instance.costs, seeds_chosen)
    return _aggregate(
        spec.name,
        [spread - seed_cost for spread in spreads],
        spreads,
        [len(seeds_chosen)] * len(tickets),
        [seed_cost] * len(tickets),
        selection_runtime if spec.kind != "fixed" else timer.elapsed,
        rr_sets,
        cap_forced,
        decided,
    )


def suite_journal_keys(
    specs: Sequence[AlgorithmSpec], journal_prefix: str
) -> List[str]:
    """The journal keys :func:`evaluate_suite` records one data point under.

    Sweep drivers use this to skip a fully journaled point *before*
    paying for its instance construction.
    """
    return [f"{journal_prefix}{spec.name}" for spec in specs]


def evaluate_suite(
    specs: Sequence[AlgorithmSpec],
    instance: TPMInstance,
    num_realizations: int,
    random_state: RandomState = None,
    eval_jobs: Optional[int] = None,
    eval_pool: Optional[EvaluationPool] = None,
    journal: Optional[ResultJournal] = None,
    journal_prefix: str = "",
) -> Dict[str, AggregateOutcome]:
    """Evaluate every algorithm of ``specs`` on shared realizations.

    The stream layout is a pure function of ``random_state``'s state on
    entry: the first ``num_realizations`` spawned children are the
    realization family (carried as :class:`RealizationTicket`\\ s, so
    workers re-sample their world in-process), the next ``len(specs)``
    children are one algorithm stream per spec.  One
    :class:`~repro.parallel.eval_pool.EvaluationPool` serves every
    algorithm of the suite; sweep drivers pass an ``eval_pool`` so the
    graph is published to the workers once per sweep rather than once per
    call.

    ``journal`` switches on checkpoint/resume: each algorithm's outcome
    is recorded under ``journal_prefix + spec.name`` the moment it
    completes, and already-recorded algorithms are replayed instead of
    re-run.  Replaying an algorithm never touches another algorithm's
    stream, so a resumed run is bit-for-bit identical to an uninterrupted
    one — see ``docs/robustness.md`` for the stream contract.
    """
    rng = ensure_rng(random_state)
    tickets = [
        RealizationTicket.from_state(state) for state in rng.spawn(num_realizations)
    ]
    algorithm_states = rng.spawn(len(specs))
    keys = suite_journal_keys(specs, journal_prefix)
    with pool_for(instance.graph, eval_jobs, eval_pool) as pool:
        return {
            spec.name: checkpointed(
                journal,
                key,
                partial(
                    evaluate_adaptive if spec.kind == "adaptive" else evaluate_nonadaptive,
                    spec,
                    instance,
                    tickets,
                    state,
                    eval_pool=pool,
                ),
            )
            for spec, state, key in zip(specs, algorithm_states, keys)
        }


# --------------------------------------------------------------------------- #
# the standard line-up of the paper's figures
# --------------------------------------------------------------------------- #
#
# Factories are functools.partial over these module-level constructors —
# never closures — so an AlgorithmSpec pickles cleanly into evaluation
# workers.  Each takes the sampling n_jobs explicitly: the suite builder
# passes `engine.sampling_jobs()`, which is 1 whenever eval_jobs > 1 (the
# no-nested-pool rule of docs/parallelism.md).


def _make_hatp(engine: EngineParameters, n_jobs: Optional[int], inst, rng):
    return HATP(
        inst.target,
        epsilon=engine.epsilon,
        epsilon0=engine.epsilon0,
        initial_scaled_error=engine.initial_scaled_error,
        additive_floor=engine.additive_floor,
        max_rounds=engine.max_rounds,
        max_samples_per_round=engine.max_samples_per_round,
        random_state=rng,
        n_jobs=n_jobs,
        backend=engine.backend,
    )


def _make_addatp(
    engine: EngineParameters,
    n_jobs: Optional[int],
    inst,
    rng,
    dynamic_threshold: bool = False,
):
    return ADDATP(
        inst.target,
        initial_scaled_error=engine.initial_scaled_error,
        dynamic_threshold=dynamic_threshold,
        max_rounds=engine.addatp_max_rounds,
        max_samples_per_round=engine.addatp_max_samples_per_round,
        random_state=rng,
        n_jobs=n_jobs,
        backend=engine.backend,
    )


def _make_hntp(engine: EngineParameters, n_jobs: Optional[int], inst, rng):
    return HNTP(
        inst.target,
        epsilon=engine.epsilon,
        epsilon0=engine.epsilon0,
        initial_scaled_error=engine.initial_scaled_error,
        additive_floor=engine.additive_floor,
        max_rounds=engine.max_rounds,
        max_samples_per_round=engine.max_samples_per_round,
        random_state=rng,
        n_jobs=n_jobs,
        backend=engine.backend,
    )


def _make_nsg(engine: EngineParameters, n_jobs: Optional[int], inst, rng):
    return NSG(
        inst.target,
        num_samples=engine.nsg_ndg_samples(),
        random_state=rng,
        n_jobs=n_jobs,
        backend=engine.backend,
    )


def _make_ndg(engine: EngineParameters, n_jobs: Optional[int], inst, rng):
    return NDG(
        inst.target,
        num_samples=engine.nsg_ndg_samples(),
        random_state=rng,
        n_jobs=n_jobs,
        backend=engine.backend,
    )


def _make_ars(inst, rng):
    return AdaptiveRandomSet(inst.target, random_state=rng)


def _make_baseline(inst, rng):
    return list(inst.target)


def build_standard_suite(
    engine: EngineParameters,
    include_addatp: bool = True,
    include_baseline: bool = True,
    include_ars: bool = True,
) -> List[AlgorithmSpec]:
    """Algorithm specs for the profit figures (Fig. 2–4).

    ADDATP can be excluded (the paper itself can only run it on the smallest
    configurations before exhausting memory); ARS / Baseline can be dropped
    for the running-time figures.
    """
    jobs = engine.sampling_jobs()
    specs: List[AlgorithmSpec] = [
        AlgorithmSpec(
            name="HATP", kind="adaptive", factory=partial(_make_hatp, engine, jobs)
        ),
    ]
    if include_addatp:
        specs.append(
            AlgorithmSpec(
                name="ADDATP",
                kind="adaptive",
                factory=partial(_make_addatp, engine, jobs),
            )
        )
    specs.append(
        AlgorithmSpec(
            name="HNTP", kind="nonadaptive", factory=partial(_make_hntp, engine, jobs)
        )
    )
    specs.append(
        AlgorithmSpec(
            name="NSG", kind="nonadaptive", factory=partial(_make_nsg, engine, jobs)
        )
    )
    specs.append(
        AlgorithmSpec(
            name="NDG", kind="nonadaptive", factory=partial(_make_ndg, engine, jobs)
        )
    )
    if include_ars:
        specs.append(AlgorithmSpec(name="ARS", kind="adaptive", factory=_make_ars))
    if include_baseline:
        specs.append(
            AlgorithmSpec(name="Baseline", kind="fixed", factory=_make_baseline)
        )
    return specs
