"""Session-level parallel evaluation: whole adaptive runs in worker processes.

The experimental protocol of the paper (Section VI-A) scores every
algorithm as the average over ``num_realizations`` sampled possible
worlds, and for adaptive algorithms each realization means one complete
interactive seeding session.  The sessions are mutually independent —
nothing but the (immutable) graph and the (tiny) instance description is
shared — so this module fans them out across processes, forming the
outermost tier of the parallelism hierarchy::

    eval workers  ×  sampling shards  ×  vectorized batches
    (this module)    (parallel.pool)     (sampling.engine / mc_engine)

Design, mirroring :class:`~repro.parallel.pool.SamplingPool`:

* the graph ships **once per graph** through the existing
  :class:`~repro.parallel.broker.SharedGraphBroker` (both CSR
  directions); each worker attaches zero-copy and resurrects a full
  :class:`~repro.graphs.graph.ProbabilisticGraph` over the shared
  buffers via :meth:`ProbabilisticGraph.from_csr_arrays`, so the entire
  algorithm stack runs unmodified inside the worker;
* realizations are **sampled in-process** from a per-realization
  spawned RNG stream carried by a :class:`RealizationTicket` — nothing
  ``O(m)`` is pickled per task (a ticket is a picklable RNG state, or a
  bit-packed live mask when the caller only holds materialized worlds);
* the work layout is a pure function of ``num_realizations`` (one task
  per realization, session ``i`` always runs with algorithm stream ``i``,
  records merged in realization order), so the outcome is **bit-for-bit
  independent of** ``eval_jobs``; ``eval_jobs=1`` runs the identical
  spawned-stream loop in-process and starts no process;
* **no nested pools**: when ``eval_jobs > 1`` and a sampling worker
  count is set, the suite builders pass sampling ``n_jobs=1`` to every
  algorithm factory (:meth:`EngineParameters.sampling_jobs`), so the
  machine never runs ``eval_jobs × n_jobs`` processes.  Forcing 1 is
  outcome-neutral because every ``n_jobs``, unset included, samples the
  same RR sets; an unset ``n_jobs`` stays unset.  Workers inherit the
  parent's environment knobs *unchanged*, so a session resolves its
  sampling ``n_jobs`` in a worker exactly as in-process.

The ``eval_jobs`` knob resolves through :func:`resolve_eval_jobs`:
explicit values go through the shared
:func:`~repro.parallel.pool.resolve_jobs` semantics (``-1`` = all
cores), ``None`` falls back to the ``REPRO_EVAL_JOBS`` environment
variable, and then to 1.
"""

from __future__ import annotations

import copy
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.diffusion.realization import BaseRealization, Realization
from repro.graphs.graph import ProbabilisticGraph
from repro.parallel.broker import SharedGraphBroker, SharedGraphSpec, attach_shared_graph
from repro.parallel.faults import FaultPlan, perform_fault
from repro.parallel.pool import resolve_jobs
from repro.parallel.seeds import ShardState, spawn_shard_states
from repro.parallel.supervisor import (
    SupervisedTask,
    resolve_max_retries,
    resolve_task_timeout,
    supervised_collect,
)
from repro.utils.env import read_env_int
from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState, ensure_rng

#: Environment variable consulted when a caller leaves ``eval_jobs`` unset.
EVAL_JOBS_ENV_VAR = "REPRO_EVAL_JOBS"


def resolve_eval_jobs(eval_jobs: Optional[int] = None) -> int:
    """Resolve the session-level worker-count request.

    * an explicit integer goes through the shared
      :func:`~repro.parallel.pool.resolve_jobs` semantics (``-1`` = all
      usable cores, values ``>= 1`` as-is, anything else rejected);
    * ``None`` falls back to the ``REPRO_EVAL_JOBS`` environment
      variable with the same semantics, and then to 1.
    """
    if eval_jobs is None:
        eval_jobs = read_env_int(EVAL_JOBS_ENV_VAR)
        if eval_jobs is None:
            return 1
    return resolve_jobs(eval_jobs)


# --------------------------------------------------------------------- #
# realization tickets: how a possible world travels to a worker
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RealizationTicket:
    """A picklable recipe for one evaluation realization.

    Either a ``state`` — the realization's spawned RNG stream, so the
    receiving side samples the world *in-process* from the (shared)
    probability array, shipping O(RNG-state) instead of O(m) — or a
    ``packed_mask``, the bit-packed live mask of an already materialized
    :class:`~repro.diffusion.realization.Realization` (m/8 bytes; the
    fallback for callers that only hold sampled worlds).

    Realizing a ticket never consumes its state (``state`` is deep-copied
    first), so one ticket can be realized many times — once per algorithm
    in a suite, plus once in the parent for nonadaptive scoring — and
    every realization is bit-for-bit the same world.
    """

    state: Optional[ShardState] = None
    packed_mask: Optional[bytes] = None
    num_edges: int = 0

    @classmethod
    def from_state(cls, state: ShardState) -> "RealizationTicket":
        """Ticket that re-samples the world from a spawned RNG stream."""
        return cls(state=state)

    @classmethod
    def from_realization(cls, realization: Realization) -> "RealizationTicket":
        """Ticket carrying a materialized world as a bit-packed mask."""
        mask = realization.live_mask
        return cls(
            packed_mask=np.packbits(mask).tobytes(), num_edges=int(mask.shape[0])
        )

    def realize(self, graph: ProbabilisticGraph) -> Realization:
        """Materialize the possible world on ``graph``."""
        if self.state is not None:
            # Deep-copy so a (stateful) Generator ticket stays fresh for
            # the next realize() — identical to what pickling ships to a
            # worker, which is what keeps 1-vs-N worker runs bit-for-bit.
            return Realization.sample(graph, copy.deepcopy(self.state))
        if self.packed_mask is None:
            raise ValidationError("empty RealizationTicket (no state, no mask)")
        if self.num_edges != graph.m:
            raise ValidationError(
                f"ticket was packed for a graph with {self.num_edges} edges, "
                f"got one with {graph.m}"
            )
        live = np.unpackbits(
            np.frombuffer(self.packed_mask, dtype=np.uint8), count=self.num_edges
        ).astype(bool)
        return Realization(graph, live)


def as_tickets(
    realizations: Sequence[Union[BaseRealization, RealizationTicket]],
) -> List[RealizationTicket]:
    """Coerce a mixed sequence of realizations/tickets into tickets.

    Eager :class:`Realization` objects become packed-mask tickets;
    :class:`LazyRealization` objects are rejected — a lazy world's
    partially consumed RNG cannot be replayed in another process, and no
    experiment driver evaluates on lazy realizations.
    """
    tickets: List[RealizationTicket] = []
    for item in realizations:
        if isinstance(item, RealizationTicket):
            tickets.append(item)
        elif isinstance(item, Realization):
            tickets.append(RealizationTicket.from_realization(item))
        else:
            raise ValidationError(
                "parallel evaluation needs eager Realization objects or "
                f"RealizationTickets, got {type(item).__name__}"
            )
    return tickets


# --------------------------------------------------------------------- #
# per-session outcome record
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SessionRecord:
    """Compact outcome of one adaptive session (one realization).

    Everything the aggregation layer needs and nothing it does not —
    this is the whole result message a worker sends back, so per-seed
    iteration logs and algorithm diagnostics never cross the process
    boundary.  ``index`` is the realization's position in the evaluation
    family; records are merged in index order, making the merge
    auditable regardless of worker completion order.
    """

    index: int
    profit: float
    spread: float
    num_seeds: int
    seed_cost: float
    runtime_seconds: float
    rr_sets: int
    cap_forced: int
    """Decided nodes whose rounds an engine cap ended (``CAP_REASONS``)."""
    decided: int
    """Nodes whose iteration record carries a ``stop_reason``."""


def _run_one_session(
    graph: ProbabilisticGraph,
    factory,
    target: List[int],
    cost_assignment,
    metadata: dict,
    ticket: RealizationTicket,
    algorithm_state: ShardState,
    index: int,
) -> SessionRecord:
    """Run one complete adaptive session; shared by in-process and worker paths."""
    # Deferred: repro.core imports repro.sampling which imports
    # repro.parallel.pool — keep this module importable standalone.
    from repro.core.results import stop_counts
    from repro.core.session import AdaptiveSession
    from repro.core.targets import TPMInstance

    instance = TPMInstance(
        graph=graph,
        target=list(target),
        cost_assignment=cost_assignment,
        metadata=dict(metadata),
    )
    realization = ticket.realize(graph)
    algorithm = factory(instance, ensure_rng(algorithm_state))
    session = AdaptiveSession(graph, realization, instance.costs)
    result = algorithm.run(session)
    cap_forced, decided = stop_counts(result.iterations)
    return SessionRecord(
        index=index,
        profit=float(result.realized_profit),
        spread=float(result.realized_spread),
        num_seeds=int(result.num_seeds),
        seed_cost=float(result.seed_cost),
        runtime_seconds=float(result.runtime_seconds),
        rr_sets=int(result.rr_sets_generated),
        cap_forced=cap_forced,
        decided=decided,
    )


# --------------------------------------------------------------------- #
# worker-process side
# --------------------------------------------------------------------- #

#: Per-worker attachment state, populated once by the pool initializer.
_EVAL_WORKER: dict = {}


def _eval_worker_init(spec: SharedGraphSpec, graph_name: str) -> None:
    """Executor initializer: attach to the published graph.

    The worker deliberately inherits the parent's environment knobs
    untouched: a session must resolve its sampling ``n_jobs`` exactly as
    the in-process ``eval_jobs=1`` loop would, or the 1-vs-N worker
    outcomes could diverge.  The no-nested-pool policy is enforced where
    it is outcome-neutral instead: with ``eval_jobs > 1`` the suite
    builders turn a set sampling worker count into ``n_jobs=1``
    (:meth:`EngineParameters.sampling_jobs`).
    """
    shared, _mask, handles = attach_shared_graph(spec)
    in_offsets, in_sources, in_probs = shared.in_csr()
    out_offsets, out_targets, out_probs = shared.out_csr()
    graph = ProbabilisticGraph.from_csr_arrays(
        shared.n,
        out_offsets,
        out_targets,
        out_probs,
        in_offsets,
        in_sources,
        in_probs,
        name=graph_name,
    )
    _EVAL_WORKER["graph"] = graph
    _EVAL_WORKER["handles"] = handles  # keep segments alive for the worker's life


def _eval_worker_run(
    fault, index, factory, target, cost_assignment, metadata, ticket, algorithm_state
) -> SessionRecord:
    """Run one session against the worker's resurrected graph."""
    perform_fault(fault)
    return _run_one_session(
        _EVAL_WORKER["graph"],
        factory,
        target,
        cost_assignment,
        metadata,
        ticket,
        algorithm_state,
        index,
    )


def _eval_worker_score(fault, seeds, ticket: RealizationTicket) -> float:
    """Score a fixed seed set under one realization (nonadaptive path)."""
    perform_fault(fault)
    realization = ticket.realize(_EVAL_WORKER["graph"])
    return float(realization.spread(seeds))


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #


class EvaluationPool:
    """A persistent worker pool running complete adaptive sessions.

    One pool serves one base graph, published once through the shared
    :class:`~repro.parallel.broker.SharedGraphBroker` (both CSR
    directions: workers reverse-sample RR sets *and* replay forward
    live-edge cascades).  Lifecycle mirrors
    :class:`~repro.parallel.pool.SamplingPool`: processes start lazily on
    first parallel use, ``close()`` is idempotent, and an
    ``eval_jobs=1`` pool never starts processes or shared memory — it
    runs the identical per-realization loop in-process, which is the
    subsystem's determinism contract.

    Parameters
    ----------
    graph:
        The full base graph every session runs on.
    eval_jobs:
        Worker-count request, resolved through :func:`resolve_eval_jobs`
        (``None`` honours ``REPRO_EVAL_JOBS``, defaulting to 1; ``-1``
        uses all cores).
    start_method:
        Multiprocessing start method; defaults to ``"fork"`` where
        available, else ``"spawn"``.
    task_timeout:
        Per-session timeout in seconds for supervised dispatch (``None``
        honours ``REPRO_TASK_TIMEOUT``; unset means wait forever).
    max_retries:
        Re-submissions before a failing session degrades to in-process
        execution (``None`` honours ``REPRO_TASK_RETRIES``, default 2).
    fault_plan:
        Fault-injection plan for chaos testing (``None`` honours
        ``REPRO_FAULT_SPEC``; an unarmed plan injects nothing).
    """

    def __init__(
        self,
        graph: ProbabilisticGraph,
        eval_jobs: Optional[int] = None,
        start_method: Optional[str] = None,
        task_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not isinstance(graph, ProbabilisticGraph):
            raise ValidationError(
                "EvaluationPool needs the full base ProbabilisticGraph "
                f"(sessions manage their own residual views), got {type(graph).__name__}"
            )
        self._base = graph
        self._jobs = resolve_eval_jobs(eval_jobs)
        self._start_method = start_method
        self._task_timeout = resolve_task_timeout(task_timeout)
        self._max_retries = resolve_max_retries(max_retries)
        self._faults = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._broker: Optional[SharedGraphBroker] = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def base(self) -> ProbabilisticGraph:
        """The base graph every session of this pool runs on."""
        return self._base

    @property
    def n_jobs(self) -> int:
        """Resolved session-worker count."""
        return self._jobs

    @property
    def running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._executor is not None

    def _ensure_workers(self) -> None:
        if self._closed:
            raise ValidationError("EvaluationPool is closed")
        if self._executor is not None:
            return
        import multiprocessing

        method = self._start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        fresh_broker = self._broker is None
        if fresh_broker:
            self._broker = SharedGraphBroker(self._base, directions=("in", "out"))
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self._jobs,
                mp_context=multiprocessing.get_context(method),
                initializer=_eval_worker_init,
                initargs=(self._broker.spec, self._base.name),
            )
        except BaseException:
            if fresh_broker:
                self._broker.close()
                self._broker = None
            raise

    def _rebuild_workers(self) -> None:
        """Replace a broken executor; the published graph segments survive."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        self._ensure_workers()

    def close(self) -> None:
        """Stop workers and unlink shared memory (idempotent)."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._broker is not None:
            self._broker.close()
            self._broker = None

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def _check_graph(self, graph) -> None:
        if graph is not self._base:
            raise ValidationError(
                "this EvaluationPool was built for a different base graph"
            )

    def _submit_run(
        self, index, factory, target, cost_assignment, metadata, ticket, state
    ):
        """Submit one session to the current executor (fault taken per submission)."""
        return self._executor.submit(
            _eval_worker_run,
            self._faults.take("eval"),
            index,
            factory,
            target,
            cost_assignment,
            metadata,
            ticket,
            state,
        )

    def _submit_score(self, seeds, ticket):
        """Submit one scoring task to the current executor."""
        return self._executor.submit(
            _eval_worker_score, self._faults.take("eval"), seeds, ticket
        )

    def run_sessions(
        self,
        factory,
        instance,
        tickets: Sequence[RealizationTicket],
        algorithm_states: Sequence[ShardState],
    ) -> List[SessionRecord]:
        """Run one adaptive session per ticket, merged in realization order.

        ``factory`` is an ``AlgorithmSpec``-style callable
        ``(instance, rng) -> algorithm`` and must be picklable (the suite
        builders use ``functools.partial`` over module-level functions).
        Session ``i`` always runs with ``algorithm_states[i]`` and
        realizes ``tickets[i]``; the pairing — not the worker count — is
        what the determinism contract keys on, so the returned records
        are bit-for-bit independent of ``eval_jobs`` (runtimes excepted:
        they are measured, not sampled).
        """
        if self._closed:
            raise ValidationError("EvaluationPool is closed")
        self._check_graph(instance.graph)
        tickets = list(tickets)
        states = list(algorithm_states)
        if len(tickets) != len(states):
            raise ValidationError(
                f"{len(tickets)} tickets but {len(states)} algorithm states"
            )
        target = list(instance.target)
        cost_assignment = instance.cost_assignment
        metadata = dict(instance.metadata)

        if self._jobs == 1 or len(tickets) <= 1:
            return [
                _run_one_session(
                    self._base,
                    factory,
                    target,
                    cost_assignment,
                    metadata,
                    ticket,
                    state,
                    index,
                )
                for index, (ticket, state) in enumerate(zip(tickets, states))
            ]

        self._ensure_workers()
        tasks = [
            SupervisedTask(
                index=index,
                label=f"evaluation session {index + 1}/{len(tickets)}",
                submit=partial(
                    self._submit_run,
                    index,
                    factory,
                    target,
                    cost_assignment,
                    metadata,
                    ticket,
                    state,
                ),
                run_local=partial(
                    _run_one_session,
                    self._base,
                    factory,
                    target,
                    cost_assignment,
                    metadata,
                    ticket,
                    state,
                    index,
                ),
            )
            for index, (ticket, state) in enumerate(zip(tickets, states))
        ]
        return supervised_collect(
            tasks,
            rebuild=self._rebuild_workers,
            tier="eval",
            timeout=self._task_timeout,
            max_retries=self._max_retries,
        )

    def score_selection(
        self,
        seeds: Sequence[int],
        tickets: Sequence[RealizationTicket],
        graph: Optional[ProbabilisticGraph] = None,
    ) -> List[float]:
        """Spread of one fixed seed set under every ticket's world.

        The nonadaptive counterpart of :meth:`run_sessions`: replay is
        deterministic given the realization, so the returned spreads are
        element-for-element what the sequential per-realization loop
        computes, for any ``eval_jobs``.  Pass the ``graph`` the tickets
        were built on to assert it is this pool's base graph — a ticket
        only knows its edge count, so a same-sized foreign graph would
        otherwise score silently wrong.
        """
        if self._closed:
            raise ValidationError("EvaluationPool is closed")
        if graph is not None:
            self._check_graph(graph)
        seed_list = [int(v) for v in seeds]
        tickets = list(tickets)
        if self._jobs == 1 or len(tickets) <= 1:
            return [
                float(ticket.realize(self._base).spread(seed_list))
                for ticket in tickets
            ]
        self._ensure_workers()
        tasks = [
            SupervisedTask(
                index=index,
                label=f"scoring task {index + 1}/{len(tickets)}",
                submit=partial(self._submit_score, seed_list, ticket),
                run_local=partial(self._score_local, seed_list, ticket),
            )
            for index, ticket in enumerate(tickets)
        ]
        return supervised_collect(
            tasks,
            rebuild=self._rebuild_workers,
            tier="eval",
            timeout=self._task_timeout,
            max_retries=self._max_retries,
        )

    def _score_local(self, seeds, ticket: RealizationTicket) -> float:
        """In-process scoring fallback for a degraded task."""
        return float(ticket.realize(self._base).spread(seeds))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else ("closed" if self._closed else "idle")
        return f"<EvaluationPool jobs={self._jobs} {state} on {self._base!r}>"


def parallel_evaluate_adaptive(
    factory,
    instance,
    realizations: Sequence[Union[BaseRealization, RealizationTicket]],
    random_state: RandomState = None,
    eval_jobs: Optional[int] = None,
    pool: Optional[EvaluationPool] = None,
) -> List[SessionRecord]:
    """Run one adaptive session per realization across evaluation workers.

    The functional entry point of the subsystem: coerces ``realizations``
    into tickets, spawns one algorithm RNG stream per realization from
    ``random_state`` (parent-side, so the stream family is independent of
    the worker count), and dispatches through ``pool`` — or an ephemeral
    :class:`EvaluationPool` resolved from ``eval_jobs`` when no pool is
    given.  Repeated callers (the experiment suites) should hold a pool
    open instead of paying worker start-up per algorithm.
    """
    tickets = as_tickets(realizations)
    states = spawn_shard_states(random_state, len(tickets))
    with pool_for(instance.graph, eval_jobs, pool) as active:
        return active.run_sessions(factory, instance, tickets, states)


def pool_for(
    graph: ProbabilisticGraph,
    eval_jobs: Optional[int] = None,
    pool: Optional[EvaluationPool] = None,
):
    """Context manager yielding ``pool``, or an ephemeral pool on ``graph``.

    A caller's ``pool`` stays open on exit; the ephemeral one (resolved
    from ``eval_jobs``) is closed.
    """
    if pool is not None:
        return nullcontext(pool)
    return EvaluationPool(graph, eval_jobs=eval_jobs)
