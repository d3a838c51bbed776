"""Warm, versioned per-graph state behind the seeding service.

:class:`ServiceState` owns everything expensive the batch drivers used to
rebuild per run:

* registered :class:`~repro.graphs.graph.ProbabilisticGraph` instances,
  each under an immutable **version** string (the first component of
  every cache key, so re-registering an updated graph under a new version
  never serves stale answers);
* one :class:`~repro.parallel.pool.SamplingPool` of ``n_jobs`` threads
  shared by every graph, which splits a collection of at least
  :data:`~repro.parallel.pool.MIN_SPLIT` sets over its threads (smaller
  ones are drawn in the batch's own thread);
* a bounded LRU of **warm RR collections** keyed on
  ``(version, residual-mask digest)`` — the generalisation of the
  ``sample_reuse`` cache of :class:`~repro.core.oracle.RISSpreadOracle`
  to many residual states held concurrently;
* a bounded LRU of **answers** keyed on ``(version, residual-mask
  digest, frozen parameters, typed query fields)`` with
  hit/miss/eviction counters (:mod:`repro.service.cache`).

Every request enters through :meth:`ServiceState.admit`, which reads each
field of its payload once into a :class:`Query`; the cache, the batch and
the deadline all read that query.

Determinism contract
--------------------
Every answer is a pure function of ``(master seed, version, residual
state, query)``: the RR stream of a residual state is derived from
``SeedSequence([master_seed, graph_index, digest])`` and the Monte-Carlo
realization stream from the same key plus the simulation count — never
from request arrival order.  Batched execution therefore returns exactly
the answers sequential unbatched execution returns, and a restarted
service with the same seed reproduces its streams bit-for-bit (the same
property journal-mode sweeps rely on; see ``docs/service.md``).

Shutdown is graceful and idempotent: :meth:`close` joins the sampling
threads and may be called repeatedly, including from signal handlers
racing an in-flight batch.
"""

from __future__ import annotations

import hashlib
import math
import operator
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.diffusion.mc_engine import replay_live_edges, sample_live_chunks
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph
from repro.parallel.faults import FaultPlan, FaultRule
from repro.parallel.pool import SamplingPool
from repro.sampling.coverage import CoverageCounter
from repro.sampling.flat_collection import FlatRRCollection
from repro.service.cache import LRUCache, mask_digest
from repro.service.resilience import error_answer, is_error_answer, raise_error_answer
from repro.utils.env import read_env_int
from repro.utils.exceptions import (
    DeadlineExceeded,
    ReproError,
    ServiceOverloadError,
    ValidationError,
)

#: Answer-cache capacity knob (entries; default 1024, 0 disables).
CACHE_SIZE_ENV_VAR = "REPRO_SERVICE_CACHE_SIZE"

#: Warm-collection cache capacity knob (residual states held; default 8).
COLLECTIONS_ENV_VAR = "REPRO_SERVICE_COLLECTIONS"

DEFAULT_CACHE_SIZE = 1024
DEFAULT_COLLECTIONS = 8

#: Query operations the state answers (the service's query grammar).
OPERATIONS = ("spread", "marginal", "mc_spread", "topk")


@dataclass(frozen=True, eq=False)
class Query:
    """One admitted request: every field checked and converted once.

    Only :meth:`ServiceState.admit` builds one.  Node ids are ints in
    ``[0, n)``, ``removed`` is sorted without repeats, absent counts hold
    their defaults, and ``deadline`` is an absolute :func:`time.monotonic`
    time (``None``: no deadline).  The query also carries what its fields
    determine: the graph entry, the residual view, its mask digest and
    the answer-cache key.
    """

    op: str
    entry: GraphEntry
    seeds: Tuple[int, ...]
    node: Optional[int]
    conditioning: Tuple[int, ...]
    segment: Optional[Tuple[int, ...]]
    removed: Tuple[int, ...]
    k: int
    budget: Optional[float]
    simulations: int
    samples: Optional[int]
    deadline: Optional[float]
    view: ResidualGraph
    digest: str
    #: ``(version, digest, parameters, op, seeds, node, conditioning, k,
    #: budget, segment, simulations, samples)`` — ``samples`` last, so
    #: ``key[:-1] + (None,)`` is the same question at the default θ.
    key: Tuple[Any, ...]


def _digest_entropy(digest: str) -> int:
    """Map a residual-state digest to a SeedSequence entropy word."""
    return int.from_bytes(
        hashlib.blake2b(digest.encode("ascii"), digest_size=8).digest(), "big"
    )


def resolve_cache_size(cache_size: Optional[int] = None) -> int:
    """Answer-cache capacity: explicit value, else env, else the default."""
    if cache_size is None:
        cache_size = read_env_int(CACHE_SIZE_ENV_VAR, hint="e.g. 1024, or 0 to disable")
        if cache_size is None:
            return DEFAULT_CACHE_SIZE
    cache_size = int(cache_size)
    if cache_size < 0:
        raise ValidationError(f"cache size must be >= 0, got {cache_size}")
    return cache_size


def resolve_collection_capacity(capacity: Optional[int] = None) -> int:
    """Warm-collection capacity: explicit value, else env, else the default."""
    if capacity is None:
        capacity = read_env_int(COLLECTIONS_ENV_VAR, hint="e.g. 8 residual states")
        if capacity is None:
            return DEFAULT_COLLECTIONS
    capacity = int(capacity)
    if capacity < 1:
        raise ValidationError(f"collection capacity must be >= 1, got {capacity}")
    return capacity


@dataclass
class GraphEntry:
    """One registered graph: version, costs, per-graph counters."""

    version: str
    index: int
    graph: ProbabilisticGraph
    costs: Dict[int, float]
    queries: int = 0
    generations: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)


class ServiceState:
    """The long-lived, queryable core of the seeding service.

    Parameters
    ----------
    num_samples:
        RR sets generated per residual state (the accuracy knob shared by
        ``spread`` / ``marginal`` / ``topk`` answers).
    mc_simulations:
        Default realization count of ``mc_spread`` queries.
    seed:
        Master seed every per-state RNG stream is derived from.
    n_jobs:
        Threads for RR generation (``None`` honours ``REPRO_JOBS``, then
        uses every usable core; ``-1`` = all cores).  Answers do not
        depend on it.
    cache_size / collection_capacity:
        Capacities of the answer / warm-collection LRUs (``None`` honours
        ``REPRO_SERVICE_CACHE_SIZE`` / ``REPRO_SERVICE_COLLECTIONS``).
    fault_plan:
        Service-tier fault-injection plan for chaos testing (``None``
        reads ``REPRO_FAULT_SPEC``; an empty plan injects nothing).  The
        unit of submission is one query reaching :meth:`execute_batch`.
    backend:
        Kernel backend for RR generation and live-edge replay, resolved
        through the registry at construction (``None`` honours
        ``REPRO_BACKEND``, then ``"auto"``, the fastest available kernel:
        ``"native"`` where it builds).  Every backend is bit-for-bit
        identical, so answers never depend on the choice.
    """

    def __init__(
        self,
        num_samples: int = 2000,
        mc_simulations: int = 1000,
        seed: int = 2020,
        n_jobs: Optional[int] = None,
        cache_size: Optional[int] = None,
        collection_capacity: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        backend: Optional[str] = None,
    ) -> None:
        if num_samples < 1:
            raise ValidationError(f"num_samples must be >= 1, got {num_samples}")
        self._num_samples = int(num_samples)
        self._mc_simulations = int(mc_simulations)
        self._seed = int(seed)
        self._pool = SamplingPool(n_jobs)
        # Resolve now: an unknown/unavailable backend fails at service
        # start-up, not on the first query.
        self._backend = kernels.resolve_backend(backend)
        self._graphs: Dict[str, GraphEntry] = {}
        self._answers = LRUCache(resolve_cache_size(cache_size))
        self._collections = LRUCache(resolve_collection_capacity(collection_capacity))
        self._faults = fault_plan if fault_plan is not None else FaultPlan.from_env()
        #: removed-node lists by ``(version, digest)`` — digests are not
        #: invertible, so warm-restart needs this to rebuild residual views.
        self._removed_by_digest: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self._deadline_expired = 0
        self._degraded_answers = 0
        self._faults_injected = 0
        self._journal = None  # set by enable_journal()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # graph registration
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def answer_cache(self) -> LRUCache:
        """The bounded answer LRU."""
        return self._answers

    @property
    def collection_cache(self) -> LRUCache:
        """The bounded warm-collection LRU."""
        return self._collections

    @property
    def versions(self) -> Tuple[str, ...]:
        """Registered graph versions, in registration order."""
        return tuple(self._graphs)

    def register_graph(
        self,
        graph: ProbabilisticGraph,
        costs: Optional[Mapping[int, float]] = None,
        version: Optional[str] = None,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Register ``graph`` under an immutable version string.

        Versions are write-once: publishing an updated graph means
        registering it under a *new* version, so cached answers keyed on
        the old version can never leak onto the new graph.  Returns the
        version (auto-assigned ``"g<index>"`` when not given).
        """
        self._require_open()
        index = len(self._graphs)
        version = f"g{index}" if version is None else str(version)
        if version in self._graphs:
            raise ValidationError(
                f"graph version {version!r} is already registered; versions are "
                f"immutable — register updated graphs under a new version"
            )
        cost_map = {int(k): float(v) for k, v in (costs or {}).items()}
        entry = GraphEntry(
            version=version,
            index=index,
            graph=graph,
            costs=cost_map,
            metadata=dict(metadata or {}),
        )
        self._graphs[version] = entry
        if self._journal is not None:
            self._journal.record_graph(self, entry)
        return version

    def entry(self, version: Optional[str] = None) -> GraphEntry:
        """Look up a registered graph (``None`` = the first registered)."""
        if not self._graphs:
            raise ValidationError("no graph is registered with this service")
        if version is None:
            return next(iter(self._graphs.values()))
        try:
            return self._graphs[str(version)]
        except KeyError:
            known = ", ".join(self._graphs)
            raise ValidationError(
                f"unknown graph version {version!r}; registered: {known}"
            ) from None

    # ------------------------------------------------------------------ #
    # warm collections & derived streams
    # ------------------------------------------------------------------ #

    def _require_open(self) -> None:
        if self._closed:
            raise ValidationError("ServiceState is closed")

    @staticmethod
    def _residual_view(
        entry: GraphEntry, removed: Tuple[int, ...]
    ) -> Tuple[ResidualGraph, str]:
        """The residual view without the (checked) ``removed`` ids, and its digest."""
        graph = entry.graph
        if not removed:
            return ResidualGraph(graph), "full"
        mask = np.ones(graph.n, dtype=bool)
        mask[list(removed)] = False
        return ResidualGraph(graph, active_mask=mask), mask_digest(mask)

    def _stream(self, entry: GraphEntry, digest: str, *extra: int) -> np.random.Generator:
        """Derive the deterministic RNG stream of one (graph, state) pair."""
        words = [self._seed, entry.index, _digest_entropy(digest), *extra]
        return np.random.default_rng(np.random.SeedSequence(words))

    def collection_for(
        self,
        entry: GraphEntry,
        view: ResidualGraph,
        digest: str,
        num_samples: Optional[int] = None,
    ) -> FlatRRCollection:
        """The warm RR collection of one residual state (generate on miss).

        The generation stream depends only on ``(master seed, graph
        index, digest)`` — plus the sample count when a query overrides
        θ — so an evicted-and-regenerated collection is bit-for-bit the
        one that was dropped: cache pressure can change latency but never
        answers, and neither can the thread count.
        """
        num = self._num_samples if num_samples is None else int(num_samples)
        key = (entry.version, digest, num)
        collection = self._collections.get(key)
        if collection is not None:
            return collection
        if num == self._num_samples:
            rng = self._stream(entry, digest)
        else:
            # Extra words (a tag plus the count) keep override streams
            # disjoint from both the default-count collection stream and
            # the mc_spread streams, which use a single extra word.
            rng = self._stream(entry, digest, 1, num)
        collection = FlatRRCollection.generate(
            view, num, rng, backend=self._backend, pool=self._pool
        )
        entry.generations += 1
        self._collections.put(key, collection)
        if self._journal is not None:
            self._journal.record_collection(
                entry.version,
                digest,
                num,
                () if digest == "full"
                else self._removed_by_digest.get((entry.version, digest)),
            )
        return collection

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _parameters(self) -> Tuple[int, int, int]:
        """The frozen-parameter component of every answer-cache key."""
        return (self._seed, self._num_samples, self._mc_simulations)

    def admit(
        self, payload: Mapping[str, Any], default_deadline_ms: Optional[float] = None
    ) -> Query:
        """Check and convert every field of a request payload, once.

        The one reader of the query grammar (``docs/service.md``): a field
        that does not parse raises :class:`ValidationError` naming it, so a
        bad request is refused before any cache lookup.  ``deadline_ms``,
        else ``default_deadline_ms``, is armed now as an absolute deadline.
        """
        op = str(payload.get("op", "spread"))
        if op not in OPERATIONS:
            raise ValidationError(
                f"unknown op {op!r}; available: {', '.join(OPERATIONS)}"
            )
        entry = self.entry(payload.get("version"))
        n = entry.graph.n
        node = payload.get("node")
        if node is not None:
            node = _node_id("node", node, n)
        elif op == "marginal":
            raise ValidationError("node: op 'marginal' needs a node id")
        seeds = _node_ids("seeds", payload.get("seeds"), n)
        conditioning = _node_ids("conditioning", payload.get("conditioning"), n)
        segment = payload.get("segment")
        if segment is not None:
            segment = _node_ids("segment", segment, n)
        removed = tuple(sorted(set(_node_ids("removed", payload.get("removed"), n))))
        k = _positive_count("k", payload.get("k"), 1)
        budget = payload.get("budget")
        if budget is not None:
            budget = _number("budget", budget)
        # Any falsy ``simulations`` (0 included) keeps meaning the default.
        simulations = _positive_count(
            "simulations", payload.get("simulations") or None, self._mc_simulations
        )
        samples = _positive_count("samples", payload.get("samples"), None)
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = default_deadline_ms
        else:
            deadline_ms = _number("deadline_ms", deadline_ms)
            if deadline_ms <= 0:
                raise ValidationError(
                    f"deadline_ms must be > 0 milliseconds, got {deadline_ms}"
                )
        deadline = (
            None if deadline_ms is None else time.monotonic() + deadline_ms / 1000.0
        )
        view, digest = self._residual_view(entry, removed)
        key = (
            entry.version, digest, self._parameters(), op, seeds, node,
            conditioning, k, budget, segment, simulations, samples,
        )
        return Query(
            op=op, entry=entry, seeds=seeds, node=node, conditioning=conditioning,
            segment=segment, removed=removed, k=k, budget=budget,
            simulations=simulations, samples=samples, deadline=deadline,
            view=view, digest=digest, key=key,
        )

    def _as_query(self, request: Union[Mapping[str, Any], Query]) -> Query:
        """``request`` as a :class:`Query`, admitting a plain payload here."""
        return request if isinstance(request, Query) else self.admit(request)

    def try_cached(
        self, request: Union[Mapping[str, Any], Query]
    ) -> Optional[Dict[str, Any]]:
        """Answer ``request`` from the cache, or ``None`` on a miss.

        The fast path the API server takes before it submits to the
        batcher: the query's one counted hit or miss.
        """
        self._require_open()
        cached = self._answers.get(self._as_query(request).key)
        return None if cached is None else dict(cached, cached=True)

    def try_degraded(
        self, request: Union[Mapping[str, Any], Query]
    ) -> Optional[Dict[str, Any]]:
        """A cached answer served *degraded*, or ``None`` when there is none.

        Under deadline pressure the service prefers a correct-but-older
        answer over a 504: the exact cache key is probed first (the real
        answer may have landed while the caller was timing out), then —
        when the query asked for a larger θ via ``samples`` — the same
        query at the default θ.  Lookups use recency-neutral, uncounted
        peeks, so degraded serving never perturbs cache statistics or
        eviction order, and the state lock is not taken (reads race an
        in-flight batch benignly: worst case is a miss).
        """
        self._require_open()
        return self._degraded_lookup(self._as_query(request))

    def _degraded_lookup(self, query: Query) -> Optional[Dict[str, Any]]:
        keys = [query.key]
        if query.samples is not None:
            keys.append(query.key[:-1] + (None,))
        for key in keys:
            cached = self._answers.peek(key)
            if cached is not None:
                self._degraded_answers += 1
                return dict(cached, cached=True, degraded=True)
        return None

    def _perform_service_fault(
        self, rule: FaultRule, request: Mapping[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Execute one armed service-tier fault; an answer sheds the query."""
        self._faults_injected += 1
        if rule.kind == "delay":
            time.sleep(rule.seconds)
            return None
        if rule.kind == "reject":
            return error_answer(
                ServiceOverloadError(
                    f"injected fault: shed service submission #{rule.nth}",
                    retry_after_ms=10.0,
                )
            )
        return None  # pragma: no cover - parser rejects other kinds

    def execute_batch(
        self, requests: Sequence[Union[Mapping[str, Any], Query]]
    ) -> List[Dict[str, Any]]:
        """Answer a coalesced batch of queries.

        Each request is a plain payload, admitted here, or a :class:`Query`
        the caller admitted — the server's, whose counted cache lookup was
        its :meth:`try_cached`, so the batch's re-check does not count it
        again.  Queries are grouped by ``(version, residual digest,
        operation family, θ)``; each group shares one warm collection and —
        for coverage-style queries — one fused
        :meth:`~repro.sampling.flat_collection.FlatRRCollection.batch_coverage`
        call, and for ``mc_spread`` one bulk coin-flip pass whose
        realizations every query in the group replays.  Answers are
        bit-for-bit identical to sequential single-request execution (see
        the module docstring), which is what makes coalescing safe.

        One state lock serialises batch execution: the batcher is the
        only steady-state caller, but shutdown paths may race it.
        """
        self._require_open()
        with self._lock:
            return self._execute_batch_locked(requests)

    def _execute_batch_locked(
        self, requests: Sequence[Union[Mapping[str, Any], Query]]
    ) -> List[Dict[str, Any]]:
        results: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        queries: List[Optional[Query]] = [None] * len(requests)
        groups: Dict[Tuple[str, str, str, int], List[int]] = {}
        for position, request in enumerate(requests):
            rule = self._faults.take("service")
            if rule is not None:
                shed = self._perform_service_fault(rule, request)
                if shed is not None:
                    results[position] = shed
                    continue
            try:
                query = self._as_query(request)
            except ReproError as exc:
                # A bad request is answered in place — its batchmates
                # never see it (the serving tier's poison isolation).
                results[position] = error_answer(exc)
                continue
            queries[position] = query
            if query.removed:
                self._removed_by_digest[(query.entry.version, query.digest)] = (
                    query.removed
                )
            # A Query admitted by the caller was counted by its try_cached.
            cached = self._answers.get(query.key, count=query is not request)
            if cached is not None:
                results[position] = dict(cached, cached=True)
                continue
            if query.deadline is not None and query.deadline <= time.monotonic():
                # The deadline budget was eaten before this batch ran
                # (queueing, an earlier slow batch, an injected delay).
                # Prefer a degraded cached answer; otherwise a structured
                # 504 — either way the rest of the batch is untouched.
                self._deadline_expired += 1
                degraded = self._degraded_lookup(query)
                if degraded is not None:
                    results[position] = degraded
                else:
                    results[position] = error_answer(
                        DeadlineExceeded(
                            "query deadline expired before execution "
                            "(raise deadline_ms or reduce load)"
                        )
                    )
                continue
            family = "mc" if query.op == "mc_spread" else "ris"
            theta = self._num_samples if query.samples is None else query.samples
            groups.setdefault(
                (query.entry.version, query.digest, family, theta), []
            ).append(position)
        for (_, _, family, theta), positions in groups.items():
            members = [queries[p] for p in positions]
            try:
                if family == "mc":
                    answers = self._answer_mc_group(members)
                else:
                    answers = self._answer_ris_group(members, theta)
            except ReproError as exc:
                # Group-level failure (generation died beyond recovery):
                # every member gets the structured error, nobody hangs.
                answers = [error_answer(exc) for _ in positions]
            for query, position, answer in zip(members, positions, answers):
                if is_error_answer(answer):
                    results[position] = answer
                    continue
                answer["cached"] = False
                cache_value = dict(answer, cached=None)
                self._answers.put(query.key, cache_value)
                if self._journal is not None:
                    self._journal.record_answer(query.key, cache_value)
                results[position] = answer
            members[0].entry.queries += len(positions)
        return [dict(r) for r in results]  # type: ignore[arg-type]

    def query(self, request: Union[Mapping[str, Any], Query]) -> Dict[str, Any]:
        """Answer one request (the unbatched reference path).

        Structured error answers are converted back into their typed
        exceptions here, so direct callers get the exception raised while
        batch execution stays poison-free.
        """
        answer = self.execute_batch([request])[0]
        raise_error_answer(answer)
        return answer

    # ------------------------------------------------------------------ #
    # group evaluators
    # ------------------------------------------------------------------ #

    def _answer_ris_group(
        self, queries: Sequence[Query], num_samples: int
    ) -> List[Dict[str, Any]]:
        first = queries[0]
        collection = self.collection_for(
            first.entry, first.view, first.digest, num_samples=num_samples
        )
        version = first.entry.version
        spread_positions = [i for i, q in enumerate(queries) if q.op == "spread"]
        spreads = {}
        if spread_positions:
            estimates = collection.estimate_spreads(
                [queries[i].seeds for i in spread_positions]
            )
            spreads = dict(zip(spread_positions, estimates))
        answers: List[Dict[str, Any]] = []
        for i, query in enumerate(queries):
            try:
                if query.op == "spread":
                    answers.append(
                        {"op": "spread", "version": version,
                         "seeds": list(query.seeds), "spread": float(spreads[i])}
                    )
                elif query.op == "marginal":
                    value = collection.estimate_marginal_spread(
                        query.node, list(query.conditioning)
                    )
                    answers.append(
                        {"op": "marginal", "version": version, "node": query.node,
                         "conditioning": list(query.conditioning),
                         "marginal_spread": float(value)}
                    )
                else:  # topk
                    answers.append(self._answer_topk(collection, query))
            except ReproError as exc:
                answers.append(error_answer(exc))
        return answers

    def _answer_topk(
        self, collection: FlatRRCollection, query: Query
    ) -> Dict[str, Any]:
        """Budgeted, segment-restricted greedy max-coverage seed selection."""
        if query.segment is None:
            candidates = collection.nodes_appearing().astype(np.int64)
        else:
            candidates = np.asarray(query.segment, dtype=np.int64)
        counter = CoverageCounter(collection)
        costs = np.asarray(
            [query.entry.costs.get(int(v), 1.0) for v in candidates], dtype=np.float64
        )
        picked = np.zeros(candidates.shape[0], dtype=bool)
        chosen: List[int] = []
        total_cost = 0.0
        remaining = np.inf if query.budget is None else query.budget
        for _ in range(query.k):
            if candidates.size == 0:
                break
            gains = counter.marginal_counts[candidates].astype(np.int64)
            gains[picked] = -1
            gains[costs > remaining] = -1
            best = int(np.argmax(gains))
            if gains[best] <= 0:
                break
            node = int(candidates[best])
            chosen.append(node)
            picked |= candidates == node
            remaining -= costs[best]
            total_cost += float(costs[best])
            counter.add([node])
        sets = max(collection.num_sets, 1)
        spread = counter.coverage() * collection.num_active_nodes / sets
        return {
            "op": "topk",
            "version": query.entry.version,
            "seeds": chosen,
            "spread": float(spread),
            "cost": total_cost,
            "budget": query.budget,
        }

    def _answer_mc_group(self, queries: Sequence[Query]) -> List[Dict[str, Any]]:
        """Answer ``mc_spread`` queries from one shared realization stream.

        The stream is derived from ``(seed, graph, digest, simulations)``
        — not from the batch composition — so however arrivals coalesce,
        every query replays the same realizations and gets the same
        answer it would get alone (the coin flips are simply amortised
        over however many queries share the batch).
        """
        first = queries[0]
        by_sims: Dict[int, List[int]] = {}
        answers: List[Optional[Dict[str, Any]]] = [None] * len(queries)
        for i, query in enumerate(queries):
            by_sims.setdefault(query.simulations, []).append(i)
        probs = first.entry.graph.out_csr()[2]
        for sims, positions in by_sims.items():
            seed_sets = [list(queries[i].seeds) for i in positions]
            rng = self._stream(first.entry, first.digest, sims)
            totals = np.zeros(len(positions), dtype=np.int64)
            for live in sample_live_chunks(rng, probs, sims):
                for j, seeds in enumerate(seed_sets):
                    if seeds:
                        totals[j] += int(
                            replay_live_edges(
                                first.view, seeds, live, backend=self._backend
                            ).sum()
                        )
            for j, i in enumerate(positions):
                answers[i] = {
                    "op": "mc_spread",
                    "version": first.entry.version,
                    "seeds": seed_sets[j],
                    "spread": float(totals[j] / sims),
                    "simulations": sims,
                }
        return [dict(a) for a in answers]  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # metrics & lifecycle
    # ------------------------------------------------------------------ #

    def metrics(self) -> Dict[str, Any]:
        """Counters the ``/metrics`` endpoint serialises."""
        return {
            "closed": self._closed,
            "seed": self._seed,
            "num_samples": self._num_samples,
            "mc_simulations": self._mc_simulations,
            "backend": self._backend,
            "answer_cache": dict(
                self._answers.stats.as_dict(), size=len(self._answers),
                capacity=self._answers.capacity,
            ),
            "collection_cache": dict(
                self._collections.stats.as_dict(), size=len(self._collections),
                capacity=self._collections.capacity,
            ),
            "resilience": {
                "deadline_expired": self._deadline_expired,
                "degraded_answers": self._degraded_answers,
                "faults_injected": self._faults_injected,
            },
            "graphs": {
                version: {
                    "index": entry.index,
                    "nodes": entry.graph.n,
                    "edges": entry.graph.m,
                    "queries": entry.queries,
                    "generations": entry.generations,
                }
                for version, entry in self._graphs.items()
            },
        }

    # ------------------------------------------------------------------ #
    # crash-safe warm restart
    # ------------------------------------------------------------------ #

    def enable_journal(self, state_dir) -> "Any":
        """Journal warm state to ``state_dir`` from now on.

        Attaching first *compacts* the journal to the state's current
        contents (atomic per-file rewrite), then every graph
        registration, cached answer and warm-collection generation is
        appended and flushed as it happens — so a SIGKILL at any moment
        loses at most one torn line.  Returns the attached journal.
        Re-attaching the directory the state was just restored from is
        idempotent.
        """
        from repro.service.persistence import StateJournal

        self._require_open()
        journal = StateJournal(state_dir)
        journal.attach(self)
        self._journal = journal
        return journal

    def snapshot(self, state_dir=None) -> "Any":
        """Write (or compact) a full journal of the current warm state.

        With ``state_dir=None`` the attached journal is compacted in
        place; otherwise a one-shot journal is written to ``state_dir``
        without enabling incremental journaling.  Returns the journal.
        """
        from repro.service.persistence import StateJournal

        self._require_open()
        if state_dir is None:
            if self._journal is None:
                raise ValidationError(
                    "snapshot() needs a state_dir when no journal is "
                    "attached (call enable_journal first)"
                )
            journal = self._journal
        else:
            journal = StateJournal(state_dir)
        journal.attach(self)
        return journal

    @classmethod
    def restore(
        cls,
        state_dir,
        n_jobs: Optional[int] = None,
        cache_size: Optional[int] = None,
        collection_capacity: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        rebuild_collections: bool = True,
        backend: Optional[str] = None,
    ) -> "ServiceState":
        """Rebuild a state from a journal dir (bit-for-bit answers).

        See :func:`repro.service.persistence.restore_state`; call
        :meth:`enable_journal` afterwards to keep journaling.
        """
        from repro.service.persistence import restore_state

        return restore_state(
            state_dir,
            n_jobs=n_jobs,
            cache_size=cache_size,
            collection_capacity=collection_capacity,
            fault_plan=fault_plan,
            rebuild_collections=rebuild_collections,
            backend=backend,
        )

    def close(self) -> None:
        """Join the sampling threads and drop warm state (idempotent).

        Safe to call repeatedly and concurrently with an in-flight batch:
        the state lock is taken so a batch mid-execution finishes before
        the pool it may be using is shut down, and a second close finds
        everything already released.
        """
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            self._pool.close()
            self._collections.clear()
            self._answers.clear()

    def __enter__(self) -> "ServiceState":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# field parsers of ServiceState.admit
# ---------------------------------------------------------------------- #


def _integer(value: Any) -> Optional[int]:
    """``value`` as an int when it denotes one exactly (``2``, ``2.0``, ``"2"``).

    ``None`` otherwise: booleans, fractions, non-finite floats and other
    types denote no integer.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _node_id(name: str, value: Any, n: int) -> int:
    """One node id of field ``name``, an integer in ``[0, n)``."""
    node = _integer(value)
    if node is None:
        raise ValidationError(f"{name}: expected an integer node id, got {value!r}")
    if not 0 <= node < n:
        raise ValidationError(f"{name}: node id {node} is outside [0, {n})")
    return node


def _node_ids(name: str, value: Any, n: int) -> Tuple[int, ...]:
    """A node-list field as a tuple of ids in ``[0, n)`` (``()`` when absent)."""
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name}: expected a list of node ids, got {value!r}")
    return tuple(_node_id(name, v, n) for v in value)


def _positive_count(name: str, value: Any, default: Optional[int]) -> Optional[int]:
    """A count field as an integer ``>= 1`` (``default`` when absent)."""
    if value is None:
        return default
    count = _integer(value)
    if count is None:
        raise ValidationError(f"{name}: expected an integer, got {value!r}")
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    return count


def _number(name: str, value: Any) -> float:
    """A numeric field as a float; booleans, NaN and non-numbers are refused."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if math.isnan(number):
        raise ValidationError(f"{name}: expected a number, got {value!r}")
    return number
