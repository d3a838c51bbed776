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
  digest, frozen parameters, query key)`` with hit/miss/eviction counters
  (:mod:`repro.service.cache`).

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
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.diffusion.mc_engine import replay_live_edges, sample_live_chunks
from repro.graphs.graph import ProbabilisticGraph
from repro.graphs.residual import ResidualGraph
from repro.parallel.faults import FaultPlan, FaultRule
from repro.parallel.pool import SamplingPool
from repro.sampling.coverage import CoverageCounter
from repro.sampling.flat_collection import FlatRRCollection
from repro.service.cache import LRUCache, answer_key, mask_digest
from repro.service.resilience import (
    error_answer,
    expired,
    is_error_answer,
    raise_error_answer,
)
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

    def _residual_view(
        self, entry: GraphEntry, removed: Sequence[int]
    ) -> Tuple[ResidualGraph, Optional[np.ndarray], str]:
        """Build the residual view a query addresses and its digest."""
        graph = entry.graph
        if not removed:
            return ResidualGraph(graph), None, "full"
        mask = np.ones(graph.n, dtype=bool)
        mask[_removed_ids(removed, graph.n)] = False
        return ResidualGraph(graph, active_mask=mask), mask, mask_digest(mask)

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

    def try_cached(self, request: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """Answer ``request`` from the cache, or ``None`` on a miss.

        The fast path the API server takes before it submits to the
        batcher; counts one hit or miss against the answer cache.
        """
        self._require_open()
        _, entry = self._admit(request)
        _, mask, digest = self._residual_view(entry, request.get("removed") or ())
        key = answer_key(entry.version, mask, self._parameters(), _query_of(request))
        cached = self._answers.get(key)
        if cached is None:
            return None
        return dict(cached, cached=True)

    def _admit(self, request: Mapping[str, Any]) -> Tuple[str, GraphEntry]:
        """The request's op and graph entry, once its op and fields check.

        Both entry points — the cache fast path and the batch — call this
        first, so a request that names a node outside ``[0, n)``, or whose
        ``k``, ``simulations``, ``budget`` or ``samples`` does not parse,
        is refused before any lookup, even one an older journal answered.
        """
        op = str(request.get("op", "spread"))
        if op not in OPERATIONS:
            raise ValidationError(
                f"unknown op {op!r}; available: {', '.join(OPERATIONS)}"
            )
        entry = self.entry(request.get("version"))
        _check_node_ids(request, op, entry.graph.n)
        _removed_ids(request.get("removed") or (), entry.graph.n)
        _count_field(request, "samples")
        if op == "topk":
            _count_field(request, "k", 1)
            _budget_field(request)
        elif op == "mc_spread":
            _count_field(request, "simulations", self._mc_simulations)
        return op, entry

    def try_degraded(self, request: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
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
        entry = self.entry(request.get("version"))
        _, mask, _ = self._residual_view(entry, request.get("removed") or ())
        return self._degraded_lookup(entry, mask, _query_of(request))

    def _degraded_lookup(
        self, entry: GraphEntry, mask: Optional[np.ndarray], query: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        candidates = [query]
        if "samples" in query:
            candidates.append({k: v for k, v in query.items() if k != "samples"})
        for candidate in candidates:
            key = answer_key(entry.version, mask, self._parameters(), candidate)
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
        self, requests: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Answer a coalesced batch of query payloads.

        Requests are grouped by ``(version, residual digest, operation
        family)``; each group shares one warm collection and — for
        coverage-style queries — one fused
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
        self, requests: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        results: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        groups: Dict[Tuple[str, str, str, int], List[int]] = {}
        contexts: List[Optional[Tuple[GraphEntry, ResidualGraph, str, Any]]] = [
            None
        ] * len(requests)
        for position, request in enumerate(requests):
            rule = self._faults.take("service")
            if rule is not None:
                shed = self._perform_service_fault(rule, request)
                if shed is not None:
                    results[position] = shed
                    continue
            try:
                op, entry = self._admit(request)
                view, mask, digest = self._residual_view(
                    entry, request.get("removed") or ()
                )
                samples = _count_field(request, "samples")
                key = answer_key(
                    entry.version, mask, self._parameters(), _query_of(request)
                )
            except (ValidationError, ReproError) as exc:
                # A bad request is answered in place — its batchmates
                # never see it (the serving tier's poison isolation).
                results[position] = error_answer(exc)
                continue
            if digest != "full":
                self._removed_by_digest[(entry.version, digest)] = tuple(
                    sorted({int(v) for v in request.get("removed") or ()})
                )
            cached = self._answers.get(key)
            contexts[position] = (entry, view, digest, key)
            if cached is not None:
                results[position] = dict(cached, cached=True)
                continue
            if expired(request):
                # The deadline budget was eaten before this batch ran
                # (queueing, an earlier slow batch, an injected delay).
                # Prefer a degraded cached answer; otherwise a structured
                # 504 — either way the rest of the batch is untouched.
                self._deadline_expired += 1
                degraded = self._degraded_lookup(entry, mask, _query_of(request))
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
            family = "mc" if op == "mc_spread" else "ris"
            effective = self._num_samples if samples is None else samples
            groups.setdefault(
                (entry.version, digest, family, effective), []
            ).append(position)
        for (version, digest, family, samples), positions in groups.items():
            entry, view, _, _ = contexts[positions[0]]
            group_requests = [requests[p] for p in positions]
            try:
                if family == "mc":
                    answers = self._answer_mc_group(
                        entry, view, digest, group_requests
                    )
                else:
                    answers = self._answer_ris_group(
                        entry, view, digest, group_requests, num_samples=samples
                    )
            except (ValidationError, ReproError) as exc:
                # Group-level failure (generation died beyond recovery):
                # every member gets the structured error, nobody hangs.
                answers = [error_answer(exc) for _ in positions]
            for position, answer in zip(positions, answers):
                if is_error_answer(answer):
                    results[position] = answer
                    continue
                answer["cached"] = False
                cache_value = dict(answer, cached=None)
                self._answers.put(contexts[position][3], cache_value)
                if self._journal is not None:
                    self._journal.record_answer(contexts[position][3], cache_value)
                results[position] = answer
            entry.queries += len(positions)
        return [dict(r) for r in results]  # type: ignore[arg-type]

    def query(self, request: Mapping[str, Any]) -> Dict[str, Any]:
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
        self,
        entry: GraphEntry,
        view: ResidualGraph,
        digest: str,
        requests: Sequence[Mapping[str, Any]],
        num_samples: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        collection = self.collection_for(entry, view, digest, num_samples=num_samples)
        spread_positions = [
            i for i, r in enumerate(requests) if str(r.get("op", "spread")) == "spread"
        ]
        spreads = {}
        if spread_positions:
            seed_sets = [
                [int(v) for v in requests[i].get("seeds") or []]
                for i in spread_positions
            ]
            estimates = collection.estimate_spreads(seed_sets)
            spreads = dict(zip(spread_positions, estimates))
        answers: List[Dict[str, Any]] = []
        for i, request in enumerate(requests):
            op = str(request.get("op", "spread"))
            try:
                if op == "spread":
                    seeds = [int(v) for v in request.get("seeds") or []]
                    answers.append(
                        {"op": op, "version": entry.version, "seeds": seeds,
                         "spread": float(spreads[i])}
                    )
                elif op == "marginal":
                    node = int(request.get("node", -1))
                    conditioning = [int(v) for v in request.get("conditioning") or []]
                    value = collection.estimate_marginal_spread(node, conditioning)
                    answers.append(
                        {"op": op, "version": entry.version, "node": node,
                         "conditioning": conditioning, "marginal_spread": float(value)}
                    )
                else:  # topk
                    answers.append(self._answer_topk(entry, collection, request))
            except (ValidationError, ReproError) as exc:
                answers.append(error_answer(exc))
        return answers

    def _answer_topk(
        self,
        entry: GraphEntry,
        collection: FlatRRCollection,
        request: Mapping[str, Any],
    ) -> Dict[str, Any]:
        """Budgeted, segment-restricted greedy max-coverage seed selection."""
        k = _count_field(request, "k", 1)
        budget = _budget_field(request)
        segment = request.get("segment")
        if segment is None:
            candidates = collection.nodes_appearing().astype(np.int64)
        else:
            candidates = np.asarray([int(v) for v in segment], dtype=np.int64)
        counter = CoverageCounter(collection)
        costs = np.asarray(
            [entry.costs.get(int(v), 1.0) for v in candidates], dtype=np.float64
        )
        picked = np.zeros(candidates.shape[0], dtype=bool)
        chosen: List[int] = []
        total_cost = 0.0
        remaining = np.inf if budget is None else budget
        for _ in range(k):
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
            "version": entry.version,
            "seeds": chosen,
            "spread": float(spread),
            "cost": total_cost,
            "budget": budget,
        }

    def _answer_mc_group(
        self,
        entry: GraphEntry,
        view: ResidualGraph,
        digest: str,
        requests: Sequence[Mapping[str, Any]],
    ) -> List[Dict[str, Any]]:
        """Answer ``mc_spread`` queries from one shared realization stream.

        The stream is derived from ``(seed, graph, digest, simulations)``
        — not from the batch composition — so however arrivals coalesce,
        every query replays the same realizations and gets the same
        answer it would get alone (the coin flips are simply amortised
        over however many queries share the batch).
        """
        by_sims: Dict[int, List[int]] = {}
        answers: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        for i, request in enumerate(requests):
            sims = _count_field(request, "simulations", self._mc_simulations)
            by_sims.setdefault(sims, []).append(i)
        probs = entry.graph.out_csr()[2]
        for sims, positions in by_sims.items():
            seed_sets = [
                [int(v) for v in requests[i].get("seeds") or []] for i in positions
            ]
            rng = self._stream(entry, digest, sims)
            totals = np.zeros(len(positions), dtype=np.int64)
            for live in sample_live_chunks(rng, probs, sims):
                for j, seeds in enumerate(seed_sets):
                    if seeds:
                        totals[j] += int(
                            replay_live_edges(
                                view, seeds, live, backend=self._backend
                            ).sum()
                        )
            for j, i in enumerate(positions):
                answers[i] = {
                    "op": "mc_spread",
                    "version": entry.version,
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


#: Request fields that list node ids (``marginal`` also names one in ``node``).
_NODE_LIST_FIELDS = ("seeds", "conditioning", "segment")


def _check_node_ids(request: Mapping[str, Any], op: str, n: int) -> None:
    """Refuse a request that names a node id outside ``[0, n)``.

    Checked where a request enters the batch, so a bad id gets its own
    ``invalid`` answer: the estimators would otherwise drop it silently,
    and ``mc_spread`` replay would fail the request's whole group.
    """
    named = [(name, request.get(name) or ()) for name in _NODE_LIST_FIELDS]
    if op == "marginal":
        named.append(("node", (request.get("node", -1),)))
    for name, ids in named:
        try:
            bad = [v for v in ids if not 0 <= int(v) < n]
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"{name}: expected integer node ids, got {request.get(name)!r}"
            ) from None
        if bad:
            raise ValidationError(f"{name}: node id {bad[0]!r} is outside [0, {n})")


def _removed_ids(removed: Iterable[Any], n: int) -> np.ndarray:
    """A request's ``removed`` node ids as an int64 array, each in ``[0, n)``."""
    try:
        ids = np.asarray([int(v) for v in removed], dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"removed node ids must be integers, got {removed!r}"
        ) from None
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValidationError(
            f"removed node ids must lie in [0, {n}), got "
            f"{int(ids.min())}..{int(ids.max())}"
        )
    return ids


def _count_field(
    request: Mapping[str, Any], name: str, default: Optional[int] = None
) -> Optional[int]:
    """``request[name]`` as an integer ``>= 1`` (``default`` when absent or null).

    ``simulations`` keeps its older spelling of "default": any falsy
    value, ``0`` included.
    """
    value = request.get(name)
    if value is None or (name == "simulations" and not value):
        return default
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name}: expected an integer, got {value!r}") from None
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    return count


def _budget_field(request: Mapping[str, Any]) -> Optional[float]:
    """A ``topk`` query's cost budget (``None`` when absent: no budget)."""
    budget = request.get("budget")
    if budget is None:
        return None
    try:
        return float(budget)
    except (TypeError, ValueError):
        raise ValidationError(f"budget: expected a number, got {budget!r}") from None


#: Fields whose empty spelling means the same as leaving them out, so the
#: cache key must alias them (``segment`` is *not* here: an empty segment
#: means "no candidates", which differs from "all nodes").
_EMPTY_IS_ABSENT = frozenset({"seeds", "conditioning", "removed"})


def _query_of(request: Mapping[str, Any]) -> Dict[str, Any]:
    """The key-relevant slice of a request payload (drops transport fields)."""
    relevant = {}
    for field_name in (
        "op", "seeds", "node", "conditioning", "k", "budget", "segment",
        "simulations", "removed", "samples",
    ):
        value = request.get(field_name)
        if value is None:
            continue
        if field_name in _EMPTY_IS_ABSENT and len(value) == 0:
            continue
        relevant[field_name] = value
    relevant.setdefault("op", "spread")
    return relevant
