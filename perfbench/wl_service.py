"""``service-mixed``: the seeding service under a mixed, cache-straining load.

``repro-experiments serve`` runs in its own process (via ``serve.py``) on
the 5000-node Epinions proxy with the service defaults and the
``native`` kernels.  This process drives it over at most ``nproc``
keep-alive connections: first an open loop at a fixed rate (independent
users; each query is timed from its due send time, so a stall also
delays the queries behind it), then a closed loop of ``nproc`` clients
(callers that wait for each reply).  The open loop takes ``OPEN_SHARE``
of ``--seconds`` and the closed loop a fixed number of queries that
lasts about the rest at ``NOMINAL_CLOSED_QPS``: at 36 s, 1260 queries at
50 q/s, then 1728 queries.  On a 2-CPU host the closed loop measured
140-210 q/s, so the open rate stays below a third of capacity even when
the host is slow; at 75 q/s slow runs queued and p99 tripled.

The queries are the ``build_query_stream`` mix (40% hot repeats for the
answer cache).  About 30% of the cold RIS queries (``spread``,
``marginal``, ``topk``) address one of 32 residual states through
``removed`` lists — four times the warm-collection LRU — so warm reads
and collection regeneration share every run.  Afterwards a deterministic
sample of the answers is recomputed by a fresh in-process
``ServiceState.query`` and must match exactly.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    BUILD_DIR,
    Outcome,
    bench_env,
    build_native,
    mean,
    median,
    percentile,
    process_peak_rss_mib,
)
from metrics import latency_summary, layer_metrics
from spans import LayerSummary, spans_from_dump

DATASET = "epinions"
NODES = 5000
BACKEND = "native"
RATE_QPS = 50.0
OPEN_SHARE = 0.7
#: Closed-loop queries per second of ``--seconds`` left after the open loop.
NOMINAL_CLOSED_QPS = 160.0
MIN_OPEN_QUERIES = 1000
RESIDUAL_STATES = 32
REMOVED_PER_STATE = 25
RESIDUAL_SHARE = 0.3
VERIFY_SAMPLE = 200
SETUP_REPS = 5
#: A failed or refused query counts as this late (beyond any limit).
FAILED_MS = 1e9
#: The open loop is invalid when its generator ends this much later than it began.
LAG_GROWTH_LIMIT_MS = 50.0

SERVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py")


# --------------------------------------------------------------------- #
# query stream
# --------------------------------------------------------------------- #


def build_stream(seed: int, count: int, nodes: int) -> List[Dict[str, Any]]:
    """The loadgen mix with residual-state ``removed`` lists on cold RIS queries."""
    from repro.service.loadgen import HOT_POOL_SIZE, build_query_stream

    queries = build_query_stream(count, nodes, seed=seed)
    spreads = Counter(json.dumps(q, sort_keys=True) for q in queries if q["op"] == "spread")
    hot = {key for key, _ in spreads.most_common(HOT_POOL_SIZE)}
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E7]))
    states = [
        sorted(int(v) for v in rng.choice(nodes, size=REMOVED_PER_STATE, replace=False))
        for _ in range(RESIDUAL_STATES)
    ]
    for query in queries:
        cold_ris = query["op"] in ("spread", "marginal", "topk") and (
            json.dumps(query, sort_keys=True) not in hot
        )
        if cold_ris and rng.random() < RESIDUAL_SHARE:
            query["removed"] = states[int(rng.integers(RESIDUAL_STATES))]
    return queries


# --------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------- #


class ServerProcess:
    """One ``serve`` process on an ephemeral port; always stopped on exit."""

    def __init__(self, nodes: int, trace_out: Optional[str] = None) -> None:
        command = [sys.executable, SERVE]
        if trace_out:
            command += ["--trace-out", trace_out]
        command += [
            "--", "--dataset", DATASET, "--nodes", str(nodes),
            "--backend", BACKEND, "--port", "0",
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=bench_env(), stdout=subprocess.PIPE, text=True
        )
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            if self.port is None and "listening on http://" in line:
                self.port = int(line.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def wait_listening(self, timeout: float = 120.0) -> int:
        self._ready.wait(timeout)
        if self.port is None:
            raise RuntimeError(f"server did not start (exit code {self.proc.poll()})")
        return self.port

    def stop(self) -> None:
        """Ask for a graceful shutdown; escalate if it does not come."""
        if self.proc.poll() is None and self.port is not None:
            try:
                asyncio.run(_request(self.port, "POST", "/shutdown"))
            except OSError:
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._reader.join(timeout=30)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            if exc[0] is None:
                self.stop()
            else:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._reader.join(timeout=30)


async def _request(port: int, method: str, path: str, payload=None):
    from repro.service.loadgen import ServiceClient

    client = ServiceClient("127.0.0.1", port)
    try:
        return await client.request(method, path, payload)
    finally:
        await client.aclose()


async def _boot(server: ServerProcess, first_query: Dict[str, Any]) -> float:
    """Seconds from process start until healthy and the first query answered."""
    port = server.wait_listening()
    while True:
        try:
            status, _ = await _request(port, "GET", "/healthz")
        except OSError:
            status = None
        if status == 200:
            break
        await asyncio.sleep(0.01)
    status, _ = await _request(port, "POST", "/query", first_query)
    if status != 200:
        raise RuntimeError(f"first query answered HTTP {status}")
    return time.perf_counter() - server.started


# --------------------------------------------------------------------- #
# load phases
# --------------------------------------------------------------------- #


class Record:
    __slots__ = ("query", "due", "sent", "done", "status", "payload")

    def __init__(self, query, due, sent, done, status, payload) -> None:
        self.query, self.due, self.sent, self.done = query, due, sent, done
        self.status, self.payload = status, payload

    @property
    def ok(self) -> bool:
        return self.status == 200


async def _send(client, query) -> Tuple[Optional[int], Any]:
    try:
        return await client.request("POST", "/query", query)
    except (OSError, EOFError, asyncio.IncompleteReadError, ValueError):
        return None, None


async def open_loop(port: int, queries, rate: float, connections: int):
    """Fixed-rate arrivals over a pool of keep-alive connections."""
    from repro.service.loadgen import ServiceClient

    clients = [ServiceClient("127.0.0.1", port) for _ in range(connections)]
    free: asyncio.Queue = asyncio.Queue()
    for client in clients:
        free.put_nowait(client)
    records: List[Optional[Record]] = [None] * len(queries)
    lags: List[float] = []

    async def fire(index: int, query, due: float) -> None:
        client = await free.get()
        sent = time.perf_counter()
        status, payload = await _send(client, query)
        records[index] = Record(query, due, sent, time.perf_counter(), status, payload)
        free.put_nowait(client)

    start = time.perf_counter() + 0.05
    tasks = []
    for index, query in enumerate(queries):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append((time.perf_counter() - due) * 1000.0)
        tasks.append(asyncio.ensure_future(fire(index, query, due)))
    await asyncio.gather(*tasks)
    for client in clients:
        await client.aclose()
    return records, lags


async def closed_loop(port: int, queries, clients: int):
    """``clients`` callers, one outstanding query each, until ``queries`` run out."""
    from repro.service.loadgen import ServiceClient

    records: List[Record] = []
    cursor = iter(queries)

    async def caller() -> None:
        client = ServiceClient("127.0.0.1", port)
        try:
            for query in cursor:
                sent = time.perf_counter()
                status, payload = await _send(client, query)
                records.append(Record(query, sent, sent, time.perf_counter(), status, payload))
        finally:
            await client.aclose()

    begin = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(clients)))
    return records, time.perf_counter() - begin


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #


def _comparable(answer: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in answer.items() if k not in ("cached", "degraded")}


def verify_answers(outcome: Outcome, records: List[Record], seed: int, nodes: int) -> None:
    """Recompute a deterministic sample of answers in a fresh state."""
    from repro.service.cli import build_service_state

    answered = [r for r in records if r.ok]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC4EC]))
    picks = sorted(
        rng.choice(len(answered), size=min(VERIFY_SAMPLE, len(answered)), replace=False)
    )
    state = build_service_state(dataset=DATASET, nodes=nodes, backend=BACKEND)
    try:
        for index in picks:
            record = answered[int(index)]
            fresh = json.loads(json.dumps(state.query(dict(record.query))))
            outcome.check(
                _comparable(fresh) == _comparable(record.payload),
                f"answer mismatch for {record.query}: served {record.payload}, fresh {fresh}",
            )
    finally:
        state.close()


def lag_grows(lags: List[float]) -> bool:
    """Whether the generator ended the open loop much later than it began."""
    tenth = max(1, len(lags) // 10)
    return median(lags[-tenth:]) - median(lags[:tenth]) > LAG_GROWTH_LIMIT_MS


# --------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------- #


def _server_layers(dump: Dict[str, Any], queries: int) -> Dict[str, float]:
    """Service per-layer metrics from the server's span dump."""
    spans = spans_from_dump(dump["spans"])
    summary = LayerSummary(spans)
    metrics = layer_metrics(
        spans, queries / 1000.0, setup_spans=[s for s in spans if s.layer == "graphs"]
    )
    execute = [d * 1000.0 for d in summary.durations["service.state"]]
    sizes = dump["batch_sizes"]
    waits = dump["queue_waits_ms"]
    metrics.update(
        {
            "service.execute_ms_p50": median(execute),
            "service.execute_ms_p99": percentile(execute, 99.0),
            "service.generate_ms": median(
                [s.duration * 1000.0 for s in spans if s.layer == "collection.build"]
            ),
            "service.generations": float(summary.outer_calls["collection.build"]),
            "service.cached_ms": median(
                [d * 1000.0 for d in summary.durations["service.cache"]]
            ),
            "service.queue_wait_ms_p50": median(waits),
            "service.queue_wait_ms_p99": percentile(waits, 99.0),
            "service.batch_size_mean": mean(sizes),
            "service.coalesced_frac": mean(1.0 if s > 1 else 0.0 for s in sizes),
            "_submit_ms_p50": median(
                [d * 1000.0 for d in summary.durations["service.batcher"]]
            ),
        }
    )
    return metrics


def _generations(scraped: Dict[str, Any]) -> int:
    """RR-collection generations the server has run so far."""
    graphs = scraped.get("state", {}).get("graphs", {})
    return sum(g["generations"] for g in graphs.values())


def _hit_rate(stats: Dict[str, Any]) -> float:
    hits, misses = stats.get("hits", 0), stats.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


async def _drive(server: ServerProcess, queries, open_count, rate, outcome):
    port = server.port
    connections = os.cpu_count() or 1
    _, before = await _request(port, "GET", "/metrics")
    opened, lags = await open_loop(port, queries[:open_count], rate, connections)
    _, after_open = await _request(port, "GET", "/metrics")
    closed, closed_wall = await closed_loop(port, queries[open_count:], connections)
    _, scraped = await _request(port, "GET", "/metrics")
    health_status, _ = await _request(port, "GET", "/healthz")
    outcome.check(health_status == 200, f"/healthz answered {health_status} after the run")
    rss = process_peak_rss_mib(server.proc.pid)
    outcome.extra["open_regenerations_per_1000"] = (
        (_generations(after_open) - _generations(before)) / len(opened) * 1000.0
    )
    return opened, lags, closed, closed_wall, scraped, rss


def run(seed: int, seconds: float, trace: bool, sizes: Optional[Dict] = None) -> Outcome:
    sizes = sizes or {}
    nodes = sizes.get("nodes", NODES)
    rate = sizes.get("rate", RATE_QPS)
    outcome = Outcome()
    build_native()
    open_count = sizes.get("open_queries") or max(
        MIN_OPEN_QUERIES, int(rate * seconds * OPEN_SHARE)
    )
    closed_count = sizes.get("closed_queries") or int(
        seconds * (1.0 - OPEN_SHARE) * NOMINAL_CLOSED_QPS
    )
    if trace:
        # Two drives of half the load each: untraced, then traced.
        open_count, closed_count = max(1, open_count // 2), max(1, closed_count // 2)
    queries = build_stream(seed, open_count + closed_count, nodes)
    first_query = {"op": "spread", "seeds": [0]}

    setups = []
    for _ in range(sizes.get("setup_reps", SETUP_REPS)):
        with ServerProcess(nodes) as server:
            setups.append(asyncio.run(_boot(server, first_query)))
    outcome.metrics["setup_s"] = median(setups)

    def drive(trace_out: Optional[str]):
        with ServerProcess(nodes, trace_out) as server:
            asyncio.run(_boot(server, first_query))
            phases = asyncio.run(_drive(server, queries, open_count, rate, outcome))
            server.stop()
        return phases

    if trace:
        # The same load against an untraced server gives the overhead.
        _, _, reference, reference_wall, _, _ = drive(None)
        untraced_work = reference_wall / max(1, sum(r.ok for r in reference)) * 1000.0
    trace_out = os.path.join(BUILD_DIR, "tmp", f"service-spans-{os.getpid()}.json")
    opened, lags, closed, closed_wall, scraped, rss = drive(trace_out if trace else None)

    for record in opened + closed:
        outcome.check(record.ok, f"query {record.query} answered {record.status}")
    if lag_grows(lags):
        outcome.invalidate("open-loop generator lag kept growing; the rate is too high")
    latencies = [
        (r.done - r.due) * 1000.0 if r.ok else FAILED_MS for r in opened
    ]
    ok_closed = sum(r.ok for r in closed)
    outcome.metrics.update(latency_summary(latencies))
    outcome.metrics["work_s"] = closed_wall / max(1, ok_closed) * 1000.0
    outcome.metrics["peak_rss_mib"] = rss
    state = scraped.get("state", {})
    outcome.extra.update(
        open_queries=len(opened),
        rate_qps=rate,
        closed_qps=ok_closed / closed_wall if closed_wall else 0.0,
        closed_queries=len(closed),
        rate_share_of_closed_qps=rate * closed_wall / ok_closed if ok_closed else 0.0,
        regenerations=_generations(scraped),
        gen_lag_ms_p99=percentile(lags, 99.0),
        backend=BACKEND,
        mc_backend=BACKEND,
    )
    if trace:
        with open(trace_out) as handle:
            dump = json.load(handle)
        os.unlink(trace_out)
        outcome.spans = dump["spans"]
        layers = _server_layers(dump, len(opened) + len(closed))
        client_uncached = [
            (r.done - r.sent) * 1000.0
            for r in opened + closed
            if r.ok and not r.payload.get("cached")
        ]
        layers["service.http_ms_p50"] = median(client_uncached) - layers.pop("_submit_ms_p50")
        layers["service.answer_hit_rate"] = _hit_rate(state.get("answer_cache", {}))
        layers["service.collection_hit_rate"] = _hit_rate(state.get("collection_cache", {}))
        layers["service.gen_lag_ms_p99"] = percentile(lags, 99.0)
        layers["trace.overhead_frac"] = outcome.metrics["work_s"] / untraced_work - 1.0
        outcome.metrics.update(layers)
    verify_answers(outcome, opened + closed, seed, nodes)
    return outcome

