"""CLI entry points of the seeding service: ``serve`` and ``loadgen``.

Both run through the ``repro-experiments`` console script::

    repro-experiments serve --dataset nethept --nodes 2000 --port 8321
    repro-experiments loadgen --port 8321 --queries 500 --concurrency 16
    repro-experiments loadgen --self-serve --queries 200 \
        --out benchmarks/output/service_latency

``serve`` builds a :class:`~repro.service.state.ServiceState` (loading
the graph exactly once), binds the asyncio HTTP API and serves until
SIGTERM/SIGINT or ``POST /shutdown`` — then tears down the batcher and
the sampling threads gracefully.  ``loadgen`` drives a running
server (or ``--self-serve`` boots an in-process one on an ephemeral
port), reports p50/p99 latency, queries/sec, cache hit rate and
coalescing evidence, and optionally writes the measured series next to
the other committed benchmarks.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Any, Dict, List, Optional, Sequence

from repro.parallel.faults import FaultPlan
from repro.service.api import SeedingServer
from repro.service.loadgen import (
    LoadResult,
    ServiceClient,
    build_query_stream,
    run_load,
)
from repro.service.state import ServiceState
from repro.utils.exceptions import ValidationError


def build_service_state(
    dataset: str = "toy",
    nodes: Optional[int] = None,
    num_samples: int = 2000,
    mc_simulations: int = 1000,
    seed: int = 2020,
    n_jobs: Optional[int] = None,
    cache_size: Optional[int] = None,
    collection_capacity: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    backend: Optional[str] = None,
) -> ServiceState:
    """Load a graph once and wrap it in a registered :class:`ServiceState`.

    ``dataset="toy"`` serves the paper's seven-node Fig. 1 graph (with
    its published costs); any other name builds the synthetic proxy via
    :func:`repro.graphs.datasets.load_proxy` with uniform unit costs.
    """
    state = ServiceState(
        num_samples=num_samples,
        mc_simulations=mc_simulations,
        seed=seed,
        n_jobs=n_jobs,
        cache_size=cache_size,
        collection_capacity=collection_capacity,
        fault_plan=fault_plan,
        backend=backend,
    )
    try:
        if dataset == "toy":
            from repro.graphs.toy import toy_costs, toy_graph

            graph = toy_graph()
            costs: Dict[int, float] = toy_costs()
        else:
            from repro.graphs.datasets import load_proxy

            graph = load_proxy(dataset, nodes=nodes, random_state=seed)
            costs = {}
        state.register_graph(
            graph, costs=costs, metadata={"dataset": dataset, "nodes": graph.n}
        )
    except BaseException:
        state.close()
        raise
    return state


def _add_state_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="toy",
        help="graph to serve: 'toy' (Fig. 1) or a proxy dataset name "
        "(nethept/epinions/dblp/livejournal; default: toy)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None, help="proxy graph size override"
    )
    parser.add_argument(
        "--samples", type=int, default=2000, help="RR sets per residual state"
    )
    parser.add_argument(
        "--mc-sims", type=int, default=1000, help="default mc_spread simulations"
    )
    parser.add_argument("--seed", type=int, default=2020, help="master random seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="RR-generation threads (-1 = all cores; default: REPRO_JOBS, "
        "else all usable cores; answers do not depend on it)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="kernel backend for RR generation and replay ('auto' picks "
        "the fastest available: 'native' where it builds, else "
        "'vectorized'; default REPRO_BACKEND, else 'auto'; answers are "
        "identical across backends)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="answer-cache capacity (default REPRO_SERVICE_CACHE_SIZE, else 1024)",
    )
    parser.add_argument(
        "--collections",
        type=int,
        default=None,
        help="warm RR collections kept (default REPRO_SERVICE_COLLECTIONS, else 8)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=None, help="hard cap on coalesced batch size"
    )


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Run the long-lived seeding service (asyncio JSON-over-HTTP).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8321, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="journal directory for crash-safe warm restart (default "
        "REPRO_SERVICE_STATE_DIR; a dir holding a journal is restored, "
        "an empty one starts cold — either way journaling continues)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-query deadline in ms (default "
        "REPRO_SERVICE_DEADLINE_MS, else none)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="shed load beyond this many admitted /query requests "
        "(default REPRO_SERVICE_MAX_INFLIGHT, else unbounded)",
    )
    _add_state_arguments(parser)
    return parser


def run_serve(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-experiments serve`` entry point."""
    args = _build_serve_parser().parse_args(argv)
    from repro.service.persistence import has_journal, resolve_state_dir

    state_dir = resolve_state_dir(args.state_dir)
    if state_dir is not None and has_journal(state_dir):
        state = ServiceState.restore(
            state_dir,
            n_jobs=args.jobs,
            cache_size=args.cache_size,
            collection_capacity=args.collections,
            backend=args.backend,
        )
        print(
            f"seeding service: warm restart from {state_dir} "
            f"({len(state.answer_cache)} answers, "
            f"{len(state.collection_cache)} warm collections)",
            flush=True,
        )
    else:
        state = build_service_state(
            dataset=args.dataset,
            nodes=args.nodes,
            num_samples=args.samples,
            mc_simulations=args.mc_sims,
            seed=args.seed,
            n_jobs=args.jobs,
            cache_size=args.cache_size,
            collection_capacity=args.collections,
            backend=args.backend,
        )
    if state_dir is not None:
        try:
            state.enable_journal(state_dir)
        except BaseException:
            state.close()
            raise
    server = SeedingServer(
        state,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        deadline_ms=args.deadline_ms,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"seeding service: dataset={args.dataset} "
            f"listening on http://{args.host}:{server.port} "
            f"(SIGTERM or POST /shutdown stops it)",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C
        pass
    finally:
        state.close()  # idempotent backstop if startup failed mid-way
    return 0


def _build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments loadgen",
        description="Drive a seeding service and measure latency/throughput.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument(
        "--self-serve",
        action="store_true",
        help="boot an in-process server on an ephemeral port instead of "
        "targeting --host/--port",
    )
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--mode", choices=["closed", "open"], default="closed")
    parser.add_argument(
        "--rate", type=float, default=None, help="open-loop arrival rate (queries/s)"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PREFIX",
        help="write the measured series to PREFIX.csv and PREFIX.json",
    )
    parser.add_argument(
        "--stop-server",
        action="store_true",
        help="POST /shutdown to the target server after the run",
    )
    _add_state_arguments(parser)
    return parser


def _format_result(result: LoadResult) -> str:
    row = result.row()
    lines = ["service load result:"]
    for key in (
        "mode", "concurrency", "queries", "errors", "duration_s", "qps",
        "p50_ms", "p99_ms", "cache_hits", "cache_hit_rate", "batches",
        "coalesced_batches", "max_batch_size", "shed", "deadline_expired",
        "degraded", "healthy",
    ):
        lines.append(f"  {key:>18}: {row[key]}")
    return "\n".join(lines)


async def _drive(
    host: str,
    port: int,
    args: argparse.Namespace,
    num_nodes: Optional[int] = None,
) -> LoadResult:
    if num_nodes is None:
        client = ServiceClient(host, port)
        try:
            status, payload = await client.request("GET", "/metrics")
        finally:
            await client.aclose()
        if status != 200:
            raise ValidationError(f"/metrics answered HTTP {status}: {payload}")
        graphs = payload.get("state", {}).get("graphs", {})
        if not graphs:
            raise ValidationError("the target server has no registered graph")
        num_nodes = next(iter(graphs.values()))["nodes"]
    queries = build_query_stream(args.queries, num_nodes, seed=args.seed)
    result = await run_load(
        host,
        port,
        queries,
        mode=args.mode,
        concurrency=args.concurrency,
        rate=args.rate,
    )
    if args.stop_server:
        client = ServiceClient(host, port)
        try:
            await client.request("POST", "/shutdown")
        finally:
            await client.aclose()
    return result


def run_loadgen(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-experiments loadgen`` entry point."""
    args = _build_loadgen_parser().parse_args(argv)

    async def _run() -> LoadResult:
        if not args.self_serve:
            return await _drive(args.host, args.port, args)
        state = build_service_state(
            dataset=args.dataset,
            nodes=args.nodes,
            num_samples=args.samples,
            mc_simulations=args.mc_sims,
            seed=args.seed,
            n_jobs=args.jobs,
            cache_size=args.cache_size,
            collection_capacity=args.collections,
            backend=args.backend,
        )
        server = SeedingServer(
            state,
            host=args.host,
            port=0,
            max_batch=args.max_batch,
        )
        try:
            await server.start()
            return await _drive(
                args.host, server.port, args, num_nodes=state.entry().graph.n
            )
        finally:
            await server.close()

    result = asyncio.run(_run())
    print(_format_result(result))
    if args.out:
        from repro.experiments.reporting import write_rows_csv, write_rows_json

        rows: List[Dict[str, Any]] = [
            result.row(dataset=args.dataset, seed=args.seed)
        ]
        write_rows_csv(rows, f"{args.out}.csv")
        write_rows_json(rows, f"{args.out}.json")
        print(f"wrote series to {args.out}.csv / {args.out}.json")
    if not result.healthy:
        print(
            f"loadgen: FAILED — the server finished the run degraded: "
            f"{result.health}"
        )
        return 1
    return 0
