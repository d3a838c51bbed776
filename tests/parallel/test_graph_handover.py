"""How an EvaluationPool hands its base graph to the worker processes.

The graph reaches each worker once, as the pool initializer's argument.
A forked worker inherits the parent's arrays in place (an ``.rgx`` graph
keeps its file mapping); where only ``spawn`` exists, each worker
unpickles the graph once.  Either way — and after a crashed worker has
been replaced by a fresh one — a worker scores exactly what the parent
scores.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os

import pytest

from repro.diffusion.realization import sample_realizations
from repro.graphs.binary import load_rgx, write_rgx
from repro.graphs.datasets import load_proxy
from repro.parallel.eval_pool import EvaluationPool, as_tickets
from repro.parallel.faults import FaultPlan

SEEDS = [0, 5, 17]

COMBINATIONS = [("fork", "ram"), ("fork", "rgx"), ("spawn", "ram"), ("spawn", "rgx")]
COMBINATION_IDS = ["-".join(combination) for combination in COMBINATIONS]


def _only_spawn(patch) -> None:
    """Make the pool believe the platform cannot fork."""
    patch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
    )


def _csr_arrays(graph):
    return (*graph.out_csr(), *graph.in_csr())


def _digest(graph) -> tuple:
    """Everything a session reads of a graph, as comparable values."""
    return (
        graph.n,
        graph.m,
        graph.name,
        graph.undirected_input,
        tuple(
            hashlib.sha256(array.tobytes()).hexdigest() for array in _csr_arrays(graph)
        ),
    )


def _worker_graph() -> dict:
    """Runs in a worker: describe the graph its initializer received."""
    from repro.parallel.eval_pool import _EVAL_WORKER

    graph = _EVAL_WORKER["graph"]
    arrays = _csr_arrays(graph)
    files = [getattr(array, "filename", None) for array in arrays]
    return {
        "pid": os.getpid(),
        "digest": _digest(graph),
        "addresses": [array.__array_interface__["data"][0] for array in arrays],
        "files": [None if f is None else os.path.realpath(f) for f in files],
    }


def _probe(pool: EvaluationPool, count: int = 4) -> list:
    futures = [pool._executor.submit(_worker_graph) for _ in range(count)]
    return [future.result(timeout=60) for future in futures]


def _tickets(graph, count: int = 4):
    return as_tickets(sample_realizations(graph, count, random_state=6))


def _expected_spreads(graph, count: int = 4):
    return [
        float(world.spread(SEEDS))
        for world in sample_realizations(graph, count, random_state=6)
    ]


@pytest.fixture(scope="module")
def ram_graph():
    return load_proxy("nethept", nodes=120, random_state=7)


@pytest.fixture(scope="module")
def rgx_path(ram_graph, tmp_path_factory):
    return write_rgx(ram_graph, tmp_path_factory.mktemp("handover") / "nethept.rgx")


@pytest.fixture(scope="module")
def rgx_graph(rgx_path):
    graph = load_rgx(rgx_path, mmap=True)
    assert graph.mmap_info is not None
    return graph


@pytest.fixture(scope="module", params=COMBINATIONS, ids=COMBINATION_IDS)
def started_pool(request):
    """A 2-worker pool whose first scoring call started its workers."""
    method, backing = request.param
    graph = request.getfixturevalue(f"{backing}_graph")
    pool = EvaluationPool(graph, eval_jobs=2)
    with pytest.MonkeyPatch.context() as patch:
        if method == "spawn":
            _only_spawn(patch)
        pool.score_selection(SEEDS, _tickets(graph, 2))
    yield method, graph, pool
    pool.close()


class TestForkedWorkers:
    @pytest.mark.parametrize("backing", ["ram", "rgx"])
    def test_arrays_are_inherited_in_place(self, backing, request):
        graph = request.getfixturevalue(f"{backing}_graph")
        with EvaluationPool(graph, eval_jobs=2) as pool:
            pool.score_selection(SEEDS, _tickets(graph, 2))
            views = _probe(pool)
        parent = [array.__array_interface__["data"][0] for array in _csr_arrays(graph)]
        for view in views:
            assert view["pid"] != os.getpid()
            # The same virtual addresses: the worker reads the parent's
            # pages, it did not receive a copy.
            assert view["addresses"] == parent
            assert view["digest"] == _digest(graph)

    def test_rgx_graph_keeps_its_file_mapping(self, rgx_graph, rgx_path):
        with EvaluationPool(rgx_graph, eval_jobs=2) as pool:
            pool.score_selection(SEEDS, _tickets(rgx_graph, 2))
            views = _probe(pool)
        backing_file = os.path.realpath(rgx_path)
        for view in views:
            assert view["files"] == [backing_file] * 6


class TestEitherStartMethod:
    def test_every_worker_holds_an_equal_graph(self, started_pool):
        method, graph, pool = started_pool
        workers = dict(pool._executor._processes)
        assert {type(worker).__name__ for worker in workers.values()} == {
            f"{method.capitalize()}Process"
        }
        for view in _probe(pool):
            assert view["pid"] in workers
            assert view["digest"] == _digest(graph)

    def test_scoring_matches_in_process(self, started_pool):
        _, graph, pool = started_pool
        assert pool.score_selection(SEEDS, _tickets(graph), graph=graph) == (
            _expected_spreads(graph)
        )

    def test_workers_persist_across_calls(self, started_pool):
        # The graph is handed over once per worker, not once per call.
        _, graph, pool = started_pool
        workers = set(pool._executor._processes)
        assert len(workers) == 2
        for _ in range(2):
            pool.score_selection(SEEDS, _tickets(graph))
            assert set(pool._executor._processes) == workers

    @pytest.mark.parametrize("method, backing", COMBINATIONS, ids=COMBINATION_IDS)
    def test_replaced_worker_gets_the_graph_again(
        self, method, backing, request, monkeypatch
    ):
        if method == "spawn":
            _only_spawn(monkeypatch)
        graph = request.getfixturevalue(f"{backing}_graph")
        plan = FaultPlan.from_spec("kill:eval:1")
        with EvaluationPool(graph, eval_jobs=2, fault_plan=plan) as pool:
            scored = pool.score_selection(SEEDS, _tickets(graph))
            assert pool._ladder.rebuilds == 1
            replacements = list(pool._executor._processes.values())
        assert scored == _expected_spreads(graph)
        assert not plan.armed
        assert replacements and all(
            type(worker).__name__ == f"{method.capitalize()}Process"
            for worker in replacements
        )
