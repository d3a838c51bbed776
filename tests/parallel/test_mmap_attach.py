"""Sampling, evaluation workers and the service over mmap-backed (``.rgx``) graphs.

A graph opened with ``load_rgx(mmap=True)`` holds ``np.memmap`` views of
the file; evaluation workers forked from the process that opened it
inherit the same mapping, and spawned workers unpickle the arrays.  The
contracts under test:

* sampling stays bit-for-bit invariant to the thread count, and a batch
  drawn on an mmap-backed graph matches a RAM-backed one exactly;
* the evaluation pool and the seeding service answer identically over
  either backing.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.experiments.config import EngineParameters
from repro.experiments.runner import _make_hatp
from repro.core.targets import build_spread_calibrated_instance
from repro.graphs.binary import load_rgx, write_rgx
from repro.graphs.datasets import load_proxy
from repro.parallel.eval_pool import (
    EvaluationPool,
    RealizationTicket,
    parallel_evaluate_adaptive,
)
from repro.parallel.pool import SamplingPool
from repro.service.state import ServiceState

from functools import partial


@pytest.fixture(scope="module")
def ram_graph():
    return load_proxy("nethept", nodes=120, random_state=7)


@pytest.fixture(scope="module")
def rgx_path(ram_graph, tmp_path_factory):
    return write_rgx(ram_graph, tmp_path_factory.mktemp("rgx") / "nethept.rgx")


@pytest.fixture(scope="module")
def mmap_graph(rgx_path):
    graph = load_rgx(rgx_path, mmap=True)
    assert graph.mmap_info is not None
    return graph


def _batch_equal(a, b):
    return (
        np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.nodes, b.nodes)
        and a.num_active_nodes == b.num_active_nodes
    )


class TestSamplingPool:
    def test_one_vs_many_workers_bit_for_bit(self, ram_graph, mmap_graph, low_split_floor):
        with SamplingPool(n_jobs=1) as one, SamplingPool(n_jobs=3) as many:
            for seed in (0, 17):
                assert _batch_equal(
                    one.generate(ram_graph, 300, seed),
                    many.generate(mmap_graph, 300, seed),
                )


def _session_records(graph, eval_jobs):
    """Three HATP sessions on ``graph``, minus their measured runtimes."""
    engine = EngineParameters(
        max_rounds=2,
        max_samples_per_round=100,
        addatp_max_rounds=2,
        addatp_max_samples_per_round=100,
    )
    factory = partial(_make_hatp, engine, 1)
    tickets = [
        RealizationTicket.from_state(s)
        for s in np.random.default_rng(3).spawn(3)
    ]
    instance = build_spread_calibrated_instance(
        graph, k=4, cost_setting="degree", num_rr_sets=300, random_state=11
    )
    with EvaluationPool(graph, eval_jobs=eval_jobs) as pool:
        records = parallel_evaluate_adaptive(
            factory, instance, tickets, random_state=5, pool=pool
        )
    return [
        (r.index, r.profit, r.spread, r.num_seeds, r.seed_cost, r.rr_sets)
        for r in records
    ]


class TestEvaluationPool:
    def test_sessions_match_ram_backing(self, ram_graph, mmap_graph):
        assert _session_records(mmap_graph, 2) == _session_records(ram_graph, 1)

    def test_spawned_sessions_match_ram_backing(self, ram_graph, mmap_graph, monkeypatch):
        # Spawned workers unpickle the mmap'd graph instead of inheriting it.
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        assert _session_records(mmap_graph, 2) == _session_records(ram_graph, 1)


class TestServiceState:
    REQUESTS = (
        {"op": "spread", "seeds": [1, 2]},
        {"op": "marginal", "node": 3, "conditioning": [1]},
        {"op": "topk", "k": 5, "budget": 3.0},
        {"op": "spread", "seeds": [1], "removed": [5, 6]},
    )

    def test_answers_identical_over_mmap_graph(self, ram_graph, mmap_graph):
        with ServiceState(num_samples=300, seed=11) as over_ram:
            over_ram.register_graph(ram_graph)
            ram_answers = [over_ram.query(r) for r in self.REQUESTS]
        with ServiceState(num_samples=300, seed=11) as over_mmap:
            over_mmap.register_graph(mmap_graph)
            mmap_answers = [over_mmap.query(r) for r in self.REQUESTS]
        assert ram_answers == mmap_answers
