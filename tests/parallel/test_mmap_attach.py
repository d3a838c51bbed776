"""Worker attach-by-path over mmap-backed (``.rgx``) graphs.

When the base graph is file-backed, the broker publishes file specs
(path + offset) instead of copying the CSR arrays into ``/dev/shm``
segments; workers ``np.memmap`` the same file.  The contracts under test:

* the only shared-memory segment a pool over an mmap graph creates is
  the mutable active mask;
* pool output stays bit-for-bit invariant to the worker count, and an
  mmap-backed pool matches a RAM-backed pool exactly;
* the evaluation pool and the seeding service answer identically over
  either backing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import EngineParameters
from repro.experiments.runner import _make_hatp
from repro.core.targets import build_spread_calibrated_instance
from repro.graphs.binary import load_rgx, write_rgx
from repro.graphs.datasets import load_proxy
from repro.parallel import janitor
from repro.parallel.broker import SharedArraySpec, attach_shared_graph
from repro.parallel.eval_pool import (
    EvaluationPool,
    RealizationTicket,
    parallel_evaluate_adaptive,
)
from repro.parallel.pool import SamplingPool
from repro.service.state import ServiceState
from repro.utils.exceptions import ValidationError

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
    def test_mask_is_the_only_segment(self, mmap_graph):
        before = set(janitor.list_library_segments())
        with SamplingPool(mmap_graph, n_jobs=2) as pool:
            pool.generate(mmap_graph, 100, 0)
            specs = pool._broker.spec.arrays
            created = set(janitor.list_library_segments()) - before
            # every CSR array rides the .rgx file; only the mask is shm
            file_backed = [k for k, s in specs.items() if s.path is not None]
            segment_backed = [k for k, s in specs.items() if s.path is None]
            assert segment_backed == ["active_mask"]
            assert set(file_backed) == set(specs) - {"active_mask"}
            assert len(created) == 1
        assert set(janitor.list_library_segments()) == before

    def test_one_vs_many_workers_bit_for_bit(self, ram_graph, mmap_graph):
        with SamplingPool(ram_graph, n_jobs=1) as one, SamplingPool(
            mmap_graph, n_jobs=3
        ) as many:
            for seed in (0, 17):
                assert _batch_equal(
                    one.generate(ram_graph, 300, seed),
                    many.generate(mmap_graph, 300, seed),
                )

    def test_file_specs_point_at_the_rgx(self, mmap_graph, rgx_path):
        with SamplingPool(mmap_graph, n_jobs=2) as pool:
            pool.generate(mmap_graph, 200, 0)
            for key, spec in pool._broker.spec.arrays.items():
                if spec.path is not None:
                    assert spec.path == str(rgx_path.resolve()), key
                    assert spec.offset >= 64

    def test_attach_of_deleted_backing_file(self, mmap_graph, tmp_path):
        copy = tmp_path / "gone.rgx"
        mapping = mmap_graph.mmap_info
        spec_arrays = {
            "out_offsets": SharedArraySpec(
                name="",
                shape=mapping.arrays["out_offsets"][1],
                dtype=mapping.arrays["out_offsets"][2],
                path=str(copy),
                offset=mapping.arrays["out_offsets"][0],
            )
        }
        from repro.parallel.broker import SharedGraphSpec

        spec = SharedGraphSpec(
            n=mmap_graph.n, m=mmap_graph.m, arrays=spec_arrays
        )
        with pytest.raises(ValidationError, match="does not exist"):
            attach_shared_graph(spec)


class TestEvaluationPool:
    def test_sessions_match_ram_backing(self, ram_graph, mmap_graph):
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
        instance_ram = build_spread_calibrated_instance(
            ram_graph, k=4, cost_setting="degree", num_rr_sets=300, random_state=11
        )
        instance_mmap = build_spread_calibrated_instance(
            mmap_graph, k=4, cost_setting="degree", num_rr_sets=300, random_state=11
        )
        with EvaluationPool(mmap_graph, eval_jobs=2) as pool:
            over_mmap = parallel_evaluate_adaptive(
                factory, instance_mmap, tickets, random_state=5, pool=pool
            )
        over_ram = parallel_evaluate_adaptive(
            factory, instance_ram, tickets, random_state=5, eval_jobs=1
        )
        assert [
            (r.index, r.profit, r.spread, r.num_seeds, r.seed_cost, r.rr_sets)
            for r in over_mmap
        ] == [
            (r.index, r.profit, r.spread, r.num_seeds, r.seed_cost, r.rr_sets)
            for r in over_ram
        ]


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
