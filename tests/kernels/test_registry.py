"""Unit tests for the kernel registry (resolution, probes, prepare_csr).

The differential suites (``tests/sampling/test_engine_differential.py``,
``tests/diffusion/test_mc_engine.py``) prove every available backend is
bit-for-bit identical; this file tests the registry itself: the fixed
backend table, name resolution, env fallback, ``"auto"``, actionable
errors for unknown / unavailable backends, load-once memoisation, and
the centralized uint32→int64 CSR preparation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import kernels
from repro.diffusion.mc_engine import replay_live_edges, simulate_ic_batch
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade
from repro.kernels import native_backend, reference, registry
from repro.sampling.engine import generate_rr_batch
from repro.utils.exceptions import ValidationError

NO_COMPILER = "no C compiler found (test)"


@pytest.fixture()
def fresh_loads(monkeypatch):
    """An empty load memo, so probes run and loads can be counted."""
    loaded = {}
    monkeypatch.setattr(registry, "_LOADED", loaded)
    return loaded


@pytest.fixture()
def native_unavailable(fresh_loads, monkeypatch):
    """Native's probe fails, as on a machine without a C compiler."""
    monkeypatch.setattr(native_backend, "probe", lambda: NO_COMPILER)


@pytest.fixture()
def counted_loads(fresh_loads, monkeypatch):
    """Every backend load, by name, in the order the loaders ran."""
    loads = []
    real_reference, real_native = reference.load, native_backend.load

    def load_reference(name):
        loads.append(name)
        return real_reference(name)

    def load_native():
        loads.append("native")
        return real_native()

    monkeypatch.setattr(reference, "load", load_reference)
    monkeypatch.setattr(native_backend, "load", load_native)
    return loads


class TestRegistration:
    def test_shipped_backends_are_registered(self):
        assert kernels.registered_backends() == ("vectorized", "python", "native")

    def test_reference_backends_are_always_available(self):
        available = kernels.available_backends()
        assert "vectorized" in available
        assert "python" in available


class TestResolution:
    def test_none_defaults_to_vectorized(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
        assert kernels.resolve_backend(None) == "vectorized"

    def test_env_var_fills_in(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "python")
        assert kernels.resolve_backend(None) == "python"

    def test_env_var_origin_in_error(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ValidationError, match="REPRO_BACKEND"):
            kernels.resolve_backend(None)

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "python")
        assert kernels.resolve_backend("vectorized") == "vectorized"

    def test_unknown_name_lists_registered_backends(self):
        with pytest.raises(ValidationError) as excinfo:
            kernels.resolve_backend("cuda")
        message = str(excinfo.value)
        for name in kernels.registered_backends():
            assert name in message
        assert "auto" in message

    def test_numba_is_an_unknown_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numba")
        with pytest.raises(ValidationError) as excinfo:
            kernels.resolve_backend(None)
        message = str(excinfo.value)
        assert message.startswith("unknown backend 'numba' (from REPRO_BACKEND)")
        assert message.endswith("registered backends: vectorized, python, native, auto")

    def test_env_var_auto_resolves_like_explicit_auto(self, fresh_loads, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "auto")
        monkeypatch.setattr(native_backend, "probe", lambda: None)
        assert kernels.resolve_backend(None) == "native"
        monkeypatch.setattr(native_backend, "probe", lambda: NO_COMPILER)
        assert kernels.resolve_backend(None) == "vectorized"

    def test_names_ignore_case_and_surrounding_space(self, monkeypatch):
        assert kernels.resolve_backend("  Python ") == "python"
        assert kernels.resolve_backend("VECTORIZED") == "vectorized"
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, " Auto ")
        assert kernels.resolve_backend(None) == kernels.resolve_backend("auto")

    def test_mc_env_var_resolution(self, monkeypatch):
        # The MC knob routes through the same resolver with its own
        # env var and historical default.
        from repro.diffusion.mc_engine import MC_BACKEND_ENV_VAR, resolve_mc_backend

        monkeypatch.delenv(MC_BACKEND_ENV_VAR, raising=False)
        assert resolve_mc_backend(None) == "python"
        monkeypatch.setenv(MC_BACKEND_ENV_VAR, "vectorized")
        assert resolve_mc_backend(None) == "vectorized"
        monkeypatch.setenv(MC_BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ValidationError, match="registered backends"):
            resolve_mc_backend(None)

    def test_auto_picks_native_when_available(self, fresh_loads, monkeypatch):
        monkeypatch.setattr(native_backend, "probe", lambda: None)
        assert kernels.resolve_backend("auto") == "native"
        assert not fresh_loads  # resolution never loads a backend

    def test_auto_skips_unavailable_backends(self, native_unavailable):
        # Native cannot build: auto silently falls back.
        assert kernels.resolve_backend("auto") == "vectorized"
        assert kernels.available_backends() == ("vectorized", "python")
        assert kernels.registered_backends() == ("vectorized", "python", "native")

    def test_unavailable_backend_raises_probe_reason(self, native_unavailable):
        with pytest.raises(ValidationError) as excinfo:
            kernels.get_backend("native")
        message = str(excinfo.value)
        assert NO_COMPILER in message
        assert "auto" in message  # points at the fallback

    def test_get_backend_loads_lazily_and_caches(self, counted_loads):
        names = kernels.available_backends()
        assert not counted_loads  # listing and probing never load
        for name in names:
            first = kernels.get_backend(name)
            assert kernels.get_backend(name) is first
            assert first.name == name
        assert sorted(counted_loads) == sorted(names)


class TestWarmUp:
    def test_warm_up_runs_once_per_process(self, counted_loads):
        # Pool workers call warm_up once per task: only the first call
        # loads (native compiles or dlopens), later calls find the memo.
        names = kernels.available_backends()
        for _ in range(3):
            for name in names:
                kernels.warm_up(name)
        assert sorted(counted_loads) == sorted(names)

    def test_shipped_warm_up_is_callable(self, fresh_loads):
        # warm_up leaves behind exactly the backend get_backend hands out.
        for name in kernels.available_backends():
            kernels.warm_up(name)
            assert kernels.get_backend(name) is fresh_loads[name]

    def test_warm_up_raises_probe_reason_when_native_unavailable(
        self, native_unavailable, fresh_loads
    ):
        with pytest.raises(ValidationError) as excinfo:
            kernels.warm_up("native")
        assert NO_COMPILER in str(excinfo.value)
        kernels.warm_up("auto")
        assert list(fresh_loads) == ["vectorized"]


class TestPackageAPI:
    def test_entry_points_load_kernels_through_the_package_attribute(
        self, monkeypatch
    ):
        # A wrapper that replaces ``repro.kernels.get_backend`` and
        # ``dataclasses.replace``s the three kernel fields (as the
        # benchmark's tracer does) must see every kernel call: the entry
        # points look the attribute up at call time.
        calls = []
        original = kernels.get_backend

        def counted(field, kernel):
            def wrapper(*args):
                calls.append(field)
                return kernel(*args)

            return wrapper

        def get_backend(*args, **kwargs):
            backend = original(*args, **kwargs)
            return dataclasses.replace(
                backend,
                **{
                    field: counted(field, getattr(backend, field))
                    for field in ("generate_batch", "simulate_batch", "replay_batch")
                },
            )

        monkeypatch.setattr(kernels, "get_backend", get_backend)
        graph = weighted_cascade(generators.barabasi_albert(60, 2, random_state=3))
        generate_rr_batch(graph, 10, random_state=0)
        simulate_ic_batch(graph, [0, 1], 5, random_state=0)
        spreads = replay_live_edges(graph, [0, 1], np.ones((2, graph.m), dtype=bool))
        assert calls == ["generate_batch", "simulate_batch", "replay_batch"]
        assert spreads.tolist() == [graph.n, graph.n]


class TestPrepareCSR:
    def test_uint32_kept_for_capable_backend(self):
        offsets = np.array([0, 2, 3], dtype=np.int64)
        nodes = np.array([1, 2, 0], dtype=np.uint32)
        probs = np.array([0.5, 0.25, 1.0], dtype=np.float64)
        csr = kernels.prepare_csr(offsets, nodes, probs)
        assert csr.nodes.dtype == np.uint32
        assert csr.nodes is nodes  # zero-copy: mmap pages stay shared

    def test_gather_always_returns_int64(self):
        for dtype in (np.uint32, np.int64):
            csr = kernels.prepare_csr(
                np.array([0, 3], dtype=np.int64),
                np.array([5, 7, 9], dtype=dtype),
                np.ones(3),
            )
            gathered = csr.gather(np.array([2, 0], dtype=np.int64))
            assert gathered.dtype == np.int64
            assert gathered.tolist() == [9, 5]

    def test_offsets_and_probs_normalized(self):
        csr = kernels.prepare_csr(
            np.array([0, 1], dtype=np.int32),
            np.array([0], dtype=np.uint32),
            np.array([0.5], dtype=np.float32),
        )
        assert csr.offsets.dtype == np.int64
        assert csr.probs.dtype == np.float64


class TestNativeBackend:
    """Loader-level checks for the compiled C backend (parity lives in
    the differential suites)."""

    pytestmark = pytest.mark.skipif(
        "native" not in kernels.available_backends(),
        reason="no C compiler on this machine",
    )

    def test_probe_reports_available(self):
        assert native_backend.probe() is None

    def test_shared_library_is_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native_backend.CACHE_DIR_ENV_VAR, str(tmp_path))
        first = native_backend._build_library()
        artifacts = list(tmp_path.glob("*.so"))
        assert len(artifacts) == 1
        # Second build must reuse the compiled artifact, not recompile.
        mtime = artifacts[0].stat().st_mtime_ns
        second = native_backend._build_library()
        assert artifacts[0].stat().st_mtime_ns == mtime
        assert second == first
