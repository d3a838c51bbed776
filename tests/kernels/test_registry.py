"""Unit tests for the kernel registry (resolution, probes, prepare_csr).

The differential suites (``tests/sampling/test_engine_differential.py``,
``tests/diffusion/test_mc_engine.py``) prove every available backend is
bit-for-bit identical; this file tests the registry itself: the fixed
backend table, name resolution, env fallback, the ``"auto"`` default and
its once-per-process build probe, actionable errors for unknown /
unavailable backends, load-once memoisation, and the centralized
uint32→int64 CSR preparation.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import kernels
from repro.diffusion.mc_engine import replay_live_edges, simulate_ic_batch
from repro.experiments.config import SMOKE, EngineParameters
from repro.experiments.profit_experiments import reproduce_figure2
from repro.graphs import generators
from repro.graphs.weighting import weighted_cascade
from repro.kernels import native_backend, reference, registry
from repro.sampling.engine import generate_rr_batch
from repro.utils.exceptions import ValidationError

NO_COMPILER = "no C compiler found (test)"

NATIVE_BUILDS = "native" in kernels.available_backends()


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
def fresh_build(fresh_loads, monkeypatch):
    """An unprobed native build; returns the list of build attempts."""
    monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
    monkeypatch.setattr(native_backend, "_OPENED", None)
    builds = []
    real_build = native_backend._build_library

    def build():
        builds.append(os.environ.get("CC"))
        return real_build()

    monkeypatch.setattr(native_backend, "_build_library", build)
    return builds


@pytest.fixture()
def broken_compiler(fresh_build, tmp_path, monkeypatch):
    """A compiler that fails every build, over an empty kernel cache."""
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv(native_backend.CACHE_DIR_ENV_VAR, str(tmp_path))
    return fresh_build


def kernel_warnings(caplog):
    return [
        record for record in caplog.records
        if record.name == "repro.kernels" and record.levelno == logging.WARNING
    ]


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


class TestDefaultResolution:
    """``None`` → ``REPRO_BACKEND`` → ``"auto"``, whose probe builds once."""

    def test_none_resolves_to_native_when_the_build_probe_passes(
        self, fresh_loads, monkeypatch
    ):
        monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(native_backend, "probe", lambda: None)
        assert kernels.resolve_backend(None) == "native"
        assert not fresh_loads  # resolution never loads a backend

    def test_none_resolves_to_vectorized_when_the_build_probe_fails(
        self, native_unavailable, monkeypatch
    ):
        monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
        assert kernels.resolve_backend(None) == "vectorized"
        assert kernels.get_backend(None).name == "vectorized"

    def test_failed_build_falls_back_with_one_warning(self, broken_compiler, caplog):
        caplog.set_level(logging.WARNING, logger="repro.kernels")
        assert kernels.resolve_backend(None) == "vectorized"
        assert kernels.resolve_backend("auto") == "vectorized"
        assert kernels.get_backend(None).name == "vectorized"
        assert len(kernel_warnings(caplog)) == 1
        assert "'vectorized'" in kernel_warnings(caplog)[0].getMessage()
        with pytest.raises(ValidationError, match="failed to compile the kernels with 'false'"):
            kernels.get_backend("native")
        assert "native" not in kernels.available_backends()
        assert len(kernel_warnings(caplog)) == 1
        assert broken_compiler == ["false"]  # one build attempt, however many calls

    def test_unloadable_library_falls_back_with_one_warning(
        self, fresh_build, tmp_path, monkeypatch, caplog
    ):
        # A cached .so that will not dlopen (junk here; a noexec cache
        # directory or another machine's build elsewhere) is a failed probe.
        monkeypatch.setenv(native_backend.CACHE_DIR_ENV_VAR, str(tmp_path))
        with open(native_backend._library_path(), "wb") as handle:
            handle.write(b"not a shared object")
        caplog.set_level(logging.WARNING, logger="repro.kernels")
        assert kernels.resolve_backend(None) == "vectorized"
        assert kernels.resolve_backend("auto") == "vectorized"
        assert kernels.get_backend(None).name == "vectorized"
        with pytest.raises(ValidationError, match="not available: .*repro_kernels_"):
            kernels.get_backend("native")
        assert len(kernel_warnings(caplog)) == 1
        assert len(fresh_build) == 1  # the failed load is remembered too

    @pytest.mark.skipif(not NATIVE_BUILDS, reason="no C compiler on this machine")
    def test_build_runs_at_most_once_per_process(self, fresh_build, tmp_path, monkeypatch):
        monkeypatch.setenv(native_backend.CACHE_DIR_ENV_VAR, str(tmp_path))
        for _ in range(50):
            assert kernels.resolve_backend(None) == "native"
            assert kernels.resolve_backend("auto") == "native"
        assert kernels.available_backends() == ("vectorized", "python", "native")
        assert len(fresh_build) == 1
        assert len(list(tmp_path.glob("*.so"))) == 1
        assert kernels.get_backend(None).name == "native"
        assert len(fresh_build) == 1  # the load reuses the probe's library

    def test_env_var_and_explicit_names_win_without_probing(
        self, broken_compiler, monkeypatch
    ):
        assert kernels.resolve_backend("python") == "python"
        monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "vectorized")
        assert kernels.resolve_backend(None) == "vectorized"
        assert kernels.resolve_backend("python") == "python"
        assert broken_compiler == []  # no name but native or auto builds

    def test_nothing_resolves_at_import_or_graph_loading(self):
        # A figure process imports the figure code and loads its graphs
        # before any kernel runs: neither may probe, build or dlopen.
        code = (
            "import repro.experiments.profit_experiments\n"
            "from repro.graphs.datasets import load_proxy\n"
            "load_proxy('nethept', nodes=60, random_state=1)\n"
            "from repro.kernels import native_backend, registry\n"
            "assert registry._LOADED == {}, registry._LOADED\n"
            "assert native_backend._OPENED is None, native_backend._OPENED\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not NATIVE_BUILDS, reason="no C compiler on this machine")
    def test_figure_on_the_fallback_equals_the_native_figure(
        self, fresh_loads, monkeypatch
    ):
        monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
        scale = dataclasses.replace(
            SMOKE,
            dataset_nodes={"nethept": 120},
            k_values=(3, 5),
            num_realizations=2,
            num_rr_sets_instance=300,
            engine=EngineParameters(
                max_rounds=3, max_samples_per_round=150,
                addatp_max_rounds=3, addatp_max_samples_per_round=150,
            ),
            include_addatp_up_to_k=3,
            datasets=("nethept",),
        )
        native = reproduce_figure2(scale, random_state=0)["nethept"]
        assert "native" in fresh_loads and "vectorized" not in fresh_loads
        fresh_loads.clear()
        monkeypatch.setattr(native_backend, "probe", lambda: NO_COMPILER)
        fallback = reproduce_figure2(scale, random_state=0)["nethept"]
        assert list(fresh_loads) == ["vectorized"]
        assert fallback.x_values == native.x_values
        assert fallback.series == native.series


class TestResolution:
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

    def test_auto_picks_native_when_available(self, fresh_loads, monkeypatch):
        monkeypatch.setattr(native_backend, "probe", lambda: None)
        assert kernels.resolve_backend("auto") == "native"
        assert not fresh_loads  # resolution never loads a backend

    def test_auto_skips_unavailable_backends(self, native_unavailable):
        # Native cannot build: auto falls back.
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

    pytestmark = pytest.mark.skipif(not NATIVE_BUILDS, reason="no C compiler on this machine")

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
