"""Crash-safe warm restart: journal round trips and SIGKILL identity.

The pinned property is the tentpole's acceptance criterion: a service
killed with ``SIGKILL`` (no signal handler, no flush window, nothing
graceful) and restarted from the same ``--state-dir`` answers every
already-answered query **bit-for-bit identically** — and from warm
state, not by recomputing.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.graphs.toy import toy_costs, toy_graph
from repro.service.persistence import (
    MANIFEST_NAME,
    StateJournal,
    has_journal,
    read_manifest,
    resolve_state_dir,
)
from repro.service.state import ServiceState
from repro.utils.exceptions import ValidationError

REPO_ROOT = Path(__file__).resolve().parents[2]

QUERIES = [
    {"op": "topk", "k": 2},
    {"op": "spread", "seeds": [0, 3], "removed": [5]},
    {"op": "mc_spread", "seeds": [1], "simulations": 50},
    {"op": "marginal", "node": 2, "samples": 350},
]


def make_state(**kwargs):
    kwargs.setdefault("num_samples", 200)
    kwargs.setdefault("mc_simulations", 100)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("n_jobs", 1)
    state = ServiceState(**kwargs)
    state.register_graph(toy_graph(), costs=toy_costs())
    return state


def strip(answer):
    """An answer without its serving-path flags (the comparable core)."""
    return {k: v for k, v in answer.items() if k not in ("cached", "degraded")}


class TestJournalRoundTrip:
    def test_restore_reproduces_cached_answers(self, tmp_path):
        with make_state() as state:
            state.enable_journal(tmp_path)
            originals = [state.query(q) for q in QUERIES]
        assert has_journal(tmp_path)
        with ServiceState.restore(tmp_path, n_jobs=1) as restored:
            for query, original in zip(QUERIES, originals):
                hit = restored.try_cached(query)
                assert hit is not None, query
                assert strip(hit) == strip(original)

    def test_restore_rebuilds_warm_collections(self, tmp_path):
        with make_state() as state:
            state.enable_journal(tmp_path)
            for query in QUERIES:
                state.query(query)
            warm = len(state.collection_cache)
        with ServiceState.restore(tmp_path, n_jobs=1) as restored:
            assert len(restored.collection_cache) == warm
            # Cleared answer cache + warm collections: recomputation hits
            # the rebuilt collections and still matches a cold service.
            restored.answer_cache.clear()
            with make_state() as cold:
                for query in QUERIES:
                    assert strip(restored.query(query)) == strip(cold.query(query))

    def test_restore_uses_manifest_parameters_not_callers(self, tmp_path):
        with make_state(seed=123, num_samples=250) as state:
            state.enable_journal(tmp_path)
            original = state.query({"op": "spread", "seeds": [1]})
        manifest = read_manifest(tmp_path)
        assert manifest["seed"] == 123 and manifest["num_samples"] == 250
        with ServiceState.restore(tmp_path, n_jobs=1) as restored:
            assert strip(restored.query({"op": "spread", "seeds": [1]})) \
                == strip(original)

    def test_torn_final_line_is_dropped(self, tmp_path):
        with make_state() as state:
            state.enable_journal(tmp_path)
            for query in QUERIES:
                state.query(query)
        with open(tmp_path / "answers.jsonl", "a") as handle:
            handle.write('{"key": ["g0", "ful')  # a SIGKILL mid-write
        with ServiceState.restore(tmp_path, n_jobs=1) as restored:
            assert len(restored.answer_cache) == len(QUERIES)

    def test_mid_file_corruption_raises(self, tmp_path):
        with make_state() as state:
            state.enable_journal(tmp_path)
            for query in QUERIES:
                state.query(query)
        path = tmp_path / "answers.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = "not json {{{"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="corrupt journal line"):
            ServiceState.restore(tmp_path, n_jobs=1)

    def test_reattach_compacts_idempotently(self, tmp_path):
        with make_state() as state:
            state.enable_journal(tmp_path)
            for query in QUERIES:
                state.query(query)
        with ServiceState.restore(tmp_path, n_jobs=1) as restored:
            restored.enable_journal(tmp_path)  # compacting re-attach
            lines = (tmp_path / "answers.jsonl").read_text().splitlines()
            assert len(lines) == len(QUERIES)
        with ServiceState.restore(tmp_path, n_jobs=1) as again:
            assert len(again.answer_cache) == len(QUERIES)

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        assert not has_journal(tmp_path)
        with pytest.raises(ValidationError, match="manifest"):
            ServiceState.restore(tmp_path)

    def test_unknown_format_is_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": 999}))
        with pytest.raises(ValidationError, match="format"):
            ServiceState.restore(tmp_path)

    def test_journal_from_the_layer_major_stream_is_refused(self, tmp_path):
        # Format 1 journals cached answers drawn from the layer-major RR
        # stream; collections now regenerate from the keyed stream, so
        # such a state dir must cold-start rather than mix the two.
        with make_state() as state:
            state.enable_journal(tmp_path)
            state.execute_batch(QUERIES[:2])
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="delete the state dir to cold-start"):
            ServiceState.restore(tmp_path)

    def test_journal_keyed_by_raw_payloads_is_refused(self, tmp_path):
        # Format 2 keyed each answer by its payload as sent (``removed`` in
        # any order, ids in any spelling); no admitted query could look
        # such a key up, so the state dir must cold-start.
        with make_state() as state:
            state.enable_journal(tmp_path)
            state.execute_batch(QUERIES[:2])
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="delete the state dir to cold-start"):
            ServiceState.restore(tmp_path)

    def test_resolve_state_dir_env(self, monkeypatch, tmp_path):
        assert resolve_state_dir() is None
        monkeypatch.setenv("REPRO_SERVICE_STATE_DIR", str(tmp_path))
        assert resolve_state_dir() == tmp_path
        assert resolve_state_dir("/elsewhere") == Path("/elsewhere")

    def test_snapshot_to_fresh_dir(self, tmp_path):
        with make_state() as state:
            for query in QUERIES:
                state.query(query)
            state.snapshot(tmp_path / "snap")
        with ServiceState.restore(tmp_path / "snap", n_jobs=1) as restored:
            assert len(restored.answer_cache) == len(QUERIES)

    def test_snapshot_without_journal_or_dir_rejected(self, tmp_path):
        with make_state() as state:
            with pytest.raises(ValidationError, match="state_dir"):
                state.snapshot()

    def test_rgx_backed_graph_is_journaled_by_path(self, tmp_path):
        from repro.graphs.binary import load_rgx, write_rgx

        rgx = write_rgx(toy_graph(), tmp_path / "toy.rgx")
        state = ServiceState(num_samples=200, seed=7, n_jobs=1)
        state.register_graph(load_rgx(rgx), costs=toy_costs())
        try:
            state.enable_journal(tmp_path / "journal")
            record = json.loads(
                (tmp_path / "journal" / "graphs.jsonl").read_text().splitlines()[0]
            )
            # Attach-by-path: no snapshot copy of the CSR bytes is made.
            assert Path(record["source"]) == rgx.resolve()
            assert not (tmp_path / "journal" / "graphs" / "g0.rgx").exists()
        finally:
            state.close()


class TestSigkillWarmRestart:
    """The acceptance pin: kill -9, restart, identical answers, warm."""

    def _boot(self, state_dir, extra=()):
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            PYTHONUNBUFFERED="1",
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "serve",
                "--port", "0", "--dataset", "toy", "--samples", "200",
                "--jobs", "1", "--state-dir", str(state_dir), *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        port = None
        for _ in range(200):
            line = proc.stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                port = int(line.rsplit(":", 1)[1].split()[0])
                break
        assert port is not None, "server never printed its banner"
        return proc, port

    @staticmethod
    def _ask(port, query):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/query",
            data=json.dumps(query).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def test_kill9_then_restart_serves_identical_answers(self, tmp_path):
        proc, port = self._boot(tmp_path)
        try:
            first = [self._ask(port, q) for q in QUERIES]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()

        proc, port = self._boot(tmp_path)
        try:
            second = [self._ask(port, q) for q in QUERIES]
            warm_hits = sum(1 for answer in second if answer.get("cached"))
            for a, b in zip(first, second):
                assert strip(a) == strip(b)
            # Every repeated query must come from the journaled cache:
            # the restart was warm, not a silent recompute.
            assert warm_hits == len(QUERIES)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                assert proc.wait(timeout=30) == 0
            finally:
                proc.stdout.close()
