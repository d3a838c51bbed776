"""The janitor's in-process layers and the ``clean-shm`` command.

``test_faults.py`` covers tagged names and the orphan sweep (layers 1 and
3) with real segments and real signals.  The tests here drive layer 2 —
the registry of broker segment lists and its exit hooks — with stand-in
segments, so every branch (spent lists, forked children, failing
teardown, hook installation) runs in-process; and they run the
``clean-shm`` command over a scratch directory instead of ``/dev/shm``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

import repro.experiments.__main__ as cli
from repro.parallel import janitor
from repro.utils.exceptions import ConfigurationError


class FakeSegment:
    """Records ``close``/``unlink`` calls; can fail either one."""

    def __init__(self, fail_close: bool = False, missing: bool = False) -> None:
        self.fail_close = fail_close
        self.missing = missing
        self.closed = False
        self.unlinked = False

    def close(self) -> None:
        if self.fail_close:
            raise BufferError("exported pointers exist")
        self.closed = True

    def unlink(self) -> None:
        if self.missing:
            raise FileNotFoundError("already unlinked")
        self.unlinked = True


@pytest.fixture
def registry(monkeypatch):
    """A private, empty registry whose hooks count as installed in this process."""
    fresh: list = []
    monkeypatch.setattr(janitor, "_REGISTRY", fresh)
    monkeypatch.setattr(janitor, "_HOOKS_INSTALLED", True)
    monkeypatch.setattr(janitor, "_OWNER_PID", os.getpid())
    return fresh


@pytest.fixture
def hook_calls(monkeypatch):
    """Capture hook installation instead of touching the real atexit/signal state."""
    calls = {"atexit": [], "signal": []}
    monkeypatch.setattr(janitor.atexit, "register", calls["atexit"].append)
    monkeypatch.setattr(janitor.signal, "getsignal", lambda signum: signal.SIG_DFL)
    monkeypatch.setattr(
        janitor.signal,
        "signal",
        lambda signum, handler: calls["signal"].append((signum, handler)),
    )
    return calls


class TestRegistry:
    def test_registered_list_is_tracked_by_identity(self, registry):
        segments: list = []
        janitor.register_segments(segments)
        late = FakeSegment()
        segments.append(late)  # the broker keeps mutating its own list
        janitor._cleanup_registered()
        assert late.closed and late.unlinked
        assert segments == []

    def test_cleanup_unlinks_every_registered_list(self, registry):
        first = [FakeSegment(), FakeSegment()]
        second = [FakeSegment()]
        members = first + second
        janitor.register_segments(first)
        janitor.register_segments(second)
        janitor._cleanup_registered()
        assert all(segment.closed and segment.unlinked for segment in members)
        assert first == [] and second == []

    def test_spent_lists_are_dropped_on_register(self, registry):
        spent = [FakeSegment()]
        janitor.register_segments(spent)
        spent.clear()  # what a closed broker leaves behind
        live = [FakeSegment()]
        janitor.register_segments(live)
        assert len(registry) == 1 and registry[0] is live

    def test_cleanup_is_a_noop_in_a_forked_child(self, registry, monkeypatch):
        segment = FakeSegment()
        segments = [segment]
        janitor.register_segments(segments)
        monkeypatch.setattr(janitor, "_OWNER_PID", os.getpid() + 1)
        janitor._cleanup_registered()
        assert not segment.closed and not segment.unlinked
        assert segments == [segment]

    def test_cleanup_survives_failing_teardown(self, registry):
        stuck = FakeSegment(fail_close=True)
        gone = FakeSegment(missing=True)
        healthy = FakeSegment()
        segments = [stuck, gone, healthy]
        janitor.register_segments(segments)
        janitor._cleanup_registered()
        assert stuck.unlinked and not stuck.closed
        assert gone.closed and not gone.unlinked
        assert healthy.closed and healthy.unlinked
        assert segments == []


class TestHookInstallation:
    def test_hooks_installed_once_per_process(self, monkeypatch, hook_calls):
        monkeypatch.setattr(janitor, "_REGISTRY", [])
        monkeypatch.setattr(janitor, "_HOOKS_INSTALLED", False)
        monkeypatch.setattr(janitor, "_OWNER_PID", None)
        janitor.register_segments([FakeSegment()])
        janitor.register_segments([FakeSegment()])
        assert hook_calls["atexit"] == [janitor._cleanup_registered]
        assert hook_calls["signal"] == [(signal.SIGTERM, janitor._sigterm_handler)]
        assert janitor._OWNER_PID == os.getpid()

    def test_first_registration_after_fork_drops_inherited_entries(
        self, monkeypatch, hook_calls
    ):
        inherited = [FakeSegment()]
        monkeypatch.setattr(janitor, "_REGISTRY", [inherited])
        monkeypatch.setattr(janitor, "_HOOKS_INSTALLED", True)
        monkeypatch.setattr(janitor, "_OWNER_PID", os.getpid() + 1)
        own = [FakeSegment()]
        janitor.register_segments(own)
        assert janitor._REGISTRY == [own]
        assert janitor._OWNER_PID == os.getpid()
        assert hook_calls["atexit"] == [janitor._cleanup_registered]
        assert not inherited[0].closed and not inherited[0].unlinked

    def test_existing_sigterm_handler_is_kept(self, monkeypatch, hook_calls):
        monkeypatch.setattr(janitor, "_REGISTRY", [])
        monkeypatch.setattr(janitor, "_HOOKS_INSTALLED", False)
        monkeypatch.setattr(janitor, "_OWNER_PID", None)
        monkeypatch.setattr(janitor.signal, "getsignal", lambda signum: signal.SIG_IGN)
        janitor.register_segments([FakeSegment()])
        assert hook_calls["signal"] == []
        assert hook_calls["atexit"] == [janitor._cleanup_registered]


def _spawn_and_reap_pid() -> int:
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


@pytest.fixture
def shm_dir(tmp_path, monkeypatch):
    """Point the sweep the command runs at a scratch directory."""
    clean = janitor.clean_orphan_segments
    listing = janitor.list_library_segments
    scratch = str(tmp_path)
    monkeypatch.setattr(
        janitor, "clean_orphan_segments", lambda shm_dir=scratch: clean(shm_dir)
    )
    monkeypatch.setattr(
        janitor, "list_library_segments", lambda shm_dir=scratch: listing(shm_dir)
    )
    return tmp_path


class TestCleanShmCommand:
    def test_reports_removed_and_kept_segments(self, shm_dir, capsys):
        dead = shm_dir / f"{janitor.SEGMENT_PREFIX}-{_spawn_and_reap_pid()}-aabb"
        live = shm_dir / f"{janitor.SEGMENT_PREFIX}-{os.getpid()}-ccdd"
        for path in (dead, live):
            path.write_bytes(b"x")
        assert cli.main(["clean-shm"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "removed 1 orphaned segment(s):",
            f"  {dead.name}",
            "1 segment(s) belong to live processes and were kept",
        ]
        assert not dead.exists() and live.exists()

    def test_nothing_to_sweep(self, shm_dir, capsys):
        (shm_dir / "psm_unrelated").write_bytes(b"x")
        assert cli.main(["clean-shm"]) == 0
        assert capsys.readouterr().out.splitlines() == ["no orphaned segments found"]
        assert (shm_dir / "psm_unrelated").exists()

    def test_journal_flags_rejected(self, shm_dir, tmp_path):
        with pytest.raises(ConfigurationError, match="clean-shm"):
            cli.main(["clean-shm", "--journal", str(tmp_path / "sweep.jsonl")])
        with pytest.raises(ConfigurationError, match="clean-shm"):
            cli.main(["clean-shm", "--resume"])
