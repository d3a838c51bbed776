"""Shared plumbing of the benchmark: environment, fingerprint, statistics, output.

Everything the benchmark writes stays inside the checkout it runs from:
temporary files and the compiled ``native`` kernel cache go to
``.bench_build/`` at the checkout root (gitignored).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The checkout root: the directory holding ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Build and scratch outputs of the benchmark (gitignored).
BUILD_DIR = os.path.join(ROOT, ".bench_build")

def src_dir() -> str:
    return os.path.join(ROOT, "src")


def bench_env() -> Dict[str, str]:
    """The environment the benchmark and its server process run under.

    Every ``REPRO_*`` knob of the caller is dropped so that each workload
    runs the library defaults it names, and the scratch locations point
    into the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = os.path.join(BUILD_DIR, "tmp")
    env.update(
        TMPDIR=tmp,
        REPRO_NATIVE_CACHE_DIR=os.path.join(BUILD_DIR, "native"),
        PYTHONPATH=src_dir(),
    )
    return env


def prepare_process() -> None:
    """Point this process at the checkout's sources and scratch directories.

    Exits with status 2 (and no result line) when the library sources are
    not in the checkout, so a directory holding only the benchmark fails
    fast instead of measuring nothing.
    """
    if not os.path.isfile(os.path.join(src_dir(), "repro", "__init__.py")):
        print(
            f"perfbench: no library sources under {src_dir()}; run from a "
            f"checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    env = bench_env()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(
        TMPDIR=env["TMPDIR"], REPRO_NATIVE_CACHE_DIR=env["REPRO_NATIVE_CACHE_DIR"]
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    if src_dir() not in sys.path:
        sys.path.insert(0, src_dir())


def build_native() -> None:
    """Build the ``native`` kernels (a fresh checkout compiles them once).

    The build runs in a child process before anything is timed, so the
    one-off compile never lands in a set-up or work measurement; later
    builds find the kernel cache.
    """
    subprocess.run(
        [sys.executable, "-c", "from repro import kernels; kernels.warm_up('native')"],
        env=bench_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=850,
    )


def fresh_process_s(statement: str, reps: int) -> float:
    """Median seconds a new interpreter takes to run ``statement`` and exit.

    Set-up is timed this way — interpreter start and imports included —
    because it is what a user pays once per process, and because a
    half-second unit is far steadier than the few milliseconds of graph
    building alone.
    """
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    code = f"import sys; sys.path.insert(0, {bench_dir!r}); {statement}"
    times = []
    for _ in range(reps):
        begin = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", code], env=bench_env(), stdout=subprocess.DEVNULL
        )
        # A plain wait returns the moment the child exits; a wait with a
        # timeout polls every 50 ms and would round each set-up up to that.
        watchdog = threading.Timer(170, child.kill)
        watchdog.start()
        try:
            status = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - begin)
        if status != 0:
            raise subprocess.CalledProcessError(status, child.args)
    return median(times)


# --------------------------------------------------------------------- #
# fingerprint
# --------------------------------------------------------------------- #


def _git(*args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(seed: int, rr_backend: str, mc_backend: str) -> Dict[str, Any]:
    """Host, toolchain, backend and source identity of one result."""
    import numpy as np

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rr_backend": rr_backend,
        "mc_backend": mc_backend,
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "seed": seed,
    }


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (0.0 for an empty sample)."""
    data = sorted(float(v) for v in values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------- #


class Outcome:
    """Checks and metrics of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.extra: Dict[str, Any] = {}  # printed, not part of the result line
        self.spans: List[Dict[str, Any]] = []  # a traced run's spans, written at the end
        self.valid = True

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked output; a failed check is recorded by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def invalidate(self, reason: str) -> None:
        self.valid = False
        self.problems.append(reason)

    @property
    def correct(self) -> bool:
        return self.valid and self.failed == 0 and self.attempted > 0


def result_line(outcome: Outcome, names: Sequence[str], units: Dict[str, str]) -> str:
    """The single JSON result object the benchmark prints last."""
    metrics = {}
    for name in names:
        value = outcome.metrics.get(name, 0.0)
        metrics[name] = {"value": float(value), "unit": units[name]}
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": max(int(outcome.attempted), 1),
            "failed": int(outcome.failed) if outcome.attempted else 1,
            "metrics": metrics,
        }
    )
