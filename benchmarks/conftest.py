"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper at a
configurable scale.  The scale defaults to ``smoke`` (seconds per figure)
and can be raised with the ``REPRO_BENCH_SCALE`` environment variable
(``smoke`` / ``small`` / ``paper``).  Each benchmark writes the series it
produced to ``benchmarks/output/<experiment>.csv`` so the numbers that went
into EXPERIMENTS.md can be regenerated and inspected.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import get_scale
from repro.experiments.reporting import collect_figure_rows, write_rows_csv

#: Master seed used by every benchmark run (reproducible figures).
BENCH_SEED = 2020

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def bench_scale():
    """The experiment scale benchmarks run at (env: REPRO_BENCH_SCALE)."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "smoke"))


@pytest.fixture(scope="session")
def save_series():
    """Callable that persists a figure's series to benchmarks/output/."""

    def _save(name, results):
        rows = collect_figure_rows(results)
        write_rows_csv(rows, OUTPUT_DIR / f"{name}.csv")
        return rows

    return _save


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiment drivers already aggregate over realizations internally,
    so repeating them for statistical timing would multiply minutes of work
    for little insight; a single timed round keeps the harness usable.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
