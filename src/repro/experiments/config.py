"""Experiment configuration: engine parameters, scale presets, suites.

The paper's evaluation runs on graphs with up to 69 million edges; the
pure-Python reproduction uses scaled dataset proxies and therefore exposes a
*scale preset* knob.  Every experiment driver accepts a
:class:`ExperimentScale` so the same code can run as

* ``SMOKE``  — seconds-level, used by the test-suite and the pytest
  benchmarks (small proxies, few realizations, small k sweep);
* ``SMALL``  — minutes-level, the default for the example scripts;
* ``PAPER``  — the full parameter grid of the paper (k up to 500, four
  datasets, 20 realizations); only sensible if you have hours to spare or
  swap the proxies for the real SNAP graphs and a compiled RR-set engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.utils.exceptions import ConfigurationError

#: The six algorithms the paper's profit figures compare, plus the baseline.
PROFIT_ALGORITHMS = ("HATP", "ADDATP", "HNTP", "NSG", "NDG", "ARS", "Baseline")

#: The algorithms whose running time Fig. 5/6 reports (ARS and the baseline
#: are excluded, exactly as in the paper).
RUNTIME_ALGORITHMS = ("HATP", "ADDATP", "HNTP", "NSG", "NDG")


@dataclass(frozen=True)
class EngineParameters:
    """Sampling-engine parameters shared by the noise-model algorithms.

    Attributes mirror the paper's experimental settings (Section VI-A):
    ``n_i ζ_0 = 64``, ``ε_0 = 0.5``, ``ε = 0.05``; the budget caps are
    additions of the pure-Python engine.
    """

    epsilon: float = 0.05
    epsilon0: float = 0.5
    initial_scaled_error: float = 64.0
    additive_floor: float = 1.0
    max_rounds: int = 12
    max_samples_per_round: int = 2000
    addatp_max_rounds: int = 8
    addatp_max_samples_per_round: int = 2000
    baseline_sample_size: Optional[int] = None
    """RR batch for NSG / NDG; ``None`` derives it from the HATP cap."""
    n_jobs: Optional[int] = None
    """Threads for RR-set generation (``None`` honours the ``REPRO_JOBS``
    environment variable, then uses every usable core; ``-1`` uses all
    cores).  Only batches of at least
    :data:`~repro.parallel.pool.MIN_SPLIT` sets are split.  RR sets, and so
    outcomes, are bit-for-bit independent of the value, unset included."""
    eval_jobs: Optional[int] = None
    """Worker processes for whole-session evaluation — the outermost
    parallel tier: complete adaptive runs fan out across realizations
    (``None`` honours the ``REPRO_EVAL_JOBS`` environment variable, then
    1; ``-1`` uses all cores).  Outcomes are bit-for-bit independent of
    the value."""
    backend: Optional[str] = None
    """RR-sampling kernel backend threaded into every algorithm the suite
    builds (``None`` honours the ``REPRO_BACKEND`` environment variable,
    then ``"auto"``, which picks ``"native"`` when it can build, else
    ``"vectorized"``; every backend samples bit-for-bit identical RR
    sets, so this knob only changes speed)."""

    def nsg_ndg_samples(self) -> int:
        """Sample size for NSG/NDG: the largest batch HATP may generate."""
        if self.baseline_sample_size is not None:
            return self.baseline_sample_size
        return self.max_samples_per_round

    def sampling_jobs(self) -> Optional[int]:
        """The sampling ``n_jobs`` algorithm factories should receive.

        ``n_jobs`` itself, except under the no-nested-pool rule
        (``docs/parallelism.md``): when ``eval_jobs > 1`` every session
        already has a worker process, so algorithms sample on one thread
        and threads never multiply with processes.  That is
        outcome-neutral, because every thread count samples the same RR
        sets.
        """
        from repro.parallel.eval_pool import resolve_eval_jobs

        if resolve_eval_jobs(self.eval_jobs) > 1:
            return 1
        return self.n_jobs


@dataclass(frozen=True)
class ExperimentScale:
    """A full description of how large an experiment run should be."""

    name: str
    dataset_nodes: Dict[str, int]
    k_values: Tuple[int, ...]
    lambda_values: Tuple[float, ...]
    num_realizations: int
    num_rr_sets_instance: int
    engine: EngineParameters
    include_addatp_up_to_k: int = 10**9
    datasets: Tuple[str, ...] = ("nethept", "epinions", "dblp", "livejournal")
    epsilon_values: Tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25)
    sample_scale_factors: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

    def with_engine(self, **overrides) -> "ExperimentScale":
        """Copy of this scale with engine parameters overridden."""
        return replace(self, engine=replace(self.engine, **overrides))

    def nodes_for(self, dataset: str) -> int:
        """Proxy node count for ``dataset`` under this scale."""
        key = dataset.lower()
        if key not in self.dataset_nodes:
            raise ConfigurationError(
                f"dataset {dataset!r} has no node count in scale {self.name!r}"
            )
        return self.dataset_nodes[key]


#: Seconds-level preset used by tests and pytest benchmarks.
SMOKE = ExperimentScale(
    name="smoke",
    dataset_nodes={"nethept": 200, "epinions": 250, "dblp": 300, "livejournal": 300},
    k_values=(5, 10, 15),
    lambda_values=(0.5, 1.0, 2.0),
    num_realizations=2,
    num_rr_sets_instance=800,
    engine=EngineParameters(
        max_rounds=4,
        max_samples_per_round=400,
        addatp_max_rounds=7,
        addatp_max_samples_per_round=2500,
    ),
    include_addatp_up_to_k=10,
    datasets=("nethept", "epinions"),
    epsilon_values=(0.05, 0.15, 0.25),
    sample_scale_factors=(1, 2, 4),
)

#: Minutes-level preset for the example scripts.
SMALL = ExperimentScale(
    name="small",
    dataset_nodes={"nethept": 600, "epinions": 800, "dblp": 1000, "livejournal": 1000},
    k_values=(5, 10, 25, 50),
    lambda_values=(0.5, 1.0, 2.0, 4.0),
    num_realizations=5,
    num_rr_sets_instance=3000,
    engine=EngineParameters(
        max_rounds=8,
        max_samples_per_round=1500,
        addatp_max_rounds=12,
        addatp_max_samples_per_round=10_000,
    ),
    include_addatp_up_to_k=25,
    datasets=("nethept", "epinions", "dblp", "livejournal"),
)

#: The paper's full grid (still on synthetic proxies unless real data is
#: loaded); expect hours of runtime in pure Python.
PAPER = ExperimentScale(
    name="paper",
    dataset_nodes={
        "nethept": 15_200,
        "epinions": 132_000,
        "dblp": 655_000,
        "livejournal": 4_850_000,
    },
    k_values=(10, 25, 50, 100, 200, 500),
    lambda_values=(200.0, 300.0, 400.0, 500.0),
    num_realizations=20,
    num_rr_sets_instance=100_000,
    engine=EngineParameters(
        max_rounds=30,
        max_samples_per_round=500_000,
        addatp_max_rounds=30,
        addatp_max_samples_per_round=500_000,
    ),
    include_addatp_up_to_k=25,
)

#: Registry of presets by name.
SCALES: Dict[str, ExperimentScale] = {"smoke": SMOKE, "small": SMALL, "paper": PAPER}


def get_scale(name: str) -> ExperimentScale:
    """Look up a preset by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in SCALES:
        raise ConfigurationError(
            f"unknown scale {name!r}; available: {', '.join(sorted(SCALES))}"
        )
    return SCALES[key]
