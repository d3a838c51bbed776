"""Diffusion substrate: IC simulation, realizations, spread estimation."""

from repro.diffusion.ic_model import (
    cascade_trace,
    observe_activation,
    simulate_ic,
    simulate_ic_spread,
)
from repro.diffusion.mc_engine import (
    MC_BACKEND_ENV_VAR,
    MCBatch,
    live_edge_reachable,
    merge_mc_batches,
    replay_live_edges,
    resolve_mc_backend,
    simulate_ic_batch,
)
from repro.diffusion.realization import (
    BaseRealization,
    LazyRealization,
    Realization,
    batch_realization_spreads,
    sample_realizations,
)
from repro.diffusion.spread import (
    MAX_EXACT_EDGES,
    exact_expected_spread,
    exact_marginal_spread,
    expected_spread_lower_bound,
    monte_carlo_marginal_spread,
    monte_carlo_spread,
    monte_carlo_spread_samples,
)

__all__ = [
    "BaseRealization",
    "LazyRealization",
    "MAX_EXACT_EDGES",
    "MC_BACKEND_ENV_VAR",
    "MCBatch",
    "Realization",
    "batch_realization_spreads",
    "cascade_trace",
    "exact_expected_spread",
    "exact_marginal_spread",
    "expected_spread_lower_bound",
    "live_edge_reachable",
    "merge_mc_batches",
    "monte_carlo_marginal_spread",
    "monte_carlo_spread",
    "monte_carlo_spread_samples",
    "observe_activation",
    "replay_live_edges",
    "resolve_mc_backend",
    "sample_realizations",
    "simulate_ic",
    "simulate_ic_batch",
    "simulate_ic_spread",
]
