"""Baseline algorithms: RS/ARS, NSG, NDG, IMM-style IM."""

from repro.baselines.imm import (
    estimate_influence,
    greedy_max_coverage,
    top_k_influential,
)
from repro.baselines.ndg import NDG
from repro.baselines.nsg import NSG
from repro.baselines.random_set import AdaptiveRandomSet, RandomSet

__all__ = [
    "NDG",
    "NSG",
    "AdaptiveRandomSet",
    "RandomSet",
    "estimate_influence",
    "greedy_max_coverage",
    "top_k_influential",
]
