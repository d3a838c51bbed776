"""Compare two result sets: each workload/metric pair is better, worse,
unchanged or unresolved.

A result set is a JSONL file of records written by ``run.py --out``.
Runs of the two sets are paired in file order within each workload and
trace mode.  For a metric whose ``better`` direction and ``bound`` come
from ``BENCHMARK.json``:

* **better** — the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
* **unresolved** — the parent's quartile spread, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
* **worse** — the change's median is worse than the parent's by more
  than the bound (per-layer metrics have no bound: worse is the mirror
  of better);
* **unchanged** — otherwise.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

from common import ROOT


def load_set(path: str) -> Dict[Tuple[str, int], List[Dict[str, float]]]:
    runs: Dict[Tuple[str, int], List[Dict[str, float]]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], int(record["trace"]))].append(
                    {name: m["value"] for name, m in record["metrics"].items()}
                )
    return runs


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def verdict(
    parent: List[float], change: List[float], lower_better: bool, bound: Optional[float]
) -> str:
    """Classify one workload/metric pair (see the module docstring)."""
    sign = 1.0 if lower_better else -1.0

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    pairs = list(zip(change, parent))
    wins = sum(beats(c, p) for c, p in pairs)
    losses = sum(beats(p, c) for c, p in pairs)
    med_p, med_c = median(parent), median(change)
    spread = _spread(parent)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_c - med_p) > spread:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(med_c - med_p) > spread:
            return "worse"
        return "unchanged"
    scale = abs(med_p) if med_p else 1.0
    all_better = all(beats(c, p) for c in change for p in parent)
    if spread / scale > bound and not all_better:
        return "unresolved"
    if sign * (med_c - med_p) / scale > bound:
        return "worse"
    return "unchanged"


def compare_files(parent_path: str, change_path: str) -> int:
    """Print one verdict per workload/metric pair; 1 if any is worse."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_set(parent_path), load_set(change_path)
    worse = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        for name in sorted(set(parent[key][0]) & set(change[key][0])):
            meta = metrics.get(name)
            if meta is None:
                continue
            a = [run[name] for run in parent[key]]
            b = [run[name] for run in change[key]]
            result = verdict(a, b, meta["better"] == "lower", meta.get("bound"))
            worse += result == "worse"
            print(
                f"{workload:18} {name:28} {result:10} parent {median(a):.6g} "
                f"change {median(b):.6g} {meta['unit']} (n={len(a)}/{len(b)})"
            )
    return 1 if worse else 0
