"""Reverse-influence-sampling substrate: RR sets, coverage, concentration bounds.

Architecture
------------
The sampling layer is organised around a batched, NumPy-vectorized engine:

* :mod:`repro.sampling.engine` — :func:`generate_rr_batch` samples a
  batch of RR sets from the keyed stream: one 64-bit key per batch, and
  each set's root and edge coins a pure function of the key, the set
  index and the edge.  The default engine grows all sets at once,
  frontier-at-a-time against the base graph's incoming CSR; an optional
  ``stop`` mask ends each set at its first member in the mask.  Output is
  an :class:`~repro.sampling.engine.RRBatch` in flat ``(offsets, nodes)``
  form.
* :mod:`repro.sampling.flat_collection` —
  :class:`~repro.sampling.flat_collection.FlatRRCollection` wraps a batch
  with a CSR inverted index ``node -> rr_ids``; ``coverage`` /
  ``marginal_coverage`` / ``covered_mask`` are bincount/boolean-mask
  operations, ``extend`` is O(1) amortized, and the inverted index is
  extend-aware (append-merge, never a full rebuild).  Every algorithm in
  the repo (ADDATP, HATP, HNTP, the RIS oracle behind ADG, and the
  IMM/NSG/NDG baselines) samples through this path.
* :mod:`repro.sampling.coverage` —
  :class:`~repro.sampling.coverage.CoverageCounter` keeps ``CovR(S)`` and
  all per-node marginals as live counters, updated incrementally when the
  conditioning set grows/shrinks or the collection extends.  It powers the
  vectorized lazy greedy in the baselines and the ``sample_reuse`` paths
  of HATP/HNTP/ADDATP (samples carried across refinement rounds instead of
  regenerated).
* :mod:`repro.sampling.rr_sets` / :mod:`repro.sampling.rr_collection` — the
  ``legacy`` per-set BFS and the dict-indexed
  :class:`~repro.sampling.rr_collection.RRCollection`.  They are the tests'
  references: ``FlatRRCollection`` and the engine are compared against
  them.

Backend switch
--------------
Generation entry points (``generate_rr_batch``, ``generate_rr_sets``,
``RRCollection.generate``, ``FlatRRCollection.generate``) take a
``backend`` argument:

* ``"vectorized"`` (default) — the batched NumPy engine;
* ``"python"`` — a per-set loop over the *same* keyed stream, so a
  shared seed yields bit-for-bit identical batches — this is what the
  differential tests assert;
* ``"native"`` — a compiled per-set reverse BFS, bit-for-bit identical;
* ``"legacy"`` (``generate_rr_sets`` only) — the original per-set BFS,
  which consumes the caller's generator per coin and therefore matches
  the engine statistically but not bit-for-bit.

Parallelism
-----------
:mod:`repro.parallel` scales the engine across cores: a shared-memory
broker publishes the graph's CSR once, a persistent
:class:`~repro.parallel.pool.SamplingPool` runs the engine on batch
shards of one key, so the merged batch is bit-for-bit the single-call
batch whatever the worker count.  Every generation entry
point accepts ``n_jobs`` (or the ``REPRO_JOBS`` environment variable);
see ``docs/parallelism.md``.

See ``docs/performance.md`` for measured speedups and benchmark
regeneration instructions (``benchmarks/test_bench_rr_engine.py``).
"""

from repro.sampling.bounds import (
    SpreadConfidenceInterval,
    additive_confidence_interval,
    additive_error_for_budget,
    hoeffding_sample_size,
    hoeffding_tail,
    hybrid_confidence_interval,
    hybrid_lower_tail,
    hybrid_sample_size,
    hybrid_upper_tail,
)
from repro.sampling.coverage import CoverageCounter
from repro.sampling.engine import RRBatch, generate_rr_batch, merge_rr_batches
from repro.sampling.flat_collection import FlatRRCollection
from repro.sampling.rr_collection import RRCollection
from repro.sampling.rr_sets import (
    expected_rr_width,
    generate_rr_set,
    generate_rr_sets,
    rr_set_sizes,
)

__all__ = [
    "CoverageCounter",
    "FlatRRCollection",
    "RRBatch",
    "RRCollection",
    "SpreadConfidenceInterval",
    "additive_confidence_interval",
    "additive_error_for_budget",
    "expected_rr_width",
    "generate_rr_batch",
    "generate_rr_set",
    "generate_rr_sets",
    "hoeffding_sample_size",
    "hoeffding_tail",
    "hybrid_confidence_interval",
    "hybrid_lower_tail",
    "hybrid_sample_size",
    "hybrid_upper_tail",
    "merge_rr_batches",
    "rr_set_sizes",
]
