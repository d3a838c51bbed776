"""Deterministic shard layouts, and spawned per-item streams.

1. **Shards are contiguous.**  ``shard_layout(count, size)`` slices
   ``range(count)`` into shards of ``size`` items; the sampling pool asks
   for one shard per thread (:mod:`repro.parallel.pool`).
2. **Sampling shards need no streams of their own.**  Every RR set and
   every forward cascade is a pure function of the batch key and its
   index (:mod:`repro.sampling.engine`, :mod:`repro.diffusion.mc_engine`),
   so shard ``[a, b)`` simply draws items ``a … b − 1`` under that key,
   and no batch depends on the layout at all.
3. **Evaluation items own spawned streams.**
   :func:`spawn_shard_states` derives independent, reproducible streams
   with ``numpy.random.SeedSequence.spawn`` (or ``Generator.spawn`` for a
   live generator): item ``i`` always receives child stream ``i``,
   whichever worker runs it (:mod:`repro.parallel.eval_pool`).

Running with ``n_jobs=1`` or ``n_jobs=8`` (threads, or ``eval_jobs``
processes) therefore produces bit-for-bit identical output (see
``docs/parallelism.md`` for the full contract).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState

#: A per-shard RNG state: whatever ``ensure_rng`` accepts and pickles.
ShardState = Union[np.random.SeedSequence, np.random.Generator]


def shard_layout(count: int, shard_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` shards of ``shard_size`` items covering ``range(count)``."""
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    shard_size = int(shard_size)
    if shard_size < 1:
        raise ValidationError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (start, min(start + shard_size, count))
        for start in range(0, count, shard_size)
    ]


def spawn_shard_states(
    random_state: RandomState, num_shards: int
) -> List[ShardState]:
    """Derive ``num_shards`` independent, picklable RNG states.

    Accepts the library-wide ``RandomState`` union: ``None`` (fresh OS
    entropy), an ``int`` seed, a ``SeedSequence``, or a live ``Generator``
    (whose spawn counter advances, so successive calls yield fresh but
    reproducible families).  Shard ``i`` must always be run with state
    ``i`` — that pairing is what the determinism contract keys on.
    """
    if num_shards < 0:
        raise ValidationError(f"num_shards must be >= 0, got {num_shards}")
    if num_shards == 0:
        return []
    if isinstance(random_state, np.random.Generator):
        return list(random_state.spawn(num_shards))
    if isinstance(random_state, np.random.SeedSequence):
        return list(random_state.spawn(num_shards))
    if random_state is None or isinstance(random_state, (int, np.integer)):
        return list(np.random.SeedSequence(random_state).spawn(num_shards))
    raise TypeError(
        "random_state must be None, an int, a SeedSequence or a Generator, "
        f"got {type(random_state).__name__}"
    )


def shard_roots(
    roots, layout: Sequence[Tuple[int, int]]
) -> List:
    """Slice an optional explicit-roots array along a shard layout."""
    if roots is None:
        return [None] * len(layout)
    root_array = np.asarray(roots, dtype=np.int64)
    return [root_array[start:stop] for start, stop in layout]
