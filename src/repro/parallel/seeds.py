"""Deterministic shard layouts, and spawned per-item streams.

1. **The shard layout is a pure function of the batch size** (never of the
   worker count).  ``shard_layout(count)`` slices ``range(count)`` into
   contiguous shards of :func:`default_shard_size` items; how many
   workers later pick those shards up cannot change what the shards are.
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

Running with ``n_jobs=1`` or ``n_jobs=8`` therefore produces bit-for-bit
identical output (see ``docs/parallelism.md`` for the full contract).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.utils.exceptions import ValidationError
from repro.utils.rng import RandomState

#: Smallest shard the default heuristic will produce (keeps per-task
#: dispatch overhead negligible next to the sampling work itself).
MIN_SHARD_SIZE = 64

#: Largest shard the default heuristic will produce (bounds the latency of
#: the slowest straggler and keeps result messages reasonably sized).
MAX_SHARD_SIZE = 4096

#: Target number of shards per batch: enough to load-balance a handful of
#: workers without over-fragmenting small batches.
TARGET_SHARDS = 16

#: A per-shard RNG state: whatever ``ensure_rng`` accepts and pickles.
ShardState = Union[np.random.SeedSequence, np.random.Generator]


def default_shard_size(count: int) -> int:
    """The default shard size for a batch of ``count`` RR sets.

    A pure function of ``count`` (clamped ``ceil(count / TARGET_SHARDS)``)
    so the shard layout — and therefore the sampled output — does not
    depend on how many workers are available.
    """
    if count <= 0:
        return MIN_SHARD_SIZE
    return max(MIN_SHARD_SIZE, min(MAX_SHARD_SIZE, -(-count // TARGET_SHARDS)))


def shard_layout(count: int, shard_size: int = None) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` shards covering ``range(count)``.

    ``shard_size`` defaults to :func:`default_shard_size`.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if shard_size is None:
        shard_size = default_shard_size(count)
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
