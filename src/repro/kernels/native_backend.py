"""The ``"native"`` backend: one C BFS compiled on first use, opened with ctypes.

A single small C translation unit holds one breadth-first search,
instantiated three times:

* **RR sets** — one reverse BFS per set on the in-CSR, over the keyed
  stream of :mod:`repro.sampling.engine`: the root comes from the stream
  (or an explicit ``roots`` array), every in-edge coin is a pure function
  of (key, set index, edge), and a set ends at its first member in the
  optional ``stop`` mask;
* **cascades** — one forward BFS per cascade on the out-CSR from a shared
  seed list, over the keyed cascade stream of
  :mod:`repro.diffusion.mc_engine`;
* **replayed worlds** — one forward BFS per world from a shared seed
  list, following the precomputed live mask ``live[j·m + e]``.

Visited nodes carry a per-item stamp, and the output buffer doubles as
each item's BFS queue, so members land in discovery order and the batch
offsets come for free; a batch that outgrows its buffer is grown and
resumed at the first unfinished item.  Because every coin is keyed, the
batches equal the ``"vectorized"`` and ``"python"`` batches element for
element.

The unit is compiled once per machine with the system C compiler
(``cc``/``gcc``, override with ``CC``) into a content-addressed shared
object under a per-user cache directory, then opened with
:class:`ctypes.CDLL` by every process that needs it — pool workers pay
one ``dlopen``, never a recompile.  Node arrays are read in their storage
dtype: dedicated ``uint32`` entry points consume mmap'd ``.rgx`` CSR
arrays in place.

Availability is probed, never assumed: without a C compiler the registry
reports the backend unavailable and ``"auto"`` falls back to
``"vectorized"`` silently.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

from repro.graphs.residual import ResidualGraph
from repro.kernels.registry import KernelBackend, coin_thresholds, prepare_csr
from repro.utils.exceptions import ValidationError

#: Override the cache directory for the compiled shared object.
CACHE_DIR_ENV_VAR = "REPRO_NATIVE_CACHE_DIR"

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define REPRO_GOLDEN 0x9E3779B97F4A7C15ULL

/* The SplitMix64 finalizer. */
static inline uint64_t repro_mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* One BFS per item j in [j0, count).  ITEM fixes item j's first nodes
 * (first[0 .. n_first), active and distinct) and whatever LIVE reads;
 * LIVE(e) says whether edge e is live in item j.  An edge's endpoint
 * joins when it is unseen, active (active may be NULL: a fully active
 * view) and the edge is live.  stop (may be NULL) ends an item at its
 * first member in the mask, which is kept.  out doubles as each item's
 * BFS queue, so out_offsets[j + 1] is simply where item j's queue ended.
 * Returns count, or the first item that did not fit in cap: items before
 * it are complete, and the caller grows out and resumes there. */
#define REPRO_BFS(NAME, NODE_T, ITEM, LIVE, ...)                               \
int64_t NAME(__VA_ARGS__, int64_t count, int64_t j0,                           \
             const int64_t *offsets, const NODE_T *nodes,                      \
             const uint8_t *active, const uint8_t *stop,                       \
             uint32_t *stamp, int64_t n, uint32_t *epoch,                      \
             int64_t *out_offsets, int64_t *out, int64_t cap)                  \
{                                                                              \
    int64_t tail = out_offsets[j0];                                            \
    for (int64_t j = j0; j < count; ++j) {                                     \
        const int64_t *first;                                                  \
        int64_t n_first;                                                       \
        ITEM                                                                   \
        if (n_first) {                                                         \
            if (tail + n_first > cap)                                          \
                return j;                                                      \
            if (++*epoch == 0) { /* stamps wrapped around: clear them */       \
                memset(stamp, 0, (size_t)n * sizeof *stamp);                   \
                *epoch = 1;                                                    \
            }                                                                  \
            uint32_t mark = *epoch;                                            \
            int64_t head = tail;                                               \
            for (int64_t i = 0; i < n_first; ++i) {                            \
                stamp[first[i]] = mark;                                        \
                out[tail++] = first[i];                                        \
            }                                                                  \
            int open = !(stop && stop[first[0]]);                              \
            while (open && head < tail) {                                      \
                int64_t v = out[head++];                                       \
                int64_t end = offsets[v + 1];                                  \
                for (int64_t e = offsets[v]; e < end; ++e) {                   \
                    int64_t s = (int64_t)nodes[e];                             \
                    if (stamp[s] == mark || (active && !active[s]))            \
                        continue;                                              \
                    if (!LIVE(e))                                              \
                        continue;                                              \
                    if (tail >= cap)                                           \
                        return j;                                              \
                    stamp[s] = mark;                                           \
                    out[tail++] = s;                                           \
                    if (stop && stop[s]) {                                     \
                        open = 0;                                              \
                        break;                                                 \
                    }                                                          \
                }                                                              \
            }                                                                  \
        }                                                                      \
        out_offsets[j + 1] = tail;                                             \
    }                                                                          \
    return count;                                                              \
}

/* Both CSR node dtypes of one instantiation. */
#define REPRO_BFS_BOTH(NAME, ...)                                              \
    REPRO_BFS(NAME##_i64, int64_t, __VA_ARGS__)                                \
    REPRO_BFS(NAME##_u32, uint32_t, __VA_ARGS__)

/* Item j of the keyed stream hashes to h; edge e is live iff its 53-bit
 * coin is below e's threshold. */
#define KEYED_HASH                                                             \
    uint64_t h = repro_mix64(key + (uint64_t)(start + j) * REPRO_GOLDEN);
#define KEYED_LIVE(e)                                                          \
    ((repro_mix64(h + (uint64_t)((e) + 1) * REPRO_GOLDEN) >> 11) < thresholds[e])

/* RR set j: one root, from roots or the stream (an inactive root leaves
 * the set empty). */
#define RR_ITEM                                                                \
    KEYED_HASH                                                                 \
    int64_t root;                                                              \
    if (roots) {                                                               \
        root = roots[j];                                                       \
    } else {                                                                   \
        int64_t idx = (int64_t)((double)(repro_mix64(h) >> 11)                 \
                                * 0x1.0p-53 * (double)n_active);               \
        root = active_nodes[idx < n_active ? idx : n_active - 1];              \
    }                                                                          \
    first = &root;                                                             \
    n_first = !active || active[root];

/* Cascade j and world j start from the shared seeds. */
#define CASCADE_ITEM                                                           \
    KEYED_HASH                                                                 \
    first = seeds;                                                             \
    n_first = n_seeds;
#define REPLAY_ITEM                                                            \
    const uint8_t *row = live + j * m;                                         \
    first = seeds;                                                             \
    n_first = n_seeds;
#define REPLAY_LIVE(e) (row[e])

REPRO_BFS_BOTH(repro_rr_sets, RR_ITEM, KEYED_LIVE,
               uint64_t key, int64_t start, const uint64_t *thresholds,
               const int64_t *roots, const int64_t *active_nodes,
               int64_t n_active)
REPRO_BFS_BOTH(repro_cascades, CASCADE_ITEM, KEYED_LIVE,
               uint64_t key, int64_t start, const uint64_t *thresholds,
               const int64_t *seeds, int64_t n_seeds)
REPRO_BFS_BOTH(repro_replay, REPLAY_ITEM, REPLAY_LIVE,
               const uint8_t *live, int64_t m,
               const int64_t *seeds, int64_t n_seeds)
"""

_P, _I64, _U64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64

#: The arguments every instantiation ends with (count, j0, the CSR, the
#: masks, the stamps and the output); pointers travel as plain addresses.
_BFS_TAIL = (_I64, _I64, _P, _P, _P, _P, _P, _I64, _P, _P, _P, _I64)

#: ``name -> leading argtypes`` of each instantiation (``_i64``/``_u32``).
_KERNELS = {
    "repro_rr_sets": (_U64, _I64, _P, _P, _P, _I64),
    "repro_cascades": (_U64, _I64, _P, _P, _I64),
    "repro_replay": (_P, _I64, _P, _I64),
}


def _compiler() -> Optional[str]:
    explicit = os.environ.get("CC")
    if explicit:
        return explicit if shutil.which(explicit) else None
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def probe() -> Optional[str]:
    """``None`` when the native backend can build, else the reason it can't."""
    if _compiler() is None:
        return "no C compiler found (cc/gcc/clang; set CC to override)"
    return None


def _cache_dir() -> str:
    override = os.environ.get(CACHE_DIR_ENV_VAR)
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-native-kernels-{uid}")


def _build_library() -> str:
    """Compile the kernel source into a content-addressed ``.so`` (cached)."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    library = os.path.join(cache, f"repro_kernels_{digest}.so")
    if os.path.exists(library):
        return library
    compiler = _compiler()
    if compiler is None:  # pragma: no cover - guarded by probe()
        raise ValidationError(
            "backend 'native' needs a C compiler (cc/gcc/clang; set CC)"
        )
    os.makedirs(cache, exist_ok=True)
    source_path = os.path.join(cache, f"repro_kernels_{digest}.c")
    with open(source_path, "w") as handle:
        handle.write(_SOURCE)
    with tempfile.NamedTemporaryFile(
        dir=cache, suffix=".so", delete=False
    ) as scratch:
        scratch_path = scratch.name
    command = [
        compiler,
        "-O3",
        "-std=c99",
        "-fPIC",
        "-shared",
        "-o",
        scratch_path,
        source_path,
    ]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        try:
            os.unlink(scratch_path)
        except OSError:
            pass
        raise ValidationError(
            f"backend 'native' failed to compile its kernels with "
            f"{compiler!r}: {result.stderr.strip()[:500]}"
        )
    # Atomic publish: concurrent builders race to an identical artifact.
    os.replace(scratch_path, library)
    return library


def _addr(array: Optional[np.ndarray]) -> Optional[int]:
    """The data address of ``array`` (``None``, i.e. NULL, for ``None``)."""
    return None if array is None else array.ctypes.data


def as_uint8_mask(mask: np.ndarray) -> np.ndarray:
    """A boolean mask as a C-contiguous uint8 array (zero-copy if possible)."""
    mask = np.ascontiguousarray(mask)
    if mask.dtype == np.bool_:
        return mask.view(np.uint8)
    return mask.astype(np.uint8)


class NativeKernels:
    """The compiled kernel set, opened with ctypes."""

    def __init__(self) -> None:
        self._lib = ctypes.CDLL(_build_library())
        for name, leading in _KERNELS.items():
            for suffix in ("i64", "u32"):
                function = getattr(self._lib, f"{name}_{suffix}")
                function.restype = _I64
                function.argtypes = leading + _BFS_TAIL

    def _bfs(self, name, leading, count, view, csr, stop=None, size=0):
        """Run instantiation ``name`` over ``count`` items; ``(offsets, nodes)``.

        ``leading`` are the instantiation's own arguments (their arrays
        must stay alive for the call) and ``size`` is a first guess at the
        total output.  A batch that does not fit grows the buffer and
        resumes at its first unfinished item.
        """
        n = view.base.n
        active = None
        if view.num_active < n:
            active = as_uint8_mask(view.active_mask)
        stop_u8 = None if stop is None else as_uint8_mask(stop)
        suffix = "u32" if csr.nodes.dtype == np.uint32 else "i64"
        kernel = getattr(self._lib, f"{name}_{suffix}")
        out_offsets = np.zeros(count + 1, dtype=np.int64)
        stamp = np.zeros(n, dtype=np.uint32)
        epoch = np.zeros(1, dtype=np.uint32)
        out = np.empty(size + 64, dtype=np.int64)
        done = 0
        while True:
            done = kernel(
                *leading, count, done,
                _addr(csr.offsets), _addr(csr.nodes),
                _addr(active), _addr(stop_u8),
                _addr(stamp), n, _addr(epoch),
                _addr(out_offsets), _addr(out), out.size,
            )
            if done == count:
                break
            # Item `done` did not fit: grow to twice the size, or to the
            # finished items' mean size times the whole batch, and resume.
            filled = int(out_offsets[done])
            grown = np.empty(
                max(2 * out.size, filled * count // max(done, 1) + n), dtype=np.int64
            )
            grown[:filled] = out[:filled]
            out = grown
        return out_offsets, out[: out_offsets[count]]

    def generate(
        self,
        view: ResidualGraph,
        key: int,
        start: int,
        count: int,
        roots: Optional[np.ndarray],
        stop: Optional[np.ndarray],
    ):
        """Sets ``start … start + count − 1`` of the keyed RR stream."""
        from repro.sampling.engine import RRBatch

        offsets, sources, probs = view.base.in_csr()
        csr = prepare_csr(offsets, sources, probs)
        thresholds = coin_thresholds(probs)
        if roots is not None:
            roots = np.ascontiguousarray(roots, dtype=np.int64)
        active_nodes = np.ascontiguousarray(view.active_nodes(), dtype=np.int64)
        out_offsets, out = self._bfs(
            "repro_rr_sets",
            (key, start, _addr(thresholds), _addr(roots),
             _addr(active_nodes), active_nodes.size),
            count, view, csr, stop, 4 * count,
        )
        return RRBatch(
            offsets=out_offsets, nodes=out, num_active_nodes=view.num_active, n=view.n
        )

    def simulate(
        self, view: ResidualGraph, seeds: np.ndarray, key: int, start: int, count: int
    ):
        """Cascades ``start … start + count − 1`` of the keyed cascade stream."""
        from repro.diffusion.mc_engine import MCBatch

        offsets, targets, probs = view.base.out_csr()
        csr = prepare_csr(offsets, targets, probs)
        thresholds = coin_thresholds(probs)
        seeds = np.ascontiguousarray(seeds, dtype=np.int64)
        out_offsets, out = self._bfs(
            "repro_cascades",
            (key, start, _addr(thresholds), _addr(seeds), seeds.size),
            count, view, csr, size=4 * count * seeds.size,
        )
        return MCBatch(offsets=out_offsets, nodes=out, n=view.n)

    def replay(self, view: ResidualGraph, seeds: np.ndarray, live: np.ndarray):
        """One cascade per row of the live-edge matrix ``live``."""
        from repro.diffusion.mc_engine import MCBatch

        csr = prepare_csr(*view.base.out_csr())
        seeds = np.ascontiguousarray(seeds, dtype=np.int64)
        live_u8 = as_uint8_mask(live)
        count = int(live.shape[0])
        offsets, nodes = self._bfs(
            "repro_replay",
            (_addr(live_u8), view.base.m, _addr(seeds), seeds.size),
            count, view, csr, size=4 * count * seeds.size,
        )
        return MCBatch(offsets=offsets, nodes=nodes, n=view.n)


def load() -> KernelBackend:
    """Registry loader: compile (cached), dlopen, wire the kernels."""
    kernels = NativeKernels()
    return KernelBackend(
        name="native",
        generate_batch=kernels.generate,
        simulate_batch=kernels.simulate,
        replay_batch=kernels.replay,
    )
