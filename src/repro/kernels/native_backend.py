"""The ``"native"`` backend: C kernels compiled on first use, opened with ctypes.

A single small C translation unit holds two kinds of kernel:

* **RR sets** — one reverse BFS per set over the keyed stream of
  :mod:`repro.sampling.engine`.  Visited nodes carry a per-set stamp, and
  the output buffer doubles as each set's BFS queue, so a set's members
  land in discovery order and the batch offsets come for free.  A set
  ends at its first member in the optional ``stop`` mask.  Because every
  coin is a pure function of (key, set index, edge), the batch equals the
  ``"vectorized"`` and ``"python"`` batches element for element.
* **Forward Monte-Carlo** — the per-layer primitives of
  :mod:`repro.kernels.layered`: a coin-flip sweep with open-addressing
  dedup that draws each coin from the generator's C ``next_double`` entry
  point (passed in as a plain function pointer with its state pointer),
  a live-edge replay sweep, and the stable counting sort that assembles
  the flat batches.

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
from repro.kernels import layered
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

/* Sets j0 .. count-1 of the keyed RR stream (stream indices start + j),
 * one reverse BFS per set.  out doubles as each set's BFS queue, so
 * out_offsets[j + 1] is simply where set j's queue ended.  active and
 * stop may be NULL (fully active view, no stop mask); roots may be NULL
 * (roots come from the stream).  Returns count, or the first set that
 * did not fit in cap: sets before it are complete, and the caller grows
 * out and resumes there. */
#define RR_SETS(NAME, NODE_T)                                                  \
int64_t NAME(uint64_t key, int64_t start, int64_t count, int64_t j0,          \
             const int64_t *offsets, const NODE_T *sources,                    \
             const uint64_t *thresholds, const uint8_t *active,                \
             const uint8_t *stop, const int64_t *roots,                        \
             const int64_t *active_nodes, int64_t n_active,                    \
             uint32_t *stamp, int64_t n, uint32_t *epoch,                      \
             int64_t *out_offsets, int64_t *out, int64_t cap)                  \
{                                                                              \
    int64_t tail = out_offsets[j0];                                            \
    for (int64_t j = j0; j < count; ++j) {                                     \
        uint64_t h = repro_mix64(key + (uint64_t)(start + j) * REPRO_GOLDEN);  \
        int64_t root;                                                          \
        if (roots) {                                                           \
            root = roots[j];                                                   \
        } else {                                                               \
            int64_t idx = (int64_t)((double)(repro_mix64(h) >> 11)             \
                                    * 0x1.0p-53 * (double)n_active);           \
            root = active_nodes[idx < n_active ? idx : n_active - 1];          \
        }                                                                      \
        if (!active || active[root]) {                                         \
            if (tail >= cap)                                                   \
                return j;                                                      \
            if (++*epoch == 0) { /* stamps wrapped around: clear them */       \
                memset(stamp, 0, (size_t)n * sizeof *stamp);                   \
                *epoch = 1;                                                    \
            }                                                                  \
            uint32_t mark = *epoch;                                            \
            int64_t head = tail;                                               \
            int open = !(stop && stop[root]);                                  \
            stamp[root] = mark;                                                \
            out[tail++] = root;                                                \
            while (open && head < tail) {                                      \
                int64_t v = out[head++];                                       \
                int64_t end = offsets[v + 1];                                  \
                for (int64_t e = offsets[v]; e < end; ++e) {                   \
                    int64_t s = (int64_t)sources[e];                           \
                    if (stamp[s] == mark || (active && !active[s]))            \
                        continue;                                              \
                    uint64_t coin = repro_mix64(                               \
                        h + (uint64_t)(e + 1) * REPRO_GOLDEN) >> 11;           \
                    if (coin >= thresholds[e])                                 \
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

RR_SETS(repro_rr_sets_i64, int64_t)
RR_SETS(repro_rr_sets_u32, uint32_t)

int64_t repro_degree_sum(int64_t F, const int64_t *fnodes,
                         const int64_t *offsets)
{
    int64_t total = 0;
    for (int64_t f = 0; f < F; ++f) {
        int64_t node = fnodes[f];
        total += offsets[node + 1] - offsets[node];
    }
    return total;
}

static inline uint64_t repro_slot(int64_t key, uint64_t mask)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return (h ^ (h >> 32)) & mask;
}

/* Insert key if absent; returns 1 when inserted, 0 when already present. */
static inline int repro_insert(int64_t *table, uint64_t mask, int64_t key)
{
    uint64_t slot = repro_slot(key, mask);
    for (;;) {
        int64_t cur = table[slot];
        if (cur == key)
            return 0;
        if (cur == -1) {
            table[slot] = key;
            return 1;
        }
        slot = (slot + 1) & mask;
    }
}

/* Forward-MC sweep: one CSR walk in frontier order that draws one coin
 * per live (active-endpoint) edge straight from the generator's C
 * next_double entry point (the function NumPy's bulk random() loops
 * over), applies the strict flip < prob test and inserts survivors with
 * insert-if-absent dedup.  Coins are drawn in frontier-then-edge order,
 * so the consumed stream is bit-for-bit the reference's. */
#define SWEEP_RNG(NAME, NODE_T)                                                \
int64_t NAME(int64_t F, const int64_t *fids, const int64_t *fnodes,            \
             const int64_t *offsets, const NODE_T *nodes,                      \
             const double *probs, const uint8_t *active,                       \
             double (*next_double)(void *), void *state,                       \
             int64_t n, int64_t *table, int64_t mask,                          \
             int64_t *next_ids, int64_t *next_src)                            \
{                                                                              \
    int64_t K = 0;                                                             \
    for (int64_t f = 0; f < F; ++f) {                                          \
        int64_t id = fids[f];                                                  \
        int64_t node = fnodes[f];                                              \
        int64_t end = offsets[node + 1];                                       \
        for (int64_t e = offsets[node]; e < end; ++e) {                        \
            int64_t s = (int64_t)nodes[e];                                     \
            if (active[s]) {                                                   \
                if (next_double(state) < probs[e]) {                           \
                    int64_t key = id * n + s;                                  \
                    if (repro_insert(table, (uint64_t)mask, key)) {            \
                        next_ids[K] = id;                                      \
                        next_src[K] = s;                                       \
                        ++K;                                                   \
                    }                                                          \
                }                                                              \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    return K;                                                                  \
}

SWEEP_RNG(repro_sweep_rng_i64, int64_t)
SWEEP_RNG(repro_sweep_rng_u32, uint32_t)

/* Sweep specialisation for fully-active views: no mask reads, and the
 * endpoint id is only loaded when its coin succeeds (most coins fail
 * under IC probabilities). */
#define SWEEP_RNG_FULL(NAME, NODE_T)                                           \
int64_t NAME(int64_t F, const int64_t *fids, const int64_t *fnodes,            \
             const int64_t *offsets, const NODE_T *nodes,                      \
             const double *probs,                                              \
             double (*next_double)(void *), void *state,                       \
             int64_t n, int64_t *table, int64_t mask,                          \
             int64_t *next_ids, int64_t *next_src)                            \
{                                                                              \
    int64_t K = 0;                                                             \
    for (int64_t f = 0; f < F; ++f) {                                          \
        int64_t id = fids[f];                                                  \
        int64_t node = fnodes[f];                                              \
        int64_t end = offsets[node + 1];                                       \
        for (int64_t e = offsets[node]; e < end; ++e) {                        \
            if (next_double(state) < probs[e]) {                               \
                int64_t s = (int64_t)nodes[e];                                 \
                int64_t key = id * n + s;                                      \
                if (repro_insert(table, (uint64_t)mask, key)) {                \
                    next_ids[K] = id;                                          \
                    next_src[K] = s;                                           \
                    ++K;                                                       \
                }                                                              \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    return K;                                                                  \
}

SWEEP_RNG_FULL(repro_sweep_rng_full_i64, int64_t)
SWEEP_RNG_FULL(repro_sweep_rng_full_u32, uint32_t)

void repro_insert_keys(int64_t L, const int64_t *keys,
                       int64_t *table, int64_t mask)
{
    for (int64_t i = 0; i < L; ++i)
        repro_insert(table, (uint64_t)mask, keys[i]);
}

void repro_rehash(int64_t old_cap, const int64_t *old_table,
                  int64_t *new_table, int64_t new_mask)
{
    for (int64_t i = 0; i < old_cap; ++i) {
        int64_t key = old_table[i];
        if (key != -1)
            repro_insert(new_table, (uint64_t)new_mask, key);
    }
}

#define REPLAY(NAME, NODE_T)                                                   \
int64_t NAME(int64_t F, const int64_t *fids, const int64_t *fnodes,            \
             const int64_t *offsets, const NODE_T *targets,                    \
             const uint8_t *active, const uint8_t *live, int64_t m,            \
             int64_t n, int64_t *table, int64_t mask,                          \
             int64_t *next_ids, int64_t *next_nodes)                           \
{                                                                              \
    int64_t K = 0;                                                             \
    for (int64_t f = 0; f < F; ++f) {                                          \
        int64_t id = fids[f];                                                  \
        int64_t node = fnodes[f];                                              \
        const uint8_t *row = live + id * m;                                    \
        int64_t end = offsets[node + 1];                                       \
        for (int64_t e = offsets[node]; e < end; ++e) {                        \
            int64_t t = (int64_t)targets[e];                                   \
            if (active[t] && row[e]) {                                         \
                int64_t key = id * n + t;                                      \
                if (repro_insert(table, (uint64_t)mask, key)) {                \
                    next_ids[K] = id;                                          \
                    next_nodes[K] = t;                                         \
                    ++K;                                                       \
                }                                                              \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    return K;                                                                  \
}

REPLAY(repro_replay_i64, int64_t)
REPLAY(repro_replay_u32, uint32_t)

void repro_group_pairs(int64_t M, const int64_t *ids, const int64_t *nodes,
                       int64_t count, int64_t *offsets, int64_t *out_nodes,
                       int64_t *cursor)
{
    for (int64_t i = 0; i < M; ++i)
        offsets[ids[i] + 1] += 1;
    for (int64_t c = 0; c < count; ++c)
        offsets[c + 1] += offsets[c];
    for (int64_t c = 0; c < count; ++c)
        cursor[c] = offsets[c];
    for (int64_t i = 0; i < M; ++i)
        out_nodes[cursor[ids[i]]++] = nodes[i];
}
"""

_P, _I64 = ctypes.c_void_p, ctypes.c_int64

#: ``name -> (restype, argtypes)`` of every entry point; pointers travel
#: as plain addresses.
_SIGNATURES = {
    "repro_rr_sets": (
        _I64,
        (ctypes.c_uint64, _I64, _I64, _I64)
        + (_P,) * 7
        + (_I64, _P, _I64, _P, _P, _P, _I64),
    ),
    "repro_degree_sum": (_I64, (_I64, _P, _P)),
    "repro_sweep_rng": (_I64, (_I64,) + (_P,) * 8 + (_I64, _P, _I64, _P, _P)),
    "repro_sweep_rng_full": (_I64, (_I64,) + (_P,) * 7 + (_I64, _P, _I64, _P, _P)),
    "repro_insert_keys": (None, (_I64, _P, _P, _I64)),
    "repro_rehash": (None, (_I64, _P, _P, _I64)),
    "repro_replay": (_I64, (_I64,) + (_P,) * 6 + (_I64, _I64, _P, _I64, _P, _P)),
    "repro_group_pairs": (None, (_I64, _P, _P, _I64, _P, _P, _P)),
}

#: Entry points with one variant per CSR node dtype.
_NODE_VARIANTS = (
    "repro_rr_sets",
    "repro_sweep_rng",
    "repro_sweep_rng_full",
    "repro_replay",
)


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


class NativeKernels:
    """The compiled kernel set, opened with ctypes."""

    def __init__(self) -> None:
        self._lib = ctypes.CDLL(_build_library())
        for name, (restype, argtypes) in _SIGNATURES.items():
            variants = (
                (f"{name}_i64", f"{name}_u32") if name in _NODE_VARIANTS else (name,)
            )
            for symbol in variants:
                function = getattr(self._lib, symbol)
                function.restype = restype
                function.argtypes = argtypes

    def entry(self, name: str, nodes: np.ndarray):
        """Entry point ``name`` of :data:`_NODE_VARIANTS` for ``nodes``' dtype."""
        suffix = "u32" if nodes.dtype == np.uint32 else "i64"
        return getattr(self._lib, f"{name}_{suffix}")

    def bind(self, csr, active: np.ndarray, rng=None) -> "_BoundNativeKernels":
        """A sweep-scoped kernel set with the static pointers resolved once."""
        return _BoundNativeKernels(self, csr, active, rng)

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

        base = view.base
        n = base.n
        offsets, sources, probs = base.in_csr()
        csr = prepare_csr(offsets, sources, probs)
        thresholds = coin_thresholds(probs)
        active = None
        if view.num_active < n:
            active = layered.as_uint8_mask(view.active_mask)
        stop_u8 = None if stop is None else layered.as_uint8_mask(stop)
        if roots is not None:
            roots = np.ascontiguousarray(roots, dtype=np.int64)
        active_nodes = np.ascontiguousarray(view.active_nodes(), dtype=np.int64)
        kernel = self.entry("repro_rr_sets", csr.nodes)
        out_offsets = np.zeros(count + 1, dtype=np.int64)
        stamp = np.zeros(n, dtype=np.uint32)
        epoch = np.zeros(1, dtype=np.uint32)
        out = np.empty(4 * count + 64, dtype=np.int64)
        done = 0
        while True:
            done = kernel(
                key, start, count, done,
                _addr(csr.offsets), _addr(csr.nodes), _addr(thresholds),
                _addr(active), _addr(stop_u8), _addr(roots),
                _addr(active_nodes), active_nodes.size,
                _addr(stamp), n, _addr(epoch),
                _addr(out_offsets), _addr(out), out.size,
            )
            if done == count:
                break
            # Set `done` did not fit: grow to twice the size, or to the
            # finished sets' mean size times the whole batch, and resume.
            filled = int(out_offsets[done])
            grown = np.empty(
                max(2 * out.size, filled * count // max(done, 1) + n), dtype=np.int64
            )
            grown[:filled] = out[:filled]
            out = grown
        return RRBatch(
            offsets=out_offsets,
            nodes=out[: out_offsets[count]],
            num_active_nodes=view.num_active,
            n=n,
        )

    def insert_keys(self, keys, table):
        self._lib.repro_insert_keys(
            keys.shape[0], _addr(keys), _addr(table), table.shape[0] - 1
        )

    def rehash(self, old_table, new_table):
        self._lib.repro_rehash(
            old_table.shape[0],
            _addr(old_table),
            _addr(new_table),
            new_table.shape[0] - 1,
        )

    def group_pairs(self, ids, nodes, count):
        offsets = np.zeros(count + 1, dtype=np.int64)
        out_nodes = np.empty(ids.shape[0], dtype=np.int64)
        cursor = np.empty(max(count, 1), dtype=np.int64)
        self._lib.repro_group_pairs(
            ids.shape[0], _addr(ids), _addr(nodes), count,
            _addr(offsets), _addr(out_nodes), _addr(cursor),
        )
        return offsets, out_nodes


class _BoundNativeKernels:
    """Sweep-scoped view of :class:`NativeKernels` for forward MC.

    The CSR arrays, the residual mask and the generator are fixed for the
    whole frontier sweep, so their addresses (and the u32/i64 variant) are
    resolved exactly once here; per-layer calls only pass the layer's own
    arrays.
    """

    __slots__ = ("_parent", "_offsets", "_nodes", "_probs", "_active",
                 "_sweep_rng", "_sweep_rng_full", "_replay", "_rng_fn",
                 "_rng_state", "_pin")

    def __init__(self, parent: NativeKernels, csr, active: np.ndarray, rng=None) -> None:
        self._parent = parent
        self._offsets = _addr(csr.offsets)
        self._nodes = _addr(csr.nodes)
        self._probs = _addr(csr.probs)
        self._active = _addr(active)
        self._sweep_rng = parent.entry("repro_sweep_rng", csr.nodes)
        self._sweep_rng_full = parent.entry("repro_sweep_rng_full", csr.nodes)
        self._replay = parent.entry("repro_replay", csr.nodes)
        # Keep the arrays (and the generator whose state we point into)
        # alive for as long as their raw addresses are.
        self._pin = (csr, active, rng)
        self._rng_fn = self._rng_state = None
        if rng is not None:
            # Every NumPy BitGenerator exports its C next_double entry
            # point and state pointer; drawing through them consumes
            # exactly the stream bulk Generator.random() would.
            interface = rng.bit_generator.ctypes
            self._rng_fn = ctypes.cast(interface.next_double, ctypes.c_void_p).value
            self._rng_state = interface.state_address

    def degree_sum(self, fnodes):
        return self._parent._lib.repro_degree_sum(
            fnodes.shape[0], _addr(fnodes), self._offsets
        )

    def sweep_rng(self, fids, fnodes, n, table, next_ids, next_src):
        return self._sweep_rng(
            fids.shape[0], _addr(fids), _addr(fnodes),
            self._offsets, self._nodes, self._probs, self._active,
            self._rng_fn, self._rng_state,
            n, _addr(table), table.shape[0] - 1, _addr(next_ids), _addr(next_src),
        )

    def sweep_rng_full(self, fids, fnodes, n, table, next_ids, next_src):
        return self._sweep_rng_full(
            fids.shape[0], _addr(fids), _addr(fnodes),
            self._offsets, self._nodes, self._probs,
            self._rng_fn, self._rng_state,
            n, _addr(table), table.shape[0] - 1, _addr(next_ids), _addr(next_src),
        )

    def replay_advance(self, fids, fnodes, live, m, n, table, next_ids, next_nodes):
        return self._replay(
            fids.shape[0], _addr(fids), _addr(fnodes),
            self._offsets, self._nodes, self._active, _addr(live),
            m, n, _addr(table), table.shape[0] - 1, _addr(next_ids), _addr(next_nodes),
        )


def load() -> KernelBackend:
    """Registry loader: compile (cached), dlopen, wire the kernels."""
    kernels = NativeKernels()
    return KernelBackend(
        name="native",
        generate_batch=kernels.generate,
        simulate_batch=lambda view, seeds, count, rng: layered.simulate_layered(
            view, seeds, count, rng, kernels
        ),
        replay_batch=lambda view, seeds, live: layered.replay_layered(
            view, seeds, live, kernels
        ),
    )
