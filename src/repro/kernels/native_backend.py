"""The ``"native"`` backend: C kernels compiled on first use via cffi.

A single small C translation unit implements the per-layer primitives of
:mod:`repro.kernels.layered` — the fused coin-flip sweep with
open-addressing dedup, fused live-edge replay, and the stable counting
sort that assembles flat batches.  It is compiled once per machine with
the system C compiler (``cc``/``gcc``, override with ``CC``) into a
content-addressed shared object under a per-user cache directory, then
``dlopen``'d by every process that needs it — pool workers pay one
``dlopen``, never a recompile.

The sweeps draw each coin straight from the generator's C
``next_double`` entry point — the function NumPy's bulk
``Generator.random`` loops over — once per live edge in
frontier-then-edge order, so they consume exactly the ``"vectorized"``
reference's stream and are bit-for-bit identical to it.  Node arrays are
read in their storage dtype: dedicated ``uint32`` entry points consume
mmap'd ``.rgx`` CSR arrays in place.

Availability is probed, never assumed: without cffi or a C compiler the
registry reports the backend unavailable and ``"auto"`` falls back to
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

from repro.kernels import layered
from repro.kernels.registry import KernelBackend
from repro.utils.exceptions import ValidationError

#: Override the cache directory for the compiled shared object.
CACHE_DIR_ENV_VAR = "REPRO_NATIVE_CACHE_DIR"

_SOURCE = r"""
#include <stdint.h>

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

/* Fused gather+advance: one CSR walk in frontier order that draws one
 * coin per live (active-endpoint) edge straight from the generator's C
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

_CDEF = """
int64_t repro_degree_sum(int64_t, const int64_t *, const int64_t *);
int64_t repro_sweep_rng_i64(int64_t, const int64_t *, const int64_t *,
    const int64_t *, const int64_t *, const double *, const uint8_t *,
    double (*next_double)(void *), void *, int64_t, int64_t *, int64_t,
    int64_t *, int64_t *);
int64_t repro_sweep_rng_u32(int64_t, const int64_t *, const int64_t *,
    const int64_t *, const uint32_t *, const double *, const uint8_t *,
    double (*next_double)(void *), void *, int64_t, int64_t *, int64_t,
    int64_t *, int64_t *);
int64_t repro_sweep_rng_full_i64(int64_t, const int64_t *, const int64_t *,
    const int64_t *, const int64_t *, const double *,
    double (*next_double)(void *), void *, int64_t, int64_t *, int64_t,
    int64_t *, int64_t *);
int64_t repro_sweep_rng_full_u32(int64_t, const int64_t *, const int64_t *,
    const int64_t *, const uint32_t *, const double *,
    double (*next_double)(void *), void *, int64_t, int64_t *, int64_t,
    int64_t *, int64_t *);
void repro_insert_keys(int64_t, const int64_t *, int64_t *, int64_t);
void repro_rehash(int64_t, const int64_t *, int64_t *, int64_t);
int64_t repro_replay_i64(int64_t, const int64_t *, const int64_t *,
    const int64_t *, const int64_t *, const uint8_t *, const uint8_t *,
    int64_t, int64_t, int64_t *, int64_t, int64_t *, int64_t *);
int64_t repro_replay_u32(int64_t, const int64_t *, const int64_t *,
    const int64_t *, const uint32_t *, const uint8_t *, const uint8_t *,
    int64_t, int64_t, int64_t *, int64_t, int64_t *, int64_t *);
void repro_group_pairs(int64_t, const int64_t *, const int64_t *,
    int64_t, int64_t *, int64_t *, int64_t *);
"""


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
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "the cffi package is not installed"
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


class NativeKernels:
    """The compiled primitive set the layered driver drives.

    Per-call pointer casts go through pre-parsed ctype objects (parsing
    the type string per call costs more than the small kernels
    themselves), and :meth:`bind` returns a per-sweep adapter with the
    static CSR/mask/generator pointers pre-cast once so the hot layer
    loop casts only the arrays that change between layers.
    """

    def __init__(self) -> None:
        from cffi import FFI

        self._ffi = FFI()
        self._ffi.cdef(_CDEF)
        self._lib = self._ffi.dlopen(_build_library())
        self._i64p = self._ffi.typeof("int64_t *")
        self._u32p = self._ffi.typeof("uint32_t *")
        self._f64p = self._ffi.typeof("double *")
        self._u8p = self._ffi.typeof("uint8_t *")
        self._ndfp = self._ffi.typeof("double (*)(void *)")
        self._voidp = self._ffi.typeof("void *")

    def _ptr(self, ctype, array: np.ndarray):
        return self._ffi.cast(ctype, array.ctypes.data)

    def bind(self, csr, active: np.ndarray, rng=None) -> "_BoundNativeKernels":
        """A sweep-scoped kernel set with the static pointers pre-cast."""
        return _BoundNativeKernels(self, csr, active, rng)

    def insert_keys(self, keys, table):
        self._lib.repro_insert_keys(
            keys.shape[0],
            self._ptr(self._i64p, keys),
            self._ptr(self._i64p, table),
            table.shape[0] - 1,
        )

    def rehash(self, old_table, new_table):
        self._lib.repro_rehash(
            old_table.shape[0],
            self._ptr(self._i64p, old_table),
            self._ptr(self._i64p, new_table),
            new_table.shape[0] - 1,
        )

    def group_pairs(self, ids, nodes, count):
        offsets = np.zeros(count + 1, dtype=np.int64)
        out_nodes = np.empty(ids.shape[0], dtype=np.int64)
        cursor = np.empty(max(count, 1), dtype=np.int64)
        self._lib.repro_group_pairs(
            ids.shape[0],
            self._ptr(self._i64p, ids),
            self._ptr(self._i64p, nodes),
            count,
            self._ptr(self._i64p, offsets),
            self._ptr(self._i64p, out_nodes),
            self._ptr(self._i64p, cursor),
        )
        return offsets, out_nodes


class _BoundNativeKernels:
    """Sweep-scoped view of :class:`NativeKernels`.

    The CSR arrays, the residual mask and the generator are fixed for the
    whole frontier sweep, so their pointers (and the u32/i64 variant) are
    cast exactly once here; per-layer calls only cast the layer's own
    arrays.
    """

    __slots__ = ("_parent", "_lib", "_offsets", "_nodes", "_probs", "_active",
                 "_sweep_rng", "_sweep_rng_full", "_replay", "_rng_fn",
                 "_rng_state", "_pin")

    def __init__(self, parent: NativeKernels, csr, active: np.ndarray, rng=None) -> None:
        self._parent = parent
        self._lib = parent._lib
        ptr = parent._ptr
        self._offsets = ptr(parent._i64p, csr.offsets)
        if csr.nodes.dtype == np.uint32:
            self._nodes = ptr(parent._u32p, csr.nodes)
            self._sweep_rng = self._lib.repro_sweep_rng_u32
            self._sweep_rng_full = self._lib.repro_sweep_rng_full_u32
            self._replay = self._lib.repro_replay_u32
        else:
            self._nodes = ptr(parent._i64p, csr.nodes)
            self._sweep_rng = self._lib.repro_sweep_rng_i64
            self._sweep_rng_full = self._lib.repro_sweep_rng_full_i64
            self._replay = self._lib.repro_replay_i64
        self._probs = ptr(parent._f64p, csr.probs)
        self._active = ptr(parent._u8p, active)
        # Keep the arrays (and the generator whose state we point into)
        # alive for as long as their raw pointers are.
        self._pin = (csr, active, rng)
        if rng is not None:
            # Every NumPy BitGenerator exports its C next_double entry
            # point and state pointer; drawing through them consumes
            # exactly the stream bulk Generator.random() would.
            interface = rng.bit_generator.ctypes
            self._rng_fn = parent._ffi.cast(
                parent._ndfp,
                ctypes.cast(interface.next_double, ctypes.c_void_p).value,
            )
            self._rng_state = parent._ffi.cast(parent._voidp, interface.state_address)

    def degree_sum(self, fnodes):
        parent = self._parent
        return self._lib.repro_degree_sum(
            fnodes.shape[0], parent._ptr(parent._i64p, fnodes), self._offsets
        )

    def sweep_rng(self, fids, fnodes, n, table, next_ids, next_src):
        parent = self._parent
        ptr, i64p = parent._ptr, parent._i64p
        return self._sweep_rng(
            fids.shape[0],
            ptr(i64p, fids),
            ptr(i64p, fnodes),
            self._offsets,
            self._nodes,
            self._probs,
            self._active,
            self._rng_fn,
            self._rng_state,
            n,
            ptr(i64p, table),
            table.shape[0] - 1,
            ptr(i64p, next_ids),
            ptr(i64p, next_src),
        )

    def sweep_rng_full(self, fids, fnodes, n, table, next_ids, next_src):
        parent = self._parent
        ptr, i64p = parent._ptr, parent._i64p
        return self._sweep_rng_full(
            fids.shape[0],
            ptr(i64p, fids),
            ptr(i64p, fnodes),
            self._offsets,
            self._nodes,
            self._probs,
            self._rng_fn,
            self._rng_state,
            n,
            ptr(i64p, table),
            table.shape[0] - 1,
            ptr(i64p, next_ids),
            ptr(i64p, next_src),
        )

    def replay_advance(self, fids, fnodes, live, m, n, table, next_ids, next_nodes):
        parent = self._parent
        ptr, i64p = parent._ptr, parent._i64p
        return self._replay(
            fids.shape[0],
            ptr(i64p, fids),
            ptr(i64p, fnodes),
            self._offsets,
            self._nodes,
            self._active,
            ptr(parent._u8p, live),
            m,
            n,
            ptr(i64p, table),
            table.shape[0] - 1,
            ptr(i64p, next_ids),
            ptr(i64p, next_nodes),
        )


def load() -> KernelBackend:
    """Registry loader: compile (cached), dlopen, wire the layered driver."""
    kernels = NativeKernels()
    return KernelBackend(
        name="native",
        generate_batch=lambda view, roots, rng: layered.generate_layered(
            view, roots, rng, kernels
        ),
        simulate_batch=lambda view, seeds, count, rng: layered.simulate_layered(
            view, seeds, count, rng, kernels
        ),
        replay_batch=lambda view, seeds, live: layered.replay_layered(
            view, seeds, live, kernels
        ),
    )
