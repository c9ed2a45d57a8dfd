"""Optional C fast path for the key hasher and the Bloom probe kernels
(ctypes + cc at runtime).

The hasher, ``murmur3_str32`` / ``murmur3_str64`` / ``murmur3_fixed``, is
MurmurHash3_x64_128 (Austin Appleby, public domain) run once per value
straight over an Arrow array's buffers: validity bitmap, int32 or int64
offsets and value bytes, or a fixed-width value buffer. A null writes
h1 = 0 and h2 = the golden-ratio constant; a zero h2 is replaced by the same
constant. ``streammd_ray.hashing`` dispatches to it and keeps a numpy twin
of the same function for hosts without a compiler.

The numpy probe kernels in ``bloom.py`` are vectorized but pay for it in
memory traffic: a (n, k) uint64 index matrix plus word/bit/present
temporaries is ~6 full-batch-sized arrays streamed through DRAM per batch,
and the unbuffered ``np.bitwise_or.at`` scatter runs at a few M elements/s.
Profiled on the 512M-turn scaling table, the gather itself (the part a
cache-line layout optimizes) was 0.23 s per 2M-key batch while
index construction + scatter cost ~3.4 s — the kernel is temp-traffic
bound, not DRAM-latency bound.

A sequential C loop has none of that: per key it computes the probe
indices in registers, tests and sets bits in place, and prefetches the
block of a key a fixed distance ahead so the one unavoidable DRAM miss per
key (split layout) is overlapped. There is one kernel per layout:
``classic_tas`` and ``split_tas``; ``popcount_words`` counts a bitset's
set bits for the filters' fill statistics. This module compiles that loop
with the system C compiler at first use and binds it via ctypes:

- no third-party packages (gcc/cc ship in the image; ctypes and hashlib are
  stdlib);
- compiled objects are cached under /tmp keyed by source hash, with an
  fcntl lock so 32 concurrent Ray workers compile once, not 32 times;
- every caller falls back to numpy when no compiler is available
  (``get_kernels()`` returns None): the hasher's twin gives identical
  hashes, and the probe kernels behave identically except that the
  sequential loop implements the reference's EXACT
  insert-one-at-a-time semantics (src/bloomfilter.cxx:35-45): a false
  positive caused by earlier keys of the same batch IS counted, where the
  batch kernel's gather-then-scatter order does not. At the engine's
  p=1e-6 geometry the difference is ~n·p per batch (≪ 1).

Set STREAMMD_NO_NATIVE=1 to force the numpy paths, hasher twin included
(used by the parity tests, and the escape hatch if a host's toolchain
miscompiles).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

static inline uint64_t fmix64(uint64_t x) {
    x ^= x >> 33; x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33; x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

/* ---- MurmurHash3_x64_128 (Appleby, public domain), little-endian ---- */

#define MM_C1 0x87C37B91114253D5ULL
#define MM_C2 0x4CF5AD432745937FULL
#define GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t rotl64(uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
}

static inline uint64_t load64(const uint8_t *p) {
    uint64_t v;
    memcpy(&v, p, 8);  /* unaligned-safe; one mov on x86 */
    return v;
}

static inline void murmur3_128(const uint8_t *data, int64_t len,
                               uint64_t seed, uint64_t *o1, uint64_t *o2)
{
    const int64_t nblocks = len / 16;
    uint64_t h1 = seed, h2 = seed, k1, k2;
    for (int64_t i = 0; i < nblocks; i++) {
        k1 = load64(data + 16 * i);
        k2 = load64(data + 16 * i + 8);
        k1 *= MM_C1; k1 = rotl64(k1, 31); k1 *= MM_C2; h1 ^= k1;
        h1 = rotl64(h1, 27); h1 += h2; h1 = h1 * 5 + 0x52DCE729;
        k2 *= MM_C2; k2 = rotl64(k2, 33); k2 *= MM_C1; h2 ^= k2;
        h2 = rotl64(h2, 31); h2 += h1; h2 = h2 * 5 + 0x38495AB5;
    }
    const uint8_t *tail = data + 16 * nblocks;
    const int t = (int)(len & 15);
    k1 = 0; k2 = 0;
    for (int j = t - 1; j >= 8; j--) k2 = (k2 << 8) | tail[j];
    for (int j = (t < 8 ? t : 8) - 1; j >= 0; j--) k1 = (k1 << 8) | tail[j];
    if (t > 8) { k2 *= MM_C2; k2 = rotl64(k2, 33); k2 *= MM_C1; h2 ^= k2; }
    if (t > 0) { k1 *= MM_C1; k1 = rotl64(k1, 31); k1 *= MM_C2; h1 ^= k1; }
    h1 ^= (uint64_t)len; h2 ^= (uint64_t)len;
    h1 += h2; h2 += h1;
    h1 = fmix64(h1); h2 = fmix64(h2);
    h1 += h2; h2 += h1;
    *o1 = h1;
    *o2 = h2 ? h2 : GOLDEN;  /* double hashing needs h2 != 0 */
}

static inline int is_null(const uint8_t *valid, int64_t bit) {
    return valid && !((valid[bit >> 3] >> (bit & 7)) & 1);
}

/* one (h1, h2) per value of an Arrow string/binary array: offsets point at
   the array's first slot (its offset applied), valid is the whole bitmap
   read from bit voff. Nulls give h1 = 0, the null-key mark. */
#define MURMUR3_VAR(NAME, OFF_T)                                            \
void NAME(const uint8_t *data, const OFF_T *offsets, const uint8_t *valid,  \
          int64_t voff, int64_t n, uint64_t seed, uint64_t *h1,             \
          uint64_t *h2)                                                     \
{                                                                           \
    for (int64_t i = 0; i < n; i++) {                                       \
        if (is_null(valid, voff + i)) { h1[i] = 0; h2[i] = GOLDEN; continue; } \
        murmur3_128(data + offsets[i], (int64_t)(offsets[i + 1] - offsets[i]), \
                    seed, &h1[i], &h2[i]);                                  \
    }                                                                       \
}
MURMUR3_VAR(murmur3_str32, int32_t)
MURMUR3_VAR(murmur3_str64, int64_t)

/* fixed-width values: data points at the array's first value */
void murmur3_fixed(const uint8_t *data, int64_t width, const uint8_t *valid,
                   int64_t voff, int64_t n, uint64_t seed, uint64_t *h1,
                   uint64_t *h2)
{
    for (int64_t i = 0; i < n; i++) {
        if (is_null(valid, voff + i)) { h1[i] = 0; h2[i] = GOLDEN; continue; }
        murmur3_128(data + i * width, width, seed, &h1[i], &h2[i]);
    }
}

/* classic double-hashing layout: probe_j = (h1 + j*h2) mod m, k probes
   scattered over the whole bitset. seen[i] = all k bits were set BEFORE
   key i's own writes (exact sequential first-occurrence semantics; a
   key's earlier probes only write when the key is already known new, so
   self-aliased probes can never fake "seen"). */
void classic_tas(uint64_t *bits, uint64_t m, int pow2, int k,
                 const uint64_t *h1, const uint64_t *h2, int64_t n,
                 uint8_t *seen)
{
    const uint64_t mask = m - 1;
    const int64_t D = 8; /* prefetch distance, keys */
    for (int64_t i = 0; i < n; i++) {
        if (i + D < n) {
            uint64_t a = h1[i + D], s = h2[i + D];
            for (int j = 0; j < k; j++) {
                uint64_t idx = a + (uint64_t)j * s;
                idx = pow2 ? (idx & mask) : (idx % m);
                __builtin_prefetch(&bits[idx >> 6], 1, 0);
            }
        }
        uint64_t a = h1[i], s = h2[i];
        int all = 1;
        for (int j = 0; j < k; j++) {
            uint64_t idx = a + (uint64_t)j * s;
            idx = pow2 ? (idx & mask) : (idx % m);
            uint64_t bm = 1ULL << (idx & 63u);
            uint64_t *w = &bits[idx >> 6];
            all &= (int)((*w & bm) != 0);
            *w |= bm;
        }
        seen[i] = (uint8_t)all;
    }
}

/* split-block layout (SplitBlockBloomFilter): one bit per 64-bit lane of
   the 512-bit block, k = 8 — one gather line, eight register ops. */
void split_tas(uint64_t *bits, uint64_t n_blocks, int pow2,
               const uint64_t *mul, const uint64_t *h1, const uint64_t *h2,
               int64_t n, uint8_t *seen)
{
    const uint64_t mask = n_blocks - 1;
    const int64_t D = 16;
    for (int64_t i = 0; i < n; i++) {
        if (i + D < n) {
            uint64_t b = fmix64(h1[i + D]);
            b = pow2 ? (b & mask) : (b % n_blocks);
            __builtin_prefetch(&bits[b * 8], 1, 0);
        }
        uint64_t b = fmix64(h1[i]);
        b = pow2 ? (b & mask) : (b % n_blocks);
        uint64_t *blk = &bits[b * 8];
        uint64_t h = h2[i];
        int all = 1;
        for (int j = 0; j < 8; j++) {
            uint64_t bm = 1ULL << ((h * mul[j]) >> 58);  /* [0, 64) */
            uint64_t w = blk[j];
            all &= (int)((w & bm) != 0);
            blk[j] = w | bm;
        }
        seen[i] = (uint8_t)all;
    }
}

/* set bits of a bitset: a filter's fill, read by every shard's stats() */
uint64_t popcount_words(const uint64_t *words, int64_t n)
{
    uint64_t total = 0;
    for (int64_t i = 0; i < n; i++) total += (uint64_t)__builtin_popcountll(words[i]);
    return total;
}
"""

_CACHE_DIR = os.path.join(
    tempfile.gettempdir(), f"streammd_native-{os.getuid()}"
)

_u64p = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
# the bitset and the verdict array are written in place: refuse read-only
# views, which the kernels would otherwise write through
_u64p_out = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS,WRITEABLE")
_u8p_out = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS,WRITEABLE")

_HASH_ARGS = [
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
    ctypes.c_int64, ctypes.c_uint64, _u64p_out, _u64p_out,
]

_SIGNATURES = {
    "murmur3_str32": _HASH_ARGS,
    "murmur3_str64": _HASH_ARGS,
    "murmur3_fixed": [
        ctypes.c_void_p, ctypes.c_int64, *_HASH_ARGS[2:],
    ],
    "classic_tas": [
        _u64p_out, ctypes.c_uint64, ctypes.c_int, ctypes.c_int,
        _u64p, _u64p, ctypes.c_int64, _u8p_out,
    ],
    "split_tas": [
        _u64p_out, ctypes.c_uint64, ctypes.c_int,
        _u64p, _u64p, _u64p, ctypes.c_int64, _u8p_out,
    ],
    "popcount_words": [_u64p, ctypes.c_int64],
}

_kernels = None
_tried = False


def _compile(so_path: str) -> None:
    """Compile the kernel .so under an fcntl lock (one builder per host)."""
    import fcntl  # posix-only; import here so module import stays portable

    os.makedirs(_CACHE_DIR, exist_ok=True)
    lock_path = so_path + ".lock"
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if os.path.exists(so_path):  # another process won the race
                return
            src_path = so_path + ".c"
            with open(src_path, "w") as f:
                f.write(_C_SOURCE)
            tmp_out = so_path + f".tmp{os.getpid()}"
            cc = os.environ.get("CC", "cc")
            subprocess.run(
                [cc, "-O3", "-march=native", "-shared", "-fPIC",
                 "-o", tmp_out, src_path],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.rename(tmp_out, so_path)  # atomic publish
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def get_kernels():
    """The compiled kernel library, or None when unavailable.

    Cached per process; compile failures are cached too (a host without a
    toolchain probes once, then uses numpy forever)."""
    global _kernels, _tried
    if _tried:
        return _kernels
    _tried = True
    if os.environ.get("STREAMMD_NO_NATIVE"):
        return None
    try:
        src_hash = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
        so_path = os.path.join(_CACHE_DIR, f"bloomkern-{src_hash}.so")
        if not os.path.exists(so_path):
            _compile(so_path)
        lib = ctypes.CDLL(so_path)
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = None
        lib.popcount_words.restype = ctypes.c_uint64
        _kernels = lib
    except Exception as exc:  # no cc, sandboxed /tmp, bad toolchain, ...
        print(
            f"streammd_ray: native kernels unavailable ({exc!r}); "
            "using the numpy hasher and probe paths",
            file=sys.stderr,
        )
        _kernels = None
    return _kernels
