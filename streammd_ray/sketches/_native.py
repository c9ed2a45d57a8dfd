"""Optional C fast path for the Bloom probe kernels (ctypes + cc at runtime).

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
``classic_tas`` and ``split_tas``. This module compiles that loop
with the system C compiler at first use and binds it via ctypes:

- no third-party packages (gcc/cc ship in the image; ctypes and hashlib are
  stdlib);
- compiled objects are cached under /tmp keyed by source hash, with an
  fcntl lock so 32 concurrent Ray workers compile once, not 32 times;
- every caller falls back to the numpy kernel when no compiler is
  available (``get_kernels()`` returns None) — behaviour is identical
  except that the sequential loop implements the reference's EXACT
  insert-one-at-a-time semantics (src/bloomfilter.cxx:35-45): a false
  positive caused by earlier keys of the same batch IS counted, where the
  batch kernel's gather-then-scatter order does not. At the engine's
  p=1e-6 geometry the difference is ~n·p per batch (≪ 1).

Set STREAMMD_NO_NATIVE=1 to force the numpy path (used by the parity
tests, and the escape hatch if a host's toolchain miscompiles).
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

static inline uint64_t fmix64(uint64_t x) {
    x ^= x >> 33; x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33; x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
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
"""

_CACHE_DIR = os.path.join(
    tempfile.gettempdir(), f"streammd_native-{os.getuid()}"
)

_u64p = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
# the bitset and the verdict array are written in place: refuse read-only
# views, which the kernels would otherwise write through
_u64p_out = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS,WRITEABLE")
_u8p_out = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS,WRITEABLE")

_SIGNATURES = {
    "classic_tas": [
        _u64p_out, ctypes.c_uint64, ctypes.c_int, ctypes.c_int,
        _u64p, _u64p, ctypes.c_int64, _u8p_out,
    ],
    "split_tas": [
        _u64p_out, ctypes.c_uint64, ctypes.c_int,
        _u64p, _u64p, _u64p, ctypes.c_int64, _u8p_out,
    ],
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
        _kernels = lib
    except Exception as exc:  # no cc, sandboxed /tmp, bad toolchain, ...
        print(
            f"streammd_ray: native Bloom kernel unavailable ({exc!r}); "
            "using the numpy probe path",
            file=sys.stderr,
        )
        _kernels = None
    return _kernels
