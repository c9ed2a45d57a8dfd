"""Bloom filter — vectorized, mergeable re-expression of the reference sketch.

Semantics grounded in /root/reference/src/bloomfilter.{h,cxx} (studied for
behaviour only; this is a from-scratch numpy implementation):

- sizing math ``m_k_min`` / ``capacity`` (src/bloomfilter.cxx:65-91), pinned by
  the reference's unit tests (tests/test_bloomfilter.cxx:10-28) and re-pinned in
  tests/test_bloom.py here;
- memory-budgeted construction ``from_mem_spec`` with fixed k=10 and optional
  round-down-to-power-of-two (src/bloomfilter.cxx:59-83);
- Kirsch–Mitzenmacher double hashing: probe_i = (h1 + i*h2) mod m, with a
  bitmask instead of mod when m is a power of two (src/bloomfilter.cxx:104-120);
- ``add`` returns False when the item was already present — that return value IS
  the duplicate signal (src/bloomfilter.cxx:35-45);
- Swamidass–Baldi cardinality estimate (src/bloomfilter.cxx:50-52).

New vs the reference: ``add_batch`` (vectorized insert over a whole column) and
``merge`` (bitwise OR of equal-(m,k,seed) bit arrays) for partition-parallel
use. Batch-insert semantics: within one batch, only the first occurrence of a
distinct key can be "new"; a key is also not-new if all k of its bits were set
by prior batches. (This is at-least-as-accurate as sequential insertion: false
positives caused by other keys *within the same batch* are not counted, so
measured FPR ≤ the sequential filter's FPR; FNR is 0 in both.)
"""

from __future__ import annotations

import math
import re

import numpy as np

from ..hashing import HASHER_ID, SEED, hash_pair_batch, valid_mask
from . import _native
from .base import Sketch, require_writeable, state_array

_MEMSPEC_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([KMGT]?)(i?)B?\s*$", re.IGNORECASE)

#: fixed probe count for memory-budgeted construction — the reference trades
#: ~17% capacity for 2× hash speed with k=10 (README.md:153-176).
DEFAULT_MEM_K = 10

#: byte→popcount lookup table, ``count_bits_set``'s numpy fallback (the
#: native ``popcount_words`` takes ~0.06 ms per MiB, the LUT ~4.6 ms).
#: np.unpackbits(...).sum() measures 71.7 s on a 256 MiB bitset on this
#: host (an 8× temp allocation plus a slow kernel); a chunked LUT gather
#: does the same popcount in ~1.1 s.
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_POP_CHUNK = 1 << 26  # 64 MiB of bytes per gather keeps the temp bounded
DEFAULT_FPR = 1e-6
DEFAULT_MEM = "4GiB"


def parse_memspec(memspec: str) -> int:
    """Parse '4GiB' / '512MB' / '8388608' → bytes. Binary (KiB/MiB/GiB/TiB)
    powers for the 'i' forms, decimal powers otherwise."""
    m = _MEMSPEC_RE.match(memspec)
    if not m:
        raise ValueError(f"bad memory spec: {memspec!r}")
    qty, unit, binary = float(m.group(1)), m.group(2).upper(), bool(m.group(3))
    exp = {"": 0, "K": 1, "M": 2, "G": 3, "T": 4}[unit]
    base = 1024 if binary else 1000
    return int(qty * base**exp)


def m_k_min(p: float, n: float) -> tuple[int, int]:
    """Optimal (m bits, k hashes) for target FPR p at capacity n.

    m = ceil(n·(−ln p)/ln²2), k = ceil(ln2·m/n) — standard Bloom sizing,
    value-pinned against the reference's unit tests."""
    m = math.ceil(n * (-math.log(p)) / (math.log(2) ** 2))
    k = math.ceil(math.log(2) * m / n)
    return m, k


def capacity(p: float, m: float, k: float) -> int:
    """Max items n such that a (m,k) filter stays under FPR p."""
    return math.ceil(m / (-k / math.log(1.0 - math.exp(math.log(p) / k))))


class BloomFilter(Sketch):
    kind = "bloom"

    #: axis of ``_indices`` output that runs over the k probes of one key:
    #: 0 → shape (k, n) probe-major (classic), 1 → shape (n, k) key-major
    #: (split layout — key-major order makes the k gathers/scatters of a
    #: key consecutive, so they hit the one cache line the layout promises)
    _probe_axis = 0

    def __init__(
        self,
        p: float = DEFAULT_FPR,
        n: int | None = None,
        *,
        m: int | None = None,
        k: int | None = None,
        seed: int = SEED,
    ):
        """Either (p, n) → optimal (m, k), or (p, m=, k=) → inferred capacity."""
        if not (0.0 < p < 1.0):
            raise ValueError(f"p must be in (0,1), got {p}")
        self.p = float(p)
        if m is not None and k is not None:
            self.m, self.k = int(m), int(k)
            self.n = capacity(p, self.m, self.k)
        elif n is not None:
            self.m, self.k = m_k_min(p, n)
            self.n = int(n)
        else:
            raise ValueError("need either n or (m and k)")
        if self.m <= 0 or self.k <= 0:
            raise ValueError(f"bad geometry m={self.m} k={self.k}")
        self.seed = int(seed)
        self.hasher = HASHER_ID
        # pow2 fast path: bitmask addressing instead of modulus (~5% in the
        # reference, src/streammd.cxx:48-55)
        self._pow2 = (self.m & (self.m - 1)) == 0
        self._mask = np.uint64(self.m - 1) if self._pow2 else None
        self._bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)
        self.n_added = 0  # distinct inserts that were new

    # --- constructors ---------------------------------------------------------

    @classmethod
    def from_mem_spec(
        cls,
        p: float = DEFAULT_FPR,
        memspec: str = DEFAULT_MEM,
        mpow2: bool = False,
        **kw,
    ) -> "BloomFilter":
        """Memory-budgeted construction: m = 8·bytes, fixed k=10; optionally
        round m down to a power of two for mask addressing."""
        m = 8 * parse_memspec(memspec)
        if mpow2:
            m = 1 << (m.bit_length() - 1)
        return cls(p, m=m, k=DEFAULT_MEM_K, **kw)

    # --- probing --------------------------------------------------------------

    def _indices(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """(k, n) probe indices via double hashing."""
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        idx = h1[None, :] + i * h2[None, :]
        if self._pow2:
            return idx & self._mask
        return idx % np.uint64(self.m)

    def _test_and_set(self, idx: np.ndarray) -> np.ndarray:
        """idx: probe indices (axis ``_probe_axis`` runs over a key's k
        probes) → bool (n,) 'all k bits were already set'; sets all.

        The scatter-OR (np.bitwise_or.at, unbuffered) dominates the kernel;
        when most probe bits are already set (steady-state duplicate-heavy
        streams) scattering only the missing bits is ~3x cheaper, so the
        subset path is chosen adaptively from the gather we need anyway."""
        word = (idx >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (idx & np.uint64(63))
        present = (self._bits[word] & bit) != 0
        seen = present.all(axis=self._probe_axis)
        need = ~present.ravel()
        if need.mean() < 0.55:
            np.bitwise_or.at(self._bits, word.ravel()[need], bit.ravel()[need])
        else:
            np.bitwise_or.at(self._bits, word.ravel(), bit.ravel())
        return seen

    def _native_tas(self, nat, h1, h2, seen) -> None:
        """Dispatch to the layout's C test-and-set (see sketches/_native.py);
        probe math must match _indices() bit-for-bit (parity-tested)."""
        nat.classic_tas(
            self._bits,
            np.uint64(self.m),
            int(self._pow2),
            int(self.k),
            h1,
            h2,
            np.int64(len(h1)),
            seen,
        )

    # --- scalar API (reference parity) ---------------------------------------

    def _scalar_hashes(self, item) -> tuple[np.ndarray, np.ndarray]:
        # same hasher as the bulk path so scalar and batch views agree
        if not isinstance(item, str):
            item = item.decode("utf-8") if isinstance(item, bytes) else str(item)
        return hash_pair_batch([item], self.seed)

    def add(self, item) -> bool:
        """Insert one item; returns False if it was (probably) already present
        — the duplicate signal, matching the reference's add()."""
        require_writeable(self._bits, self.kind)
        h1, h2 = self._scalar_hashes(item)
        seen = self._test_and_set(self._indices(h1, h2))
        if not seen[0]:
            self.n_added += 1
        return not bool(seen[0])

    def contains(self, item) -> bool:
        h1, h2 = self._scalar_hashes(item)
        idx = self._indices(h1, h2)
        word = (idx >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (idx & np.uint64(63))
        return bool(((self._bits[word] & bit) != 0).all())

    # --- vectorized API (the hot path) ---------------------------------------

    def add_hashed(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Insert pre-hashed keys; returns bool array 'was_new'.

        Within the batch, only the first occurrence of each (h1,h2) pair can be
        new; repeats are not-new regardless of filter state."""
        require_writeable(self._bits, self.kind)
        if len(h1) == 0:
            return np.zeros(0, dtype=bool)
        h1 = np.ascontiguousarray(h1, dtype=np.uint64)
        h2 = np.ascontiguousarray(h2, dtype=np.uint64)
        n = len(h1)
        # native fast path: a sequential C loop (sketches/_native.py) — the
        # reference's exact one-at-a-time semantics with software prefetch,
        # none of the batch kernel's (n, k) index/scatter temporaries.
        # Intra-batch repeats need no special handling (the first occurrence
        # sets the bits the second one reads). ~10-30x the numpy kernel.
        nat = _native.get_kernels()
        if nat is not None:
            seen = np.empty(n, dtype=np.uint8)
            self._native_tas(nat, h1, h2, seen)
            was_new = seen == 0
            self.n_added += int(was_new.sum())
            return was_new
        # exact within-batch first-occurrence. Sort on h1 ALONE (plain
        # quicksort argsort is ~7x faster than the stable 2-key lexsort);
        # equal-(h1,h2) rows land in the same h1-run, and the batch-first
        # survivor of each run is its minimum original index (reduceat).
        # Runs where h2 differs — a 64-bit h1 collision between distinct
        # keys, ~n^2/2^64 per batch — take the exact lexsort path on just
        # those rows, so the fast path never trades correctness.
        order = np.argsort(h1)
        h1s = h1[order]
        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        run_start[1:] = h1s[1:] != h1s[:-1]
        starts = np.flatnonzero(run_start)
        h2s = h2[order]
        h2_min = np.minimum.reduceat(h2s, starts)
        h2_max = np.maximum.reduceat(h2s, starts)
        dirty = h2_min != h2_max
        survivors = np.minimum.reduceat(order, starts)
        is_first = np.zeros(n, dtype=bool)
        is_first[survivors[~dirty]] = True
        if dirty.any():
            run_id = np.cumsum(run_start) - 1
            rows = order[dirty[run_id]]  # original indices in dirty runs
            sub1, sub2 = h1[rows], h2[rows]
            sub_order = np.lexsort((sub2, sub1))
            s1, s2 = sub1[sub_order], sub2[sub_order]
            grp = np.empty(len(rows), dtype=bool)
            grp[0] = True
            grp[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
            gstarts = np.flatnonzero(grp)
            gsurv = np.minimum.reduceat(rows[sub_order], gstarts)
            is_first[gsurv] = True
        seen_before = self._test_and_set(self._indices(h1, h2))
        was_new = is_first & ~seen_before
        self.n_added += int(was_new.sum())
        return was_new

    def add_batch(self, values) -> np.ndarray:
        """Hash + insert a column of strings/bytes; returns 'was_new' bools.

        Null values are never inserted and report was_new=False — they are the
        analog of the reference's unmapped templates, which are counted but
        never added to the filter (/root/reference/src/markdups.cxx:110-112).
        """
        valid = valid_mask(values)
        h1, h2 = hash_pair_batch(values, self.seed)
        if valid is None:
            return self.add_hashed(h1, h2)
        out = np.zeros(len(h1), dtype=bool)
        out[valid] = self.add_hashed(h1[valid], h2[valid])
        return out

    def insert_batch(self, values) -> None:
        """Sketch-ABC insert (discards the was_new signal)."""
        self.add_batch(values)

    def contains_hashed(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Membership for pre-hashed keys (read-only; no insert)."""
        idx = self._indices(
            np.ascontiguousarray(h1, np.uint64), np.ascontiguousarray(h2, np.uint64)
        )
        word = (idx >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (idx & np.uint64(63))
        return ((self._bits[word] & bit) != 0).all(axis=self._probe_axis)

    def contains_batch(self, values) -> np.ndarray:
        h1, h2 = hash_pair_batch(values, self.seed)
        return self.contains_hashed(h1, h2)

    # --- summaries ------------------------------------------------------------

    def count_bits_set(self) -> int:
        nat = _native.get_kernels()
        if nat is not None:
            return int(nat.popcount_words(self._bits, self._bits.size))
        # numpy fallback: chunked LUT popcount over the uint8 view (see the
        # _POP8 note above)
        b = self._bits.view(np.uint8)
        return sum(
            int(_POP8[b[i : i + _POP_CHUNK]].sum(dtype=np.int64))
            for i in range(0, b.size, _POP_CHUNK)
        )

    def count_estimate(self) -> int:
        """Swamidass–Baldi: ceil((m/k)·−ln(1−fill))."""
        fill = self.count_bits_set() / self.m
        if fill >= 1.0:
            return self.n  # saturated
        return math.ceil((self.m / self.k) * -math.log(1.0 - fill))

    def marginal_fpr(self, n_items: int | None = None) -> float:
        """FPR after n_items inserts: (1 − e^{−k·n/m})^k
        (overcapacity report, /root/reference/src/streammd.cxx:142-160)."""
        n = self.n_added if n_items is None else n_items
        return (1.0 - math.exp(-self.k * n / self.m)) ** self.k

    def estimate(self) -> int:
        return self.count_estimate()

    # --- merge ----------------------------------------------------------------

    def _compat_key(self) -> tuple:
        return (self.kind, self.m, self.k, self.seed, self.hasher)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR. Post-merge the filter answers global membership /
        count_estimate; note ORed fill raises marginal FPR, so duplicate
        *marking* must happen partition-locally before the merge (see
        SURVEY.md §4.2)."""
        self.check_compatible(other)
        np.bitwise_or(self._bits, other._bits, out=self._bits)
        # n_added over-counts keys present in both; callers wanting exactness
        # use count_estimate() on the merged filter.
        self.n_added += other.n_added
        return self

    def __len__(self) -> int:
        return self.n_added

    # --- layout ---------------------------------------------------------------

    def _init_kwargs(self) -> dict:
        return {"p": self.p, "m": self.m, "k": self.k, "seed": self.seed}

    def empty(self) -> "BloomFilter":
        out = super().empty()
        out.n = self.n  # a (p, n)-sized filter keeps its nominal capacity
        return out

    def _state(self):
        scalars = {"n": self.n, "hasher": self.hasher, "n_added": self.n_added}
        return scalars, {"bits": self._bits}

    def _set_state(self, scalars, arrays) -> None:
        self.n = int(scalars["n"])
        self.hasher = scalars["hasher"]
        self.n_added = int(scalars["n_added"])
        self._bits = state_array(arrays, "bits", np.uint64, self._bits.shape)


#: one x86 cache line. The split filter confines all k probes of a key to a
#: single 512-bit block, so a probe costs ~1 DRAM line fetch instead of k.
BLOCK_BITS = 512


def _block_load_mixture(lam: float, local) -> float:
    """E[local(i)] for a Poisson(lam) block load i, summed over lam ± 12σ.
    The weights start from their log so an overfull filter (lam > ~745,
    where e^-lam underflows) still reports its FPR instead of 0."""
    if lam <= 0:
        return local(0)
    spread = 12.0 * math.sqrt(lam + 1.0) + 30.0
    lo, hi = max(0, int(lam - spread)), int(lam + spread)
    p_i = math.exp(-lam + lo * math.log(lam) - math.lgamma(lo + 1))
    total = 0.0
    for i in range(lo, hi):
        total += p_i * local(i)
        p_i *= lam / (i + 1)
    return total


_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer (Steele et al. 2014, public domain) — generates
    the split filter's fixed probe constants deterministically."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class SplitBlockBloomFilter(BloomFilter):
    """Split-block Bloom filter: the bit-pattern variant of the
    cache-line-blocked layout (Putze, Sanders & Singler 2007 §4; the same
    design family as the Parquet/Impala split-block Bloom filter).

    Layout: fmix64(h1) selects one 512-bit block (a 64-byte cache line);
    within the block the key sets ONE bit in each of the 8 64-bit lanes,
    lane j's position being the top 6 bits of ``h2 · mul_j`` for 8 fixed
    independent odd constants. k is therefore structurally 8.

    Why it exists: profiling a k-probes-per-block layout on the 512M-turn
    scaling table showed the kernel is TEMP-TRAFFIC bound, not DRAM-latency
    bound — the (n, k) index matrix and the unbuffered ``np.bitwise_or.at``
    scatter cost ~15x the gather they orbit. One-bit-per-lane makes both the
    membership test and the insert an 8-lane register operation against a
    single gathered cache line: the native sequential kernel
    (sketches/_native.py) runs it at one DRAM miss per key with no
    temporaries at all.

    Probe-constant note (measured pitfall): lane constants MUST be
    independent full-width odd multipliers. Deriving them as small odd
    multiples of one golden constant (mul_j = C·(2j+1)) correlates the top
    bits across lanes — the whole 8-bit pattern then has only ~2^10
    distinct shapes and the measured FPR came out 2.9e-3 where the mixture
    model said 1e-8. splitmix64-generated constants match the model.

    FPR: ``marginal_fpr`` is the Poisson mixture over block loads with the
    per-lane local filter (1 − (1−1/64)^i)^8 — at the engine's default
    p=1e-6 geometry (λ≈6 at capacity) it lands ~1e-8, i.e. BETTER than the
    k=10 classic bound, because 34.6 bits/key is far above the ~10.7 the
    pattern needs. ``capacity``/``n`` keep the classic nominal meaning at
    k=8 (documented approximation).
    """

    kind = "bloom_split"

    LANES = 8

    _probe_axis = 1

    def __init__(
        self,
        p: float = DEFAULT_FPR,
        n: int | None = None,
        *,
        m: int | None = None,
        k: int | None = None,
        seed: int = SEED,
    ):
        if k not in (None, self.LANES):
            raise ValueError(
                f"split-block layout has structural k={self.LANES} "
                f"(one bit per 64-bit lane); got k={k}"
            )
        if m is None:
            if n is None:
                raise ValueError("need either n or m")
            # classic sizing at k=8: m such that (1-e^{-8n/m})^8 <= p; the
            # honest split figure comes from marginal_fpr's mixture
            m = math.ceil(
                n * (8 / -math.log(1.0 - math.exp(math.log(p) / 8)))
            )
        super().__init__(p, m=int(m), k=self.LANES, seed=seed)
        self.n_blocks = (self.m + BLOCK_BITS - 1) // BLOCK_BITS
        self.m = self.n_blocks * BLOCK_BITS
        self._pow2 = (self.n_blocks & (self.n_blocks - 1)) == 0
        self._mask = np.uint64(self.n_blocks - 1) if self._pow2 else None
        self._bits = np.zeros(self.m // 64, dtype=np.uint64)
        self.n = capacity(p, self.m, self.LANES)
        # 8 independent odd multiplicative constants (see class docstring);
        # the stream offset is part of the layout: snapshots depend on it
        self._probe_mul = np.array(
            [_splitmix64(0x5B1F_0000 + j) | 1 for j in range(self.LANES)],
            dtype=np.uint64,
        )

    @classmethod
    def from_mem_spec(
        cls,
        p: float = DEFAULT_FPR,
        memspec: str = DEFAULT_MEM,
        mpow2: bool = False,
        **kw,
    ) -> "SplitBlockBloomFilter":
        # parent passes k=10; the split layout's k is structural
        m = 8 * parse_memspec(memspec)
        if mpow2:
            m = 1 << (m.bit_length() - 1)
        return cls(p, m=m, **kw)

    def _indices(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """(n, 8) flat bit indices: one per lane of h1's block (numpy
        fallback path; the C kernel computes the same indices in registers)."""
        # remix h1 (murmur3 fmix64) before block selection: the shard router
        # partitions keys by h1 mod P, so raw h1 & mask would crowd a shard's
        # keys into 1/P of its blocks
        with np.errstate(over="ignore"):
            x = h1 ^ (h1 >> np.uint64(33))
            x = x * np.uint64(0xFF51AFD7ED558CCD)
            x ^= x >> np.uint64(33)
            x = x * np.uint64(0xC4CEB9FE1A85EC53)
            x ^= x >> np.uint64(33)
        if self._pow2:
            blk = x & self._mask
        else:
            blk = x % np.uint64(self.n_blocks)
        with np.errstate(over="ignore"):
            pos = (h2[:, None] * self._probe_mul) >> np.uint64(58)  # [0,64)
        lane_base = np.arange(self.LANES, dtype=np.uint64) * np.uint64(64)
        return blk[:, None] * np.uint64(BLOCK_BITS) + lane_base + pos

    def marginal_fpr(self, n_items: int | None = None) -> float:
        """Poisson mixture over block loads; a block with i keys answers a
        fresh key positively with prob (1 − (1−1/64)^i)^8 (one bit per
        64-bit lane, lanes independent)."""
        n = self.n_added if n_items is None else n_items
        miss = 1.0 - 1.0 / 64.0
        return _block_load_mixture(
            n * BLOCK_BITS / self.m, lambda i: (1.0 - miss**i) ** self.LANES
        )

    def _native_tas(self, nat, h1, h2, seen) -> None:
        nat.split_tas(
            self._bits,
            np.uint64(self.n_blocks),
            int(self._pow2),
            self._probe_mul,
            h1,
            h2,
            np.int64(len(h1)),
            seen,
        )
