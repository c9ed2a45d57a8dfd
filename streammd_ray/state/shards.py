"""Bloom shard actors — the engine's only long-lived state.

The reference allocates its bitset and starts streaming
(/root/reference/src/streammd.cxx:109-124); SURVEY.md §7.1 keeps the filter
in a pure Python + numpy core with no Ray in it. A shard actor is that core
behind an RPC boundary, so this module imports numpy and the filter classes
(``..sketches.bloom``) and nothing else: a new shard process deserializes
``_BloomShard`` by reference and imports only this module, not Ray Data,
pandas, polars or the engine's stages. ``make_shard_actors`` imports ``ray``
when it is called, in the driver.

P shard actors each own 1/P of the global Bloom filter; every key is routed
to ``h1 mod P``, so each key always consults the same shard and the
partitioned filter is decision-equivalent to one global filter of the same
total (m, k) (SURVEY.md §7.0). The routing and marking stage lives in
``stages/dedup.py``; ``pipelines.flagship.run_flagship`` is the one pass
that drives them (and kills the shards it spawned); snapshot and restore
live in ``state/checkpoint.py``.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

from ..sketches.bloom import (
    DEFAULT_MEM_K,
    BloomFilter,
    SplitBlockBloomFilter,
    parse_memspec,
)

#: probe-layout registry (see _BloomShard.__init__ for the semantics)
BLOOM_LAYOUTS = {"classic": BloomFilter, "split": SplitBlockBloomFilter}


def resolve_layout(layout: str | None):
    """Map a layout name → filter class; ``None`` means classic."""
    if layout is None:
        return BloomFilter
    if layout not in BLOOM_LAYOUTS:
        raise ValueError(
            f"unknown bloom layout {layout!r}; one of {sorted(BLOOM_LAYOUTS)}"
        )
    return BLOOM_LAYOUTS[layout]


def shard_geometry(mem: str, num_shards: int, layout: str | None = None):
    """Per-shard (m, k) of a ``mem`` budget split evenly over ``num_shards``:
    m is the shard's share in bits rounded down to a power of two (pow2
    addressing), k is 10 for the classic layout and the split layout's
    structural 8."""
    per_m = 8 * parse_memspec(mem) // num_shards
    per_m = 1 << (per_m.bit_length() - 1)
    if resolve_layout(layout) is SplitBlockBloomFilter:
        return per_m, SplitBlockBloomFilter.LANES
    return per_m, DEFAULT_MEM_K


class _BloomShard:
    """One partition of the global Bloom filter + its running counters
    (the counters mirror struct counts, /root/reference/src/markdups.h:33-36)."""

    def __init__(
        self,
        p: float,
        capacity: int,
        *,
        m: int | None = None,
        k: int | None = None,
        layout: str | None = None,
    ):
        # layout: probe geometry of this shard's filter —
        #   "classic" (default): k probes over the whole bitset, the
        #     reference's layout (src/bloomfilter.cxx:104-120);
        #   "split": split-block bit pattern (SplitBlockBloomFilter) — one
        #     bit per 64-bit lane of one 64-byte line, structural k=8, the
        #     fastest kernel (~30x classic-numpy with the native path).
        # Each layout's stats() report its own honest marginal_fpr.
        cls = resolve_layout(layout)
        if cls is SplitBlockBloomFilter:
            k = None  # structural k=8
        if m is not None and k is not None:
            self.bf = cls(p, m=m, k=k)
        elif m is not None:
            self.bf = cls(p, m=m)
        else:
            self.bf = cls(p, capacity)
        self.keys_seen = 0
        self.dups = 0
        # LRU: replayed (retried-task) lookups move their entry to the back,
        # so eviction hits the coldest entries — those of long-finished tasks
        # — first, not a live task's entry in a long-lived worker
        self._cache: collections.OrderedDict = collections.OrderedDict()

    _CACHE_MAX = 4096

    def add(
        self, h1: np.ndarray, h2: np.ndarray, batch_key: bytes | None = None
    ) -> np.ndarray:
        """Insert a routed slice; returns was_new.

        ``batch_key`` identifies the PHYSICAL batch: (Ray task id, batch
        ordinal within the task, slice content). A Ray task retry re-runs the
        same task id and replays its batches in order, so the retry hits the
        cache and does not mark its own rows as duplicates of themselves
        (SURVEY.md §7.3 "exactness under retries"). Two genuinely distinct
        batches with byte-identical content (e.g. a byte-copied input file)
        come from different tasks/ordinals and do NOT replay. The cache is
        bounded, and a full re-execution of a marking plan is not a replay:
        ``run_flagship`` executes its plan exactly once.
        """
        if batch_key is not None and batch_key in self._cache:
            self._cache.move_to_end(batch_key)
            return self._cache[batch_key]
        was_new = self.bf.add_hashed(h1, h2)
        self.keys_seen += len(h1)
        self.dups += int((~was_new).sum())
        if batch_key is not None:
            if len(self._cache) >= self._CACHE_MAX:
                self._cache.popitem(last=False)
            self._cache[batch_key] = was_new
        return was_new

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        return self.bf.contains_hashed(h1, h2)

    def stats(self) -> dict:
        return {
            "keys_seen": self.keys_seen,
            "dups": self.dups,
            "n_added": self.bf.n_added,
            "capacity": self.bf.n,
            "marginal_fpr": self.bf.marginal_fpr(),
            "count_estimate": self.bf.count_estimate(),
        }

    def state(self) -> bytes:
        """The filter in the sketch state layout, uncompressed (the
        checkpoint driver compresses it on its way to disk)."""
        return self.bf.to_bytes()

    def load(self, data: bytes, keys_seen: int = 0, dups: int = 0) -> None:
        """Restore filter + running counters (counters are snapshot alongside
        the filter by state/checkpoint.py so resumed runs report true
        keys_seen/dups, not zeros). The replay cache goes too: its verdicts
        were computed against the replaced filter, and a replayed batch
        must insert into the loaded one."""
        self.bf = BloomFilter.from_bytes(data)
        self.keys_seen = keys_seen
        self.dups = dups
        self._cache.clear()


@functools.cache
def _shard_actor_class():
    """The shard actor class, made once per process: each ``ray.remote`` of
    ``_BloomShard`` would pickle and fingerprint the class anew, while one
    cached handle exports it to a session only once (Ray re-exports it by
    itself after a new ``ray.init``)."""
    import ray

    return ray.remote(num_cpus=0)(_BloomShard)


def make_shard_actors(
    num_shards: int,
    *,
    p: float = 1e-6,
    total_capacity: int | None = None,
    mem: str | None = None,
    layout: str | None = None,
):
    """Create the P Bloom shard actors.

    Sizing: the total memory/capacity budget is split evenly across shards
    (:func:`shard_geometry` for a ``mem`` budget); keys route by
    ``h1 mod P``, so shard i holds ~n/P keys and honors the configured FPR
    p at its share (SURVEY.md §7.3 FPR accounting). P is fixed
    for the run and recorded in lineage — state partition count must be
    deterministic, never autoscaled.

    The shards reserve no CPU: they are short-burst RPC servers driven
    by the marking tasks, which hold the real CPU slots; a fractional
    reservation per always-resident actor deadlocks small clusters once a
    few pipelines have run in one session (reservations outlive the
    pipeline until the actors are released).
    """
    Actor = _shard_actor_class()
    kwargs: dict = {"layout": layout}
    if mem is not None:
        m, k = shard_geometry(mem, num_shards, layout)
        kwargs.update(m=m, k=k)
        cap = 0
    else:
        cap = max(1024, int((total_capacity or 1_000_000) / num_shards))
    return [Actor.remote(p, cap, **kwargs) for _ in range(num_shards)]
