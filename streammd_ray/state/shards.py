"""Bloom host actors — the engine's only long-lived state.

The reference allocates its one bitset in its one process and starts
streaming (reference src/streammd.cxx:109-124); SURVEY.md §7.1 keeps
the filter in a pure Python + numpy core with no Ray in it. A host actor is
that core behind an RPC boundary, so this module imports numpy and the
filter classes (``..sketches.bloom``) and nothing else: a new host process
deserializes ``_BloomHost`` by reference and imports only this module, not
Ray Data, pandas, pyarrow or the engine's stages. ``make_shard_actors``
imports ``ray`` and ``..context`` when it is called, in the driver.

Two counts, kept apart:

- P **partitions** (``num_shards``) split the global Bloom filter: every key
  belongs to partition ``h1 mod P``, each partition is a filter of
  :func:`shard_geometry`'s (m, k), and the partitioned filter is
  decision-equivalent to one global filter of the same total (m, k)
  (SURVEY.md §7.0). P fixes the filter's geometry and its routing, so it
  is pinned in a checkpoint's manifest; ``shard_stats`` and the checkpoint
  snapshots keep one entry per partition.
- H **host processes** hold them: H is the largest divisor of P not above
  the cluster's CPUs (:func:`host_count`; 1 on a 1-CPU cluster), host i
  holds partitions i, i + H, i + 2H, ..., and, H dividing P, a key's host
  is ``h1 mod H``. A host's partitions are the rows of one
  ``PartitionedBloomFilter``. H decides only how many processes run, is
  recorded nowhere, and may differ on resume: a partition's snapshot is
  the same bytes under any H.

The routing and marking stage lives in ``stages/dedup.py``;
``pipelines.flagship.run_flagship`` is the one pass that drives them (and
kills the hosts it spawned); snapshot and restore live in
``state/checkpoint.py``.
"""

from __future__ import annotations

import collections
import functools
import time

import numpy as np

from ..sketches.bloom import (
    DEFAULT_FPR,
    DEFAULT_MEM_K,
    BloomFilter,
    PartitionedBloomFilter,
    SplitBlockBloomFilter,
    parse_memspec,
    resolve_layout,
)


def shard_geometry(mem: str, num_shards: int, layout: str = "classic"):
    """Per-partition (m, k) of a ``mem`` budget split evenly over
    ``num_shards`` partitions — the one sizing rule of every Bloom filter
    (the reference sizes its one filter from ``-m`` alone, SURVEY.md §2.4):
    m is the partition's share in bits rounded down to a power of two
    (pow2 addressing), k is 10 for the classic layout and the split
    layout's structural 8. A budget that leaves a partition no bits is
    refused."""
    bits = 8 * parse_memspec(mem)
    if num_shards < 1 or bits < num_shards:
        raise ValueError(
            f"mem={mem!r} over num_shards={num_shards} leaves a shard no bits"
        )
    per_m = 1 << ((bits // num_shards).bit_length() - 1)
    if resolve_layout(layout) is SplitBlockBloomFilter:
        return per_m, SplitBlockBloomFilter.LANES
    return per_m, DEFAULT_MEM_K


def host_count(num_shards: int) -> int:
    """H for P = ``num_shards`` partitions: the largest divisor of P that
    is not above ``context.cluster_cpus()``.

    Measured only where it gives H = 1 (a 1-CPU cluster) or H = P: the
    throughput of 1 < H < P, where each single-threaded host serves its
    several partitions' calls one after another (P = 8 gives 2 hosts on 3
    CPUs, 4 on 7), is unmeasured."""
    from ..context import cluster_cpus

    top = max(1, min(num_shards, cluster_cpus()))
    return next(h for h in range(top, 0, -1) if num_shards % h == 0)


def host_partitions(i: int, hosts: int, num_shards: int) -> range:
    """The partitions host ``i`` of ``hosts`` holds."""
    return range(i, num_shards, hosts)


def partition_stats(hosts: list[dict]) -> list[dict]:
    """One stats dict per partition, in partition order, from every host's
    ``stats()``."""
    by_part = {j: s for h in hosts for j, s in zip(h["parts"], h["partitions"])}
    return [by_part[j] for j in sorted(by_part)]


class _BloomHost:
    """One host process's partitions of the global Bloom filter + their
    running counters (they mirror the reference's struct counts,
    src/markdups.h:33-36), and the host's own call counters.

    ``m``/``k`` are one partition's, from :func:`shard_geometry`;
    ``num_parts`` is P and ``parts`` the partitions held (all by default).
    ``layout`` is the probe geometry of every partition:

    - ``"classic"`` (default): k probes over the whole bitset, the
      reference's layout (src/bloomfilter.cxx:104-120);
    - ``"split"``: split-block bit pattern (SplitBlockBloomFilter) — one bit
      per 64-bit lane of one 64-byte line, structural k=8, the fastest
      kernel (~30x classic-numpy with the native path).

    Each layout's stats() report its own honest marginal_fpr."""

    def __init__(
        self,
        p: float,
        *,
        m: int,
        k: int,
        layout: str = "classic",
        num_parts: int = 1,
        parts=None,
    ):
        self.bf = PartitionedBloomFilter(
            p, m=m, k=k, layout=layout, num_parts=num_parts, parts=parts
        )
        self._reset()

    #: replay-cache entries kept per partition held. An entry is one call's
    #: packed reply (n/8 B), and a call is one chunk of a block's slice for
    #: this host (``MAX_KEYS_PER_CALL`` keys at most). A host of R
    #: partitions keeps 4,096·R entries, the memory its R partitions' caches
    #: took as R one-partition processes, so it covers the last 4,096 blocks
    #: at least while each partition's slice of a block fits one call
    _CACHE_MAX = 4096

    def _reset(self, counters=None) -> None:
        """Per-partition counters from ``counters`` (one {keys_seen, dups}
        per held partition; zeros when None), zero call counters and an
        empty replay cache."""
        #: add calls answered, keys they carried, seconds spent inside add
        self.calls, self.keys, self.add_s = 0, 0, 0.0
        rows = len(self.bf.parts)
        counters = counters or [{"keys_seen": 0, "dups": 0}] * rows
        if len(counters) != rows:
            raise ValueError(f"{len(counters)} counters for {rows} partitions")
        self.keys_seen = np.array([c["keys_seen"] for c in counters], np.int64)
        self.dups = np.array([c["dups"] for c in counters], np.int64)
        #: retried calls that missed the cache with their key evicted: in
        #: all, and per partition among those a call's keys touched
        self.replay_misses = 0
        self.partition_misses = np.zeros(rows, np.int64)
        # LRU: replayed (retried-task) lookups move their entry to the back,
        # so eviction hits the coldest entries — those of long-finished tasks
        # — first, not a live task's entry in a long-lived worker
        self._cache: collections.OrderedDict = collections.OrderedDict()
        #: keys of evicted entries, so a retry can tell an evicted batch from
        #: one never sent. It grows by one 24-byte key (~100 B in the set)
        #: per eviction until ``load``, against a reply of up to 1.5 KB
        self._evicted: set[bytes] = set()

    def add(
        self,
        h1: np.ndarray,
        h2: np.ndarray,
        batch_key: bytes | None = None,
        attempt: int = 0,
    ) -> np.ndarray:
        """Insert a routed slice (keys of this host's partitions only, else
        ``ValueError``); returns ``np.packbits(was_new)``, a reply 1/8 the
        size of a bool array. The caller unpacks ``len(h1)`` bits.

        ``batch_key`` identifies the PHYSICAL batch: (Ray task id, batch
        ordinal within the task, slice content). A Ray task retry re-runs the
        same task id and replays its batches in order, so the retry hits the
        cache and does not mark its own rows as duplicates of themselves
        (SURVEY.md §7.3 "exactness under retries"). Two genuinely distinct
        batches with byte-identical content (e.g. a byte-copied input file)
        come from different tasks/ordinals and do NOT replay. The cache is
        bounded (``_CACHE_MAX`` per partition held, oldest entry evicted
        first), and a full
        re-execution of a marking plan is not a replay:
        ``run_flagship`` executes its plan exactly once.

        ``attempt`` is the calling task's attempt number. A retry's call
        (attempt > 0) whose ``batch_key`` was evicted from the cache is a
        batch an earlier attempt sent whose verdicts are gone: it is inserted
        again, marks its own rows, and counts one ``replay_misses`` (and one
        in each touched partition's count). A retry's miss of a key never
        evicted is a batch no earlier attempt sent (the attempt died before
        it), and counts nothing.
        """
        t0 = time.perf_counter()
        self.calls += 1
        self.keys += len(h1)
        packed = None if batch_key is None else self._cache.get(batch_key)
        if packed is not None:
            self._cache.move_to_end(batch_key)
        else:
            rows = self.bf.rows_of(h1)
            was_new = self.bf.by_row(rows, h1, h2, BloomFilter.add_hashed)
            keys = np.bincount(rows, minlength=len(self.keys_seen))
            self.keys_seen += keys
            self.dups += keys - np.bincount(rows[was_new], minlength=len(keys))
            if attempt > 0 and batch_key in self._evicted:
                self.replay_misses += 1
                self.partition_misses += keys > 0
            packed = np.packbits(was_new)
            if batch_key is not None:
                self._cache[batch_key] = packed
                if len(self._cache) > self._CACHE_MAX * len(self.bf.parts):
                    self._evicted.add(self._cache.popitem(last=False)[0])
        self.add_s += time.perf_counter() - t0
        return packed

    def stats(self) -> dict:
        """This host's ``parts``, its ``calls``, ``keys``, ``add_s``
        (seconds inside ``add``) and ``replay_misses``, and ``partitions``:
        one stats dict per held partition, in ``parts`` order."""
        return {
            "parts": list(self.bf.parts),
            "calls": self.calls,
            "keys": self.keys,
            "add_s": self.add_s,
            "replay_misses": self.replay_misses,
            "partitions": [
                {
                    "keys_seen": int(self.keys_seen[r]),
                    "dups": int(self.dups[r]),
                    "n_added": f.n_added,
                    "capacity": f.n,
                    "marginal_fpr": f.marginal_fpr(),
                    "count_estimate": f.count_estimate(),
                    "replay_misses": int(self.partition_misses[r]),
                }
                for r, f in enumerate(self.bf.partitions)
            ],
        }

    def state(self) -> bytes:
        """All held partitions as one ``PartitionedBloomFilter`` in the
        sketch state layout, uncompressed."""
        return self.bf.to_bytes()

    def load(self, data: bytes, counters: list[dict] | None = None) -> None:
        """Restore a ``state()`` of these partitions and geometry, and the
        partitions' counters (see :meth:`_reset`). An empty state of the
        same geometry loads whichever partitions it names, so one host's
        fresh state resets every host. The replay cache goes too: its
        verdicts were computed against the replaced filter, and a replayed
        batch must insert into the loaded one."""
        bf = BloomFilter.from_bytes(data)
        if isinstance(bf, PartitionedBloomFilter) and bf.n_added == 0:
            bf = type(bf)(**{**bf._init_kwargs(), "parts": self.bf.parts})
        self.bf.check_compatible(bf)
        self.bf = bf
        self._reset(counters)

    def partition_states(self) -> dict[int, bytes]:
        """Each held partition's filter in the sketch state layout, by
        partition id: a plain filter of the partition's layout and
        geometry, whichever host holds it, so a checkpoint's snapshot files
        do not depend on H."""
        return {j: f.to_bytes() for j, f in zip(self.bf.parts, self.bf.partitions)}

    def load_partitions(self, states: dict[int, bytes], counters: list[dict]) -> None:
        """Restore every held partition from ``partition_states`` bytes
        (written under any H) and the partitions' counters, in ``parts``
        order; like :meth:`load`, it drops the replay cache."""
        if sorted(states) != list(self.bf.parts):
            raise ValueError(f"states for {sorted(states)}, host holds {list(self.bf.parts)}")
        for j, data in states.items():
            self.bf.set_partition(j, BloomFilter.from_bytes(data))
        self._reset(counters)


@functools.cache
def _host_actor_class():
    """The host actor class, made once per process: each ``ray.remote`` of
    ``_BloomHost`` would pickle and fingerprint the class anew, while one
    cached handle exports it to a session only once (Ray re-exports it by
    itself after a new ``ray.init``)."""
    import ray

    return ray.remote(num_cpus=0)(_BloomHost)


def make_shard_actors(
    num_shards: int,
    *,
    p: float = DEFAULT_FPR,
    mem: str,
    layout: str = "classic",
):
    """Start the host actors of a P = ``num_shards`` partition Bloom filter;
    returns H = :func:`host_count` handles, host i holding
    :func:`host_partitions` ``(i, H, P)``.

    Sizing: the ``mem`` budget is split evenly across the P partitions
    (:func:`shard_geometry`); keys route by ``h1 mod P`` to a partition and
    so by ``h1 mod H`` to a host, partition j holds ~n/P keys, and ``p`` is
    the FPR its capacity report is checked against (SURVEY.md §7.3 FPR
    accounting). P is fixed for the run and recorded in lineage — state
    partition count must be deterministic, never autoscaled. H follows the
    cluster's CPUs at spawn and changes nothing but the process count.

    The hosts reserve no CPU: they are short-burst RPC servers driven
    by the marking tasks, which hold the real CPU slots; a fractional
    reservation per always-resident actor deadlocks small clusters once a
    few pipelines have run in one session (reservations outlive the
    pipeline until the actors are released).
    """
    Actor = _host_actor_class()
    m, k = shard_geometry(mem, num_shards, layout)
    hosts = host_count(num_shards)
    return [
        Actor.remote(
            p,
            m=m,
            k=k,
            layout=layout,
            num_parts=num_shards,
            parts=host_partitions(i, hosts, num_shards),
        )
        for i in range(hosts)
    ]
