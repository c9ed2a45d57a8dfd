"""Duplicate-detection stages — the Ray-Data re-expression of the reference's
single-pass Bloom dedup (/root/reference/src/markdups.cxx:86-135, studied for
semantics only).

Three building blocks, one implementation each:

- :func:`add_key_columns` — stateless ``map_batches`` deriving the dedup key's
  two 64-bit hashes from the canonical key bytes. Multi-column keys use
  length-prefixed encoding (the reference is careful that ``chr1|1234`` and
  ``chr11|234`` must not collide, src/markdups.cxx:142-145; length prefixes
  generalize that discipline). Null content ⇒ null key (the "unmapped"
  analog: counted, never inserted, src/markdups.cxx:110-112).

- :class:`BloomMarkStage` — the stateful path's router. It sends each key
  to the shard actor ``h1 mod P`` (the shards, ``_BloomShard`` and
  ``make_shard_actors``, live in ``state/shards.py`` so a shard process
  imports only numpy and the filter; they are re-exported here). Marking
  happens shard-locally during insert. The shards own disjoint keys, so a
  global estimate sums their ``stats`` (SURVEY.md §4.2).
  First-seen-wins is arrival-order within the Ray stream — exactly one row
  per distinct key survives (actor calls serialize), but *which* physical
  row is first is nondeterministic under parallelism, so order-sensitive
  oracles must use :func:`dedup_exact_first` instead; the duplicate-count
  and metrics are deterministic.

- :func:`dedup_exact_first` — the exact, deterministic oracle path: one
  hash-partition shuffle of the rows by key hash, then first-by-(conv_id,
  turn_idx) within each partition. O(n) shuffle; use at test scale and
  wherever row-identity determinism matters. This is the engine's analog
  of the exact-dedup oracle the reference is validated against (Picard
  golden outputs, tests/test_picard.cxx).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hash_pair_batch
from ..state.shards import (  # noqa: F401 — re-exported engine surface
    _BloomShard,
    make_shard_actors,
    resolve_layout,
    shard_geometry,
)

KEY_H1 = "__key_h1"
KEY_H2 = "__key_h2"
#: the appended verdict column (the reference's FLAG|=1024)
MARK_COL = "is_duplicate"
#: first-seen order of the exact path: first = min over these per key
ORDER_COLS = ("conv_id", "turn_idx")


def canonical_key(batch: pa.Table, key_cols: tuple[str, ...]) -> pa.Array:
    """Length-prefixed, collision-safe concatenation of the key columns.

    Null in the *first* (content) column ⇒ null key. Nulls in secondary
    columns encode as the 1-char sentinel '\\x00' (distinct from empty
    string's '0:').
    """
    if len(key_cols) == 1:
        return batch[key_cols[0]].combine_chunks()
    parts = []
    for i, c in enumerate(key_cols):
        col = batch[c]
        if not isinstance(col, pa.Array):
            col = col.combine_chunks()
        col = pc.cast(col, pa.string())
        ln = pc.cast(pc.utf8_length(col), pa.string())
        enc = pc.binary_join_element_wise(ln, ":", col, "")
        if i > 0:
            enc = pc.fill_null(enc, "\x00")
        parts.append(enc)
    out = pc.binary_join_element_wise(*parts, "#")
    # null iff content col null (join emits null if ANY part is null; parts>0
    # were fill_null'd, so only the first col's nulls remain)
    return out


def add_key_columns(ds, key_cols: tuple[str, ...] = ("text",)):
    """Append the (h1, h2) dedup-key hash columns (uint64 bit patterns;
    0 = null key). The engine dedups only on keys it derived itself: a batch
    that already carries the reserved key columns is refused."""

    def derive(batch: pa.Table) -> pa.Table:
        if {KEY_H1, KEY_H2} & set(batch.column_names):
            raise ValueError(f"input carries reserved columns {KEY_H1}/{KEY_H2}")
        key = canonical_key(batch, key_cols)
        h1, h2 = hash_pair_batch(key)
        null_mask = np.asarray(pc.is_null(key))
        h1 = h1.copy()
        h1[null_mask] = 0
        # stored as int64 bit-patterns: Ray's hash-shuffle aggregations round-
        # trip int64 through Arrow cleanly, while uint64 > 2^63 falls back to
        # pickled Python objects (stages view back to uint64 for arithmetic)
        return batch.append_column(
            KEY_H1, pa.array(h1.view(np.int64), pa.int64())
        ).append_column(KEY_H2, pa.array(h2.view(np.int64), pa.int64()))

    return ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)


class BloomMarkStage:
    """map_batches callable: route each row's key hash to its shard actor,
    gather was_new verdicts, append ``is_duplicate``.

    The per-batch work is one numpy argsort-free bucketing + P concurrent
    actor RPCs; actor handles are constructor args so the routing table is
    built once per map worker, not per batch.
    """

    def __init__(self, shards):
        self.shards = shards
        self.P = len(shards)
        # batch ordinal per physical Ray task ATTEMPT: a retried task re-runs
        # under the SAME task id (possibly in the same still-alive worker
        # process), so ordinals are reset whenever a task id re-enters under a
        # new attempt number — (task_id, ordinal) then identifies a physical
        # batch across retries (the retry's first batch gets ordinal 0 again
        # and HITS the shard cache) while distinguishing genuinely distinct
        # batches with identical content
        self._task_ordinals: dict[str, list] = {}  # tid -> [attempt, next_ordinal]

    def _batch_key(self, h1_slice: np.ndarray) -> bytes:
        from .._runtime import task_identity

        tid, attempt = task_identity()
        rec = self._task_ordinals.get(tid)
        if rec is None or rec[0] != attempt:
            rec = [attempt, 0]  # first batch of this task / of a retry
        ordinal = rec[1]
        self._task_ordinals[tid] = [attempt, ordinal + 1]
        if len(self._task_ordinals) > 4096:  # bounded; never evict the live task
            for k in self._task_ordinals:
                if k != tid:
                    del self._task_ordinals[k]
                    break
        # the key deliberately EXCLUDES the attempt number: a retry must
        # produce the same key as the original so it replays from the cache
        h = hashlib.blake2b(digest_size=16)
        h.update(tid.encode())
        h.update(ordinal.to_bytes(8, "big"))
        h.update(h1_slice.tobytes())
        return h.digest()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        h1 = np.asarray(batch[KEY_H1].combine_chunks(), dtype=np.int64).view(np.uint64)
        h2 = np.asarray(batch[KEY_H2].combine_chunks(), dtype=np.int64).view(np.uint64)
        n = len(h1)
        is_dup = np.zeros(n, dtype=bool)
        nonnull = h1 != 0
        if nonnull.any():
            idx = np.flatnonzero(nonnull)
            shard_of = (h1[idx] % np.uint64(self.P)).astype(np.int64)
            order = np.argsort(shard_of, kind="stable")
            idx_sorted = idx[order]
            shard_sorted = shard_of[order]
            bounds = np.searchsorted(shard_sorted, np.arange(self.P + 1))
            bkey_prefix = self._batch_key(h1[idx_sorted])
            futures, spans = [], []
            for s in range(self.P):
                lo, hi = bounds[s], bounds[s + 1]
                if lo == hi:
                    continue
                rows = idx_sorted[lo:hi]
                bkey = bkey_prefix + s.to_bytes(4, "big")
                futures.append(self.shards[s].add.remote(h1[rows], h2[rows], bkey))
                spans.append(rows)
            for rows, was_new in zip(spans, ray.get(futures)):
                is_dup[rows] = ~was_new
        return batch.append_column(MARK_COL, pa.array(is_dup))


def make_mark_fn(shards):
    """Task-based marking: a plain FUNCTION closing over the shard handles,
    so Ray Data runs it as stateless tasks that FUSE with the surrounding
    map_batches stages (read → derive → mark → finish → tail become ONE
    task chain — no actor pool to spawn, no extra object-store hop). The
    closure is deserialized once per worker process and the stage instance
    (with its per-task ordinal bookkeeping) persists there, so a retried
    task replays its batches from the shard cache."""
    holder: dict = {}

    def mark_fn(batch: pa.Table) -> pa.Table:
        stage = holder.get("stage")
        if stage is None:
            stage = holder["stage"] = BloomMarkStage(shards)
        return stage(batch)

    return mark_fn


# ---------------------------------------------------------------------------
# Exact deterministic dedup (oracle path)
# ---------------------------------------------------------------------------


def dedup_exact_first(
    ds,
    key_cols: tuple[str, ...] = ("text",),
    *,
    num_partitions: int | None = None,
):
    """Exact first-seen-wins duplicate marking, deterministic under any
    partition layout: first = min(conv_id, turn_idx) per distinct key.

    ONE payload shuffle total: hash-partition the full rows by h1 and mark
    first-occurrence per partition with a single sort + vectorized
    ``duplicated`` over the whole partition (every row of a key meets in
    one partition, so the partition-local decision is global). Key identity
    is the 128-bit hash (collision probability ~2^-128 — the standard
    content-hash dedup assumption).

    Sizing rule: each hash partition becomes ONE in-memory frame in its
    reducer, so ``num_partitions`` bounds per-partition memory — pass
    ``auto_num_partitions(bytes_hint=...)`` when the payload estimate is
    known (the default sizes to the cluster's CPUs only).

    Null-key rows are salted across partitions by row identity so the null
    fraction doesn't become one giant partition; they are never marked.
    """
    if num_partitions is None:
        from ..context import auto_num_partitions

        num_partitions = auto_num_partitions()

    def salt_nulls(batch: pa.Table) -> pa.Table:
        h1 = np.asarray(batch[KEY_H1].combine_chunks(), dtype=np.int64).view(np.uint64)
        if (h1 == 0).any():
            salt, _ = hash_pair_batch(
                pc.binary_join_element_wise(
                    pc.cast(batch[ORDER_COLS[0]].combine_chunks(), pa.string()),
                    pc.cast(batch[ORDER_COLS[1]].combine_chunks(), pa.string()),
                    "\x00",
                )
            )
            h1 = np.where(h1 == 0, salt | np.uint64(1), h1)
            null_flag = np.asarray(pc.is_null(canonical_key(batch, key_cols)))
        else:
            null_flag = np.zeros(len(h1), dtype=bool)
        return batch.set_column(
            batch.schema.get_field_index(KEY_H1),
            KEY_H1,
            pa.array(h1.view(np.int64), pa.int64()),
        ).append_column("__key_null", pa.array(null_flag))

    ds = add_key_columns(ds, key_cols)
    ds = ds.map_batches(salt_nulls, batch_format="pyarrow")

    from .windows import partitioned_group_apply

    def mark_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(list(ORDER_COLS), kind="stable")
        nn = ~df["__key_null"].to_numpy()
        dup = np.zeros(len(df), dtype=bool)
        if nn.any():
            sub = df.loc[nn, [KEY_H1, KEY_H2]]
            dup[nn] = sub.duplicated(keep="first").to_numpy()
        df[MARK_COL] = dup
        return df.drop(columns=[KEY_H1, KEY_H2, "__key_null"])

    return partitioned_group_apply(
        ds, KEY_H1, mark_partition, num_partitions=num_partitions
    )
