"""Duplicate-detection stages — the Ray-Data re-expression of the reference's
single-pass Bloom dedup (/root/reference/src/markdups.cxx:86-135, studied for
semantics only). ``pipelines.flagship.run_flagship`` chains the first two
into its one Bloom pass; the third is the exact path.

Three building blocks, one implementation each:

- :func:`add_key_columns` — stateless ``map_batches`` deriving the dedup key's
  two 64-bit hashes from the canonical key bytes. Multi-column keys use
  length-prefixed encoding (the reference is careful that ``chr1|1234`` and
  ``chr11|234`` must not collide, src/markdups.cxx:142-145; length prefixes
  generalize that discipline). Null content ⇒ null key (the "unmapped"
  analog: counted, never inserted, src/markdups.cxx:110-112).

- :class:`BloomMarkStage` — the stateful path's router. It sends each key
  to the host actor ``h1 mod H``, which inserts it into its partition
  ``h1 mod P`` (the hosts, ``_BloomHost`` and ``make_shard_actors``, live in
  ``state/shards.py`` so a host process imports only numpy and the filter;
  they are re-exported here; P partitions fix the filter, H host processes
  hold them, H dividing P). Marking happens partition-locally during
  insert. The partitions own disjoint keys, so a global estimate sums
  their ``stats`` (SURVEY.md §4.2).
  First-seen-wins is arrival-order within the Ray stream — exactly one row
  per distinct key survives (actor calls serialize), but *which* physical
  row is first is nondeterministic under parallelism, so order-sensitive
  oracles must use :func:`dedup_exact_first` instead; the duplicate-count
  and metrics are deterministic.

- :func:`dedup_exact_first` — the exact, deterministic oracle path: one
  fixed-boundary sort shuffle of the rows by key-hash partition
  (``stages/windows.partitioned_group_apply``), then first-by-(conv_id,
  turn_idx) within each partition. O(n) shuffle; use at test scale and
  wherever row-identity determinism matters. This is the engine's analog
  of the exact-dedup oracle the reference is validated against (Picard
  golden outputs, tests/test_picard.cxx).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._runtime import TaskBatches
from ..hashing import hash_pair_batch
from ..sketches.bloom import group_order, partition_of
from ..state.shards import (  # noqa: F401 — re-exported engine surface
    _BloomHost,
    make_shard_actors,
    resolve_layout,
    shard_geometry,
)

KEY_H1 = "__key_h1"
KEY_H2 = "__key_h2"
#: exact dedup's null-key flag, carried beside the salted h1
NULL_COL = "__key_null"
#: the appended verdict column (the reference's FLAG|=1024)
MARK_COL = "is_duplicate"
#: an input's own ``MARK_COL`` while the mark stage appends a fresh one
PREV_MARK_COL = "__prev_mark"
#: first-seen order of the exact path: first = min over these per key
ORDER_COLS = ("conv_id", "turn_idx")
#: keys per host call: its two uint64 arrays (96,000 B each) stay under
#: Ray's 100 KiB inline-argument limit (``max_direct_call_object_size``);
#: one call of 24,500 keys took 16.3 ms, two of 12,250 keys 10.7 ms
MAX_KEYS_PER_CALL = 12_000


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
        # a null key hashes to h1 = 0, the null mark the stages below read
        h1, h2 = hash_pair_batch(canonical_key(batch, key_cols))
        # stored as int64 bit-patterns: Ray's hash-shuffle aggregations round-
        # trip int64 through Arrow cleanly, while uint64 > 2^63 falls back to
        # pickled Python objects (stages view back to uint64 for arithmetic)
        return batch.append_column(
            KEY_H1, pa.array(h1.view(np.int64), pa.int64())
        ).append_column(KEY_H2, pa.array(h2.view(np.int64), pa.int64()))

    return ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)


class BloomMarkStage:
    """map_batches callable: route each row's key hash to its host actor,
    gather was_new verdicts, append ``is_duplicate``.

    The per-batch work is one stable bucketing by host (``h1 mod H``, H =
    ``len(shards)``, which divides the partition count P, so a host's keys
    are exactly its partitions' keys; the host routes each to its
    partition) + concurrent actor RPCs, each of which returns its verdicts
    as packed bits (``_BloomHost.add``). A host's slice of n keys goes in
    ``ceil(n / MAX_KEYS_PER_CALL)`` near-equal calls, which the actor runs
    in submission order, so the marks are those of one call. Each call
    carries the task's attempt number, so a host can count a retry it
    cannot replay.
    ``run_flagship`` passes an instance, not the class, so Ray Data runs it
    as a plain stateless task that fuses with the stages around it (read →
    derive → mark → finish → tail become ONE task chain, with no actor pool
    to spawn). A batch that already carries
    ``MARK_COL`` keeps it as ``PREV_MARK_COL``, decided per batch, so no
    schema probe has to run the plan first.
    """

    def __init__(self, shards):
        self.shards = shards
        self.H = len(shards)
        self._batches = TaskBatches()

    def _batch_key(self, h1_slice: np.ndarray) -> bytes:
        # (task id, ordinal) identifies a physical batch across retries: a
        # retry's batches get the original's ordinals and HIT the host
        # cache, while distinct batches with identical content do not. The
        # key deliberately EXCLUDES the attempt number for that reason; the
        # batch's calls carry it beside the key (``self._attempt``)
        tid, self._attempt, ordinal = self._batches.next()
        h = hashlib.blake2b(digest_size=16)
        h.update(tid.encode())
        h.update(ordinal.to_bytes(8, "big"))
        h.update(h1_slice.tobytes())
        return h.digest()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        if MARK_COL in batch.column_names:
            batch = batch.rename_columns(
                [PREV_MARK_COL if c == MARK_COL else c for c in batch.column_names]
            )
        h1 = np.asarray(batch[KEY_H1].combine_chunks(), dtype=np.int64).view(np.uint64)
        h2 = np.asarray(batch[KEY_H2].combine_chunks(), dtype=np.int64).view(np.uint64)
        n = len(h1)
        is_dup = np.zeros(n, dtype=bool)
        nonnull = h1 != 0
        if nonnull.any():
            idx = np.flatnonzero(nonnull)
            order, bounds = group_order(partition_of(h1[idx], self.H), self.H)
            idx_sorted = idx[order]
            bkey_prefix = self._batch_key(h1[idx_sorted])
            futures, spans = [], []
            for s in range(self.H):
                lo, hi = bounds[s], bounds[s + 1]
                if lo == hi:
                    continue
                chunks = -(-(hi - lo) // MAX_KEYS_PER_CALL)
                for c, rows in enumerate(np.array_split(idx_sorted[lo:hi], chunks)):
                    bkey = bkey_prefix + s.to_bytes(4, "big") + c.to_bytes(4, "big")
                    futures.append(
                        self.shards[s].add.remote(
                            h1[rows], h2[rows], bkey, self._attempt
                        )
                    )
                    spans.append(rows)
            for rows, packed in zip(spans, ray.get(futures)):
                is_dup[rows] = ~np.unpackbits(packed, count=len(rows)).view(bool)
        return batch.append_column(MARK_COL, pa.array(is_dup))


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

    ONE payload shuffle total: :func:`~.windows.partitioned_group_apply`
    partitions the full rows by h1 with a fixed-boundary sort (one reducer
    per partition), and each partition arrives as one Arrow table. There,
    one stable ``sort_indices`` on (conv_id, turn_idx) and one numpy pass
    over the (h1, h2) pairs mark every key's first occurrence (every row of
    a key meets in one partition, so the partition-local decision is
    global). Key identity is the 128-bit hash (collision probability
    ~2^-128 — the standard content-hash dedup assumption). The output is the
    input's columns, types unchanged, plus ``is_duplicate``.

    Sizing rule: each partition becomes ONE in-memory table in its reducer,
    so ``num_partitions`` bounds a reducer's memory. The default sizes it
    from the input's own in-memory size estimate (known without executing
    the plan for a read or an in-memory dataset), else from the cluster's
    CPUs alone.

    Null-key rows are salted across partitions by row identity so the null
    fraction doesn't become one giant partition; they are never marked.
    """
    if num_partitions is None:
        from ..context import auto_num_partitions

        num_partitions = auto_num_partitions(
            bytes_hint=ds._logical_plan.dag.infer_metadata().size_bytes
        )

    def salt_nulls(batch: pa.Table) -> pa.Table:
        h1 = np.asarray(batch[KEY_H1].combine_chunks(), dtype=np.int64).view(np.uint64)
        # add_key_columns writes h1 = 0 for exactly the null keys
        null_flag = h1 == 0
        if null_flag.any():
            salt, _ = hash_pair_batch(
                pc.binary_join_element_wise(
                    pc.cast(batch[ORDER_COLS[0]].combine_chunks(), pa.string()),
                    pc.cast(batch[ORDER_COLS[1]].combine_chunks(), pa.string()),
                    "\x00",
                )
            )
            h1 = np.where(null_flag, salt | np.uint64(1), h1)
        return batch.set_column(
            batch.schema.get_field_index(KEY_H1),
            KEY_H1,
            pa.array(h1.view(np.int64), pa.int64()),
        ).append_column(NULL_COL, pa.array(null_flag))

    ds = add_key_columns(ds, key_cols)
    ds = ds.map_batches(salt_nulls, batch_format="pyarrow")

    from .windows import partitioned_group_apply

    return partitioned_group_apply(
        ds, KEY_H1, mark_partition, num_partitions=num_partitions
    )


def mark_partition(t: pa.Table) -> pa.Table:
    """``is_duplicate`` for one whole partition: a row is a duplicate iff a
    row with the same non-null (h1, h2) key comes before it in (conv_id,
    turn_idx) order. Rows keep their input order; the helper columns go."""
    order = pc.sort_indices(t, sort_keys=[(c, "ascending") for c in ORDER_COLS])
    order = np.asarray(order, dtype=np.int64)
    order = order[~np.asarray(t[NULL_COL].combine_chunks(), dtype=bool)[order]]
    h1 = np.asarray(t[KEY_H1].combine_chunks(), dtype=np.int64)[order]
    h2 = np.asarray(t[KEY_H2].combine_chunks(), dtype=np.int64)[order]
    # stable: equal keys keep their (conv_id, turn_idx) order, first one leads
    by_key = np.lexsort((h2, h1))
    h1, h2 = h1[by_key], h2[by_key]
    repeat = (h1[1:] == h1[:-1]) & (h2[1:] == h2[:-1])
    dup = np.zeros(t.num_rows, dtype=bool)
    dup[order[by_key[1:][repeat]]] = True
    return t.drop_columns([KEY_H1, KEY_H2, NULL_COL]).append_column(
        MARK_COL, pa.array(dup)
    )
