"""Containments for Ray 2.49 defects, applied once when ``streammd_ray.stages``
is imported (every module that plans a Ray Data pipeline imports it).

Two are patched.

Hash-shuffle reservations. Every hash-shuffling operator (joins, hash
aggregates, hash repartitions) starts a pool of ``HashShuffleAggregator``
actors whose default remote args reserve up to half the cluster's CPUs
(``min(1, CPU/2/partitions)`` each) plus an estimated heap ``memory`` that
grows with the partition count. Two live pools can then hold every CPU or
nearly all of the node's ``memory`` resource, and the shuffle tasks feeding
them (``{CPU: 1, memory: 2 GiB}`` when block sizes are unknown) can never be
scheduled: a silent hang with idle aggregators. ``_capped_aggregator_args``
caps each pool's total ``num_cpus`` and ``memory`` at 1/8 of
``ray.cluster_resources()``, per operator at plan time from that operator's
own ``num_aggregators``. Aggregators may still use idle cores; only their
reservation shrinks.

Empty join partitions. ``Dataset.join``'s hash-shuffle aggregation builds
each partition side with ``ArrowBlockBuilder`` and a partition that received
NO row shards on one side builds a ZERO-COLUMN empty table, which acero then
rejects with "No match or multiple matches for key field reference <key>".
Any join whose per-side distinct-key count is smaller than ``num_partitions``
(a small filtered side at validation scale, a selective semi-join side) can
hit this, nondeterministically with key hashing. This is the join-side twin
of the hash-aggregate zero-column-finalize defect contained by
``context.drop_empty_blocks`` — but joins can't be repaired post-hoc (the
crash happens inside the aggregator actor), so the aggregation class itself
is swapped for a schema-aware subclass.

``SchemaSafeJoinAggregation`` records each side's schema from the first
non-empty shard it accepts and, at finalize, rebuilds an empty side as a
TYPED empty table — the recorded schema when available (output schema then
exactly matches non-empty partitions, all join types), else a keys-only
table typed from the other side's key columns (row-correct for
inner/semi/anti, the only join types that can reach finalize with a
never-seen side schema and still produce rows from one side).

The patch swaps the module global ``JoiningShuffleAggregation``;
``JoinOperator.__init__`` resolves that name at plan time, and the planning
closure ships our subclass (pickled by reference — workers import this
module, as they already do for every actor-pool stage class).
"""

from __future__ import annotations

import pyarrow as pa
from ray.data._internal.execution.operators import hash_shuffle as _ray_shuffle
from ray.data._internal.execution.operators import join as _ray_join

_ORIGINAL_JOIN_AGG = _ray_join.JoiningShuffleAggregation
_ORIGINAL_AGGREGATOR_ARGS = (
    _ray_shuffle.HashShufflingOperatorBase._get_default_aggregator_ray_remote_args
)

# share of the cluster's CPU and memory one aggregator pool may reserve
AGGREGATOR_POOL_SHARE = 1 / 8


def _capped_aggregator_args(self, *, num_partitions, num_aggregators, **kwargs):
    """Ray's default aggregator remote args, with the pool's total
    ``num_cpus`` and ``memory`` reservation capped at
    ``AGGREGATOR_POOL_SHARE`` of the cluster."""
    import ray

    args = _ORIGINAL_AGGREGATOR_ARGS(
        self, num_partitions=num_partitions, num_aggregators=num_aggregators, **kwargs
    )
    total = ray.cluster_resources()
    per = AGGREGATOR_POOL_SHARE / num_aggregators
    if "CPU" in total:
        args["num_cpus"] = min(args["num_cpus"], total["CPU"] * per)
    if "memory" in total:
        args["memory"] = min(args["memory"], int(total["memory"] * per))
    return args


class SchemaSafeJoinAggregation(_ORIGINAL_JOIN_AGG):
    """JoiningShuffleAggregation that survives empty hash partitions."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._seen_schemas: dict[int, pa.Schema] = {}

    def accept(self, input_seq_id: int, partition_id: int, partition_shard):
        if (
            input_seq_id not in self._seen_schemas
            and getattr(partition_shard, "num_columns", 0) > 0
        ):
            self._seen_schemas[input_seq_id] = partition_shard.schema
        super().accept(input_seq_id, partition_id, partition_shard)

    def _typed_empty(self, seq_id: int, other: pa.Table, own_keys, other_keys):
        """Empty table for a side that received no rows: full recorded schema
        if any shard of that side reached this aggregator, else keys-only
        typed from the other side (sufficient for inner/semi/anti outputs)."""
        schema = self._seen_schemas.get(seq_id)
        if schema is not None and all(k in schema.names for k in own_keys):
            return schema.empty_table()
        return pa.table(
            {
                own: pa.array([], type=other.schema.field(oth).type)
                for own, oth in zip(own_keys, other_keys)
            }
        )

    def finalize(self, partition_id: int):
        left: pa.Table = self._get_partition_builder(
            input_seq_id=0, partition_id=partition_id
        ).build()
        right: pa.Table = self._get_partition_builder(
            input_seq_id=1, partition_id=partition_id
        ).build()
        left_on = list(self._left_key_col_names)
        right_on = list(self._right_key_col_names)

        def broken(t: pa.Table, keys) -> bool:
            # zero columns: the builder saw no shards. 0 rows with missing
            # key columns: the side was fully filtered upstream and its empty
            # blocks carry a STALE schema (map_batches skips empty blocks, so
            # renames/projections never applied to them) — either way the
            # side holds no data and acero would reject the key reference.
            if t.num_columns == 0:
                return True
            return t.num_rows == 0 and not all(k in t.column_names for k in keys)

        def usable(schema: pa.Schema | None, keys):
            return schema is not None and all(k in schema.names for k in keys)

        if broken(left, left_on) and broken(right, right_on):
            ls, rs = self._seen_schemas.get(0), self._seen_schemas.get(1)
            if not usable(ls, left_on) and not usable(rs, right_on):
                # nothing ever reached this aggregator on either side; emit a
                # rowless block — downstream map_batches skips empty blocks
                # and patched joins repair them again
                return pa.table({})
            if usable(ls, left_on):
                left = ls.empty_table()
            if usable(rs, right_on):
                right = rs.empty_table()
        if broken(right, right_on):
            right = self._typed_empty(1, left, right_on, left_on)
        elif broken(left, left_on):
            left = self._typed_empty(0, right, left_on, right_on)

        return left.join(
            right,
            join_type=_ray_join._JOIN_TYPE_TO_ARROW_JOIN_VERB_MAP[self._join_type],
            keys=left_on,
            right_keys=right_on,
            left_suffix=self._left_columns_suffix,
            right_suffix=self._right_columns_suffix,
        )


def apply_ray_patches() -> None:
    """Idempotent; called from ``streammd_ray.stages.__init__``."""
    if _ray_join.JoiningShuffleAggregation is not SchemaSafeJoinAggregation:
        _ray_join.JoiningShuffleAggregation = SchemaSafeJoinAggregation
    base = _ray_shuffle.HashShufflingOperatorBase
    base._get_default_aggregator_ray_remote_args = _capped_aggregator_args
