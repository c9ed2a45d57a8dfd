"""Partition-vectorized per-key group operations (behind exact dedup, the
transcripts derivation and per-key diffs).

``groupby(key).map_groups(fn)`` invokes a Python/pandas UDF once per GROUP.
For transcript/event logs the groups are tiny (a conversation is ~10 turns),
so per-group interpreter overhead (~100-200 µs) dwarfs the actual window
arithmetic — at 10^12 rows that is years of CPU spent on call overhead.

:func:`partitioned_group_apply` restores the right granularity: each row's
partition id is its key hash mod ``num_partitions`` (every row of a key lands
in exactly one partition — the co-location guarantee window semantics need),
and the UDF runs ONCE PER PARTITION over the whole partition as one Arrow
table. The shuffle is Ray Data's sort on the partition id with the fixed
boundaries ``1 .. num_partitions - 1``: no sampling pass, and exactly one
reducer per partition, so each reducer holds one partition and
``num_partitions`` bounds a reducer's memory. Each reducer emits one block,
which ``map_batches(batch_size=None)`` hands to the UDF whole and zero-copy.
Inside, group-aware work stays vectorized across groups (an Arrow/numpy
sort, or pandas' cython groupby kernels after ``to_pandas()``).

Partitioning assumption (SURVEY.md custom-operator rule): one partition
(~n/num_partitions rows) fits a worker's heap; num_partitions is the knob.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..hashing import hash64_batch

PART_COL = "__part"


def partitioned_group_apply(
    ds,
    key: str,
    fn,
    *,
    num_partitions: int = 64,
):
    """Hash-partition by ``key``, then run ``fn(partition: pa.Table) ->
    pa.Table | pd.DataFrame`` once per non-empty partition. ``fn`` sees every
    row of each key it receives, and no two partitions in one call."""

    def add_part(t: pa.Table) -> pa.Table:
        h = hash64_batch(t[key])
        part = (h % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column(PART_COL, pa.array(part, pa.int32()))

    def run(t: pa.Table):
        return fn(t.drop_columns([PART_COL]))

    # an empty boundary list would make Ray sample boundaries; one partition
    # keeps a second, always-empty reducer instead
    boundaries = list(range(1, max(num_partitions, 2)))
    return (
        ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
        .sort(PART_COL, boundaries=boundaries)
        .map_batches(
            run, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
    )


def per_key_diff_partition(ts_col: str = "ts", out_col: str = "dt_us"):
    """Per-conversation consecutive timestamp deltas over a partition: one
    cython groupby-diff (first row of each key dropped, matching lag())."""

    def fn(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas().sort_values(["conv_id", "turn_idx"], kind="stable")
        dt = (
            df[ts_col]
            .astype("int64")
            .groupby(df["conv_id"].values, sort=False)
            .diff()
            .dropna()
        )
        return pd.DataFrame({out_col: dt.astype(np.int64).to_numpy()})

    return fn
