"""Partition-vectorized per-key group operations (behind exact dedup,
conversation validation, the transcripts derivation and per-key diffs).

``groupby(key).map_groups(fn)`` invokes a Python/pandas UDF once per GROUP.
For transcript/event logs the groups are tiny (a conversation is ~10 turns),
so per-group interpreter overhead (~100-200 µs) dwarfs the actual window
arithmetic — at 10^12 rows that is years of CPU spent on call overhead.

:func:`partitioned_group_apply` restores the right granularity: rows are
hash-partitioned by key (every row of a key lands in exactly one partition
— the co-location guarantee window semantics need), and the UDF runs ONCE
PER PARTITION over the whole partition frame. Inside, group-aware work uses
pandas' cython groupby kernels (``cumsum/cummax/diff/rolling``), which are
vectorized ACROSS groups — total cost O(n log n) for the partition sort plus
O(n) for the kernel, independent of the number of groups.

Partitioning assumption (SURVEY.md custom-operator rule): one partition
(~n/num_partitions rows) fits a worker's heap; num_partitions is the knob.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..hashing import hash64_batch


def partitioned_group_apply(
    ds,
    key: str,
    fn,
    *,
    num_partitions: int = 64,
):
    """Hash-partition by ``key``, then run ``fn(partition_df) -> DataFrame``
    once per partition. ``fn`` sees every row of each key it receives and
    should use pandas groupby cython kernels for group-aware arithmetic."""

    def add_part(t: pa.Table) -> pa.Table:
        h = hash64_batch(t[key].combine_chunks())
        part = (h % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("__part", pa.array(part, pa.int32()))

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns="__part"))

    return (
        ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__part")
        .map_groups(run, batch_format="pandas")
    )


def per_key_diff_partition(ts_col: str = "ts", out_col: str = "dt_us"):
    """Per-conversation consecutive timestamp deltas over a partition: one
    cython groupby-diff (first row of each key dropped, matching lag())."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        dt = (
            df[ts_col]
            .astype("int64")
            .groupby(df["conv_id"].values, sort=False)
            .diff()
            .dropna()
        )
        return pd.DataFrame({out_col: dt.astype(np.int64).to_numpy()})

    return fn
