"""Exact quantiles by one distributed sort, the yardstick that holds the
t-digest and KLL sketches to their rank bounds: one fused ``map_batches``
keeps a column's non-null, non-NaN values, ``sort`` orders them globally,
and the driver fetches only the sorted blocks that hold the target ranks.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _clean(t: pa.Table, col: str) -> pa.Table:
    """Drop nulls and NaNs. Integer and timestamp columns become int64, never
    float64, so distinct values above 2^53 stay distinct."""
    a = t[col]
    if pa.types.is_timestamp(a.type) or pa.types.is_integer(a.type):
        a = a.cast(pa.int64()).drop_null()
    else:
        a = a.cast(pa.float64())
        a = a.filter(pc.invert(pc.is_nan(a)))  # a null in the mask drops too
    return pa.table({col: a})


def exact_quantile_select(ds, col: str, qs: tuple[float, ...]) -> list:
    """Exact ``quantile_disc`` values by DuckDB's rank rule: the value at
    sorted position ceil(q·n)−1, 0-indexed. Nulls are skipped and NaN is
    treated as NULL, unlike DuckDB, which sorts NaN above every number.
    Integer and timestamp columns give Python ints, others floats.

    The sort sends every copy of one value to one reducer: fine at the
    catalog's sizes, while a column where one value outgrows a reducer
    wants the t-digest and KLL sketches instead."""
    import ray
    from ray.data.block import BlockAccessor

    srt = (
        ds.select_columns([col])
        .map_batches(_clean, fn_args=(col,), batch_format="pyarrow", batch_size=None)
        .sort(col)
        .materialize()
    )
    blocks = [b for bundle in srt.iter_internal_ref_bundles() for b in bundle.blocks]
    ends = np.cumsum([meta.num_rows for _, meta in blocks], dtype=np.int64)
    if not len(ends) or ends[-1] == 0:
        raise ValueError(f"exact_quantile_select: no non-null values in {col!r}")
    out = []
    for q in qs:
        rank = max(0, math.ceil(q * int(ends[-1])) - 1)
        # the first block ending past the rank; zero-row blocks end where
        # their predecessor does, so they are never chosen
        b = int(np.searchsorted(ends, rank, side="right"))
        ref, meta = blocks[b]
        block = BlockAccessor.for_block(ray.get(ref)).to_arrow()
        out.append(block[col][rank - int(ends[b]) + meta.num_rows].as_py())
    return out
