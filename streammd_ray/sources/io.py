"""Multi-format transcripts I/O — parquet is the native format (the
reference's stdin/stdout text stream becomes Parquet in/out per input_hint),
but pipelines accept JSONL and CSV drops with schema coercion, and outputs
can be written back in any of the three.

Coercion rules: every input is cast to TRANSCRIPTS_SCHEMA — turn_idx to
int32, ts parsed from ISO strings (JSONL/CSV carry timestamps as text),
missing ``tool`` column materialized as nulls. An ``is_duplicate`` column
(an earlier run's marks) is kept as bool, so ``strip_previous`` can act on it.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.dedup import MARK_COL, ORDER_COLS
from .transcripts import TRANSCRIPTS_SCHEMA

FORMATS = ("parquet", "jsonl", "csv")


def read_parquet_clean(paths, **kwargs):
    """read_parquet + strip schema metadata. Parquet written by pandas
    carries a ``pandas`` schema-metadata entry that makes pyarrow Schemas
    unhashable — Ray Data then logs "Failed to hash the schemas (for
    deduplication)" on every block unification and falls back to the slow
    unify path. Stripping at the read (a fused, zero-copy map) keeps every
    downstream schema clean."""
    import ray.data as rd

    return rd.read_parquet(paths, **kwargs).map_batches(
        lambda t: t.replace_schema_metadata(None),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _coerce(batch: pa.Table) -> pa.Table:
    out = {}
    for field in TRANSCRIPTS_SCHEMA:
        if field.name in batch.column_names:
            col = batch[field.name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if not col.type.equals(field.type):
                if pa.types.is_timestamp(field.type) and (
                    pa.types.is_floating(col.type) or pa.types.is_integer(col.type)
                ):
                    # JSON round-trips timestamps as epoch-seconds numbers
                    us = pc.round(pc.multiply(pc.cast(col, pa.float64()), 1e6))
                    col = pc.cast(pc.cast(us, pa.int64()), field.type)
                else:
                    # Arrow casts ISO-8601 strings to timestamp directly
                    col = pc.cast(col, field.type)
            out[field.name] = col
        else:
            out[field.name] = pa.nulls(len(batch), field.type)
    schema = TRANSCRIPTS_SCHEMA
    if MARK_COL in batch.column_names:
        out[MARK_COL] = pc.cast(batch[MARK_COL], pa.bool_())
        schema = schema.append(pa.field(MARK_COL, pa.bool_()))
    return pa.Table.from_arrays(list(out.values()), schema=schema)


def read_transcripts(paths, *, fmt: str = "parquet", **read_kwargs):
    """Read a transcripts table in any supported format, coerced to the
    canonical schema. Parquet reads prune columns via ``columns=``;
    JSONL/CSV read whole rows (those formats aren't columnar)."""
    import ray.data as rd

    if fmt == "parquet":
        ds = rd.read_parquet(paths, **read_kwargs)
    elif fmt == "jsonl":
        ds = rd.read_json(paths, **read_kwargs)
    elif fmt == "csv":
        from pyarrow import csv as pacsv

        # pin types: Arrow's CSV inference parses timestamps at second
        # precision and would truncate microseconds
        read_kwargs.setdefault(
            "convert_options",
            pacsv.ConvertOptions(
                column_types={
                    "ts": pa.timestamp("us"),
                    "turn_idx": pa.int32(),
                }
            ),
        )
        ds = rd.read_csv(paths, **read_kwargs)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return ds.map_batches(_coerce, batch_format="pyarrow", zero_copy_batch=True)


def write_transcripts(
    ds,
    out_dir: str,
    *,
    fmt: str = "parquet",
    sort: bool = False,
):
    """Write the transcripts table; ``sort=True`` enforces the input_hint's
    stable (conv_id, turn_idx) output ordering (SURVEY.md §4.2 — the
    reference gets this free from stream order, a distributed engine must
    sort). Ray's sort range-partitions, so block k holds keys entirely below
    block k+1 and write_parquet emits files in block order: reading the part
    files in filename order replays the global order. Order-verified
    end-to-end by tests/test_ordering.py and the ``transcripts_sorted``
    oracle query."""
    if sort:
        ds = ds.sort(list(ORDER_COLS))
    if fmt == "parquet":
        ds.write_parquet(out_dir)
    elif fmt == "jsonl":
        # default writer emits timestamps as epoch-seconds ints (sub-second
        # truncated); force ISO strings at microsecond precision
        ds.write_json(out_dir, date_format="iso", date_unit="us")
    elif fmt == "csv":
        ds.write_csv(out_dir)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return out_dir
