"""Transcripts I/O: Parquet in, Parquet out (the reference's stdin/stdout
text stream becomes Parquet per input_hint).

Coercion rules: every input is cast to TRANSCRIPTS_SCHEMA — turn_idx to
int32, a ts stored as ISO-8601 text to timestamp[us], a missing ``tool``
column materialized as nulls. An ``is_duplicate`` column (an earlier run's
marks) is kept as bool, so ``strip_previous`` can act on it.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.dedup import MARK_COL, ORDER_COLS
from .transcripts import TRANSCRIPTS_SCHEMA


def _coerce(batch: pa.Table) -> pa.Table:
    out = {}
    for field in TRANSCRIPTS_SCHEMA:
        if field.name in batch.column_names:
            col = batch[field.name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if not col.type.equals(field.type):
                col = pc.cast(col, field.type)
            out[field.name] = col
        else:
            out[field.name] = pa.nulls(len(batch), field.type)
    schema = TRANSCRIPTS_SCHEMA
    if MARK_COL in batch.column_names:
        out[MARK_COL] = pc.cast(batch[MARK_COL], pa.bool_())
        schema = schema.append(pa.field(MARK_COL, pa.bool_()))
    return pa.Table.from_arrays(list(out.values()), schema=schema)


def read_transcripts(paths: list[str], columns: list[str] | None = None):
    """The engine read (:func:`.parquet_files.read_parquet_files`) coerced
    to the canonical schema."""
    from .parquet_files import read_parquet_files

    return read_parquet_files(paths, columns).map_batches(
        _coerce, batch_format="pyarrow", zero_copy_batch=True
    )


def write_transcripts(ds, out_dir: str, *, sort: bool = False):
    """Write the transcripts table as Parquet; ``sort=True`` enforces the
    input_hint's stable (conv_id, turn_idx) output ordering (SURVEY.md §4.2
    — the reference gets this free from stream order, a distributed engine
    must sort). Ray's sort range-partitions, so block k holds keys entirely
    below block k+1 and write_parquet emits files in block order: reading
    the part files in filename order replays the global order.
    Order-verified end-to-end by tests/test_ordering.py and the
    ``transcripts_sorted`` oracle query."""
    if sort:
        ds = ds.sort(list(ORDER_COLS))
    ds.write_parquet(out_dir)
    return out_dir
