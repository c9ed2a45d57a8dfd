"""Transcripts output: Parquet out (the reference's stdout text stream
becomes Parquet per input_hint). The read side, and its coercion to
TRANSCRIPTS_SCHEMA, is :mod:`.parquet_files`."""

from __future__ import annotations

from ..stages.dedup import ORDER_COLS
from ..state.checkpoint import DISK_COMPRESSION


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
    ds.write_parquet(out_dir, **DISK_COMPRESSION)
    return out_dir
