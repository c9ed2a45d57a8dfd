"""The engine's one transcripts read, :func:`read_parquet_files`: every
engine pass (the CLI's run and its ``--sort-output`` re-read, each wave of
the checkpointed runner) reads its input files through it, so every pass
reads and writes one schema.

The read is sized to the cluster, not to the file count:
``min(len(paths), cluster CPUs)`` read tasks, each reading a contiguous
group of files in order, one ``pq.ParquetFile`` read per file. Ray Data
merges a task's per-file tables into blocks of up to its
``target_max_block_size``, so on one CPU a wave of two files is one block,
and the read fuses with the map stages after it into one operator. The
read plans without Ray's sampling tasks or driver-side footer reads: a
task's metadata is its files' on-disk sizes, and each file's schema is
looked up in its read task.

Coercion rules (the reference trusts one record schema, SURVEY.md §1; this
read enforces it): each file's table is cast to TRANSCRIPTS_SCHEMA,
restricted to ``columns`` when they are given — turn_idx to int32, a ts
stored as ISO-8601 text to timestamp[us], a column the file lacks (say
``tool``) as nulls. An ``is_duplicate`` column (an earlier run's marks) is
kept as bool, so ``strip_previous`` can act on it. Other columns are
dropped.

Only this module under ``sources`` imports Ray Data, and
``import streammd_ray.sources`` does not import it, so that import loads
no Ray Data: a Ray Data import before ``ray.init`` lowers the idle
session's memory, which perfbench subtracts from a job's peak (~11 MiB at
1 pinned core).
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import Datasource, ReadTask, read_datasource
from ray.data.block import BlockMetadata

from ..context import cluster_cpus
from ..stages.dedup import MARK_COL
from .transcripts import TRANSCRIPTS_SCHEMA

#: every column a read can return, with the type it is cast to
_FIELDS = {f.name: f for f in TRANSCRIPTS_SCHEMA.append(pa.field(MARK_COL, pa.bool_()))}


def _read_files(paths: list[str], columns: list[str] | None):
    for path in paths:
        f = pq.ParquetFile(path)
        have = f.schema_arrow.names
        if columns is not None:
            names = columns
        elif MARK_COL in have:
            names = [*TRANSCRIPTS_SCHEMA.names, MARK_COL]
        else:
            names = TRANSCRIPTS_SCHEMA.names
        table = f.read(columns=[c for c in names if c in have])
        n = f.metadata.num_rows
        yield pa.Table.from_arrays(
            [table[c] if c in have else pa.nulls(n, _FIELDS[c].type) for c in names],
            names=names,
        ).cast(pa.schema([_FIELDS[c] for c in names]))


class _ParquetFiles(Datasource):
    """Parquet files read in contiguous groups, one read task per group."""

    def __init__(self, paths: list[str], columns: list[str] | None):
        self._paths = list(paths)
        self._columns = columns

    def get_name(self) -> str:
        return "ParquetFiles"

    def estimate_inmemory_data_size(self) -> None:
        # unknown without the footers; a size here would also let Ray split
        # each task's output by size, behind an unfused SplitBlocks stage
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        n = max(1, min(len(self._paths), parallelism))
        cuts = [len(self._paths) * i // n for i in range(n + 1)]
        tasks = []
        for lo, hi in zip(cuts, cuts[1:]):
            group = self._paths[lo:hi]
            meta = BlockMetadata(
                num_rows=None,
                size_bytes=sum(os.path.getsize(p) for p in group),
                input_files=group,
                exec_stats=None,
            )
            tasks.append(
                ReadTask(functools.partial(_read_files, group, self._columns), meta)
            )
        return tasks


def read_parquet_files(paths: list[str], columns: list[str] | None = None):
    """The transcripts in the Parquet files ``paths``, coerced (see the
    module docstring), as a Dataset of ``min(len(paths), cluster CPUs)``
    read tasks. Passing that count as ``override_num_blocks`` keeps Ray from
    splitting a task's output into more blocks than tasks: no unfused
    ``SplitBlocks`` stage follows the read."""
    unknown = sorted(set(columns or ()) - _FIELDS.keys())
    if unknown:
        raise ValueError(f"not a transcripts column: {unknown}")
    return read_datasource(
        _ParquetFiles(paths, columns),
        override_num_blocks=max(1, min(len(paths), cluster_cpus())),
    )
