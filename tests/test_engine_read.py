"""The engine's one transcripts read (``sources.parquet_files``): its
read-task groups, one fused operator with no ``SplitBlocks`` stage and no
separate coercion stage over it, column pruning, and the coercion of a file
without the optional ``tool`` column, in the read task."""

import datetime
import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from streammd_ray.sources import TRANSCRIPTS_SCHEMA, generate_transcripts, parquet_files
from streammd_ray.sources.parquet_files import read_parquet_files


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("engine_read"))
    paths = generate_transcripts(out, n_turns=6_000, seed=7, n_files=3)
    return sorted(paths)


@pytest.mark.parametrize("n_paths,parallelism", [(7, 3), (3, 8), (5, 1), (1, 4)])
def test_read_tasks_are_contiguous_near_equal_groups(tmp_path, n_paths, parallelism):
    rows = {}
    for i in range(n_paths):
        path = str(tmp_path / f"f{i}.parquet")
        pq.write_table(pa.table({"x": list(range(i + 1))}), path)
        rows[path] = i + 1
    paths = list(rows)
    tasks = parquet_files._ParquetFiles(paths, None).get_read_tasks(parallelism)
    assert len(tasks) == min(n_paths, parallelism)
    groups = [t.metadata.input_files for t in tasks]
    assert [p for g in groups for p in g] == paths  # in order, each file once
    assert max(map(len, groups)) - min(map(len, groups)) <= 1
    for t, g in zip(tasks, groups):
        assert t.metadata.size_bytes == sum(os.path.getsize(p) for p in g)
        assert t.metadata.num_rows is None  # no footer read at planning
        assert [b.num_rows for b in t()] == [rows[p] for p in g]


@pytest.mark.parametrize("cpus", [1, 2])
def test_one_fused_operator_per_read_task(
    ray_session, files, tmp_path, monkeypatch, capsys, cpus
):
    """On a cluster of ``cpus`` CPUs a 3-file read makes ``min(3, cpus)``
    read tasks, each one block, and the flagship over it runs as ONE fused
    operator (no ``SplitBlocks``) writing one part file per read task."""
    from streammd_ray.pipelines import run_flagship

    monkeypatch.setattr(parquet_files, "cluster_cpus", lambda: cpus)
    n_tasks = min(len(files), cpus)
    blocks = read_parquet_files(files).materialize()
    assert blocks.num_blocks() == n_tasks
    assert blocks.count() == 6_000

    monkeypatch.setenv("STREAMMD_TRACE", "1")  # prints the pass's stats()
    out = str(tmp_path / "out")
    res = run_flagship(
        read_parquet_files(files), p=1e-9, mem="1MiB", num_shards=2, output_dir=out
    )
    stats = capsys.readouterr().err
    assert "ReadParquetFiles->MapBatches(derive)->" in stats
    assert "_coerce" not in stats
    assert "MapBatches(BloomMarkStage)->MapBatches(finish)->MapBatches(SketchTail)" in stats
    assert "SplitBlocks" not in stats
    assert f"{n_tasks} tasks executed" in stats
    assert len(glob.glob(os.path.join(out, "*.parquet"))) == n_tasks
    assert res.counters["turns"] == 6_000


def test_column_pruning(ray_session, files):
    """A read of some columns returns exactly those, in the requested
    order, with TRANSCRIPTS_SCHEMA's types; a name that is neither a
    TRANSCRIPTS_SCHEMA column nor ``is_duplicate`` is refused before any
    task runs."""
    cols = ["turn_idx", "conv_id", "text"]
    tables = ray.get(read_parquet_files(files, cols).to_arrow_refs())
    want = pa.schema([TRANSCRIPTS_SCHEMA.field(c) for c in cols])
    assert all(b.schema == want for b in tables)
    assert sum(b.num_rows for b in tables) == 6_000
    with pytest.raises(ValueError, match="not a transcripts column"):
        read_parquet_files(files, ["conv_id", "nope"])


def test_file_without_tool_reads_and_coerces(ray_session, tmp_path):
    path = str(tmp_path / "no-tool.parquet")
    pq.write_table(
        pa.table(
            {
                "conv_id": ["c0", "c0", "c1"],
                "turn_idx": pa.array([0, 1, 0], pa.int64()),
                "text": ["a", None, "a"],
                "ts": ["2024-01-01T00:00:00", "2024-01-01T00:00:01.5", None],
            }
        ),
        path,
    )
    got = pa.concat_tables(ray.get(read_parquet_files([path]).to_arrow_refs()))
    assert got.schema == TRANSCRIPTS_SCHEMA
    assert got["turn_idx"].to_pylist() == [0, 1, 0]
    assert got["tool"].null_count == 3
    assert got["ts"].to_pylist()[1] == datetime.datetime(2024, 1, 1, 0, 0, 1, 500_000)
    # a requested column the file lacks comes back as nulls too
    cols = ["conv_id", "turn_idx", "tool"]
    got = pa.concat_tables(ray.get(read_parquet_files([path], cols).to_arrow_refs()))
    assert got.schema == pa.schema([TRANSCRIPTS_SCHEMA.field(c) for c in cols])
    assert got["turn_idx"].to_pylist() == [0, 1, 0]
    assert got["tool"].null_count == 3


def test_read_parquet_files_takes_paths_and_columns_only(files):
    with pytest.raises(TypeError):
        read_parquet_files(files, override_num_blocks=len(files))
