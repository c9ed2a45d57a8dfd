"""``cli.main`` in-process on the plain (non-checkpointed) branch, against
generated transcripts with ground truth: the metrics JSON, the part-file
layout, --remove-duplicates, --sort-output order, a JSONL round trip, the
capacity guard, and how the CLI starts and stops Ray."""

import glob
import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from streammd_ray import cli
from streammd_ray.pipelines import CapacityExceeded
from streammd_ray.sources import generate_transcripts
from streammd_ray.sources.io import read_transcripts


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("clidata"))
    paths, truth = generate_transcripts(
        out, n_turns=12_000, seed=29, dup_frac=0.3, n_files=6, return_truth=True
    )
    return paths, truth.to_pandas()


def _run(paths, tmp_path, *flags, name="out"):
    """Run the plain CLI branch; returns (output dir, metrics dict)."""
    out = str(tmp_path / name)
    metrics_path = str(tmp_path / f"{name}.json")
    argv = [
        "--input", os.path.dirname(paths[0]),
        "--output", out,
        "-p", "1e-9",
        "-m", "1MiB",
        "--num-shards", "4",
        "--metrics", metrics_path,
        *flags,
    ]  # fmt: skip
    assert cli.main(argv) == 0
    with open(metrics_path) as f:
        return out, json.load(f)


def _assert_metrics_match_truth(m, truth):
    assert m["TURNS"] == len(truth)
    assert m["TURNS_NULL_TEXT"] == int(truth["text"].isna().sum())
    assert m["TURNS_MARKED_DUPLICATE"] == int(truth["is_duplicate"].sum())
    denom = m["TURNS"] - m["TURNS_NULL_TEXT"]
    assert m["TURN_DUPLICATE_FRACTION"] == round(m["TURNS_MARKED_DUPLICATE"] / denom, 4)
    # CONVERSATIONS is the ridden HLL's estimate
    true_convs = truth["conv_id"].nunique()
    assert abs(m["CONVERSATIONS"] - true_convs) / true_convs < 0.05


def _alive_shards() -> set:
    import ray

    return {
        aid
        for aid, a in ray._private.state.actors().items()
        if a["State"] == "ALIVE" and "_BloomShard" in a["ActorClassName"]
    }


def test_plain_run_metrics_and_one_part_per_file(ray_session, data, tmp_path):
    import ray

    paths, truth = data
    out, m = _run(paths, tmp_path)
    _assert_metrics_match_truth(m, truth)
    parts = sorted(glob.glob(os.path.join(out, "*.parquet")))
    assert len(parts) == len(paths)  # one fused task per input file
    written = pq.ParquetDataset(out).read(columns=["is_duplicate"])
    assert written.num_rows == m["TURNS"]
    assert pc.sum(pc.cast(written["is_duplicate"], "int64")).as_py() == m[
        "TURNS_MARKED_DUPLICATE"
    ]
    # the temporary part-file directory beside --output is gone
    assert sorted(os.listdir(tmp_path)) == ["out", "out.json"]
    # main did not start Ray, so it left the caller's session running
    assert ray.is_initialized()


def test_plain_run_remove_duplicates(ray_session, data, tmp_path):
    paths, truth = data
    out, m = _run(paths, tmp_path, "--remove-duplicates")
    _assert_metrics_match_truth(m, truth)
    written = pq.ParquetDataset(out).read(columns=["is_duplicate"])
    assert written.num_rows == m["TURNS"] - m["TURNS_MARKED_DUPLICATE"]
    assert not pc.any(written["is_duplicate"]).as_py()


def test_plain_run_sort_output_replays_global_order(ray_session, data, tmp_path):
    paths, truth = data
    out, m = _run(paths, tmp_path, "--sort-output")
    _assert_metrics_match_truth(m, truth)
    files = sorted(glob.glob(os.path.join(out, "*.parquet")))
    got = pa.concat_tables([pq.read_table(f, columns=["conv_id", "turn_idx"]) for f in files])
    got_keys = list(zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()))
    want = sorted(zip(truth["conv_id"], truth["turn_idx"].astype(int)))
    assert got_keys == want  # ORDER-sensitive comparison


def test_plain_run_jsonl_round_trip(ray_session, data, tmp_path):
    """JSONL output reads back to the input rows, and marking it again
    (--strip-previous, so the first run's marks do not carry over) gives
    the same metrics JSON."""
    paths, truth = data
    out, m = _run(paths, tmp_path, "--output-format", "jsonl")
    files = sorted(glob.glob(os.path.join(out, "*.json*")))
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    keys = ["conv_id", "turn_idx"]
    back = read_transcripts(files, fmt="jsonl").to_pandas()
    got = back[cols].sort_values(keys).reset_index(drop=True)
    want = truth[cols].sort_values(keys).reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))
    assert int(back["is_duplicate"].sum()) == m["TURNS_MARKED_DUPLICATE"]

    _, m2 = _run(
        files, tmp_path, "--input-format", "jsonl", "--strip-previous", name="again"
    )
    assert m2 == m


@pytest.mark.parametrize("strip", [False, True])
def test_plain_run_prior_marks_and_strip_previous(ray_session, tmp_path, strip):
    """An input's own is_duplicate marks reach the marker: a stale mark
    stays unless --strip-previous clears it."""
    src = tmp_path / "in"
    src.mkdir()
    n = 3
    t = pa.table(
        {
            "conv_id": ["c1"] * n,
            "turn_idx": pa.array(range(n), pa.int32()),
            "role": ["user"] * n,
            "text": ["a", "b", "b"],
            "tool": pa.nulls(n, pa.string()),
            "ts": pa.array([0] * n, pa.timestamp("us")),
            "is_duplicate": [True, False, False],  # (c1, 0): a stale mark
        }
    )
    pq.write_table(t, src / "part-0.parquet")
    flags = ["--strip-previous"] if strip else []
    out, m = _run([str(src / "part-0.parquet")], tmp_path, *flags)
    got = pq.ParquetDataset(out).read().sort_by("turn_idx")
    assert got["is_duplicate"].to_pylist() == [not strip, False, True]
    assert m["TURNS_MARKED_DUPLICATE"] == (1 if strip else 2)


def test_plain_run_capacity_exceeded_leaves_output(ray_session, data, tmp_path):
    """A too-small filter raises before the commit: --output keeps what it
    held, no temporary directory is left beside it, and no shard lives on."""
    paths, _ = data
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("earlier output")
    before = _alive_shards()
    with pytest.raises(CapacityExceeded):
        _run(paths, tmp_path, "-m", "64B", "--num-shards", "1")
    assert os.listdir(out) == ["keep.txt"]
    assert sorted(os.listdir(tmp_path)) == ["out"]
    deadline = time.monotonic() + 30
    while _alive_shards() - before and time.monotonic() < deadline:
        time.sleep(0.2)
    assert not _alive_shards() - before


class _InitCalled(Exception):
    pass


@pytest.mark.parametrize("address", [None, "local", "10.0.0.1:6379"])
def test_ray_init_honours_ray_address(monkeypatch, tmp_path, address):
    """With RAY_ADDRESS naming a cluster (as ``ray job submit`` sets it) the
    CLI connects to it and passes no CPU count; without it, or with
    ``local``, it starts a local instance sized by --num-cpus."""
    import ray

    calls = []

    def fake_init(**kwargs):
        calls.append(kwargs)
        raise _InitCalled

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init", fake_init)
    if address is None:
        monkeypatch.delenv("RAY_ADDRESS", raising=False)
    else:
        monkeypatch.setenv("RAY_ADDRESS", address)
    argv = ["--input", str(tmp_path), "--output", str(tmp_path / "o"), "--num-cpus", "3"]
    with pytest.raises(_InitCalled):
        cli.main(argv)
    (kwargs,) = calls
    if address in (None, "local"):
        assert kwargs["address"] == "local" and kwargs["num_cpus"] == 3
    else:
        assert kwargs["address"] == address and "num_cpus" not in kwargs
