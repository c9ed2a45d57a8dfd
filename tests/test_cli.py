"""``cli.main`` in-process, mostly on the plain (non-checkpointed) branch,
against generated transcripts with ground truth: the metrics JSON, the
part-file layout, --remove-duplicates, --sort-output order, re-marking the
CLI's own output, --single and the coerced output schema in both modes,
the capacity guard, how the CLI starts and stops Ray, and bad flags as
usage errors."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from streammd_ray import cli
from streammd_ray.pipelines import CapacityExceeded
from streammd_ray.sources import TRANSCRIPTS_SCHEMA, generate_transcripts


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


def test_plain_run_metrics_and_one_part_per_read_task(ray_session, data, tmp_path):
    import ray

    from streammd_ray.context import cluster_cpus

    paths, truth = data
    out, m = _run(paths, tmp_path)
    _assert_metrics_match_truth(m, truth)
    parts = sorted(glob.glob(os.path.join(out, "*.parquet")))
    # one fused task per read task: min(files, cluster CPUs) of them
    assert len(parts) == min(len(paths), cluster_cpus())
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


def _codecs(files) -> set[str]:
    """Every column chunk's compression codec across ``files``."""
    return {
        md.row_group(g).column(c).compression
        for md in (pq.ParquetFile(f).metadata for f in files)
        for g in range(md.num_row_groups)
        for c in range(md.num_columns)
    }


def test_plain_run_sort_output_replays_global_order(ray_session, data, tmp_path):
    """--sort-output part files replay the global order; they and the plain
    run's are zstd-compressed (``DISK_COMPRESSION``)."""
    paths, truth = data
    out, m = _run(paths, tmp_path, "--sort-output")
    _assert_metrics_match_truth(m, truth)
    files = sorted(glob.glob(os.path.join(out, "*.parquet")))
    got = pa.concat_tables([pq.read_table(f, columns=["conv_id", "turn_idx"]) for f in files])
    got_keys = list(zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()))
    want = sorted(zip(truth["conv_id"], truth["turn_idx"].astype(int)))
    assert got_keys == want  # ORDER-sensitive comparison
    plain, _ = _run(paths, tmp_path, name="plain")
    assert _codecs(files) == {"ZSTD"}
    assert _codecs(glob.glob(os.path.join(plain, "*.parquet"))) == {"ZSTD"}


def test_plain_run_remarks_own_output(ray_session, data, tmp_path):
    """Marking the CLI's own output again (--strip-previous, so the first
    run's marks do not carry over) gives the same metrics JSON."""
    paths, _ = data
    out, m = _run(paths, tmp_path)
    files = sorted(glob.glob(os.path.join(out, "*.parquet")))
    _, m2 = _run(files, tmp_path, "--strip-previous", name="again")
    assert m2 == m


@pytest.mark.parametrize("mode", ["plain", "checkpoint"])
def test_single_appends_conv_id_to_key_cols(ray_session, data, tmp_path, mode):
    """--single is --key-cols with conv_id appended, in both CLI modes: the
    same metrics JSON as spelling the key out, for the default key and a
    custom one."""
    paths, truth = data

    def run(name, *flags):
        if mode == "checkpoint":
            flags += ("--checkpoint-dir", str(tmp_path / f"{name}.ckpt"))
        return _run(paths, tmp_path, *flags, name=name)[1]

    single = run("single", "--single")
    assert single == run("spelled", "--key-cols", "text,conv_id")
    # within-conversation dups only: fewer than the global ground truth
    assert single["TURNS_MARKED_DUPLICATE"] < int(truth["is_duplicate"].sum())
    tool = run("single-tool", "--single", "--key-cols", "tool")
    assert tool == run("spelled-tool", "--key-cols", "tool,conv_id")
    assert tool != single


def test_both_modes_coerce_a_loose_schema(ray_session, data, tmp_path):
    """Files without ``tool``, with int64 turn_idx and ts as text: the plain
    run and a checkpointed run in two waves give one metrics JSON, and
    every part file of both has TRANSCRIPTS_SCHEMA + is_duplicate."""
    paths, truth = data
    src = tmp_path / "loose"
    src.mkdir()
    for path in paths:
        t = pq.read_table(path).drop_columns(["tool"])
        for name, loose_type in (("turn_idx", pa.int64()), ("ts", pa.string())):
            i = t.schema.get_field_index(name)
            t = t.set_column(i, name, t[name].cast(loose_type))
        pq.write_table(t, src / os.path.basename(path))
    loose = sorted(glob.glob(str(src / "*.parquet")))
    out, plain = _run(loose, tmp_path, name="plain")
    _assert_metrics_match_truth(plain, truth)
    ckpt = ("--checkpoint-dir", str(tmp_path / "ckpt"), "--wave-size", "4")
    waves, checkpointed = _run(loose, tmp_path, *ckpt, name="waves")
    assert checkpointed == plain
    want = TRANSCRIPTS_SCHEMA.append(pa.field("is_duplicate", pa.bool_()))
    parts = glob.glob(os.path.join(out, "*.parquet"))
    wave_parts = glob.glob(os.path.join(waves, "wave-*", "*.parquet"))
    assert len({os.path.dirname(p) for p in wave_parts}) == 2
    for part in parts + wave_parts:
        assert pq.read_schema(part) == want, part


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


def test_plain_run_capacity_exceeded_leaves_output(
    settled_new_shards, data, tmp_path
):
    """A too-small filter raises before the commit: --output keeps what it
    held, no temporary directory is left beside it, and no shard lives on."""
    paths, _ = data
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("earlier output")
    with pytest.raises(CapacityExceeded):
        _run(paths, tmp_path, "-m", "64B", "--num-shards", "1")
    assert os.listdir(out) == ["keep.txt"]
    assert sorted(os.listdir(tmp_path)) == ["out"]
    spawned = settled_new_shards()
    assert len(spawned) == 1
    assert set(spawned.values()) == {"DEAD"}


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


@pytest.mark.parametrize(
    "flags,message",
    [
        (["-m", "4XB"], "bad memory spec: '4XB'"),
        (["-m", "0B"], "mem='0B' over num_shards=8 leaves a shard no bits"),
        (["--num-shards", "0"], "over num_shards=0 leaves a shard no bits"),
        (["--wave-size", "0"], "--wave-size must be at least 1, got 0"),
        (["--wave-size", "-1"], "--wave-size must be at least 1, got -1"),
    ],
    ids=["bad-spec", "zero-budget", "zero-shards", "zero-wave", "negative-wave"],
)
def test_bad_filter_budget_is_a_usage_error(monkeypatch, capsys, flags, message):
    """A filter budget that cannot size the shards ends the CLI with one
    argparse-style error line and exit code 2, before Ray starts."""
    import ray

    monkeypatch.setattr(ray, "init", lambda **kw: pytest.fail("Ray started"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--show-capacity", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("streammd-ray: error: ")
    assert message in err


@pytest.mark.parametrize("flag", ["--input-format", "--output-format"])
def test_format_flags_are_gone(monkeypatch, flag):
    """Input and output are Parquet only: a format flag is an argparse
    error (exit 2), before Ray starts."""
    import ray

    monkeypatch.setattr(ray, "init", lambda **kw: pytest.fail("Ray started"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--input", "in", "--output", "out", flag, "parquet"])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode", ["plain", "sort", "checkpoint"])
def test_zero_row_input_writes_zero_metrics(ray_session, tmp_path, mode):
    """A Parquet input with no rows gives the all-zero metrics JSON, as
    the reference does on empty input, in each CLI mode; a checkpointed
    run commits its wave."""
    src = tmp_path / "empty"
    src.mkdir()
    pq.write_table(TRANSCRIPTS_SCHEMA.empty_table(), src / "empty.parquet")
    flags = {
        "plain": (),
        "sort": ("--sort-output",),
        "checkpoint": ("--checkpoint-dir", str(tmp_path / "ckpt")),
    }[mode]
    out, m = _run([str(src / "empty.parquet")], tmp_path, *flags)
    assert os.path.isdir(out)
    assert m == {
        "TURNS": 0,
        "TURNS_NULL_TEXT": 0,
        "TURNS_MARKED_DUPLICATE": 0,
        "CONVERSATIONS": 0,
        "TURN_DUPLICATE_FRACTION": 0.0,
    }
    if mode == "checkpoint":
        with open(tmp_path / "ckpt" / "manifest.json") as f:
            manifest = json.load(f)
        assert manifest["waves"]["0"]["status"] == "done"
