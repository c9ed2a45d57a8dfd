"""Checkpointed wave runner on generated transcripts with ground truth:
metrics and lineage, the per-wave capacity guard, and the CLI's
--checkpoint-dir path."""

import glob
import json
import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from streammd_ray import cli
from streammd_ray.pipelines import CapacityExceeded
from streammd_ray.sources import generate_transcripts
from streammd_ray.state import run_flagship_checkpointed


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckptdata"))
    paths, truth = generate_transcripts(
        out, n_turns=12_000, seed=23, dup_frac=0.3, n_files=8, return_truth=True
    )
    return paths, truth.to_pandas()


def _assert_metrics_match_truth(m, truth):
    assert m["TURNS"] == len(truth)
    assert m["TURNS_NULL_TEXT"] == int(truth["text"].isna().sum())
    # cross-wave dups must be caught: total dup count matches ground truth
    assert m["TURNS_MARKED_DUPLICATE"] == int(truth["is_duplicate"].sum())
    # HLL conversations within its error bound
    true_convs = truth["conv_id"].nunique()
    assert abs(m["CONVERSATIONS"] - true_convs) / true_convs < 0.05


def test_full_run_and_metrics(ray_session, data, tmp_path):
    paths, truth = data
    manifest, _ = run_flagship_checkpointed(
        paths,
        ckpt_dir=str(tmp_path / "ckpt"),
        output_dir=str(tmp_path / "out"),
        wave_size=3,
        p=1e-9,
        mem="1MiB",
        num_shards=4,
    )
    _assert_metrics_match_truth(manifest["metrics"], truth)
    # wave outputs exist, one dir per wave (resumable layout)
    waves = sorted(glob.glob(str(tmp_path / "out" / "wave-*")))
    assert len(waves) == 3  # ceil(8/3)
    # lineage recorded, key spec and layout included
    config = manifest["config"]
    assert config["hasher"]
    assert config["num_shards"] == 4
    assert config["key_cols"] == ["text"] and "scope" not in config
    assert config["bloom_layout"] == "classic" and config["remove_duplicates"] is False
    for w in manifest["waves"].values():
        assert w["status"] == "done" and w["files"]


def test_capacity_guard_blocks_wave_commit(ray_session, data, tmp_path):
    """An over-capacity filter fails the wave before it commits instead of
    silently inflating dups through its FPR; allow_overcapacity proceeds."""
    paths, _ = data
    ckpt, out = str(tmp_path / "ckpt"), str(tmp_path / "out")
    tiny = dict(wave_size=1, p=1e-9, mem="64B", num_shards=1)
    with pytest.raises(CapacityExceeded):
        run_flagship_checkpointed(paths[:2], ckpt_dir=ckpt, output_dir=out, **tiny)
    manifest_path = os.path.join(ckpt, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = json.load(open(manifest_path))
        assert not any(w["status"] == "done" for w in manifest["waves"].values())
    assert not os.path.exists(os.path.join(out, "wave-0"))

    manifest, _ = run_flagship_checkpointed(
        paths[:2],
        ckpt_dir=str(tmp_path / "ckpt2"),
        output_dir=str(tmp_path / "out2"),
        allow_overcapacity=True,
        **tiny,
    )
    assert sorted(manifest["waves"]) == ["0", "1"]
    # the manifest flags every wave whose filter overflowed
    for w in manifest["waves"].values():
        assert w["overcapacity_shards"] == 1
        assert w["max_marginal_fpr"] > tiny["p"]


@pytest.mark.parametrize("checkpoint", [False, True])
def test_cli_allow_overcapacity_warns(
    ray_session, data, tmp_path, capsys, checkpoint
):
    """Both CLI modes finish an over-capacity run under --allow-overcapacity
    and print the same WARNING line; a checkpoint whose wave entries predate
    the overcapacity fields still resumes."""
    paths, _ = data
    ckpt = str(tmp_path / "ckpt")
    argv = [
        "--input", os.path.dirname(paths[0]),
        "--output", str(tmp_path / "out"),
        "-p", "1e-9",
        "-m", "64B",
        "--num-shards", "1",
        "--metrics", str(tmp_path / "metrics.json"),
        "--allow-overcapacity",
        *(["--checkpoint-dir", ckpt, "--wave-size", "4"] if checkpoint else []),
    ]  # fmt: skip
    assert cli.main(argv) == 0
    assert "WARNING: 1/1 Bloom shards over capacity" in capsys.readouterr().err
    if checkpoint:
        manifest_path = os.path.join(ckpt, "manifest.json")
        manifest = json.load(open(manifest_path))
        for w in manifest["waves"].values():
            del w["overcapacity_shards"], w["max_marginal_fpr"]
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        assert cli.main(argv) == 0
        assert json.load(open(manifest_path))["metrics"] == manifest["metrics"]


def test_cli_checkpoint_dir(ray_session, data, tmp_path):
    """``cli.main --checkpoint-dir`` in-process: metrics JSON equals the
    generated truth, --remove-duplicates persists only first-seen rows, and
    --key-cols reaches the runner's config fingerprint."""
    paths, truth = data
    out, metrics_path = str(tmp_path / "out"), str(tmp_path / "metrics.json")
    argv = [
        "--input", os.path.dirname(paths[0]),
        "--output", out,
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--wave-size", "3",
        "-p", "1e-9",
        "-m", "1MiB",
        "--num-shards", "4",
        "--metrics", metrics_path,
        "--remove-duplicates",
    ]  # fmt: skip
    assert cli.main(argv) == 0
    m = json.load(open(metrics_path))
    _assert_metrics_match_truth(m, truth)
    written = pq.ParquetDataset(out).read(columns=["is_duplicate"])
    assert written.num_rows == m["TURNS"] - m["TURNS_MARKED_DUPLICATE"]
    assert not pc.any(written["is_duplicate"]).as_py()
    with pytest.raises(ValueError, match="mismatch"):
        cli.main(argv + ["--key-cols", "text,tool"])


@pytest.mark.parametrize(
    "flags",
    [
        ["--sort-output"],
        ["--strip-previous"],
    ],
)
def test_cli_checkpoint_dir_rejects_unsupported_flags(tmp_path, capsys, flags):
    argv = [
        "--input", str(tmp_path),
        "--output", str(tmp_path / "out"),
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        *flags,
    ]  # fmt: skip
    assert cli.main(argv) == 2
    assert flags[0] in capsys.readouterr().err


def test_resume_refuses_format_1_manifest(tmp_path):
    """A manifest from before format 2 (hex-encoded pickled sketch states,
    no ``"format"`` key) is refused by name, not misread or restarted."""
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    old = {
        "run_id": "r",
        "config": {},
        "input_files": [],
        "n_waves": 1,
        "waves": {"0": {"status": "done", "sketches": {"convs_hll": "80059500"}}},
    }
    (ckpt / "manifest.json").write_text(json.dumps(old))
    with pytest.raises(ValueError, match="format 1; this engine reads format 2"):
        run_flagship_checkpointed(
            [], ckpt_dir=str(ckpt), output_dir=str(tmp_path / "out")
        )
    assert json.loads((ckpt / "manifest.json").read_text()) == old


@pytest.mark.parametrize("layout", ["classic", "split"])
def test_snapshot_files_decode_to_live_shard_state(ray_session, tmp_path, layout):
    """Each compressed ``shard-{j}.bloom`` decodes to a filter whose bits
    equal live partition j's, whichever host holds it; restoring from
    them reloads the hosts."""
    import ray

    from streammd_ray.sketches import BloomFilter
    from streammd_ray.state.checkpoint import (
        _restore_shards,
        _snapshot_shards,
        decompress,
    )
    from streammd_ray.state.shards import make_shard_actors, partition_stats

    shards = make_shard_actors(2, mem="64KiB", layout=layout)
    try:
        h = np.arange(1, 5_001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        n_hosts = np.uint64(len(shards))
        ray.get(
            [
                s.add.remote(h[h % n_hosts == i], h[h % n_hosts == i] >> np.uint64(7))
                for i, s in enumerate(shards)
            ]
        )
        stats = partition_stats(ray.get([s.stats.remote() for s in shards]))
        _snapshot_shards(shards, stats, str(tmp_path), "wave-0")
        counters = json.loads((tmp_path / "shards" / "wave-0" / "counters.json").read_text())
        assert counters == [{"keys_seen": s["keys_seen"], "dups": s["dups"]} for s in stats]
        live = {}
        for b in ray.get([s.state.remote() for s in shards]):
            host_filter = BloomFilter.from_bytes(b)
            live.update(zip(host_filter.parts, host_filter.partitions))
        assert sorted(live) == [0, 1]
        for j, want in live.items():
            path = tmp_path / "shards" / "wave-0" / f"shard-{j}.bloom"
            raw = path.read_bytes()
            assert len(raw) < want._bits.nbytes  # compressed on disk
            got = BloomFilter.from_bytes(decompress(raw))
            assert type(got) is type(want) and got.n_added == want.n_added
            assert np.array_equal(got._bits, want._bits)
        fresh = make_shard_actors(2, mem="64KiB", layout=layout)
        try:
            _restore_shards(fresh, str(tmp_path), "wave-0")
            reloaded = ray.get([s.state.remote() for s in fresh])
            assert reloaded == ray.get([s.state.remote() for s in shards])
        finally:
            for s in fresh:
                ray.kill(s)
    finally:
        for s in shards:
            ray.kill(s)
